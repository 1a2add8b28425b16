//! Length-prefixed stream framing shared by the `FF8P` and `FF8D` wire
//! protocols: each artifact travels as a little-endian `u32` byte length
//! followed by exactly that many bytes (see the `ff-codec` section of
//! `ARCHITECTURE.md`).
//!
//! ```
//! use ff_codec::frame::{self, FrameError};
//!
//! let mut wire = Vec::new();
//! assert_eq!(frame::write(&mut wire, b"FF8X....", 1024).unwrap(), 12);
//! let mut stream = &wire[..];
//! assert_eq!(frame::read(&mut stream, 1024).unwrap(), b"FF8X....");
//! assert!(matches!(frame::read(&mut stream, 1024), Err(FrameError::Eof)));
//! ```

use std::io::{self, Read, Write};

/// Bytes of the `u32` length prefix in front of every frame.
pub const PREFIX_BYTES: usize = 4;

/// Largest payload chunk a reader allocates before any payload byte has
/// arrived.
pub const FIRST_CHUNK_BYTES: usize = 64 * 1024;

/// Why one frame could not be moved across a stream. Each protocol maps
/// it onto its own error type.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended before a whole frame arrived.
    Eof,
    /// The frame's length (declared by the peer on read, the artifact's
    /// own on write) exceeds the caller's limit.
    Oversize {
        /// The offending length in bytes.
        len: usize,
        /// The limit it exceeds.
        max: usize,
    },
    /// Any other I/O failure (timeouts, resets, ...), verbatim.
    Io(io::Error),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Eof
        } else {
            FrameError::Io(e)
        }
    }
}

/// Writes `artifact` as one frame and flushes, returning the wire bytes
/// written (artifact plus prefix).
///
/// # Errors
///
/// [`FrameError::Oversize`] when `artifact` exceeds `max` or the `u32`
/// prefix, checked before anything is written so the stream stays
/// synchronized; [`FrameError::Io`] on socket failures.
pub fn write(writer: &mut impl Write, artifact: &[u8], max: usize) -> Result<usize, FrameError> {
    let len = artifact.len();
    let prefix = match u32::try_from(len) {
        Ok(prefix) if len <= max => prefix,
        _ => return Err(FrameError::Oversize { len, max }),
    };
    writer.write_all(&prefix.to_le_bytes())?;
    writer.write_all(artifact)?;
    writer.flush()?;
    Ok(len + PREFIX_BYTES)
}

/// Reads one frame and returns its artifact bytes. The declared length is
/// checked against `max` before any payload is read, and the buffer grows
/// as bytes arrive ([`fill_growing`]).
///
/// # Errors
///
/// [`FrameError::Eof`] when the stream ends before the whole frame,
/// [`FrameError::Oversize`] when the declared length exceeds `max`,
/// [`FrameError::Io`] on other read failures.
pub fn read(reader: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut buf = Vec::new();
    read_into(reader, max, &mut buf)?;
    Ok(buf)
}

fn read_into(reader: &mut impl Read, max: usize, buf: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut prefix = [0u8; PREFIX_BYTES];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max {
        return Err(FrameError::Oversize { len, max });
    }
    fill_growing(buf, len, |chunk| Ok(reader.read_exact(chunk)?))
}

/// Grows `buf` to `len` bytes one zeroed chunk at a time, handing each new
/// chunk to `fill`, which must fill it completely. The first chunk is at
/// most [`FIRST_CHUNK_BYTES`], each later one doubles the buffer, and the
/// capacity never exceeds `len`: a peer that declares a huge frame and
/// then stalls or hangs up holds memory bounded by what it sent.
///
/// # Errors
///
/// Whatever `fill` returns; `buf` keeps the chunks filled so far.
pub fn fill_growing<E>(
    buf: &mut Vec<u8>,
    len: usize,
    mut fill: impl FnMut(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    while buf.len() < len {
        let start = buf.len();
        let end = if start == 0 {
            len.min(FIRST_CHUNK_BYTES)
        } else {
            len.min(start * 2)
        };
        buf.reserve_exact(end - start);
        buf.resize(end, 0);
        fill(&mut buf[start..])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_peer_that_declares_the_maximum_and_hangs_up_costs_one_chunk() {
        const MAX: usize = 64 << 20;
        let mut wire = (MAX as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[1u8; 10]);
        let mut buf = Vec::new();
        let outcome = read_into(&mut &wire[..], MAX, &mut buf);
        assert!(matches!(outcome, Err(FrameError::Eof)), "{outcome:?}");
        assert!(buf.capacity() <= FIRST_CHUNK_BYTES, "{}", buf.capacity());
    }

    #[test]
    fn growth_doubles_and_stops_at_the_declared_length() {
        let (k, len) = (FIRST_CHUNK_BYTES, 5 * FIRST_CHUNK_BYTES + 3);
        let (mut buf, mut chunks) = (Vec::new(), Vec::new());
        fill_growing(&mut buf, len, |chunk| {
            chunks.push(chunk.len());
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(chunks, [k, k, 2 * k, k + 3]);
        assert_eq!((buf.len(), buf.capacity()), (len, len));
    }
}
