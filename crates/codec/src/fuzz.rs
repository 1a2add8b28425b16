//! One deterministic robustness harness for the framed `FF8P` and `FF8D`
//! wire protocols. A suite builds a [`Harness`] from its sample corpus
//! (every kind at every supported version) and plain decode, re-encode,
//! stream-read and error-classification functions, then runs the checks.
//! No sampling and no clock: every run feeds the same bytes.

use crate::frame;
use std::fmt::Debug;

/// How the harness reads one protocol error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A typed decode error. Protocols that fold an oversized frame into
    /// their decode error report it as this too.
    Malformed,
    /// The stream ended before a whole frame arrived.
    Eof,
    /// The declared frame length exceeds the reader's limit.
    Oversize,
}

/// A protocol under test. `M` is whatever the decoder returns (typically
/// the message with its declared version), so `encode` can reproduce the
/// exact dialect.
pub struct Harness<M, E> {
    /// Encoded samples: every kind at every supported version.
    pub artifacts: Vec<Vec<u8>>,
    /// Decodes one artifact.
    pub decode: fn(&[u8]) -> Result<M, E>,
    /// Re-encodes a decoded value in the dialect it was decoded from.
    pub encode: fn(&M) -> Vec<u8>,
    /// Reads one framed artifact off a stream at the protocol's limit.
    pub read: fn(&mut &[u8]) -> Result<M, E>,
    /// Classifies an error; `None` marks a kind no check expects.
    pub fault: fn(&E) -> Option<Fault>,
}

impl<M, E: Debug> Harness<M, E> {
    fn expect(&self, result: Result<M, E>, allowed: &[Fault], what: impl Fn() -> String) {
        match result.map_err(|e| ((self.fault)(&e), e)) {
            Err((Some(fault), _)) if allowed.contains(&fault) => {}
            Err((_, e)) => panic!("{}: gave {e:?}, expected {allowed:?}", what()),
            Ok(_) => panic!("{}: decoded, expected {allowed:?}", what()),
        }
    }

    /// Every strict prefix of every sample is a typed decode error.
    pub fn check_truncations(&self) {
        for (i, bytes) in self.artifacts.iter().enumerate() {
            for len in 0..bytes.len() {
                let result = (self.decode)(&bytes[..len]);
                self.expect(result, &[Fault::Malformed], || {
                    format!("sample {i} cut at {len}")
                });
            }
        }
    }

    /// Every single-byte flip of every sample, under four masks, is a
    /// typed error or decodes to a value whose re-encoding decodes.
    pub fn check_flips(&self) {
        for (i, bytes) in self.artifacts.iter().enumerate() {
            for (offset, mask) in
                (0..bytes.len()).flat_map(|o| [0x01, 0x80, 0xA5, 0xFF].map(|m| (o, m)))
            {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= mask;
                let what = || format!("sample {i}: flip {mask:#04x} at {offset}");
                match (self.decode)(&corrupt) {
                    Ok(decoded) => {
                        if let Err(e) = (self.decode)(&(self.encode)(&decoded)) {
                            panic!("{}: its re-encoding gave {e:?}", what());
                        }
                    }
                    result => self.expect(result, &[Fault::Malformed], what),
                }
            }
        }
    }

    /// The samples framed back to back with [`frame::write`] (whose count
    /// must equal the bytes it appended) read back and re-encode to
    /// exactly their bytes, then EOF;
    /// every cut of a framed sample is EOF or a decode error; a `u32::MAX`
    /// length prefix is refused without reading the payload.
    pub fn check_stream(&self) {
        let mut wire = Vec::new();
        for (i, bytes) in self.artifacts.iter().enumerate() {
            let before = wire.len();
            let written = frame::write(&mut wire, bytes, usize::MAX).expect("framing into a Vec");
            assert_eq!(written, wire.len() - before, "sample {i}: writer's count");
        }
        let mut stream = &wire[..];
        for (i, bytes) in self.artifacts.iter().enumerate() {
            let read = (self.read)(&mut stream).unwrap_or_else(|e| panic!("sample {i}: {e:?}"));
            assert_eq!(&(self.encode)(&read), bytes, "sample {i} reads back");
        }
        self.expect((self.read)(&mut stream), &[Fault::Eof], || "drained".into());
        for (i, bytes) in self.artifacts.iter().enumerate() {
            let mut framed = Vec::new();
            frame::write(&mut framed, bytes, usize::MAX).expect("framing into a Vec");
            for len in 0..framed.len() {
                let result = (self.read)(&mut &framed[..len]);
                let allowed = [Fault::Eof, Fault::Malformed];
                self.expect(result, &allowed, || {
                    format!("sample {i}: stream cut at {len}")
                });
            }
        }
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 16]);
        let allowed = [Fault::Oversize, Fault::Malformed];
        self.expect((self.read)(&mut &hostile[..]), &allowed, || {
            "hostile prefix".into()
        });
    }

    /// Seeded random byte strings of every length up to 256, raw and
    /// behind a matching length prefix, never panic the decoder or the
    /// stream reader; any outcome is accepted.
    pub fn check_garbage(&self) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=256u32 {
            let mut framed = len.to_le_bytes().to_vec();
            framed.extend((0..len).map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            }));
            let _ = (self.decode)(&framed[4..]);
            let _ = (self.read)(&mut &framed[4..]);
            let _ = (self.read)(&mut &framed[..]);
        }
    }
}
