//! An open-loop load generator over one FF8P connection.
//!
//! Requests go out on a precomputed seeded Poisson schedule whether or not
//! earlier ones were answered: one writer thread sends, the calling thread
//! reads replies. Latency is measured from each request's *scheduled* send
//! time, so when anything stalls — the server, or the generator's own
//! writes blocked behind a full socket — the wait lands in the latency of
//! every request queued behind the stall instead of vanishing. How late
//! the writer actually sent is reported separately as lag.

use ff_net::protocol::{encode_frame, read_frame, Frame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offsets from the run's start at which requests are due: a seeded
/// Poisson process of `rate` arrivals per second over `span`.
pub fn poisson_schedule(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= span.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// One request's wire bytes: the length prefix plus the encoded frame,
/// built before the run so encoding never delays a send.
pub fn wire_bytes(frame: &Frame) -> Vec<u8> {
    let body = encode_frame(frame);
    let mut bytes = Vec::with_capacity(body.len() + 4);
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&body);
    bytes
}

/// What happened to one request. Times are nanoseconds from the run's
/// start.
#[derive(Debug, Clone, Default)]
pub struct RequestRecord {
    /// When the schedule said to send.
    pub due_ns: u64,
    /// When the writer began sending (`None` if never sent).
    pub sent_ns: Option<u64>,
    /// When the reply was read (`None` if none arrived).
    pub replied_ns: Option<u64>,
    /// The reply's labels, or `None` for an error reply or none at all.
    pub labels: Option<Vec<u32>>,
}

impl RequestRecord {
    /// Latency from the scheduled send time, or `None` when the request
    /// failed (error reply or no reply).
    pub fn latency_ns(&self) -> Option<u64> {
        match (&self.labels, self.replied_ns) {
            (Some(_), Some(replied)) => Some(replied.saturating_sub(self.due_ns)),
            _ => None,
        }
    }

    /// How late the writer started the send.
    pub fn lag_ns(&self) -> Option<u64> {
        self.sent_ns.map(|sent| sent.saturating_sub(self.due_ns))
    }
}

/// Sends `requests[i]` at `due[i]` (request ids must be `i + 1`) and reads
/// one reply per request in order. Reading stops early when no reply comes
/// for `reply_timeout`; the requests still unanswered then count as
/// failed.
pub fn run(
    stream: TcpStream,
    due: &[Duration],
    requests: &[Vec<u8>],
    max_frame_bytes: usize,
    reply_timeout: Duration,
) -> std::io::Result<Vec<RequestRecord>> {
    assert_eq!(due.len(), requests.len(), "one due time per request");
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(reply_timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = std::io::BufReader::new(stream);
    let mut records: Vec<RequestRecord> = due
        .iter()
        .map(|d| RequestRecord {
            due_ns: d.as_nanos() as u64,
            ..RequestRecord::default()
        })
        .collect();
    let start = Instant::now();
    let since = move || start.elapsed().as_nanos() as u64;
    let sent = std::thread::scope(|scope| {
        let send = scope.spawn(move || {
            let mut sent = Vec::with_capacity(requests.len());
            for (bytes, due) in requests.iter().zip(due) {
                if let Some(wait) = (start + *due).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let at = since();
                if writer.write_all(bytes).is_err() {
                    break;
                }
                sent.push(at);
            }
            sent
        });
        for _ in 0..records.len() {
            let (id, labels) = match read_frame(&mut reader, max_frame_bytes) {
                Ok(Frame::Labels { id, labels }) => (id, Some(labels)),
                Ok(Frame::Error { id, .. }) => (id, None),
                Ok(_) | Err(_) => break,
            };
            let now = since();
            if let Some(record) = usize::try_from(id)
                .ok()
                .and_then(|id| id.checked_sub(1))
                .and_then(|i| records.get_mut(i))
            {
                record.replied_ns = Some(now);
                record.labels = labels;
            }
        }
        // Unblock a writer stuck behind a peer that stopped reading.
        let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        send.join().expect("the writer thread does not panic")
    });
    for (record, at) in records.iter_mut().zip(sent) {
        record.sent_ns = Some(at);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_net::protocol::write_frame;
    use std::net::TcpListener;

    #[test]
    fn schedule_is_seeded_and_near_its_rate() {
        let a = poisson_schedule(200.0, Duration::from_secs(10), 7);
        assert_eq!(a, poisson_schedule(200.0, Duration::from_secs(10), 7));
        assert_ne!(a, poisson_schedule(200.0, Duration::from_secs(10), 8));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A responder that, once connected, neither reads nor replies for
    /// `stall`, then answers every request in order. With requests larger
    /// than the socket buffers, the generator's writer blocks behind it,
    /// so the requests due during the stall leave late.
    fn stalling_responder(stall: Duration) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            std::thread::sleep(stall);
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            while let Ok(frame) = read_frame(&mut reader, usize::MAX) {
                let reply = Frame::Labels {
                    id: frame.id(),
                    labels: vec![1],
                };
                if write_frame(&mut writer, &reply, usize::MAX).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_lands_in_the_latency_of_requests_queued_behind_it() {
        const GAP: Duration = Duration::from_millis(40);
        const STALL: Duration = Duration::from_millis(800);
        // Slack between the responder starting its stall and the run
        // starting its clock.
        const SLACK: Duration = Duration::from_millis(100);
        // 8 MiB per request: more than the loopback socket buffers of a
        // connection that has not been read from yet.
        let features = vec![0.5f32; 2 << 20];
        let requests: Vec<Vec<u8>> = (1..=5u64)
            .map(|id| {
                wire_bytes(&Frame::Predict {
                    id,
                    deadline_micros: 0,
                    features: features.clone(),
                })
            })
            .collect();
        let due: Vec<Duration> = (0..requests.len() as u32).map(|i| GAP * i).collect();
        let (addr, responder) = stalling_responder(STALL);
        let stream = TcpStream::connect(addr).expect("connect");
        let records = run(stream, &due, &requests, 1 << 20, Duration::from_secs(10)).expect("run");
        responder.join().expect("responder");

        assert!(
            records.iter().all(|r| r.latency_ns().is_some()),
            "every request answered"
        );
        // The first request's send starts on time and blocks; every later
        // one is due while the writer is stuck.
        for r in &records[1..] {
            let waited = (STALL - SLACK).as_nanos() as u64 - r.due_ns;
            // Measured from the schedule, the stall shows in full...
            let latency = r.latency_ns().expect("answered");
            assert!(
                latency >= waited,
                "latency {latency} ns hides a {waited} ns stall"
            );
            // ...while timing from the actual send, as a generator that
            // stamps requests when it writes them does, hides most of it.
            let from_send = r.replied_ns.expect("answered") - r.sent_ns.expect("sent");
            assert!(
                from_send < waited / 2,
                "{from_send} ns from send vs {waited} ns stall"
            );
            assert!(
                r.lag_ns().expect("sent") >= waited / 2,
                "lag must report the late send"
            );
        }
    }
}
