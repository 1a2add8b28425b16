//! Per-kind frame/byte accounting for a framed wire protocol.

use crate::MetricsRegistry;
use ff_metrics::Counter;

/// Pre-minted per-kind frame and byte counters for one wire protocol,
/// indexed by the protocol's dense kind index (`Frame::kind_index` for
/// `FF8P`, `TrainMsg::kind_index` for `FF8D`).
///
/// Accounting a frame is two atomic adds, with no registry lock and no
/// name formatting. The counters count with or without a registry; with
/// one, they are registered as `<prefix>.<kind>.frames` and
/// `<prefix>.<kind>.bytes` (replacing earlier registrations of those
/// names).
#[derive(Debug, Clone)]
pub struct WireCounters {
    frames: Vec<Counter>,
    bytes: Vec<Counter>,
}

impl WireCounters {
    /// One frame and one byte counter per entry of `kinds`, registered
    /// under `prefix` when `registry` is given.
    pub fn new(registry: Option<&MetricsRegistry>, prefix: &str, kinds: &[&str]) -> Self {
        let mut frames = Vec::with_capacity(kinds.len());
        let mut bytes = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let (f, b) = (Counter::new(), Counter::new());
            if let Some(registry) = registry {
                registry.register_counter(&format!("{prefix}.{kind}.frames"), f.clone());
                registry.register_counter(&format!("{prefix}.{kind}.bytes"), b.clone());
            }
            frames.push(f);
            bytes.push(b);
        }
        WireCounters { frames, bytes }
    }

    /// Accounts one frame of kind `kind_index` whose full wire footprint,
    /// length prefix included, was `wire_bytes`.
    pub fn account(&self, kind_index: usize, wire_bytes: usize) {
        self.frames[kind_index].inc();
        self.bytes[kind_index].add(wire_bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [&str; 3] = ["join", "param_sync", "shard_result"];

    fn counts(wire: &WireCounters) -> (Vec<u64>, Vec<u64>) {
        let get = |c: &Vec<Counter>| c.iter().map(Counter::get).collect();
        (get(&wire.frames), get(&wire.bytes))
    }

    #[test]
    fn with_a_registry_every_kind_is_registered() {
        let registry = MetricsRegistry::new();
        let wire = WireCounters::new(Some(&registry), "dist.wire", &KINDS);
        wire.account(1, 100);
        let snapshot = registry.snapshot();
        assert_eq!(registry.len(), 2 * KINDS.len());
        for kind in KINDS {
            for field in ["frames", "bytes"] {
                let name = format!("dist.wire.{kind}.{field}");
                assert!(snapshot.get(&name).is_some(), "{name} is not registered");
            }
        }
        assert_eq!(registry.counter("dist.wire.param_sync.bytes").get(), 100);
        assert_eq!(counts(&wire), (vec![0, 1, 0], vec![0, 100, 0]));
    }

    #[test]
    fn without_a_registry_it_still_counts() {
        let wire = WireCounters::new(None, "net.wire", &KINDS);
        wire.account(0, 8);
        wire.account(2, 30);
        wire.account(2, 12);
        assert_eq!(counts(&wire), (vec![1, 0, 2], vec![8, 0, 42]));
    }
}
