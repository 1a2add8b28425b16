//! Outside-in per-layer tracing: a [`Layer`] decorator that times every
//! forward and backward call of the layer it wraps and counts the work
//! those calls did, without any change to the layer itself.
//!
//! The decorator delegates every trait method. Delegating `name` matters:
//! `ff_core::first_layer_is_dense` decides the input layout from the first
//! layer's name, so a wrapped dense net still trains on flat inputs.

use crate::report::elapsed_ns;
use ff_nn::{ForwardMode, Layer, LayerSnapshot, NnError, ParamRefMut, Sequential};
use ff_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Running totals for one layer. Shared (`Arc`) so replicas of the same
/// layer on several worker threads add into one ledger; every field is a
/// statistic, so `Relaxed` ordering suffices.
#[derive(Debug, Default)]
pub struct LayerLedger {
    forward_ns: AtomicU64,
    backward_ns: AtomicU64,
    forward_calls: AtomicU64,
    backward_calls: AtomicU64,
    forward_macs: AtomicU64,
    backward_macs: AtomicU64,
    plan_builds: AtomicU64,
}

/// A copy of a [`LayerLedger`] at one instant; subtract two to get the
/// work done in between.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Wall time inside `forward`.
    pub forward_ns: u64,
    /// Wall time inside `backward`.
    pub backward_ns: u64,
    /// `forward` calls.
    pub forward_calls: u64,
    /// `backward` calls.
    pub backward_calls: u64,
    /// Multiply–accumulates of the forward calls (`Layer::forward_macs`).
    pub forward_macs: u64,
    /// Multiply–accumulates of the backward calls: the weight-gradient GEMM
    /// plus the input-gradient GEMM, each the size of the forward GEMM.
    pub backward_macs: u64,
    /// INT8 forwards that found the weights changed since the previous INT8
    /// forward, i.e. forwards that rebuilt the layer's packed weight plan.
    pub plan_builds: u64,
}

impl LedgerSnapshot {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            forward_ns: self.forward_ns - earlier.forward_ns,
            backward_ns: self.backward_ns - earlier.backward_ns,
            forward_calls: self.forward_calls - earlier.forward_calls,
            backward_calls: self.backward_calls - earlier.backward_calls,
            forward_macs: self.forward_macs - earlier.forward_macs,
            backward_macs: self.backward_macs - earlier.backward_macs,
            plan_builds: self.plan_builds - earlier.plan_builds,
        }
    }

    /// Wall time in both directions.
    pub fn busy_ns(&self) -> u64 {
        self.forward_ns + self.backward_ns
    }
}

impl LayerLedger {
    /// Reads every total.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LedgerSnapshot {
            forward_ns: get(&self.forward_ns),
            backward_ns: get(&self.backward_ns),
            forward_calls: get(&self.forward_calls),
            backward_calls: get(&self.backward_calls),
            forward_macs: get(&self.forward_macs),
            backward_macs: get(&self.backward_macs),
            plan_builds: get(&self.plan_builds),
        }
    }
}

/// Snapshots of a whole set of ledgers, one per layer.
pub fn snapshot_all(ledgers: &[Arc<LayerLedger>]) -> Vec<LedgerSnapshot> {
    ledgers.iter().map(|l| l.snapshot()).collect()
}

/// Per-layer `after − before`.
pub fn since_all(after: &[LedgerSnapshot], before: &[LedgerSnapshot]) -> Vec<LedgerSnapshot> {
    after.iter().zip(before).map(|(a, b)| a.since(b)).collect()
}

/// The decorator: times and counts every call into `inner`.
pub struct Traced {
    inner: Box<dyn Layer>,
    ledger: Arc<LayerLedger>,
    /// The weight version the last INT8 forward saw.
    seen_version: Option<u64>,
}

impl Traced {
    /// Wraps `inner`, adding into `ledger`.
    pub fn new(inner: Box<dyn Layer>, ledger: Arc<LayerLedger>) -> Self {
        Traced {
            inner,
            ledger,
            seen_version: None,
        }
    }

    /// The first parameter's version counter — the one a cached INT8
    /// weight plan is keyed to.
    fn weight_version(&mut self) -> Option<u64> {
        self.inner
            .params_mut()
            .first()
            .and_then(|p| p.version.as_deref().copied())
    }
}

impl Layer for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forward(&mut self, input: &Tensor, mode: ForwardMode) -> Result<Tensor, NnError> {
        if mode.is_int8() {
            let version = self.weight_version();
            if version.is_some() && version != self.seen_version {
                self.ledger.plan_builds.fetch_add(1, Ordering::Relaxed);
                self.seen_version = version;
            }
        }
        let macs = self.inner.forward_macs(input.rows());
        let start = Instant::now();
        let out = self.inner.forward(input, mode);
        self.ledger
            .forward_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        self.ledger.forward_calls.fetch_add(1, Ordering::Relaxed);
        self.ledger.forward_macs.fetch_add(macs, Ordering::Relaxed);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let macs = 2 * self.inner.forward_macs(grad_output.rows());
        let start = Instant::now();
        let out = self.inner.backward(grad_output);
        self.ledger
            .backward_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        self.ledger.backward_calls.fetch_add(1, Ordering::Relaxed);
        self.ledger.backward_macs.fetch_add(macs, Ordering::Relaxed);
        out
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        self.inner.params_mut()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn forward_macs(&self, batch: usize) -> u64 {
        self.inner.forward_macs(batch)
    }

    fn snapshot(&self) -> Option<LayerSnapshot> {
        self.inner.snapshot()
    }
}

/// Wraps every layer of `net` in place, adding into `ledgers[k]` for layer
/// `k`. Several replicas of one net may share the same ledgers.
pub fn wrap(net: &mut Sequential, ledgers: &[Arc<LayerLedger>]) {
    assert_eq!(net.len(), ledgers.len(), "one ledger per layer");
    for (slot, ledger) in net.layers_mut().iter_mut().zip(ledgers) {
        let inner = std::mem::replace(slot, Box::new(ff_nn::Flatten::new()));
        *slot = Box::new(Traced::new(inner, Arc::clone(ledger)));
    }
}

/// Fresh ledgers for a net of `layers` layers.
pub fn ledgers(layers: usize) -> Vec<Arc<LayerLedger>> {
    (0..layers)
        .map(|_| Arc::new(LayerLedger::default()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::weight_hash;
    use ff_core::{Algorithm, TrainOptions, TrainSession};
    use ff_data::{synthetic_mnist, SyntheticConfig};
    use ff_models::small_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn train(wrapped: bool, algorithm: Algorithm, grad_shards: usize) -> (u64, Vec<f32>) {
        let (train_set, test_set) = synthetic_mnist(&SyntheticConfig {
            train_size: 64,
            test_size: 16,
            noise_std: 0.3,
            max_shift: 1,
            seed: 5,
        });
        let mut net = small_mlp(784, &[24, 16], 10, &mut StdRng::seed_from_u64(3));
        let ledgers = ledgers(net.len());
        if wrapped {
            wrap(&mut net, &ledgers);
        }
        let options = TrainOptions {
            epochs: 2,
            batch_size: 16,
            max_eval_samples: 16,
            grad_shards,
            ..TrainOptions::fast_test()
        }
        .with_lambda_schedule(0.01, 0.01, 0.05);
        let history = TrainSession::new(&mut net, &train_set, &test_set, algorithm, &options)
            .expect("session")
            .run()
            .expect("training");
        if wrapped {
            let totals = snapshot_all(&ledgers);
            assert!(totals
                .iter()
                .all(|t| t.forward_calls > 0 && t.backward_calls > 0));
            let int8 = algorithm.is_int8();
            assert!(totals.iter().all(|t| (t.plan_builds > 0) == int8));
        }
        let losses = history.records().iter().map(|r| r.train_loss).collect();
        (weight_hash(&mut net), losses)
    }

    #[test]
    fn training_through_the_decorator_is_bit_exact() {
        for (algorithm, shards) in [
            (Algorithm::FfInt8 { lookahead: true }, 1),
            (Algorithm::FfInt8 { lookahead: false }, 2),
            (Algorithm::FfFp32 { lookahead: true }, 1),
        ] {
            let plain = train(false, algorithm, shards);
            let traced = train(true, algorithm, shards);
            assert_eq!(plain.0, traced.0, "{algorithm:?} weights diverged");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&plain.1),
                bits(&traced.1),
                "{algorithm:?} losses diverged"
            );
        }
    }

    #[test]
    fn counts_calls_work_and_plan_builds() {
        let mut net = small_mlp(6, &[5], 3, &mut StdRng::seed_from_u64(1));
        let ledgers = ledgers(net.len());
        wrap(&mut net, &ledgers);
        assert!(ff_core::first_layer_is_dense(&net));
        let mode = ForwardMode::Int8(ff_quant::Rounding::Nearest);
        let x = Tensor::ones(&[4, 6]);
        net.forward(&x, mode).expect("forward");
        net.forward(&x, mode).expect("forward");
        net.backward(&Tensor::ones(&[4, 3])).expect("backward");
        let first = ledgers[0].snapshot();
        assert_eq!(first.forward_calls, 2);
        assert_eq!(first.backward_calls, 1);
        assert_eq!(first.forward_macs, 2 * 4 * 6 * 5);
        assert_eq!(first.backward_macs, 2 * 4 * 6 * 5);
        // Unchanged weights: the second forward reuses the plan.
        assert_eq!(first.plan_builds, 1);
        for mut p in net.params_mut() {
            p.mark_updated();
        }
        net.forward(&x, mode).expect("forward");
        assert_eq!(ledgers[0].snapshot().plan_builds, 2);
    }
}
