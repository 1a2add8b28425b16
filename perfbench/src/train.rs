//! The training workloads: `train_local` (sequential FF-INT8 with
//! look-ahead) and `train_cluster` (FF-INT8 without look-ahead over a
//! persistent 2-worker loopback FF8D cluster).
//!
//! A run repeats fixed-length *rounds* until its time budget is spent. Each
//! round rewinds the net to the set-up weights and the trainer to its
//! pristine state, then trains `steps_per_round` timed steps, so every
//! round of a seed ends on the same bits. That is what lets one run check
//! determinism, the cluster against a sequential reference, and the traced
//! rounds against the untraced ones.

use crate::ledger::{self, LayerLedger, LedgerSnapshot};
use crate::probes;
use crate::report::{
    elapsed_ns, median, ms, peak_rss_mb, percentile, reset_peak_rss, weight_hash, Report,
};
use crate::{paper_net, Args, CLASSES, HIDDEN, INPUT};
use ff_core::{
    FfTrainer, Precision, SessionControl, SessionStatus, StepSpans, TrainEvent, TrainOptions,
    TrainSession, TrainerCore, TrainerState,
};
use ff_data::{synthetic_mnist, Dataset, SyntheticConfig};
use ff_dist::protocol::TrainMsg;
use ff_dist::worker::WorkerReport;
use ff_dist::{Coordinator, CoordinatorConfig, Worker};
use ff_nn::Sequential;
use ff_tensor::Tensor;
use ff_trace::{ClusterSpan, MetricsRegistry, TraceSettings};
use std::cell::RefCell;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LAYERS: usize = HIDDEN.len() + 1;
/// The paper's batch size.
const BATCH: usize = 32;
/// Test samples scored by the final goodness-sweep evaluation.
const TEST_SAMPLES: usize = 256;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed steps that fill caches and connections before the first round.
const WARMUP_STEPS: usize = 2;
/// Look-ahead coefficient of `train_local`, in force from the first step
/// (the paper's schedule reaches this value after one epoch).
const LAMBDA: f32 = 0.001;
/// Percentile of untraced step times reported as `core.step_tail_ms`.
const TAIL: f64 = 90.0;
/// Shard results a worker may take before the coordinator recomputes the
/// shard itself; generous, so a slow host never silently shifts work.
const SHARD_TIMEOUT: Duration = Duration::from_secs(30);

/// One training workload's fixed shape.
#[derive(Debug)]
pub struct TrainWorkload {
    /// Look-ahead on (λ > 0 from the first step) or off (λ = 0).
    pub lookahead: bool,
    /// Row shards per batch (`TrainOptions::grad_shards`).
    pub grad_shards: usize,
    /// Loopback FF8D workers; 0 trains in-process.
    pub workers: usize,
    /// Timed steps per round.
    pub steps_per_round: usize,
}

/// Sequential FF-INT8 with look-ahead: the paper's headline configuration.
pub const LOCAL: TrainWorkload = TrainWorkload {
    lookahead: true,
    grad_shards: 1,
    workers: 0,
    steps_per_round: 8,
};

/// FF-INT8 at λ = 0 over a 2-worker loopback cluster.
pub const CLUSTER: TrainWorkload = TrainWorkload {
    lookahead: false,
    grad_shards: 2,
    workers: 2,
    steps_per_round: 6,
};

fn options(w: &TrainWorkload, seed: u64) -> TrainOptions {
    TrainOptions {
        epochs: 1,
        batch_size: BATCH,
        learning_rate: 0.02,
        momentum: 0.9,
        max_eval_samples: TEST_SAMPLES,
        seed,
        grad_shards: w.grad_shards,
        ..TrainOptions::default()
    }
    .with_lambda_schedule(LAMBDA, 0.0, LAMBDA)
}

/// Seeded inputs. The training set holds one batch more than a round
/// consumes, so no round ever reaches the end of its epoch (which would
/// run an evaluation inside the last timed step).
fn datasets(w: &TrainWorkload, seed: u64) -> (Dataset, Dataset) {
    synthetic_mnist(&SyntheticConfig {
        train_size: (w.steps_per_round + 1) * BATCH,
        test_size: TEST_SAMPLES,
        noise_std: 0.25,
        max_shift: 2,
        seed,
    })
}

fn net_seed(seed: u64) -> u64 {
    seed ^ 0x5eed_f1e7
}

/// A running loopback FF8D cluster.
struct Cluster {
    coordinator: Coordinator,
    workers: Vec<JoinHandle<ff_dist::Result<WorkerReport>>>,
}

impl Cluster {
    fn start(
        workers: usize,
        registry: Option<MetricsRegistry>,
        replica_ledgers: Option<Vec<Arc<LayerLedger>>>,
    ) -> Result<Cluster, String> {
        let trace = if registry.is_some() {
            TraceSettings {
                enabled: true,
                capacity: 4096,
                sample_per_sec: u32::MAX,
                ..TraceSettings::default()
            }
        } else {
            TraceSettings::disabled()
        };
        let coordinator = Coordinator::bind(
            "127.0.0.1:0",
            CoordinatorConfig {
                shard_timeout: SHARD_TIMEOUT,
                metrics: registry,
                trace,
                ..CoordinatorConfig::default()
            },
        )
        .map_err(|e| format!("binding the coordinator: {e}"))?;
        let addr = coordinator.addr();
        let handles = (0..workers)
            .map(|i| {
                let replica_ledgers = replica_ledgers.clone();
                std::thread::spawn(move || {
                    // Replica values are irrelevant: the first ParamSync
                    // overwrites them.
                    let mut replica = paper_net(i as u64);
                    if let Some(ledgers) = &replica_ledgers {
                        ledger::wrap(&mut replica, ledgers);
                    }
                    Worker::connect(addr, "", &mut replica)
                })
            })
            .collect();
        let cluster = Cluster {
            coordinator,
            workers: handles,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while cluster.coordinator.worker_count() < workers {
            if Instant::now() > deadline || cluster.workers.iter().any(|h| h.is_finished()) {
                cluster.stop()?;
                return Err("workers did not join the coordinator".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(cluster)
    }

    fn stop(mut self) -> Result<(), String> {
        self.coordinator.shutdown();
        for handle in self.workers.drain(..) {
            handle
                .join()
                .map_err(|_| "a worker thread panicked".to_string())?
                .map_err(|e| format!("worker failed: {e}"))?;
        }
        Ok(())
    }
}

/// Everything one training set-up builds: inputs, the net, its trainer
/// and, for the cluster workload, the cluster.
struct Rig {
    train_set: Dataset,
    test_set: Dataset,
    net: Sequential,
    weights: Vec<Tensor>,
    trainer: Box<dyn TrainerCore>,
    pristine: TrainerState,
    cluster: Option<Cluster>,
    /// Per-layer ledgers of `net` (traced rigs only).
    ledgers: Option<Vec<Arc<LayerLedger>>>,
    /// Per-layer ledgers shared by the worker replicas (traced cluster).
    replica_ledgers: Option<Vec<Arc<LayerLedger>>>,
    registry: Option<MetricsRegistry>,
}

impl Rig {
    /// Builds a rig from nothing: the timed set-up of a run.
    fn setup(w: &TrainWorkload, seed: u64, traced: bool) -> Result<Rig, String> {
        let (train_set, test_set) = datasets(w, seed);
        let mut net = paper_net(net_seed(seed));
        let weights = net.params_mut().iter().map(|p| p.value.clone()).collect();
        let ledgers = traced.then(|| ledger::ledgers(LAYERS));
        if let Some(ledgers) = &ledgers {
            ledger::wrap(&mut net, ledgers);
        }
        let options = options(w, seed);
        let mut cluster = None;
        let mut replica_ledgers = None;
        let mut registry = None;
        let trainer: Box<dyn TrainerCore> = if w.workers == 0 {
            Box::new(FfTrainer::new(Precision::Int8, w.lookahead, options))
        } else {
            registry = traced.then(MetricsRegistry::new);
            replica_ledgers = traced.then(|| ledger::ledgers(LAYERS));
            let mut started = Cluster::start(w.workers, registry.clone(), replica_ledgers.clone())?;
            let trainer = started
                .coordinator
                .trainer(Precision::Int8, w.lookahead, options)
                .map_err(|e| format!("cluster trainer: {e}"))?;
            cluster = Some(started);
            Box::new(trainer)
        };
        let pristine = trainer.export_state();
        Ok(Rig {
            train_set,
            test_set,
            net,
            weights,
            trainer,
            pristine,
            cluster,
            ledgers,
            replica_ledgers,
            registry,
        })
    }

    fn teardown(self) -> Result<(), String> {
        drop(self.trainer);
        match self.cluster {
            Some(cluster) => cluster.stop(),
            None => Ok(()),
        }
    }

    /// Rewinds the net to the set-up weights and the trainer to its
    /// pristine state.
    fn rewind(&mut self) -> Result<(), String> {
        for (mut param, value) in self.net.params_mut().into_iter().zip(&self.weights) {
            param.value.data_mut().copy_from_slice(value.data());
            param.grad.scale_inplace(0.0);
            param.mark_updated();
        }
        self.trainer
            .import_state(&self.pristine, &mut self.net)
            .map_err(|e| format!("rewinding the trainer: {e}"))
    }

    /// Trains one round of `steps` timed steps from the rewound state.
    fn round(&mut self, steps: usize) -> Result<Round, String> {
        self.rewind()?;
        let events: RefCell<Vec<(f32, StepSpans)>> = RefCell::new(Vec::with_capacity(steps));
        let mut step_ns = Vec::with_capacity(steps);
        let before = self.ledger_snapshots();
        {
            let mut session = TrainSession::with_trainer(
                &mut self.net,
                &self.train_set,
                &self.test_set,
                &mut *self.trainer,
            )
            .map_err(|e| format!("session: {e}"))?;
            session.on_event(|event| {
                if let TrainEvent::StepEnd { loss, spans, .. } = event {
                    events.borrow_mut().push((*loss, *spans));
                }
                SessionControl::Continue
            });
            for _ in 0..steps {
                let start = Instant::now();
                let status = session.step().map_err(|e| format!("training step: {e}"))?;
                step_ns.push(elapsed_ns(start));
                if status != SessionStatus::Running {
                    return Err(format!("a round step ended its epoch ({status:?})"));
                }
            }
        }
        let after = self.ledger_snapshots();
        let (losses, spans) = events.into_inner().into_iter().unzip();
        Ok(Round {
            step_ns,
            losses,
            spans,
            net_layers: ledger::since_all(&after.0, &before.0),
            replica_layers: ledger::since_all(&after.1, &before.1),
            hash: weight_hash(&mut self.net),
        })
    }

    /// Scores the test set with the trainer's goodness sweep, on whatever
    /// state the last round left. Returns `(accuracy, wall ns)`.
    fn evaluate(&mut self) -> Result<(f64, u64), String> {
        let mut session = TrainSession::with_trainer(
            &mut self.net,
            &self.train_set,
            &self.test_set,
            &mut *self.trainer,
        )
        .map_err(|e| format!("session: {e}"))?;
        let start = Instant::now();
        let accuracy = session.eval().map_err(|e| format!("evaluation: {e}"))?;
        Ok((f64::from(accuracy), elapsed_ns(start)))
    }

    fn ledger_snapshots(&self) -> (Vec<LedgerSnapshot>, Vec<LedgerSnapshot>) {
        let snap = |l: &Option<Vec<Arc<LayerLedger>>>| {
            l.as_deref().map(ledger::snapshot_all).unwrap_or_default()
        };
        (snap(&self.ledgers), snap(&self.replica_ledgers))
    }

    /// The cluster's transport counters now (all zero without a
    /// registry).
    fn wire_counts(&self) -> WireCounts {
        let counter = |name: &str| self.registry.as_ref().map_or(0, |r| r.counter(name).get());
        WireCounts {
            frames: TrainMsg::kind_names()
                .iter()
                .map(|k| counter(&format!("dist.wire.{k}.frames")))
                .sum(),
            bytes: TrainMsg::kind_names()
                .iter()
                .map(|k| (*k, counter(&format!("dist.wire.{k}.bytes"))))
                .collect(),
            shards_local: counter("dist.coord.shards_local"),
            shards_remote: counter("dist.coord.shards_remote"),
        }
    }
}

/// FF8D transport counters at one instant.
struct WireCounts {
    /// Frames of every kind, both directions.
    frames: u64,
    /// Bytes per frame kind.
    bytes: Vec<(&'static str, u64)>,
    /// Shards the coordinator computed itself.
    shards_local: u64,
    /// Shards workers returned.
    shards_remote: u64,
}

/// Wire traffic per traced step between two counter readings.
fn wire_metrics(report: &mut Report, before: &WireCounts, after: &WireCounts, steps: f64) {
    let bytes = |kind: &str| -> f64 {
        let of = |c: &WireCounts| {
            c.bytes
                .iter()
                .find(|(k, _)| *k == kind)
                .map_or(0, |(_, b)| *b)
        };
        (of(after) - of(before)) as f64
    };
    let total: f64 = after.bytes.iter().map(|(k, _)| bytes(k)).sum();
    report.put("dist.param_sync_bytes", bytes("param_sync") / steps, "B");
    report.put(
        "dist.submit_batch_bytes",
        bytes("submit_batch") / steps,
        "B",
    );
    report.put(
        "dist.shard_result_bytes",
        bytes("shard_result") / steps,
        "B",
    );
    report.put(
        "dist.frames",
        (after.frames - before.frames) as f64 / steps,
        "count",
    );
    report.put(
        "dist.param_sync_byte_share",
        bytes("param_sync") / total,
        "fraction",
    );
    let local = after.shards_local - before.shards_local;
    let remote = after.shards_remote - before.shards_remote;
    report.put(
        "dist.recompute_share",
        local as f64 / (local + remote).max(1) as f64,
        "fraction",
    );
}

/// One round's record.
struct Round {
    step_ns: Vec<u64>,
    losses: Vec<f32>,
    spans: Vec<StepSpans>,
    net_layers: Vec<LedgerSnapshot>,
    replica_layers: Vec<LedgerSnapshot>,
    hash: u64,
}

impl Round {
    fn steps(&self) -> f64 {
        self.step_ns.len() as f64
    }

    fn step_ns_total(&self) -> u64 {
        self.step_ns.iter().sum()
    }

    fn mean_loss(&self) -> f64 {
        self.losses.iter().map(|&l| f64::from(l)).sum::<f64>() / self.steps()
    }
}

/// Every timed step's wall time, in milliseconds.
fn steps_ms(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.step_ns.iter().map(|&ns| ms(ns as f64)))
        .collect()
}

/// The weights a sequential `FfTrainer` with the same sharding reaches in
/// one round: the cluster's bit-exactness reference.
fn sequential_reference(w: &TrainWorkload, seed: u64, steps: usize) -> Result<u64, String> {
    let local = TrainWorkload { workers: 0, ..*w };
    let mut rig = Rig::setup(&local, seed, false)?;
    let hash = rig.round(steps)?.hash;
    rig.teardown()?;
    Ok(hash)
}

/// Runs one training workload.
pub fn run(args: &Args, w: &TrainWorkload) -> Result<Report, String> {
    let mut report = Report::default();
    // Computed before anything is timed: the cluster must land on the
    // bits of the sequential sharded trainer.
    let reference = if w.workers > 0 {
        Some(sequential_reference(w, args.seed, w.steps_per_round)?)
    } else {
        None
    };
    if args.trace {
        traced_run(args, w, reference, &mut report)?;
    } else {
        untraced_run(args, w, reference, &mut report)?;
    }
    Ok(report)
}

fn check_rounds(report: &mut Report, rounds: &[&Round], reference: Option<u64>) {
    let first = rounds[0].hash;
    report.check(rounds.iter().all(|r| r.hash == first), || {
        "rounds from the same state ended on different weights".to_string()
    });
    if let Some(reference) = reference {
        report.check(first == reference, || {
            "cluster weights differ from the sequential sharded reference".to_string()
        });
    }
    report.check(
        rounds
            .iter()
            .all(|r| r.losses.iter().all(|l| l.is_finite())),
        || "a training loss is not finite".to_string(),
    );
}

fn untraced_run(
    args: &Args,
    w: &TrainWorkload,
    reference: Option<u64>,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUPS {
        // Tear down first, so the peak resident set never holds two rigs.
        if let Some(old) = rig.take() {
            old.teardown()?;
        }
        let start = Instant::now();
        rig = Some(Rig::setup(w, args.seed, false)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    rig.round(WARMUP_STEPS)?;

    // Each round's own peak resident set: the allocator's reuse of freed
    // blocks varies with thread timing, so one whole-run peak is noisier
    // than the median of per-round peaks.
    let deadline = Instant::now() + args.seconds;
    let mut rounds = Vec::new();
    let mut peaks = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        reset_peak_rss()?;
        rounds.push(rig.round(w.steps_per_round)?);
        peaks.push(peak_rss_mb()?);
    }
    rig.teardown()?;

    let refs: Vec<&Round> = rounds.iter().collect();
    check_rounds(report, &refs, reference);
    report.attempted = rounds.iter().map(|r| r.step_ns.len() as u64).sum();
    report.put("setup_s", median(&setup_s), "s");
    report.put("peak_rss_mb", median(&peaks), "MiB");
    report.put("p50_ms", percentile(&steps_ms(&rounds), 50.0), "ms");
    Ok(())
}

fn traced_run(
    args: &Args,
    w: &TrainWorkload,
    reference: Option<u64>,
    report: &mut Report,
) -> Result<(), String> {
    let mut plain = Rig::setup(w, args.seed, false)?;
    let mut traced = Rig::setup(w, args.seed, true)?;
    plain.round(WARMUP_STEPS)?;
    traced.round(WARMUP_STEPS)?;

    let wire_before = traced.wire_counts();

    // Alternate untraced and traced rounds so both see the same host state.
    let deadline = Instant::now() + args.seconds;
    let mut plain_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    while traced_rounds.is_empty() || Instant::now() < deadline {
        plain_rounds.push(plain.round(w.steps_per_round)?);
        traced_rounds.push(traced.round(w.steps_per_round)?);
    }
    let traced_steps: f64 = traced_rounds.iter().map(Round::steps).sum();
    let (accuracy, eval_ns) = traced.evaluate()?;

    let all: Vec<&Round> = plain_rounds.iter().chain(&traced_rounds).collect();
    check_rounds(report, &all, reference);
    report.attempted = all.iter().map(|r| r.step_ns.len() as u64).sum();

    // Step ledger: outside-in step time, StepSpans, and every Layer call
    // made on the trained net.
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&traced_rounds.iter().map(f).collect::<Vec<_>>())
    };
    let spans_sum =
        |r: &Round, f: fn(&StepSpans) -> u64| -> f64 { r.spans.iter().map(f).sum::<u64>() as f64 };
    let layer_ns =
        |r: &Round| -> f64 { r.net_layers.iter().map(|l| l.busy_ns()).sum::<u64>() as f64 };
    for r in &traced_rounds {
        let forward = spans_sum(r, |s| s.forward_ns);
        let inside = spans_sum(r, StepSpans::total_ns);
        report.check(layer_ns(r) <= forward, || {
            format!(
                "Layer calls ({:.3} ms) exceed the trainer's forward span ({:.3} ms)",
                ms(layer_ns(r)),
                ms(forward)
            )
        });
        report.check(inside <= r.step_ns_total() as f64, || {
            "StepSpans exceed the step's outside wall clock".to_string()
        });
    }
    let step_ms = per_round(&|r| ms(r.step_ns_total() as f64) / r.steps());
    report.put("core.step_ms", step_ms, "ms");
    report.put(
        "core.prepare_ms",
        per_round(&|r| ms(spans_sum(r, |s| s.quantize_ns)) / r.steps()),
        "ms",
    );
    report.put(
        "core.update_ms",
        per_round(&|r| ms(spans_sum(r, |s| s.update_ns)) / r.steps()),
        "ms",
    );
    report.put(
        "core.other_ms",
        per_round(&|r| ms(spans_sum(r, |s| s.forward_ns) - layer_ns(r)) / r.steps()),
        "ms",
    );
    report.put(
        "core.unattributed_share",
        per_round(&|r| {
            let total = r.step_ns_total() as f64;
            (total - spans_sum(r, StepSpans::total_ns)) / total
        }),
        "fraction",
    );
    report.put("core.eval_ms", ms(eval_ns as f64), "ms");
    report.put("core.eval_accuracy", accuracy, "fraction");
    report.put("core.train_loss", traced_rounds[0].mean_loss(), "loss");

    // Per-layer ledger: the trained net locally, the worker replicas on
    // the cluster (which is where the cluster's Layer calls happen).
    let layers_of = |r: &Round| -> Vec<LedgerSnapshot> {
        if w.workers > 0 {
            r.replica_layers.clone()
        } else {
            r.net_layers.clone()
        }
    };
    let rows = BATCH / w.grad_shards;
    let dims = layer_dims();
    let probe_budget = Duration::from_millis(400);
    for (k, &(fan_in, fan_out)) in dims.iter().enumerate() {
        let at = |f: &dyn Fn(&LedgerSnapshot, f64) -> f64| {
            per_round(&|r| f(&layers_of(r)[k], r.steps()))
        };
        let forward_gops = at(&|l, _| 2.0 * l.forward_macs as f64 / l.forward_ns as f64);
        report.put(
            format!("nn.L{k}.forward_ms"),
            at(&|l, s| ms(l.forward_ns as f64) / s),
            "ms",
        );
        report.put(
            format!("nn.L{k}.backward_ms"),
            at(&|l, s| ms(l.backward_ns as f64) / s),
            "ms",
        );
        report.put(
            format!("nn.L{k}.forward_calls"),
            at(&|l, s| l.forward_calls as f64 / s),
            "count",
        );
        report.put(
            format!("nn.L{k}.backward_calls"),
            at(&|l, s| l.backward_calls as f64 / s),
            "count",
        );
        report.put(format!("nn.L{k}.forward_gops"), forward_gops, "GOPS");
        report.put(
            format!("nn.L{k}.backward_gops"),
            at(&|l, _| 2.0 * l.backward_macs as f64 / l.backward_ns as f64),
            "GOPS",
        );
        report.put(
            format!("quant.L{k}.plan_builds"),
            at(&|l, s| l.plan_builds as f64 / s / w.workers.max(1) as f64),
            "count",
        );
        let kernel = probes::kernel_gops(rows, fan_in, fan_out, probe_budget, args.seed);
        report.put(format!("quant.L{k}.kernel_gops"), kernel, "GOPS");
        report.put(
            format!("quant.L{k}.kernel_share"),
            forward_gops / kernel,
            "fraction",
        );
    }

    if let Some(cluster) = &traced.cluster {
        let spans: Vec<ClusterSpan> = cluster
            .coordinator
            .cluster_traces(0)
            .into_iter()
            .filter(|s| s.step >= WARMUP_STEPS as u64)
            .collect();
        report.check(
            spans.len() as f64 == traced_steps && spans.iter().all(|s| s.is_complete()),
            || {
                format!(
                    "{} complete cluster spans for {traced_steps} traced steps",
                    spans.len()
                )
            },
        );
        dist_metrics(report, &spans);
        wire_metrics(report, &wire_before, &traced.wire_counts(), traced_steps);
    }

    let plain_ms = median(
        &plain_rounds
            .iter()
            .map(|r| r.step_ns_total() as f64 / r.steps())
            .collect::<Vec<_>>(),
    );
    report.put("trace_overhead", step_ms * 1e6 / plain_ms, "x");
    report.put(
        "core.step_tail_ms",
        percentile(&steps_ms(&plain_rounds), TAIL),
        "ms",
    );
    plain.teardown()?;
    traced.teardown()?;
    Ok(())
}

/// `(fan_in, fan_out)` of every dense layer of the paper MLP.
fn layer_dims() -> Vec<(usize, usize)> {
    let mut dims = Vec::with_capacity(LAYERS);
    let mut fan_in = INPUT;
    for &width in HIDDEN.iter().chain(&[CLASSES]) {
        dims.push((fan_in, width));
        fan_in = width;
    }
    dims
}

/// Cluster phase, worker and transit times from the coordinator's spans
/// (medians over traced steps).
fn dist_metrics(report: &mut Report, spans: &[ClusterSpan]) {
    let phase = |f: fn(&ClusterSpan) -> u64| -> f64 {
        ms(median(
            &spans.iter().map(|s| f(s) as f64).collect::<Vec<_>>(),
        ))
    };
    report.put("dist.prepare_ms", phase(|s| s.prepare_done_ns), "ms");
    report.put(
        "dist.sync_ms",
        phase(|s| s.sync_done_ns - s.prepare_done_ns),
        "ms",
    );
    report.put(
        "dist.dispatch_ms",
        phase(|s| s.dispatch_done_ns - s.sync_done_ns),
        "ms",
    );
    report.put(
        "dist.collect_ms",
        phase(|s| s.collect_done_ns - s.dispatch_done_ns),
        "ms",
    );
    report.put(
        "dist.reduce_ms",
        phase(|s| s.reduce_done_ns - s.collect_done_ns),
        "ms",
    );
    report.put(
        "dist.apply_ms",
        phase(|s| s.apply_done_ns - s.reduce_done_ns),
        "ms",
    );
    // The collect phase minus the slowest shard's own worker time: what
    // the wire (and scheduling) added on top of computing.
    report.put(
        "dist.transit_ms",
        phase(|s| {
            let slowest = s.shards.iter().map(|sh| sh.encoded_ns).max().unwrap_or(0);
            (s.collect_done_ns - s.dispatch_done_ns).saturating_sub(slowest)
        }),
        "ms",
    );
    let shards: Vec<_> = spans
        .iter()
        .flat_map(|s| s.shards.iter())
        .filter(|sh| sh.has_worker_stamps())
        .collect();
    let worker = |f: &dyn Fn(&ff_trace::ShardSpan) -> u64| -> f64 {
        ms(median(
            &shards.iter().map(|sh| f(sh) as f64).collect::<Vec<_>>(),
        ))
    };
    report.put("dist.worker.decode_ms", worker(&|sh| sh.decoded_ns), "ms");
    report.put(
        "dist.worker.compute_ms",
        worker(&|sh| sh.computed_ns - sh.decoded_ns),
        "ms",
    );
    report.put(
        "dist.worker.encode_ms",
        worker(&|sh| sh.encoded_ns - sh.computed_ns),
        "ms",
    );
}
