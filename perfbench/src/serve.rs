//! The serving workload `serve_low`: the frozen paper MLP served in
//! goodness mode through `NetServer`, under open-loop seeded Poisson load
//! over one connection at a fixed 20 req/s. Arrivals almost always come
//! alone, so the batcher's wait, the per-request fixed cost and the
//! goodness GEMM sweep of one request make up the latency.
//!
//! The rate is a constant, never calibrated per host, so two hosts (or
//! two commits) are offered the same load.

use crate::loadgen::{self, RequestRecord};
use crate::probes;
use crate::report::{
    median, ms, peak_rss_mb, reset_peak_rss, windowed_percentile, windows_for, Report,
};
use crate::{paper_net, Args, CLASSES, INPUT};
use ff_data::{synthetic_mnist, SyntheticConfig};
use ff_net::protocol::{Frame, DEFAULT_MAX_FRAME_BYTES};
use ff_net::{Client, NetConfig, NetServer};
use ff_nn::Sequential;
use ff_serve::{BatchPolicy, FrozenModel, ServeConfig, ServeMode, ServerStats, TraceSettings};
use ff_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Distinct request rows; requests draw from them at random.
const POOL: usize = 128;
/// Closed-loop requests that warm a fresh server before its phase.
const WARMUP: usize = 4;
/// How long the generator waits for a reply before calling the rest
/// missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests per second, offered open loop.
const RATE: f64 = 20.0;
/// Percentile reported as `loadgen.tail_ms`: the highest with at least ten
/// samples beyond it in each window at the benchmark's run length.
const TAIL: f64 = 90.0;

/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// about 40 ms, so several are cheap and steady the median.
const SETUPS: usize = 9;

fn net_config(traced: bool) -> NetConfig {
    NetConfig {
        conn_threads: 2,
        read_timeout: Duration::from_millis(50),
        serve: ServeConfig {
            workers: 2,
            mode: ServeMode::Goodness,
            policy: BatchPolicy::default(),
            gemm_threads: 1,
            trace: if traced {
                TraceSettings {
                    enabled: true,
                    capacity: 8192,
                    sample_per_sec: u32::MAX,
                    ..TraceSettings::default()
                }
            } else {
                TraceSettings::disabled()
            },
        },
        ..NetConfig::default()
    }
}

/// The seeded request rows and the labels `FrozenModel::predict_goodness`
/// gives them — what every served reply must equal.
struct Inputs {
    net: Sequential,
    pool: Tensor,
    expected: Vec<u32>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let net = paper_net(seed ^ 0x5e7e);
    let (_, test) = synthetic_mnist(&SyntheticConfig {
        train_size: 0,
        test_size: POOL,
        noise_std: 0.25,
        max_shift: 2,
        seed,
    });
    let pool = test
        .images()
        .reshape(&[POOL, INPUT])
        .map_err(|e| format!("request pool: {e}"))?;
    let model = FrozenModel::freeze(&net, CLASSES).map_err(|e| format!("freeze: {e}"))?;
    let expected = model
        .predict_goodness(&pool)
        .map_err(|e| format!("reference predictions: {e}"))?
        .into_iter()
        .map(|l| l as u32)
        .collect();
    Ok(Inputs {
        net,
        pool,
        expected,
    })
}

/// What one phase on one fresh server measured.
struct PhaseRun {
    setup_s: f64,
    records: Vec<RequestRecord>,
    picks: Vec<usize>,
    /// Server statistics over the phase alone (warm-up excluded from the
    /// counts; the stage summaries include the few warm-up waves).
    stats: ServerStats,
    mean_batch: f64,
    /// Peak resident set while the load ran.
    peak_rss_mb: f64,
    model: FrozenModel,
}

fn run_phase(
    inputs: &Inputs,
    rate: f64,
    span: Duration,
    seed: u64,
    traced: bool,
) -> Result<PhaseRun, String> {
    let start = Instant::now();
    let model = FrozenModel::freeze(&inputs.net, CLASSES).map_err(|e| format!("freeze: {e}"))?;
    let server = NetServer::bind(model.clone(), "127.0.0.1:0", net_config(traced))
        .map_err(|e| format!("bind: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    for i in 0..WARMUP {
        client
            .predict(inputs.pool.row(i % POOL))
            .map_err(|e| format!("warm-up request: {e}"))?;
    }
    client.close();

    let due = loadgen::poisson_schedule(rate, span, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let picks: Vec<usize> = due.iter().map(|_| rng.gen_range(0..POOL)).collect();
    let requests: Vec<Vec<u8>> = picks
        .iter()
        .enumerate()
        .map(|(i, &pick)| {
            loadgen::wire_bytes(&Frame::Predict {
                id: i as u64 + 1,
                deadline_micros: 0,
                features: inputs.pool.row(pick).to_vec(),
            })
        })
        .collect();
    let before = server.handle().stats();
    reset_peak_rss()?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let records = loadgen::run(
        stream,
        &due,
        &requests,
        DEFAULT_MAX_FRAME_BYTES,
        REPLY_TIMEOUT,
    )
    .map_err(|e| format!("load generator: {e}"))?;
    let peak_rss_mb = peak_rss_mb()?;
    let stats = server.handle().stats();
    server.shutdown();
    let mean_batch =
        (stats.requests - before.requests) as f64 / (stats.batches - before.batches).max(1) as f64;
    Ok(PhaseRun {
        setup_s,
        records,
        picks,
        stats,
        mean_batch,
        peak_rss_mb,
        model,
    })
}

impl PhaseRun {
    /// Latencies in ms from the scheduled send; failures are infinite.
    fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.latency_ns().map_or(f64::INFINITY, |ns| ms(ns as f64)))
            .collect()
    }

    /// Percentile `p` of the latencies, as the median over windows sized
    /// for percentile `tail` (see [`windows_for`]).
    fn windowed(&self, p: f64, tail: f64) -> f64 {
        let latencies = self.latencies_ms();
        windowed_percentile(&latencies, p, windows_for(latencies.len(), tail))
    }

    fn failed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.latency_ns().is_none())
            .count() as u64
    }

    fn check_labels(&self, inputs: &Inputs, report: &mut Report) {
        let wrong = self
            .records
            .iter()
            .zip(&self.picks)
            .filter(|(r, &pick)| {
                r.labels
                    .as_ref()
                    .is_some_and(|labels| labels.as_slice() != [inputs.expected[pick]])
            })
            .count();
        report.check(wrong == 0, || {
            format!("{wrong} served labels differ from FrozenModel::predict_goodness")
        });
    }

    fn max_lag_ms(&self) -> f64 {
        ms(self
            .records
            .iter()
            .filter_map(RequestRecord::lag_ns)
            .max()
            .unwrap_or(0) as f64)
    }
}

/// Runs one serving workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let inputs = inputs(args.seed)?;
    let mut report = Report::default();
    if args.trace {
        traced_run(args, &inputs, &mut report)?;
    } else {
        untraced_run(args, &inputs, &mut report)?;
    }
    Ok(report)
}

fn count(report: &mut Report, inputs: &Inputs, run: &PhaseRun) {
    run.check_labels(inputs, report);
    report.attempted += run.records.len() as u64;
    report.failed += run.failed();
}

fn untraced_run(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    // The measured phase sets up one server; the extra set-ups make
    // `setup_s` a median.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let start = Instant::now();
        let model =
            FrozenModel::freeze(&inputs.net, CLASSES).map_err(|e| format!("freeze: {e}"))?;
        let server = NetServer::bind(model, "127.0.0.1:0", net_config(false))
            .map_err(|e| format!("bind: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        server.shutdown();
    }
    let run = run_phase(inputs, RATE, args.seconds, args.seed, false)?;
    setup_s.push(run.setup_s);
    count(report, inputs, &run);
    report.put("setup_s", median(&setup_s), "s");
    report.put("peak_rss_mb", run.peak_rss_mb, "MiB");
    report.put("p50_ms", run.windowed(50.0, TAIL), "ms");
    Ok(())
}

fn traced_run(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    // Half the run on an untraced server, half on a capture-all traced
    // one; the per-layer numbers come from the traced half.
    let span = args.seconds / 2;
    let plain = run_phase(inputs, RATE, span, args.seed, false)?;
    let traced = run_phase(inputs, RATE, span, args.seed, true)?;
    count(report, inputs, &plain);
    count(report, inputs, &traced);
    let stages = &traced.stats.stages;
    let p50 = |d: Duration| d.as_secs_f64() * 1e3;
    report.put("serve.queue_p50_ms", p50(stages.queue.p50), "ms");
    report.put("serve.assembly_p50_ms", p50(stages.assembly.p50), "ms");
    report.put("serve.gemm_p50_ms", p50(stages.gemm.p50), "ms");
    report.put("serve.write_p50_ms", p50(stages.write.p50), "ms");
    report.put("serve.mean_batch", traced.mean_batch, "requests");
    report.put("loadgen.max_lag_ms", traced.max_lag_ms(), "ms");

    // Replay one wave of the measured mean size through the public
    // kernels.
    let rows = (traced.mean_batch.round() as usize).max(1);
    let batch = inputs
        .pool
        .select_rows(&(0..rows).map(|i| i % POOL).collect::<Vec<_>>())
        .map_err(|e| format!("replay rows: {e}"))?;
    let (layers, sweep_ns) =
        probes::serve_replay(&traced.model, &batch, Duration::from_millis(1500));
    let mut parts_ns = 0.0;
    for (k, layer) in layers.iter().enumerate() {
        report.put(
            format!("serve.L{k}.quantize_ms"),
            ms(layer.quantize_ns),
            "ms",
        );
        report.put(format!("serve.L{k}.gemm_ms"), ms(layer.gemm_ns), "ms");
        report.put(format!("serve.L{k}.gops"), layer.gops, "GOPS");
        parts_ns += layer.quantize_ns + layer.gemm_ns;
    }
    report.put("serve.sweep_ms", ms(sweep_ns), "ms");
    report.put("serve.sweep_other_ms", ms(sweep_ns - parts_ns), "ms");
    report.put("loadgen.tail_ms", plain.windowed(TAIL, TAIL), "ms");
    report.put(
        "trace_overhead",
        traced.windowed(50.0, TAIL) / plain.windowed(50.0, TAIL),
        "x",
    );
    Ok(())
}
