//! The repository benchmark: three seeded workloads over the public API of
//! the FF-INT8 workspace, each measured end to end and, in a separate
//! traced run, layer by layer from outside the program.
//!
//! ```text
//! ff-perfbench --workload <train_local|train_cluster|serve_low>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer ledger.
//! A failed output check prints `"correct": false` and exits non-zero.
//! See `README.md` next to this crate for the design.
//!
//! `ff-perfbench --idle-poll` is the CPU poller `run.py` starts beside a
//! serving run (see [`idle_poll`]).

#![forbid(unsafe_code)]

mod ledger;
mod loadgen;
mod probes;
mod report;
mod serve;
mod train;

use ff_nn::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// Input features of the paper's MNIST MLP, every workload's model.
pub const INPUT: usize = 784;
/// Its hidden widths.
pub const HIDDEN: [usize; 2] = [2000, 2000];
/// Its classes.
pub const CLASSES: usize = 10;

/// The paper MLP, 784 → 2000 → 2000 → 10, initialised from `seed`.
pub fn paper_net(seed: u64) -> Sequential {
    ff_models::small_mlp(INPUT, &HIDDEN, CLASSES, &mut StdRng::seed_from_u64(seed))
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: Duration,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Spins with the CPU's pause hint until the parent process exits, and
/// never sleeps. `run.py` starts one per CPU under `SCHED_IDLE` beside a
/// serving run, so the scheduler runs it only when nothing else wants the
/// CPU: the CPU never idles, and a request that wakes a server thread no
/// longer waits for a halted virtual CPU to be rescheduled by its host.
fn idle_poll() -> ExitCode {
    let parent = std::os::unix::process::parent_id();
    while std::os::unix::process::parent_id() == parent {
        for _ in 0..10_000 {
            std::hint::spin_loop();
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--idle-poll") {
        return idle_poll();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ff-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "train_local" => train::run(&args, &train::LOCAL),
        "train_cluster" => train::run(&args, &train::CLUSTER),
        "serve_low" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(report) => {
            let ok = report.correct();
            println!("{}", report.to_json());
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("ff-perfbench: {} failed: {message}", args.workload);
            ExitCode::FAILURE
        }
    }
}
