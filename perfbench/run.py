#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The Rust harness in this directory is built
with cargo (offline, release) into $CARGO_TARGET_DIR, default
`.bench_build`, then run once for the workload, so the process's peak
resident set belongs to that workload alone. The last line of standard
output is the result object; everything else goes to standard error.

A serving workload runs beside one `--idle-poll` process per CPU under
`SCHED_IDLE`: the CPUs never idle, so request latency is the program's
and not the time a halted virtual CPU waits for its host to run it
again (see README.md). The pollers end when this script does.

The metric names and units come from BENCHMARK.json, the single list of
what each mode must print. A traced run fills in 0 for the per-layer
metrics of layers the workload never enters (for example `dist.*` on
`train_local`); every other metric must come from the harness.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metric prefixes each workload measures.
EXERCISED = {
    "train_local": ("core.", "nn.", "quant.", "trace_overhead"),
    "train_cluster": ("core.", "nn.", "quant.", "dist.", "trace_overhead"),
    "serve_low": ("serve.", "loadgen.", "trace_overhead"),
}

# Workloads measured beside CPU pollers.
POLLED = {"serve_low"}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    command = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"build failed: {error}", 2)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}", 2)


def start_pollers(binary):
    """One `SCHED_IDLE` poller pinned to each CPU this process may use."""
    pollers = []
    for cpu in sorted(os.sched_getaffinity(0)):
        def demote(cpu=cpu):
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
            os.sched_setaffinity(0, {cpu})
        pollers.append(subprocess.Popen([binary, "--idle-poll"],
                                        stdin=subprocess.DEVNULL,
                                        preexec_fn=demote))
    return pollers


def stop(pollers):
    for poller in pollers:
        poller.kill()
    for poller in pollers:
        poller.wait()


def expected_metrics(spec, workload, trace):
    """(name -> unit) the harness must print, and the zero-filled rest."""
    if not trace:
        return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {}
    measured, absent = {}, {}
    for metric in spec["per_layer"]:
        target = measured if metric["name"].startswith(EXERCISED[workload]) else absent
        target[metric["name"]] = metric["unit"]
    return measured, absent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", 2)

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    binary = os.path.join(target, "release", "ff-perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pollers = []
    try:
        if args.workload in POLLED:
            pollers = start_pollers(binary)
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"run failed: {error}", 3)
    finally:
        stop(pollers)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line (exit code {done.returncode})", 3)

    measured, absent = expected_metrics(spec, args.workload, args.trace)
    metrics = result.get("metrics", {})
    if set(metrics) != set(measured):
        missing = sorted(set(measured) - set(metrics))
        extra = sorted(set(metrics) - set(measured))
        fail(f"metric set mismatch: missing {missing}, unexpected {extra}", 3)
    for name, unit in measured.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name} has unit {metrics[name]['unit']}, expected {unit}", 3)
    for name, unit in absent.items():
        metrics[name] = {"value": 0, "unit": unit}

    print(json.dumps({
        "correct": bool(result["correct"]) and done.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
