"""Benchmark entry point for mechid.

    python3 bench/run.py --workload recover --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout. It starts the workload in fresh
interpreters (bench/worker.py) with BLAS and OpenMP pinned to one thread:
SETUPS - 1 that stop right before the first timed operation, then one that
also runs the timed closed loop. It prints one JSON line describing the run
and, as its last line, the result: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. This file uses only the standard
library; mechid, numpy and scipy are imported by the workers.

An operation is a fixed sequence of steps, one library call each, and the
worker times every step. ``latency_floor_ms`` adds up, over the steps, each
step's fastest time in the run: the operation's latency on a CPU that no
other tenant slows. Medians and tails of whole operations are printed on the
description line; they follow the host's load and are not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("recover", "identify", "stochastic", "cli")
SETUPS = 3
TAIL_BEYOND = 10
SETUP_TIMEOUT_S = 40

# One thread everywhere: the machine's cores are shared, and a second BLAS
# thread would turn other tenants' load into run-to-run noise.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def worker(args, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MECHID_SEED"}
    env.update(PINNED_ENV)
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else SETUP_TIMEOUT_S + args.seconds + 60
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv + ["--spawned-at", repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def floor_seconds(steps: list[dict]) -> float:
    """Sum over the step names of each step's fastest time across the operations."""
    return sum(min(op[name] for op in steps) for name in steps[0])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mechid" / "__init__.py").is_file():
        print(f"error: no mechid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [worker(args, setup_only=True) for _ in range(SETUPS - 1)]
        run = worker(args, setup_only=False)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(run)

    lat = sorted(run["latencies"])
    n = len(lat)
    if n <= TAIL_BEYOND:
        print(f"error: only {n} timed operations; {args.seconds} s is too short", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": n,
        "tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 1),
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * lat[n - 1 - TAIL_BEYOND],
        "step_floor_ms": {k: 1000.0 * min(op[k] for op in run["steps"]) for k in run["steps"][0]},
        "setup_samples_s": [s["setup_s"] for s in setups],
        "problems": run["problems"],
        "errors": run["errors"],
        "environment": run["environment"],
    }
    if args.trace:
        metrics = run["layers"]
        metrics["cli.import_s"] = metric(statistics.median(s["import_s"] for s in setups), "s")
        overhead = floor_seconds(run["traced_steps"]) - floor_seconds(run["steps"])
        metrics["trace.overhead_ms"] = metric(1000.0 * overhead, "ms")
    else:
        metrics = {
            "latency_floor_ms": metric(1000.0 * floor_seconds(run["steps"]), "ms"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MiB"),
            "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(info, metrics=metrics)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(info))
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
