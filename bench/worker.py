"""One workload in a fresh interpreter: import, set up, warm up, then a timed closed loop.

Started by run.py, which passes the monotonic time at which it spawned this
interpreter, so set-up time covers interpreter start, the import of mechid,
building the inputs and the warm-up. With --setup-only the process stops
right before the first timed operation. The result is one JSON line on
standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WARMUP_OPS = 2
REPIN_EVERY_S = 0.25


def _probe() -> float:
    t = time.perf_counter()
    s = 0
    for k in range(20000):
        s += k * k
    return time.perf_counter() - t


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process to the allowed CPU that runs a short probe fastest.

    On the shared host each vCPU switches on its own between a fast and a
    slow level about 1.4x apart, for moments or for seconds at a time.
    Choosing again every REPIN_EVERY_S seconds keeps more steps off a slowed
    vCPU.
    """
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        seconds = min(_probe(), _probe())
        if best is None or seconds < best[0]:
            best = (seconds, cpu)
    os.sched_setaffinity(0, {best[1]})


def environment(cpus) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cpus_allowed": len(cpus),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cpus = sorted(os.sched_getaffinity(0))
    pin_to_fastest_cpu(cpus)
    sys.path.insert(0, str(ROOT / "src"))
    t = time.perf_counter()
    import mechid.cli  # noqa: F401  (the whole package, scipy included)

    import_s = time.perf_counter() - t

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"cli-{os.getpid()}"
    try:
        return measure(args, workloads.make(args.workload, args.seed, workdir), import_s, cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, import_s: float, cpus) -> int:
    import workloads
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    problems, errors = [], []
    next_pin = 0.0

    def attempt(i: int):
        """Run and check operation i.

        Returns its seconds (None if it raised), its seconds per step and
        whether it was traced.
        """
        nonlocal next_pin
        # In a traced run every other operation is traced; the untraced ones
        # give the baseline for the tracing overhead.
        traced = tracer is not None and i % 2 == 1
        if time.monotonic() >= next_pin:
            pin_to_fastest_cpu(cpus)
            next_pin = time.monotonic() + REPIN_EVERY_S
        steps = {}

        def step(name, fn, *a, **kw):
            t = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                steps[name] = steps.get(name, 0.0) + time.perf_counter() - t

        if traced:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            out = wl.run(i, step)
            seconds = time.perf_counter() - t0
        except Exception as e:  # an operation that raises counts as failed
            errors.append(f"operation {i} raised {type(e).__name__}: {e}")
            return None, steps, traced
        finally:
            if traced:
                tracer.end()
        try:
            wl.check(i, out)
        except workloads.CheckFailed as e:
            problems.append(f"operation {i}: {e}")
        return seconds, steps, traced

    for i in range(-WARMUP_OPS, 0):
        attempt(i)
    if tracer is not None:
        tracer.spans.clear()
        tracer.counts.clear()
    gc.collect()
    gc.freeze()

    first = time.monotonic()
    setup_s = first - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    latencies, steps, traced_steps, traced_ops = [], [], [], []
    failed = 0
    i = 0
    deadline = first + args.seconds
    while True:
        seconds, op_steps, traced = attempt(i)
        if seconds is None:
            failed += 1
        elif traced:
            traced_steps.append(op_steps)
            traced_ops.append(i)
        else:
            latencies.append(seconds)
            steps.append(op_steps)
        i += 1
        if time.monotonic() >= deadline:
            break
    try:
        wl.finish()
    except workloads.CheckFailed as e:
        problems.append(str(e))

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "attempted": i,
        "failed": failed,
        "problems": problems[:20],
        "errors": errors[:20],
        "latencies": latencies,
        "steps": steps,
        "traced_steps": traced_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(cpus),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(traced_ops)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
