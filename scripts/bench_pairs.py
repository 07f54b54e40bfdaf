#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs and write BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --runs stochastic=10 recover=3 --seeds 5 11 3 7 13 17 19 23 29 31 \\
        --trace stochastic --title "what the change does" --out BENCH_11.json
    python3 scripts/bench_pairs.py --parent ../parent --change . --fixtures 10 --out BENCH_13.json

Both directories are source checkouts that hold ``bench/run.py``. Pair k of
a workload runs ``bench/run.py --workload W --seed seeds[k] --trace 0`` once
in each checkout, one run at a time: the parent first in even pairs, the
change first in odd ones. Pairs are interleaved across workloads, so a slow
spell of the host falls on every workload alike. Each workload listed under
``--trace`` then gets one ``--trace 1`` run per side at the first seed.

The output keeps each run's end-to-end metrics with its correct/attempted/
failed counts, and per workload and metric the median and quartiles
(``statistics.quantiles(method="inclusive")``) of each side, the pairs the
change won (ties count for neither side) and the ratio of the medians.
The run length, the metric names and their directions come from the
change's BENCHMARK.json.

``--fixtures PAIRS`` also times, PAIRS times per side, a fresh
``python3 -m mechid.cli <kind> fixtures/<name>.json --threads 1`` for each
fixture shipped in the change, with the checkout as working directory, its
``src`` as the only PYTHONPATH entry and BLAS pinned to one thread as
bench/run.py pins it. Pair k of every fixture comes after pair k of the
workloads, in the same order. Per fixture the output keeps every pair's
wall seconds, peak RSS and exit status, each side's least and median seconds
and median peak RSS, and the pairs the change won on seconds; a pair whose
sides exit differently is an error. The peak RSS is the fixture process's
own ``ru_maxrss`` as ``os.wait4`` returns it, in MiB.

Every run of either side, fixtures included, gets the same fixed glibc
allocator thresholds, ``ALLOCATOR_ENV``, and the record keeps them with each
environment. Otherwise glibc moves its mmap and trim thresholds as a process
frees large blocks, and two runs of the same code can fault pages in
different steps. ``--default-allocator`` leaves glibc's dynamic thresholds
in place instead.

Each environment also keeps the filesystem of its side's checkout, where
bench/run.py writes its outputs, because what a write costs depends on it:
the type, mount point and options of the mount in ``/proc/self/mountinfo``
whose mount point is the longest prefix of the checkout's path (null where
that file cannot be read).

The file is rewritten after every pair, so a failed run leaves the pairs
before it. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace <0|1>"
PROTOCOL = (
    "Parent and change checkouts side by side; the order within each pair alternates, "
    "parent first in even pairs. One run at a time on the host. Metrics are copied from "
    "each run's result line; environment from its description line."
)
FIXTURE_COMMAND = (
    "python3 -m mechid.cli <kind> fixtures/<name>.json --threads 1 --output-dir <temporary directory>"
)
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# fixed glibc thresholds: blocks up to 32 MiB come from the heap, which is
# trimmed only when 128 MiB at its top are free
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "134217728"}

MOUNTINFO = Path("/proc/self/mountinfo")


class RunError(RuntimeError):
    pass


def _unescape(field: str) -> str:
    """A mountinfo path field with its octal escapes (space as \\040) decoded."""
    return re.sub(r"\\([0-7]{3})", lambda m: chr(int(m.group(1), 8)), field)


def filesystem(path: Path, mountinfo: str) -> dict | None:
    """Type, mount point and options of the mount holding `path`, from the text of a mountinfo file.

    That is the mount whose mount point is the longest prefix of `path`; of
    two at one point, the later line, which is mounted over the other. None
    when no line's mount point is a prefix of `path`.
    """
    found = None
    for line in mountinfo.splitlines():
        fields = line.split()
        point = Path(_unescape(fields[4]))
        if path.is_relative_to(point) and (found is None or len(point.parts) >= len(found[0].parts)):
            found = point, fields
    if found is None:
        return None
    point, fields = found
    tail = fields[fields.index("-") + 1 :]  # type, source, superblock options
    return {"type": tail[0], "mount_point": str(point), "options": fields[5], "super_options": tail[2]}


def run_bench(
    checkout: Path, workload: str, seed: int, seconds: int, trace: int, allocator: dict
) -> tuple[dict, dict]:
    """One bench/run.py call with `allocator` added to the environment: its (description, result) lines."""
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {k: v for k, v in os.environ.items() if k not in ALLOCATOR_ENV}
    env.update(allocator)
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def fixture_kinds(checkout: Path) -> dict[str, str]:
    """Each shipped fixture's name and the experiment kind its document names."""
    paths = sorted((checkout / "fixtures").glob("*.json"))
    return {p.stem: json.loads(p.read_text())["experiment"] for p in paths}


def run_fixture(checkout: Path, kind: str, name: str, allocator: dict) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MiB and exit status of one fresh ``mechid <kind> fixtures/<name>.json``."""
    env = {k: v for k, v in os.environ.items() if k != "MECHID_SEED" and k not in ALLOCATOR_ENV}
    env.update(PINNED_ENV, **allocator, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryFile() as err:
        argv = [sys.executable, "-m", "mechid.cli", kind, f"fixtures/{name}.json"]
        argv += ["--threads", "1", "--output-dir", out]
        t = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the child with its own resource usage
        seconds = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if proc.returncode not in (0, 1, 2) or "Traceback" in stderr:
        raise RunError(f"{checkout}: mechid {kind} fixtures/{name}.json exited {proc.returncode}\n{stderr[-2000:]}")
    return seconds, usage.ru_maxrss / 1024, proc.returncode  # Linux counts ru_maxrss in KiB


def summarize_fixture(pairs: list[dict]) -> dict:
    out = {
        side: {
            "min_s": min(p[side] for p in pairs),
            "median_s": statistics.median(p[side] for p in pairs),
            "median_peak_rss_mb": statistics.median(p["peak_rss_mb"][side] for p in pairs),
        }
        for side in ("parent", "change")
    }
    out["change_better_pairs"] = sum(p["change"] < p["parent"] for p in pairs)
    return out


def side_record(result: dict) -> dict:
    record = {name: m["value"] for name, m in result["metrics"].items()}
    record.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    return record


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, pairs won by the change, median ratio."""
    out = {}
    for name, better in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        out[name] = {
            "parent": spread(parent),
            "change": spread(change),
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "median_ratio_change_over_parent": statistics.median(change) / statistics.median(parent),
        }
    return out


def revision(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def parse_runs(items: list[str]) -> dict[str, int]:
    runs = {}
    for item in items:
        name, sep, count = item.partition("=")
        if not sep or not count.isdigit() or int(count) < 1:
            raise argparse.ArgumentTypeError(f"--runs takes WORKLOAD=PAIRS, got '{item}'")
        runs[name] = int(count)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--runs", nargs="+", default=[], metavar="WORKLOAD=PAIRS")
    ap.add_argument("--seeds", type=int, nargs="+", default=[], help="seed of pair k is the k-th")
    ap.add_argument("--trace", nargs="*", default=[], metavar="WORKLOAD")
    ap.add_argument(
        "--fixtures", type=int, default=0, metavar="PAIRS", help="fresh-process pairs per shipped fixture"
    )
    ap.add_argument(
        "--default-allocator", action="store_true", help="leave glibc's dynamic mmap and trim thresholds in place"
    )
    ap.add_argument("--title", default="", help="what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    try:
        runs = parse_runs(args.runs)
    except argparse.ArgumentTypeError as e:
        ap.error(str(e))
    if args.fixtures < 0 or not runs and not args.fixtures:
        ap.error("nothing to run: give --runs, a positive --fixtures or both")
    needed = max(runs.values(), default=1 if args.trace else 0)
    if needed > len(args.seeds):
        ap.error(f"{needed} pairs need as many seeds, got {len(args.seeds)}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text()) if runs or args.trace else None
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]} if spec else {}
    fixtures = fixture_kinds(sides["change"]) if args.fixtures else {}

    doc = {
        "change": args.title,
        "parent": revision(sides["parent"]),
        "command": COMMAND.format(seconds=spec["run_seconds"]) if spec else None,
        "protocol": PROTOCOL,
        "workloads": {w: {"pairs": [], "summary": {}} for w in runs},
        "trace": {},
        "fixtures": {
            "command": FIXTURE_COMMAND,
            "runs": {name: {"kind": kind, "pairs": [], "summary": {}} for name, kind in fixtures.items()},
        },
        "environment": [],
    }

    allocator = {} if args.default_allocator else ALLOCATOR_ENV
    try:
        mountinfo = MOUNTINFO.read_text()
    except OSError:
        mountinfo = ""
    filesystems = {side: filesystem(checkout, mountinfo) for side, checkout in sides.items()}

    def note_environment(info: dict, side: str) -> None:
        environment = dict(
            info.get("environment") or {},
            allocator=allocator or "glibc defaults",
            filesystem=filesystems[side],
        )
        if environment not in doc["environment"]:
            doc["environment"].append(environment)

    def write() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    try:
        for k in range(max(*runs.values(), args.fixtures, 0)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload, count in runs.items():
                if k >= count:
                    continue
                pair = {"seed": args.seeds[k], "first": order[0], "parent": None, "change": None}
                for side in order:
                    info, result = run_bench(
                        sides[side], workload, args.seeds[k], spec["run_seconds"], 0, allocator
                    )
                    note_environment(info, side)
                    pair[side] = side_record(result)
                entry = doc["workloads"][workload]
                entry["pairs"].append(pair)
                entry["summary"] = summarize(entry["pairs"], metrics)
                print(f"{workload} seed {args.seeds[k]}: " + ", ".join(
                    f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in metrics
                ), flush=True)
                write()
            for name, entry in doc["fixtures"]["runs"].items():
                if k >= args.fixtures:
                    break
                timed = {side: run_fixture(sides[side], entry["kind"], name, allocator) for side in order}
                (parent_s, parent_mb, status), (change_s, change_mb, change_status) = (
                    timed["parent"], timed["change"]
                )
                if status != change_status:
                    raise RunError(
                        f"fixtures/{name}.json exits {status} at the parent, {change_status} changed"
                    )
                pair = {
                    "first": order[0], "parent": parent_s, "change": change_s, "exit_status": status,
                    "peak_rss_mb": {"parent": parent_mb, "change": change_mb},
                }
                entry["pairs"].append(pair)
                entry["summary"] = summarize_fixture(entry["pairs"])
                print(
                    f"{name}: {parent_s:.3f} s -> {change_s:.3f} s, {parent_mb:.2f} -> {change_mb:.2f} MiB",
                    flush=True,
                )
                write()
        for workload in args.trace:
            traced = {"seed": args.seeds[0]}
            for side in ("parent", "change"):
                info, result = run_bench(sides[side], workload, args.seeds[0], spec["run_seconds"], 1, allocator)
                note_environment(info, side)
                traced[side] = {name: m["value"] for name, m in result["metrics"].items()}
            doc["trace"][workload] = traced
            write()
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
