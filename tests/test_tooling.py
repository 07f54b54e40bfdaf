"""The benchmark's tooling and the experiment scripts still run against the library.

bench/spans.py wraps functions where each mechid module looks them up, and
bench/selftest.py runs one operation of every workload through its checks;
a rename or a changed output in the library would otherwise only surface as
a failing benchmark run. The scripts under scripts/ are run once each at a
small size for the same reason; scripts/bench_pairs.py runs against two
stub checkouts whose bench/run.py prints canned lines, and
scripts/fixture_parity.py against two that share this checkout's code.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mechid.equivariance
import mechid.imitation
import mechid.recovery
from mechid import AffineMechanism, MechanismClass, RecoveryProblem

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_probes_resolve_and_record():
    spans = load_spans()
    tracer = spans.Tracer()
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.PROBES]
    m1 = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    m2 = AffineMechanism(np.diag([3.0, 2.0]), np.array([0.5, 2.0]))
    pairs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0], [0.5, 3.0]])
    problem = RecoveryProblem(pairs, pairs @ m1.M.T + m1.b, m1.M, np.tile(m1.b, (6, 1)))
    calls = (
        lambda: mechid.equivariance.linear_commutant(np.diag([2.0, 3.0])),
        lambda: mechid.imitation.find_affine_intertwiners(m1, m2),
        lambda: mechid.recovery.recover_linear_encoder(problem),
        lambda: mechid.equivariance.shared_equivariances([m1, m2]),
        lambda: mechid.imitation.imitator_closure(MechanismClass(used=(m1, m2))),
    )
    results = []
    try:
        for op, call in enumerate(calls):
            tracer.begin(op)
            results.append(call())
    finally:
        tracer.end()
    assert [getattr(owner, attr) for owner, attr, _, _ in spans.PROBES] == originals
    rows = tracer.per_op(range(len(calls)))
    assert rows[0]["equivariance.linear_commutant.calls"] == 1
    # each constraint solve is one null_space call, wherever its module looks it up
    assert rows[0]["linalg.null_space.calls"] == rows[1]["linalg.null_space.calls"] == 1
    assert rows[1]["imitation.solves"] == 1
    assert rows[3]["equivariance.shared_equivariances.calls"] == 1
    # a shared family is solved one mechanism's block of rows at a time
    assert rows[3]["linalg.null_space.calls"] == 2
    # every node the closure's depth-first search solves is counted where imitation
    # looks null_space up: both one-mechanism prefixes are consistent, so each is
    # solved once and extended to its two complete assignments
    closure = results[4]
    assert closure.candidates_after_pruning == 4
    assert rows[4]["imitation.solves"] == rows[4]["linalg.null_space.calls"] == 2 + 4
    assert rows[4]["imitation.found"] == len(closure.assignments) >= 1
    # the recovery makes one solve; the other is its premise check's
    nested = [
        (tracer.spans[parent][1], name)
        for op, name, _, _, parent in tracer.spans
        if op == 2 and parent >= 0
    ]
    assert sorted(nested) == [
        ("equivariance.exact_recovery_conditions", "linalg.null_space"),
        ("recovery.recover_linear_encoder", "equivariance.exact_recovery_conditions"),
        ("recovery.recover_linear_encoder", "linalg.null_space"),
    ]


def test_benchmark_selftest_passes():
    """One operation of every workload passes its checks, and each check rejects a wrong answer."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "script, args",
    [
        ("alpha_power_curve.py", ["--alphas", "1", "2", "--runs", "2", "--samples", "200", "--workers", "1"]),
        ("commutant_census.py", ["--dims", "2", "--trials", "2"]),
        ("recovery_degeneracy_sweep.py", ["--dims", "2", "--trials", "2"]),
    ],
)
def test_experiment_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


STUB_RUN = """
import argparse, json, os, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag, required=True)
args = ap.parse_args()
assert args.seconds == "20"
here = pathlib.Path(__file__).resolve().parent.parent
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {args.workload} {args.seed} {args.trace}\\n")
base = float((here / "floor_ms").read_text())
floor = base + int(args.seed)
metrics = {"latency_floor_ms": {"value": floor, "unit": "ms"}, "setup_s": {"value": 1.0, "unit": "s"}}
if args.trace == "1":
    metrics = {"stochastic.two_sample_ks_ms": {"value": floor / 2, "unit": "ms"}}
mmap = os.environ.get("MALLOC_MMAP_THRESHOLD_")
print(json.dumps({"environment": {"cores": 2, "side": here.name, "mmap": mmap}}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}))
"""


def make_stub_checkout(path, floor_ms):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(STUB_RUN)
    (path / "floor_ms").write_text(str(floor_ms))
    spec = {"run_seconds": 20, "end_to_end": [
        {"name": "latency_floor_ms", "better": "lower"}, {"name": "setup_s", "better": "lower"}
    ]}
    (path / "BENCHMARK.json").write_text(json.dumps(spec))


def test_bench_pairs_alternates_and_summarizes(tmp_path):
    make_stub_checkout(tmp_path / "parent", 40.0)
    make_stub_checkout(tmp_path / "change", 30.0)
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--runs", "stochastic=3", "cli=1", "--seeds", "5", "11", "3", "--trace", "stochastic",
         "--title", "stub", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    order = (tmp_path / "order.log").read_text().splitlines()
    assert order == [
        "parent stochastic 5 0", "change stochastic 5 0", "parent cli 5 0", "change cli 5 0",
        "change stochastic 11 0", "parent stochastic 11 0",
        "parent stochastic 3 0", "change stochastic 3 0",
        "parent stochastic 5 1", "change stochastic 5 1",
    ]
    doc = json.loads(out.read_text())
    pairs = doc["workloads"]["stochastic"]["pairs"]
    assert [(p["seed"], p["first"]) for p in pairs] == [(5, "parent"), (11, "change"), (3, "parent")]
    assert pairs[1]["change"] == {
        "latency_floor_ms": 41.0, "setup_s": 1.0, "correct": True, "attempted": 10, "failed": 0
    }
    floor = doc["workloads"]["stochastic"]["summary"]["latency_floor_ms"]
    assert floor["parent"] == {"median": 45.0, "q1": 44.0, "q3": 48.0}
    assert floor["change"]["median"] == 35.0
    assert (floor["change_better_pairs"], floor["pairs"]) == (3, 3)
    assert floor["median_ratio_change_over_parent"] == 35.0 / 45.0
    setup = doc["workloads"]["stochastic"]["summary"]["setup_s"]
    assert setup["change_better_pairs"] == 0  # ties count for neither side
    assert doc["workloads"]["cli"]["summary"]["latency_floor_ms"]["pairs"] == 1
    assert doc["trace"]["stochastic"] == {
        "seed": 5,
        "parent": {"stochastic.two_sample_ks_ms": 22.5},
        "change": {"stochastic.two_sample_ks_ms": 17.5},
    }
    # both sides ran with the same fixed allocator thresholds, and the record names them
    pinned = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "134217728"}
    assert doc["environment"] == [
        {"cores": 2, "side": side, "mmap": "33554432", "allocator": pinned} for side in ("parent", "change")
    ]
    assert doc["change"] == "stub"


def test_bench_pairs_can_leave_the_allocator_dynamic(tmp_path):
    make_stub_checkout(tmp_path / "parent", 40.0)
    make_stub_checkout(tmp_path / "change", 30.0)
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--runs", "cli=1", "--seeds", "5", "--default-allocator", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "MALLOC_MMAP_THRESHOLD_": "4096"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(out.read_text())["environment"] == [
        {"cores": 2, "side": side, "mmap": None, "allocator": "glibc defaults"} for side in ("parent", "change")
    ]


def test_fixture_parity_reports_each_run_and_an_edited_fixture(tmp_path, monkeypatch):
    # both stubs run this checkout's code; only the change's simulate fixture differs
    for side in ("parent", "change"):
        (tmp_path / side / "fixtures").mkdir(parents=True)
        (tmp_path / side / "src").symlink_to(ROOT / "src", target_is_directory=True)
        for name in ("commutant_shared", "simulate_shear"):
            (tmp_path / side / "fixtures" / f"{name}.json").write_bytes(
                (ROOT / "fixtures" / f"{name}.json").read_bytes()
            )
    edited = json.loads((ROOT / "fixtures" / "simulate_shear.json").read_text())
    edited["z1"] = [1.0, 2.0]
    (tmp_path / "change" / "fixtures" / "simulate_shear.json").write_text(json.dumps(edited))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fixture_parity.py"),
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["identical"] is False
    runs = doc["runs"]
    assert list(runs) == [
        "commutant_shared-seed0", "commutant_shared-seed3", "commutant_shared-seed0-csv",
        "simulate_shear-seed0", "simulate_shear-seed3",
    ]
    for run in ("commutant_shared-seed0", "commutant_shared-seed3", "commutant_shared-seed0-csv"):
        assert runs[run] == {"exit_status": 0, "differences": [], "replay": "bitwise"}
    for run in ("simulate_shear-seed0", "simulate_shear-seed3"):
        # the parent's manifest still replays: its config echo holds the parent's fixture
        assert runs[run]["replay"] == "bitwise"
        assert runs[run]["differences"] == ["manifest.json", "report.json", "trajectory.csv"]
    # every run wrote into a temporary directory, never into the checkouts
    for side in ("parent", "change"):
        assert sorted(p.name for p in (tmp_path / side).iterdir()) == ["fixtures", "src"]
    # manifests are compared as bytes: only the duration's value is masked, so
    # a float written with other digits, or other spacing, is a difference
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    parity = importlib.import_module("fixture_parity")
    done = subprocess.CompletedProcess([], 0, b"", b"")
    recorded = '{\n  "duration_seconds": 0.0123,\n  "replay_tolerance": 1.0000000000000001e-09\n}\n'
    variants = {
        "timed": recorded.replace("0.0123", "0.25"),
        "digits": recorded.replace("1.0000000000000001e-09", "1e-09"),
        "spacing": recorded.replace(": 1.0", ":1.0"),
    }
    for name, text in {"recorded": recorded, **variants}.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(text)
    for name, want in (("timed", []), ("digits", ["manifest.json"]), ("spacing", ["manifest.json"])):
        assert parity.differences((done, tmp_path / "recorded"), (done, tmp_path / name)) == want, name


def test_bench_pairs_times_each_shipped_fixture(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "fixtures").mkdir(parents=True)
        (tmp_path / side / "src").symlink_to(ROOT / "src", target_is_directory=True)
        (tmp_path / side / "fixtures" / "commutant_shared.json").write_bytes(
            (ROOT / "fixtures" / "commutant_shared.json").read_bytes()
        )
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--fixtures", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert doc["workloads"] == {}
    runs = doc["fixtures"]["runs"]
    assert list(runs) == ["commutant_shared"]
    entry = runs["commutant_shared"]
    assert entry["kind"] == "commutant"
    [pair] = entry["pairs"]
    assert (pair["first"], pair["exit_status"]) == ("parent", 0)
    for side in ("parent", "change"):
        assert entry["summary"][side] == {"min_s": pair[side], "median_s": pair[side]}
        assert pair[side] > 0
    # each run wrote into a temporary directory, never into the checkout
    assert sorted(p.name for p in (tmp_path / "change").iterdir()) == ["fixtures", "src"]
