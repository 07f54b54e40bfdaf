"""The benchmark's tooling and the experiment scripts still run against the library.

bench/spans.py wraps functions where each mechid module looks them up, and
bench/selftest.py runs one operation of every workload through its checks;
a rename or a changed output in the library would otherwise only surface as
a failing benchmark run. The scripts under scripts/ are run once each at a
small size for the same reason.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mechid.equivariance

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
    tracer.begin(0)
    try:
        mechid.equivariance.linear_commutant(np.diag([2.0, 3.0]))
    finally:
        tracer.end()
    assert [getattr(owner, attr) for owner, attr, _, _ in spans.PROBES] == originals
    row = tracer.per_op([0])[0]
    assert row["equivariance.linear_commutant.calls"] == 1
    assert row["linalg.null_space.calls"] == 1


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
