"""The benchmark's tooling still runs against the library.

bench/spans.py wraps functions where each mechid module looks them up, and
bench/selftest.py runs one operation of every workload through its checks;
a rename or a changed output in the library would otherwise only surface as
a failing benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import mechid.equivariance

BENCH = Path(__file__).resolve().parent.parent / "bench"
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
