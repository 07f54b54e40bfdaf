"""The benchmark's span tracer still finds every function it probes.

bench/spans.py wraps functions where each mechid module looks them up; a
rename in the library would otherwise only surface as a failing traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import mechid.equivariance

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
