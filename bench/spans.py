"""Span tracing around the public functions each mechid module calls.

A probe replaces a function where a module looks it up (a module global or
a class attribute) with a wrapper that records a span: name, start, end,
parent span and operation id. Probes are installed only for the operations
the benchmark traces and removed afterwards, so untraced operations run the
unmodified program. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import mechid.cli
import mechid.equivariance
import mechid.imitation
import mechid.recovery
import mechid.stochastic
import mechid.verify
from mechid.dynamics import NoiseSpec

# Units of the per-layer metrics the tracer computes. run.py adds
# cli.import_s and trace.overhead_ms, which come from timing the worker.
LAYER_UNITS = {
    "linalg.null_space_ms": "ms",
    "linalg.null_space_calls": "count",
    "recovery.recover_linear_encoder.self_ms": "ms",
    "equivariance.offset_identifiability_check_ms": "ms",
    "equivariance.shared_equivariances_ms": "ms",
    "equivariance.linear_commutant_ms": "ms",
    "imitation.imitator_closure.self_ms": "ms",
    "imitation.solves": "count",
    "imitation.found_per_solve": "ratio",
    "verify.membership_equivalence_audit_ms": "ms",
    "stochastic.two_sample_ks_ms": "ms",
    "stochastic.two_sample_energy_ms": "ms",
    "stochastic.stochastic_equivariance_test.self_ms": "ms",
    "dynamics.noise_ppf_ms": "ms",
    "dynamics.noise_ppf_values": "count",
    "cli.parse_config_ms": "ms",
    "cli.run_experiment_ms": "ms",
    "cli.write_ms": "ms",
    "cli.replay_ms": "ms",
}


def _two_sample_name(args, kwargs):
    return "stochastic.two_sample_" + kwargs.get("method", args[2] if len(args) > 2 else "ks")


def _ppf_values(args, kwargs, result):
    return {"dynamics.noise_ppf_values": int(result.size)}


def _closure_found(args, kwargs, result):
    return {"imitation.found": len(result.assignments)}


def _imitation_solve(args, kwargs, result):
    return {"imitation.solves": 1}


# (owner, attribute, span name or namer, counter or None). Each entry is the
# lookup one module makes, so a call is seen where that module makes it.
PROBES = (
    (mechid.recovery, "null_space", "linalg.null_space", None),
    (mechid.equivariance, "null_space", "linalg.null_space", None),
    (mechid.imitation, "null_space", "linalg.null_space", _imitation_solve),
    (mechid.recovery, "recover_linear_encoder", "recovery.recover_linear_encoder", None),
    (mechid.recovery, "offset_identifiability_check", "equivariance.offset_identifiability_check", None),
    (mechid.recovery, "exact_recovery_conditions", "equivariance.exact_recovery_conditions", None),
    (mechid.equivariance, "shared_equivariances", "equivariance.shared_equivariances", None),
    (mechid.equivariance, "linear_commutant", "equivariance.linear_commutant", None),
    (mechid.imitation, "imitator_closure", "imitation.imitator_closure", _closure_found),
    (mechid.verify, "membership_equivalence_audit", "verify.membership_equivalence_audit", None),
    (mechid.stochastic, "two_sample_test", _two_sample_name, None),
    (mechid.stochastic, "stochastic_equivariance_test", "stochastic.stochastic_equivariance_test", None),
    (NoiseSpec, "ppf", "dynamics.noise_ppf", _ppf_values),
    (mechid.cli, "parse_config", "cli.parse_config", None),
    (mechid.cli, "run_experiment", "cli.run_experiment", None),
    (mechid.cli, "dump_json", "cli.dump_json", None),
    (mechid.cli, "file_digest", "cli.file_digest", None),
    (mechid.cli, "_replay_command", "cli.replay", None),
)


class Tracer:
    """Records spans in memory while its probes are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent]
        self.counts: list[tuple[int, dict]] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals = [getattr(owner, attr) for owner, attr, _, _ in PROBES]
        self._wrappers = [self._wrap(orig, name, count) for orig, (_, _, name, count) in zip(self._originals, PROBES)]

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [self._op, label, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts.append((self._op, count(args, kwargs, result)))
            return result

        return probe

    def begin(self, op: int) -> None:
        self._op = op
        for (owner, attr, _, _), probe in zip(PROBES, self._wrappers):
            setattr(owner, attr, probe)

    def end(self) -> None:
        for (owner, attr, _, _), orig in zip(PROBES, self._originals):
            setattr(owner, attr, orig)
        self._op = -1

    def per_op(self, ops) -> dict[str, list[float]]:
        """Per traced operation: inclusive and self seconds per span name, and counts."""
        rows = {op: {} for op in ops}
        child_time = [0.0] * len(self.spans)
        for op, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (op, name, start, end, _) in enumerate(self.spans):
            if op not in rows:
                continue
            row = rows[op]
            row[name] = row.get(name, 0.0) + (end - start)
            row[name + ".self"] = row.get(name + ".self", 0.0) + (end - start - child_time[i])
            row[name + ".calls"] = row.get(name + ".calls", 0) + 1
        for op, counts in self.counts:
            if op in rows:
                for key, value in counts.items():
                    rows[op][key] = rows[op].get(key, 0) + value
        return rows

    def layer_metrics(self, ops) -> dict[str, dict]:
        """Each per-layer figure, with its unit.

        A time is the least over traced operations of the time spent in that
        layer in one operation, as the end-to-end floor is; a count or ratio
        is the median over traced operations.
        """
        rows = list(self.per_op(ops).values())

        def med(fn):
            return statistics.median(fn(r) for r in rows) if rows else 0.0

        def least(fn):
            return min(fn(r) for r in rows) if rows else 0.0

        def ms(key):
            return least(lambda r: 1000.0 * r.get(key, 0.0))

        def found_per_solve(r):
            solves = r.get("imitation.solves", 0)
            return r.get("imitation.found", 0) / solves if solves else 0.0

        values = {
            "linalg.null_space_ms": ms("linalg.null_space"),
            "linalg.null_space_calls": med(lambda r: r.get("linalg.null_space.calls", 0)),
            "recovery.recover_linear_encoder.self_ms": ms("recovery.recover_linear_encoder.self"),
            "equivariance.offset_identifiability_check_ms": ms("equivariance.offset_identifiability_check"),
            "equivariance.shared_equivariances_ms": ms("equivariance.shared_equivariances"),
            "equivariance.linear_commutant_ms": ms("equivariance.linear_commutant"),
            "imitation.imitator_closure.self_ms": ms("imitation.imitator_closure.self"),
            "imitation.solves": med(lambda r: r.get("imitation.solves", 0)),
            "imitation.found_per_solve": med(found_per_solve),
            "verify.membership_equivalence_audit_ms": ms("verify.membership_equivalence_audit"),
            "stochastic.two_sample_ks_ms": ms("stochastic.two_sample_ks"),
            "stochastic.two_sample_energy_ms": ms("stochastic.two_sample_energy"),
            "stochastic.stochastic_equivariance_test.self_ms": ms("stochastic.stochastic_equivariance_test.self"),
            "dynamics.noise_ppf_ms": ms("dynamics.noise_ppf"),
            "dynamics.noise_ppf_values": med(lambda r: r.get("dynamics.noise_ppf_values", 0)),
            "cli.parse_config_ms": ms("cli.parse_config"),
            "cli.run_experiment_ms": ms("cli.run_experiment"),
            "cli.write_ms": least(lambda r: 1000.0 * (r.get("cli.dump_json", 0.0) + r.get("cli.file_digest", 0.0))),
            "cli.replay_ms": ms("cli.replay"),
        }
        return {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in values.items()}

    def dump(self, path) -> None:
        keys = ("op", "name", "start", "end", "parent")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}, fh)
