"""Experiment runners: typed configs in, reports and tables out.

Each runner is pure in its config, whose `seed` it reads: identical inputs
give identical outputs, including the order of table rows, independent of
thread count.
The `verdict` drives the process exit status; when a config carries an
`expect` block the verdict is whether every expectation held, otherwise it
is the experiment's intrinsic pass flag.

A report names the library's own result objects (`{"audit": AuditReport}`),
which `jsonio.dump_json` renders field by field, so a field added to a
result type reaches report.json with no edit here. Values derived from
those fields go in the summary. Simulate's result is its trajectory, which
is written as a table; its report repeats the summary with the start state
and schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import (
    CommutantConfig,
    ImitateConfig,
    RecoverConfig,
    SimulateConfig,
    StochasticTestConfig,
    VerifyConfig,
)
from .dynamics import Trajectory, simulate
from .equivariance import (
    exact_recovery_conditions,
    offset_identifiability_check,
    shared_equivariances,
)
from .imitation import MechanismClass, cycle_analysis, imitator_closure
from .recovery import RecoveryProblem, compare_up_to_class, recover_linear_encoder
from .stochastic import signed_perm_offset_test, stochastic_equivariance_test
from .verify import membership_equivalence_audit

__all__ = ["ExperimentOutcome", "run_experiment"]


@dataclass(frozen=True, eq=False)
class ExperimentOutcome:
    """Everything a run produces before any file is written."""

    kind: str
    verdict: bool
    summary: dict
    report: dict
    tables: dict = field(default_factory=dict)
    trajectory: Trajectory | None = None
    expect_failures: tuple = ()
    stochastic: bool = False


def _float_close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * (1.0 + abs(b))


def _check_expectations(summary: dict, expect: dict):
    """Compare a flat summary against an expect block; bounds are inclusive."""
    failures = []
    for key, want in expect.items():
        if key not in summary:
            failures.append({"key": key, "problem": "no such summary field"})
            continue
        got = summary[key]
        if isinstance(want, dict):
            lo = want.get("min")
            hi = want.get("max")
            ok = not isinstance(got, str) and (
                (lo is None or got >= lo) and (hi is None or got <= hi)
            )
        elif isinstance(want, bool) or isinstance(got, bool):
            ok = want is got
        elif isinstance(want, str) or isinstance(got, str):
            ok = want == got
        elif isinstance(want, float) or isinstance(got, float):
            ok = _float_close(float(got), float(want))
        else:
            ok = want == got
        if not ok:
            failures.append({"key": key, "expected": want, "actual": got})
    return not failures, tuple(failures)


# ---------------------------------------------------------------------------
# runners


def _run_simulate(cfg: SimulateConfig, threads: int):
    traj = simulate(cfg.decoder, cfg.mechanisms, cfg.z1, cfg.steps, schedule=cfg.schedule, seed=cfg.seed)
    summary = {
        "steps": traj.steps,
        "latent_dim": traj.latents.shape[1],
        "obs_dim": traj.observations.shape[1],
        "stochastic": cfg.stochastic,
        "final_norm": float(np.linalg.norm(traj.latents[-1])),
    }
    report = {**summary, "z1": traj.latents[0], "schedule": list(traj.mechanisms)}
    return ExperimentOutcome(
        kind=cfg.kind,
        verdict=True,
        summary=summary,
        report=report,
        trajectory=traj,
        stochastic=cfg.stochastic,
    )


def _run_commutant(cfg: CommutantConfig, threads: int):
    fam = shared_equivariances(cfg.mechanisms, rtol=cfg.rtol)
    report = {"family": fam}
    conditions = None
    if cfg.offsets is not None:
        conditions = offset_identifiability_check(cfg.mechanisms[0].M, cfg.offsets, rtol=cfg.rtol)
    elif len(cfg.mechanisms) == 1:
        conditions = exact_recovery_conditions(cfg.mechanisms[0], rtol=cfg.rtol)
    if conditions is not None:
        report["conditions"] = conditions
    cls = fam.classify()
    summary = {
        "dimension": fam.dimension,
        "a_dimension": fam.a_dimension,
        "p_fiber_dimension": fam.p_fiber_dimension,
        "degenerate_offset": fam.degenerate_offset,
        "verdict": cls.kind,
        "verdict_dimension": cls.dimension,
    }
    if conditions is not None:
        summary["measured_dimension"] = conditions.measured_dimension
        summary["condition_verdict"] = conditions.verdict.kind
    tables = {}
    if cfg.csv_tables:
        d = cfg.mechanisms[0].dim
        header = (
            ["index"]
            + [f"A_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
            + [f"p_{i + 1}" for i in range(d)]
        )
        f = fam.family
        rows = [[k, *A.reshape(-1), *p] for k, (A, p) in enumerate(zip(f.basis_A, f.basis_p))]
        tables["basis.csv"] = {"header": header, "rows": rows}
    return ExperimentOutcome(
        kind=cfg.kind, verdict=True, summary=summary, report=report, tables=tables
    )


def _run_imitate(cfg: ImitateConfig, threads: int):
    cls = MechanismClass(used=cfg.used, hypothesized=cfg.hypothesized)
    closure = imitator_closure(
        cls,
        rtol=cfg.rtol,
        budget=cfg.budget,
        grid=cfg.grid,
        check_tol=cfg.check_tol,
        seed=cfg.seed,
    )
    cycles = [
        cycle_analysis(fam.representative, cfg.used, grid=cfg.grid, tol=max(cfg.check_tol, 1e-8))
        for fam in closure.assignments
    ]
    rows = [
        [k, r.source, r.target, r.residual]
        for k, fam in enumerate(closure.assignments)
        for r in fam.records
    ]
    report = {"class": cls, "closure": closure, "cycles": cycles}
    summary = {
        "candidates_total": closure.candidates_total,
        "candidates_after_pruning": closure.candidates_after_pruning,
        "solved": closure.solved,
        "max_record_residual": max((row[3] for row in rows), default=0.0),
        "cycles_all_pass": all(c.in_closure and c.power_checks_passed for c in cycles),
    }
    tables = {
        "records.csv": {
            "header": ["assignment_index", "source", "target", "residual"],
            "rows": rows,
        }
    }
    return ExperimentOutcome(
        kind=cfg.kind, verdict=True, summary=summary, report=report, tables=tables
    )


def _run_verify(cfg: VerifyConfig, threads: int):
    audit = membership_equivalence_audit(
        cfg.decoder,
        cfg.mechanisms,
        cfg.candidates,
        grid=cfg.grid,
        tol_equivariance=cfg.tol_equivariance,
        tol_identity=cfg.tol_identity,
        workers=threads,
    )
    report = {"audit": audit}
    summary = {
        "rows": len(audit.rows),
        "agreement": audit.agreement,
        "claims_ok": audit.claims_ok,
        "max_equivariance_residual": max(r.equivariance_residual for r in audit.rows),
        "max_identity_residual": max(r.identity_residual for r in audit.rows),
    }
    tables = {
        "audit.csv": {
            "header": [
                "candidate_id",
                "equivariance_pass",
                "identity_pass",
                "equivariance_residual",
                "identity_residual",
            ],
            "rows": audit.table(),
        }
    }
    return ExperimentOutcome(
        kind=cfg.kind,
        verdict=audit.agreement and audit.claims_ok,
        summary=summary,
        report=report,
        tables=tables,
    )


def _run_recover(cfg: RecoverConfig, threads: int):
    if cfg.trajectory_csv is not None:
        traj = Trajectory.from_csv(cfg.trajectory_csv)
    else:
        sim = cfg.simulate
        traj = simulate(sim.decoder, sim.mechanisms, sim.z1, sim.steps, schedule=sim.schedule, seed=cfg.seed)
    problem = RecoveryProblem.from_trajectory(traj, cfg.mechanisms, rtol=cfg.rtol)
    result = recover_linear_encoder(problem, rtol=cfg.rtol, seed=cfg.seed)
    summary = {
        "solution_space_dim": result.solution_space_dim,
        "encoder_rank": result.encoder_rank,
        "residual": result.residual,
        "span_rank": result.span_rank,
        "pair_count": result.pair_count,
        "sufficient_pairs": result.sufficient_pairs,
        "condition_verdict": result.conditions.verdict.kind,
    }
    comparison = None
    if cfg.comparison["encoder"] is not None:
        comparison = compare_up_to_class(
            result.E_hat, cfg.comparison["encoder"], klass=cfg.comparison["class"]
        )
        summary["comparison_residual"] = comparison.residual
    report = {"recovery": result, "comparison": comparison}
    return ExperimentOutcome(
        kind=cfg.kind,
        verdict=result.encoder_rank == result.E_hat.shape[0],  # an encoder is left-invertible
        summary=summary,
        report=report,
        stochastic=cfg.simulate.stochastic if cfg.simulate is not None else False,
    )


def _run_stochastic_test(cfg: StochasticTestConfig, threads: int):
    test = stochastic_equivariance_test(cfg.candidate, cfg.m1, cfg.m2, cfg.test, workers=threads)
    report = {"test": test}
    summary = {
        "passed": test.passed,
        "min_p_value": test.min_p_value,
        "anchors": len(test.anchors),
        "method": test.method,
        "samples_per_anchor": test.samples_per_anchor,
    }
    if cfg.class_test:
        verdict_cls = signed_perm_offset_test(cfg.candidate)
        report["class_verdict"] = verdict_cls
        summary["in_class"] = verdict_cls.in_class
    z_columns = [f"z_{i + 1}" for i in range(cfg.dim)]
    tables = {
        "anchors.csv": {
            "header": ["anchor_index", "p_value", "statistic"] + z_columns,
            "rows": [
                [i, a.result.p_value, a.result.statistic] + list(a.anchor)
                for i, a in enumerate(test.anchors)
            ],
        }
    }
    return ExperimentOutcome(
        kind=cfg.kind,
        verdict=test.passed,
        summary=summary,
        report=report,
        tables=tables,
        stochastic=True,
    )


_RUNNERS = {
    "simulate": _run_simulate,
    "commutant": _run_commutant,
    "imitate": _run_imitate,
    "verify": _run_verify,
    "recover": _run_recover,
    "stochastic-test": _run_stochastic_test,
}


def run_experiment(cfg, threads: int = 1) -> ExperimentOutcome:
    """Dispatch a parsed config to its runner; each reads its seed from `cfg.seed`.

    Runners return their intrinsic verdict; an expect block replaces it with
    whether every expectation held.
    """
    outcome = _RUNNERS[cfg.kind](cfg, threads)
    if not cfg.expect:
        return outcome
    ok, failures = _check_expectations(outcome.summary, cfg.expect)
    return replace(outcome, verdict=ok, expect_failures=failures)
