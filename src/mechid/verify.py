"""Observation-level identity verification.

The latent story is invisible; what can be checked on data is whether two
models induce the same observation-to-observation step map g∘m∘g^{-1}. A
candidate built from the true decoder composed with a latent map a satisfies
the identity exactly when a commutes with the mechanism, so the latent-space
equivariance check and the observation-space identity check must agree row
for row. The audit computes both columns through independent code paths and
reports any disagreement.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import TransformedDecoder
from .equivariance import CheckReport, _as_points
from .errors import DimensionMismatchError, NonFiniteSampleError
from .maps import AffineMap

__all__ = [
    "CandidateModel",
    "AuditRow",
    "AuditReport",
    "verify_observation_identity",
    "verify_identity_unknown_mech",
    "membership_equivalence_audit",
]

# Identity checks run at a 10x looser tolerance than latent equivariance
# checks: the decoder multiplies commutation defects by its local stretch.
IDENTITY_TOL_FACTOR = 10.0


@dataclass(frozen=True)
class CandidateModel:
    """A labelled candidate g∘a^{-1}, given by its latent map a.

    The audit builds the candidate decoder from the true decoder and
    `latent_map`, and checks it against the true mechanisms.
    `expect_equivariant` is an optional claim audited against the measured
    outcome.
    """

    latent_map: AffineMap
    label: str = "candidate"
    expect_equivariant: bool | None = None


def _identity_residuals(
    truth_decoder, mechanism, candidate_decoder, candidate_mechanism, X: np.ndarray
) -> np.ndarray:
    truth_next = truth_decoder.decode(mechanism(truth_decoder.encode(X)))
    cand_next = candidate_decoder.decode(candidate_mechanism(candidate_decoder.encode(X)))
    if not (np.isfinite(truth_next).all() and np.isfinite(cand_next).all()):
        bad = np.nonzero(
            ~(np.isfinite(truth_next).all(axis=-1) & np.isfinite(cand_next).all(axis=-1))
        )[0]
        raise NonFiniteSampleError(f"observation grid point {int(bad[0])}")
    return np.linalg.norm(truth_next - cand_next, axis=-1) / (
        1.0 + np.linalg.norm(X, axis=-1)
    )


def verify_observation_identity(
    truth_decoder,
    mechanism,
    candidate_decoder,
    grid=None,
    tol: float = 1e-8,
    candidate_mechanism=None,
) -> CheckReport:
    """Check g∘m∘g^{-1} = g~∘m~∘g~^{-1} on decoded grid points.

    The grid lives in latent space and is pushed forward through the true
    decoder, so every test point lies on the data manifold. The residual at
    x is normalized by (1 + |x|). An encoder that is undefined at some grid
    point raises an off-manifold error carrying the point index.
    """
    Z = _as_points(grid, truth_decoder.latent_dim)
    X = truth_decoder.decode(Z)
    cand_mech = mechanism if candidate_mechanism is None else candidate_mechanism
    res = _identity_residuals(truth_decoder, mechanism, candidate_decoder, cand_mech, X)
    worst = int(np.argmax(res))
    mx = float(res[worst])
    return CheckReport(
        passed=bool(mx <= tol), max_residual=mx, worst_index=worst, points=X.shape[0], tol=tol
    )


@dataclass(frozen=True)
class UnknownMechReport:
    """Per-step identity reports when the mechanism is also hypothesized."""

    steps: tuple[CheckReport, ...]
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def verify_identity_unknown_mech(
    truth_decoder,
    truth_schedule: Sequence,
    candidate_decoder,
    candidate_schedule: Sequence,
    grid=None,
    tol: float = 1e-8,
) -> UnknownMechReport:
    """Check g∘m_t∘g^{-1} = g~∘m~_t∘g~^{-1} for every scheduled step."""
    if len(truth_schedule) != len(candidate_schedule):
        raise DimensionMismatchError(
            f"candidate proposes {len(candidate_schedule)} mechanisms "
            f"for {len(truth_schedule)} steps"
        )
    reports = tuple(
        verify_observation_identity(
            truth_decoder,
            m_true,
            candidate_decoder,
            grid=grid,
            tol=tol,
            candidate_mechanism=m_cand,
        )
        for m_true, m_cand in zip(truth_schedule, candidate_schedule)
    )
    return UnknownMechReport(steps=reports, passed=all(r.passed for r in reports))


@dataclass(frozen=True)
class AuditRow:
    """One candidate's verdicts through both routes, plus diagnostics.

    `lipschitz` is the candidate decoder's measured expansion ratio on the
    evaluated point pairs; `coupling_ok` checks the implied inequality
    raw identity gap <= lipschitz * raw commutation gap.
    """

    label: str
    equivariance_pass: bool
    identity_pass: bool
    equivariance_residual: float
    identity_residual: float
    lipschitz: float
    coupling_ok: bool
    claim: bool | None = None
    claim_ok: bool | None = None


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    agreement: bool
    claims_ok: bool
    tol_equivariance: float
    tol_identity: float

    def table(self) -> list[tuple]:
        return [
            (
                r.label,
                r.equivariance_pass,
                r.identity_pass,
                r.equivariance_residual,
                r.identity_residual,
            )
            for r in self.rows
        ]


def _audit_one(
    truth_decoder, mechanisms, a: AffineMap, Z: np.ndarray, X: np.ndarray, tol_eq, tol_id
):
    cand_decoder = TransformedDecoder(truth_decoder, a)
    eq_res = 0.0
    id_res = 0.0
    raw_eq_max = 0.0
    raw_id_max = 0.0
    lip = 0.0
    x_norm = np.linalg.norm(X, axis=-1)
    for m in mechanisms:
        u = a(m(Z))
        v = m(a(Z))
        raw = np.linalg.norm(u - v, axis=-1)
        eq_res = max(eq_res, float(np.max(raw / (1.0 + np.linalg.norm(v, axis=-1)))))
        raw_eq_max = max(raw_eq_max, float(np.max(raw)))
        # decoder expansion measured on the exact evaluation pairs
        du = cand_decoder.decode(u)
        dv = cand_decoder.decode(v)
        obs_gap = np.linalg.norm(du - dv, axis=-1)
        sep = raw > 1e-13 * (1.0 + np.linalg.norm(u, axis=-1))
        if np.any(sep):
            lip = max(lip, float(np.max(obs_gap[sep] / raw[sep])))
        # independent route: identity residual through the encoder
        res = _identity_residuals(truth_decoder, m, cand_decoder, m, X)
        id_res = max(id_res, float(np.max(res)))
        raw_id_max = max(raw_id_max, float(np.max(res * (1.0 + x_norm))))
    coupling_ok = raw_id_max <= 1.05 * lip * raw_eq_max + 1e-9 * (1.0 + float(np.max(x_norm)))
    return eq_res, id_res, lip, coupling_ok


def membership_equivalence_audit(
    truth_decoder,
    mechanisms: Sequence,
    candidates: Sequence[AffineMap | CandidateModel],
    grid=None,
    tol_equivariance: float = 1e-9,
    tol_identity: float | None = None,
    workers: int = 1,
) -> AuditReport:
    """Audit latent equivariance against observation identity per candidate.

    For each candidate latent map a, column one checks commutation with every
    mechanism on the latent grid, and column two checks the observation
    identity for the decoder g∘a^{-1} through the encode/decode route. The
    two columns must agree on every row; `agreement` is the global flag.
    Candidates may carry an `expect_equivariant` claim, audited separately.
    Rows compute independently, so `workers > 1` fans them out over a thread
    pool; ordering is by candidate index either way.
    """
    if tol_identity is None:
        tol_identity = IDENTITY_TOL_FACTOR * tol_equivariance
    Z = _as_points(grid, truth_decoder.latent_dim)
    X = truth_decoder.decode(Z)

    def one_row(item) -> AuditRow:
        i, cand = item
        if isinstance(cand, CandidateModel):
            a = cand.latent_map
            label = cand.label
            claim = cand.expect_equivariant
        else:
            a = cand
            label = getattr(cand, "label", None) or f"candidate[{i}]"
            claim = None
        eq_res, id_res, lip, coupling_ok = _audit_one(
            truth_decoder, mechanisms, a, Z, X, tol_equivariance, tol_identity
        )
        eq_pass = bool(eq_res <= tol_equivariance)
        id_pass = bool(id_res <= tol_identity)
        claim_ok = None if claim is None else (claim == eq_pass)
        return AuditRow(
            label=label,
            equivariance_pass=eq_pass,
            identity_pass=id_pass,
            equivariance_residual=eq_res,
            identity_residual=id_res,
            lipschitz=lip,
            coupling_ok=coupling_ok,
            claim=claim,
            claim_ok=claim_ok,
        )

    items = list(enumerate(candidates))
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one_row, items))
    else:
        rows = [one_row(it) for it in items]
    agreement = all(r.equivariance_pass == r.identity_pass for r in rows)
    claims_ok = all(r.claim_ok is not False for r in rows)
    return AuditReport(
        rows=tuple(rows),
        agreement=agreement,
        claims_ok=claims_ok,
        tol_equivariance=tol_equivariance,
        tol_identity=tol_identity,
    )
