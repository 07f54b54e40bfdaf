"""Observation-level identity verification.

The latent story is invisible; what can be checked on data is whether two
models induce the same observation-to-observation step map g∘m∘g^{-1}. A
candidate g∘a^{-1}, built from the true decoder and a latent map a, satisfies
the identity exactly when a commutes with every mechanism, so the latent
equivariance check and the observation identity check must agree row for
row. `membership_equivalence_audit`, the route of `mechid verify`, computes
both columns by independent routes and reports any disagreement.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equivariance import _as_points
from .errors import NonFiniteSampleError
from .linalg import _check_count
from .maps import AffineMap

__all__ = [
    "CandidateModel",
    "AuditRow",
    "AuditReport",
    "membership_equivalence_audit",
]

# Identity checks run at a 10x looser tolerance than latent equivariance
# checks: the decoder multiplies commutation defects by its local stretch.
IDENTITY_TOL_FACTOR = 10.0
# Candidate x grid points per block of the membership audit; bounds its memory.
_AUDIT_BLOCK = 1 << 14


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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x: the unscaled sum of squares of np.linalg.norm, in one
    fused pass, so overflow and non-finite values read as they do there. The root is taken
    in place: a second array there raised a d = 2 verify run's peak RSS from 235 to 243 B
    per grid point."""
    squares = np.einsum("...i,...i->...", x, x)
    return np.sqrt(squares, out=squares)


def _audit_block(truth_decoder, m, A, p, Z, E, truth_next, x_norm):
    """One mechanism's measures for a block of candidates (A, p), one entry each.

    Returns the largest relative and raw commutation gaps, the largest
    expansion ratio (-inf where no pair separates), the largest relative and
    raw identity gaps, and the first non-finite observation row (-1 if none).
    Each candidate is inverted once: a^{-1}(x) = (x - p) A^{-T} for all three
    point sets. Each array is dropped once read, so that a block at its size
    limit holds few arrays of its size at a time.
    """
    At = np.swapaxes(A, 1, 2)
    Ait = np.swapaxes(np.linalg.inv(A), 1, 2)
    p = p[:, None, :]
    u = m(Z) @ At + p  # a(m(z))
    v = m(Z @ At + p)  # m(a(z))
    raw = _row_norms(u - v)
    eq = np.max(raw / (1.0 + _row_norms(v)), axis=-1)
    raw_eq = np.max(raw, axis=-1)
    sep = raw > 1e-13 * (1.0 + _row_norms(u))
    # decoder expansion measured on the exact evaluation pairs
    gap = truth_decoder.decode((u - p) @ Ait)
    del u
    gap -= truth_decoder.decode((v - p) @ Ait)
    del v
    ratio = np.divide(_row_norms(gap), raw, out=np.full(raw.shape, -np.inf), where=sep)
    del gap, raw, sep
    lip = np.max(ratio, axis=-1)
    del ratio
    # independent route: g~∘m∘g~^{-1} with g~^{-1} = a∘g^{-1}
    gap = truth_decoder.decode((m(E @ At + p) - p) @ Ait)
    bad = ~(np.isfinite(truth_next).all(axis=-1) & np.isfinite(gap).all(axis=-1))
    first_bad = np.where(bad.any(axis=-1), np.argmax(bad, axis=-1), -1)
    del bad
    np.subtract(truth_next, gap, out=gap)
    x_scale = 1.0 + x_norm
    res = _row_norms(gap) / x_scale
    del gap
    return eq, raw_eq, lip, np.max(res, axis=-1), np.max(res * x_scale, axis=-1), first_bad


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

    Candidates are measured in blocks of at most _AUDIT_BLOCK candidate x
    grid points (one candidate at least), one batched evaluation and one
    inverse per candidate per block, so mechanisms and the truth decoder
    must act on the last axis. The truth path g∘m∘g^{-1} runs once per
    mechanism. `workers > 1` fans the blocks out over a thread pool; rows
    are ordered by candidate index either way.
    A non-finite observation names the first grid point of the first
    failing candidate, at its first failing mechanism.
    """
    _check_count("workers", workers, 1)
    if tol_identity is None:
        tol_identity = IDENTITY_TOL_FACTOR * tol_equivariance
    Z = _as_points(grid, truth_decoder.latent_dim)
    X = truth_decoder.decode(Z)
    labels, claims, maps = [], [], []
    for i, cand in enumerate(candidates):
        if isinstance(cand, CandidateModel):
            a, label, claim = cand.latent_map, cand.label, cand.expect_equivariant
        else:
            a, label, claim = cand, getattr(cand, "label", None) or f"candidate[{i}]", None
        if not isinstance(a, AffineMap):
            kind = type(a).__name__
            raise TypeError(f"candidate[{i}]: latent map must be an AffineMap, got {kind}")
        labels.append(label)
        claims.append(claim)
        maps.append(a)
    n = len(maps)
    eq_res, raw_eq, lip, id_res, raw_id = (np.zeros(n) for _ in range(5))
    # grid point of each candidate's first non-finite row, at its first such mechanism
    first_bad = np.full(n, -1)
    x_norm = _row_norms(X)
    if n and len(mechanisms):
        A = np.stack([a.A for a in maps])
        p = np.stack([a.p for a in maps])
        step = max(1, _AUDIT_BLOCK // max(1, Z.shape[0]))
        blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
        E = truth_decoder.encode(X)
        pooled = workers > 1 and len(blocks) > 1
        if pooled:
            from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) if pooled else nullcontext() as pool:
            for m in mechanisms:
                truth_next = truth_decoder.decode(m(E))

                def measure(b):
                    return _audit_block(truth_decoder, m, A[b], p[b], Z, E, truth_next, x_norm)

                parts = (pool.map if pool else map)(measure, blocks)
                eq, r_eq, lp, idr, r_id, bad = (np.concatenate(c) for c in zip(*parts))
                # running maxima over mechanisms, each kept unless beaten, as max() keeps
                eq_res = np.where(eq > eq_res, eq, eq_res)
                raw_eq = np.where(r_eq > raw_eq, r_eq, raw_eq)
                lip = np.where(lp > lip, lp, lip)
                id_res = np.where(idr > id_res, idr, id_res)
                raw_id = np.where(r_id > raw_id, r_id, raw_id)
                first_bad = np.where(first_bad < 0, bad, first_bad)
    failing = np.flatnonzero(first_bad >= 0)
    if failing.size:
        raise NonFiniteSampleError(f"observation grid point {int(first_bad[failing[0]])}")
    slack = 1e-9 * (1.0 + float(np.max(x_norm))) if n else 0.0
    rows = []
    for i in range(n):
        eq_pass = bool(eq_res[i] <= tol_equivariance)
        rows.append(
            AuditRow(
                label=labels[i],
                equivariance_pass=eq_pass,
                identity_pass=bool(id_res[i] <= tol_identity),
                equivariance_residual=float(eq_res[i]),
                identity_residual=float(id_res[i]),
                lipschitz=float(lip[i]),
                coupling_ok=bool(raw_id[i] <= 1.05 * float(lip[i]) * float(raw_eq[i]) + slack),
                claim=claims[i],
                claim_ok=None if claims[i] is None else (claims[i] == eq_pass),
            )
        )
    agreement = all(r.equivariance_pass == r.identity_pass for r in rows)
    claims_ok = all(r.claim_ok is not False for r in rows)
    return AuditReport(
        rows=tuple(rows),
        agreement=agreement,
        claims_ok=claims_ok,
        tol_equivariance=tol_equivariance,
        tol_identity=tol_identity,
    )
