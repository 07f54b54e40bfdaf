"""Linear encoder recovery from observation pairs.

When the decoder is linear and the mechanism parameters (M, b_t) are known,
the encoder E must satisfy E x_{t+1} = M E x_t + b_t on every pair, which is
linear in E. Stacking pairs gives one system, solved by one SVD: its
solution is minimum-norm at the rtol cut, and its null-space dimension at
that same cut measures exactly how non-identifiable the encoder is; zero
means unique recovery. The unknown is restricted to the subspace actually
spanned by the data, matching the convention that encoders are left
inverses on the data manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import AffineMechanism, Trajectory, _resolve_schedule
from .equivariance import (
    ConditionReport,
    _distinct_rows,
    exact_recovery_conditions,
    offset_identifiability_check,
)
from .errors import DataDeficiencyError, DimensionMismatchError
from .linalg import (
    DEFAULT_RTOL,
    _require_finite,
    kron_rows,
    null_space,
    relative_rank,
    row_space,
    unit_scaled,
)
from .rng import stream

__all__ = [
    "RecoveryProblem",
    "RecoveryResult",
    "ComparisonResult",
    "COMPARISON_CLASSES",
    "recover_linear_encoder",
    "recover_with_multiple_offsets",
    "compare_up_to_class",
]

COMPARISON_CLASSES = (
    "exact",
    "offset",
    "signed-permutation",
    "signed-permutation+offset",
    "linear",
)


@dataclass(frozen=True)
class RecoveryProblem:
    """Observation pairs with their per-pair mechanism parameters.

    All pairs share the transition matrix M; the offset may vary per pair.
    """

    x_prev: np.ndarray  # (N, n)
    x_next: np.ndarray  # (N, n)
    M: np.ndarray  # (d, d)
    offsets: np.ndarray  # (N, d)

    def __post_init__(self):
        xp = np.atleast_2d(np.asarray(self.x_prev, dtype=float))
        xn = np.atleast_2d(np.asarray(self.x_next, dtype=float))
        M = np.asarray(self.M, dtype=float)
        B = np.atleast_2d(np.asarray(self.offsets, dtype=float))
        if xp.shape != xn.shape:
            raise DimensionMismatchError("x_prev and x_next must have equal shapes")
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(f"M must be square, got {M.shape}")
        if B.shape != (xp.shape[0], M.shape[0]):
            raise DimensionMismatchError(
                f"offsets must be (pairs, d) = ({xp.shape[0]}, {M.shape[0]}), got {B.shape}"
            )
        for name, a in (("x_prev", xp), ("x_next", xn), ("M", M), ("offsets", B)):
            _require_finite(a, name)
        object.__setattr__(self, "x_prev", xp)
        object.__setattr__(self, "x_next", xn)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "offsets", B)

    @property
    def pair_count(self) -> int:
        return self.x_prev.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.x_prev.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.M.shape[0]

    @classmethod
    def from_trajectory(
        cls, trajectory: Trajectory, mechanisms: Sequence[AffineMechanism], rtol: float = DEFAULT_RTOL
    ) -> "RecoveryProblem":
        """Consecutive observation pairs with each step's (M, b_t)."""
        if not trajectory.mechanisms:
            raise ValueError("trajectory has no transitions")
        schedule = _resolve_schedule(len(mechanisms), trajectory.mechanisms, trajectory.steps)
        # the scheduled mechanisms in order of first use, so schedule[0] sets M
        first = np.full(len(mechanisms), schedule.size)
        np.minimum.at(first, schedule, np.arange(schedule.size))
        used = np.argsort(first)[: np.count_nonzero(first < schedule.size)].tolist()
        i = _unshared_M([mechanisms[j] for j in used], rtol)
        if i is not None:
            raise ValueError(
                "recovery expects one shared transition matrix; schedule mixes different M "
                f"(mechanisms[{used[i]}].M)"
            )
        M = mechanisms[used[0]].M
        X = trajectory.observations
        # one offset row per scheduled mechanism; others may even have another dimension
        row = np.zeros(len(mechanisms), dtype=int)
        row[used] = np.arange(len(used))
        B = np.stack([mechanisms[j].b for j in used])[row[schedule]]
        return cls(x_prev=X[:-1], x_next=X[1:], M=M, offsets=B)


def _unshared_M(mechanisms: Sequence[AffineMechanism], rtol: float) -> int | None:
    """Index of the first M unlike the first one in shape or by > rtol (1 + max |M_0|), or None."""
    M = mechanisms[0].M
    tol = rtol * (1.0 + np.max(np.abs(M)))
    for i, m in enumerate(mechanisms):
        if m.M.shape != M.shape or np.max(np.abs(m.M - M)) > tol:
            return i
    return None


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered encoder plus the structure of the full solution set.

    `solution_space_dim` counts the free directions of the encoder restricted
    to the observed subspace; zero means the recovery is unique. `residual`
    is |C w - rhs| / (1 + |rhs|) for the stacked system's minimum-norm
    solution w at the rtol cut, so it counts the directions the cut dropped.
    """

    E_hat: np.ndarray
    solution_space_dim: int
    residual: float
    conditions: ConditionReport
    span_rank: int
    observed_rank: int
    pair_count: int
    sufficient_pairs: bool


def _assemble_system(Xi_p, Xi_n, M, B):
    """Rows of E x_{t+1} - M E x_t = b_t over vec(E), E of shape (d, r), d rows per pair."""
    C = kron_rows(np.eye(M.shape[0]), Xi_n[..., None])
    C -= kron_rows(M, Xi_p[..., None])
    return C.reshape(-1, C.shape[-1]), B.reshape(-1)


def recover_linear_encoder(
    problem: RecoveryProblem, rtol: float = DEFAULT_RTOL, seed: int = 0
) -> RecoveryResult:
    """Solve the stacked system E x_{t+1} = M E x_t + b_t for E.

    Returns the solution that is minimum-norm at the rtol cut, where the
    null basis is cut too, extended by zero off the observed subspace,
    refined to a full-row-rank representative when the solution set allows
    one. Raises a data-deficiency error when the inputs span fewer than d
    directions; that is a property of the data, distinct from structural
    non-identifiability, which shows up as a positive `solution_space_dim`.
    """
    Xp, Xn, M, B = problem.x_prev, problem.x_next, problem.M, problem.offsets
    N = problem.pair_count
    n = problem.obs_dim
    d = problem.latent_dim
    span_rank = relative_rank(Xp, rtol)
    if span_rank < d:
        raise DataDeficiencyError(span_rank, d)
    Q = row_space(np.vstack([Xp, Xn]), rtol)  # (r, n): coordinates of the observed subspace
    r = Q.shape[0]
    C, rhs = _assemble_system(Xp @ Q.T, Xn @ Q.T, M, B)
    basis, w, residual = null_space(C, rtol, rhs)
    dim = basis.shape[0]
    W = w.reshape(d, r)
    if dim > 0 and relative_rank(W, rtol) < d:
        # the minimum-norm point may be rank-deficient even when the solution
        # set contains a left-invertible encoder; look for one
        gen = stream(seed, 9203, 0)  # two integers: a simulation's steps take (seed, t)
        for _ in range(20):
            cand = W + np.tensordot(gen.standard_normal(dim), basis.reshape(dim, d, r), axes=1)
            if relative_rank(cand, rtol) == d:
                W = cand
                break
    E_hat = W @ Q
    uniq = _distinct_rows(B, rtol)
    if len(uniq) <= 1:
        conditions = exact_recovery_conditions(AffineMechanism(M, B[0]), rtol=rtol)
    else:
        conditions = offset_identifiability_check(M, B[uniq], rtol=rtol)
    return RecoveryResult(
        E_hat=E_hat,
        solution_space_dim=dim,
        residual=residual,
        conditions=conditions,
        span_rank=span_rank,
        observed_rank=r,
        pair_count=N,
        sufficient_pairs=bool(N >= d * (n + 1)),
    )


def recover_with_multiple_offsets(
    problem: RecoveryProblem, rtol: float = DEFAULT_RTOL, seed: int = 0
) -> RecoveryResult:
    """Recovery specialized to schedules that vary the offset.

    Identical solver; requires at least two distinct offsets, as the solver
    counts them, so the offset-variation premises are meaningful. A problem
    whose data span too few directions raises `DataDeficiencyError` first.
    """
    result = recover_linear_encoder(problem, rtol=rtol, seed=seed)
    if result.conditions.distinct_offset_count < 2:
        raise ValueError(
            "offset-variation recovery needs >= 2 distinct offsets; "
            "use recover_linear_encoder for a fixed mechanism"
        )
    return result


# ---------------------------------------------------------------------------
# comparison up to a class


@dataclass(frozen=True)
class ComparisonResult:
    """Best alignment of an estimate to the truth within a map class.

    `L` and `q` define the aligning map a(z) = L z + q with
    estimate ≈ a∘truth. `residual` is relative to the truth's magnitude.
    """

    residual: float
    L: np.ndarray
    q: np.ndarray
    klass: str
    permutation: tuple[int, ...] | None = None
    signs: tuple[int, ...] | None = None


def _as_affine_encoder(E) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(E, tuple):
        W, c = E
        return np.asarray(W, dtype=float), np.asarray(c, dtype=float).reshape(-1)
    W = np.asarray(E, dtype=float)
    return W, np.zeros(W.shape[0])


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a least-total-cost assignment of a square matrix.

    Shortest augmenting paths with row and column potentials (Kuhn 1955; the
    Jonker-Volgenant family, Crouse, IEEE TAES 2016): row `start` joins the
    matching along the cheapest alternating path, found by a Dijkstra search
    over reduced costs cost[i][j] - u[i] - v[j], which the potentials keep
    non-negative. O(d^3) in all. Plain Python over lists: at the sizes
    compared here a numpy call per step costs more than the arithmetic. The
    costs must be finite; a NaN would stop the search from settling.
    """
    d = len(cost)
    u = [0.0] * d
    v = [0.0] * d
    col4row = [-1] * d
    row4col = [-1] * d
    path = [-1] * d  # the row that reaches column j on the current search
    for start in range(d):
        dist = [math.inf] * d
        rows = [start]  # rows reached, in order
        cols = []  # columns settled, in order
        todo = list(range(d - 1, -1, -1))
        i, low = start, 0.0
        while True:
            row, ui = cost[i], u[i]
            best, at = math.inf, -1
            for k, j in enumerate(todo):
                r = low + row[j] - ui - v[j]
                if r < dist[j]:
                    dist[j], path[j] = r, i
                # among equally near columns prefer a free one: it ends the path
                if dist[j] < best or (dist[j] == best and row4col[j] < 0):
                    best, at = dist[j], k
            low = best
            j = todo[at]
            todo[at] = todo[-1]
            todo.pop()
            cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
        u[start] += low
        for i in rows[1:]:
            u[i] += low - dist[col4row[i]]
        for j in cols:
            v[j] -= low - dist[j]
        while True:  # flip the path: each row on it takes the column it reached
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def _signed_perm_match(RE: np.ndarray, RT: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Best assignment of estimate rows to signed truth rows.

    The assignment is exact because the total cost is a sum of independent
    row costs, each with its sign chosen freely. The inputs come scaled by
    `linalg.unit_scaled`, so no squared distance overflows, nor underflows unless
    it is negligible beside the largest.
    """
    minus = ((RE[:, None, :] - RT[None, :, :]) ** 2).sum(axis=2)
    plus = ((RE[:, None, :] + RT[None, :, :]) ** 2).sum(axis=2)
    cost = np.minimum(minus, plus)
    sign = np.where(minus <= plus, 1, -1)
    perm = tuple(_min_cost_assignment(cost.tolist()))
    signs = tuple(int(sign[i, j]) for i, j in enumerate(perm))
    return perm, signs


def _perm_matrix(perm: Sequence[int], signs: Sequence[int]) -> np.ndarray:
    d = len(perm)
    P = np.zeros((d, d))
    for i, (j, s) in enumerate(zip(perm, signs)):
        P[i, j] = s
    return P


def compare_up_to_class(estimate, truth, klass: str = "exact") -> ComparisonResult:
    """Distance from `estimate` to the orbit of `truth` under a map class.

    Encoders are given as (d, n) matrices or (matrix, constant) pairs.
    Classes: exact (no freedom), offset (constant shifts), signed-permutation
    (coordinate relabels and sign flips), signed-permutation+offset, linear
    (any affine reweighting, fit by least squares). The residual is the
    Frobenius distance of the aligned truth to the estimate, relative to the
    truth's magnitude, and reads the same at any scale. A non-finite entry
    in either encoder raises NonFiniteSampleError naming the argument and
    row.
    """
    if klass not in COMPARISON_CLASSES:
        raise ValueError(f"unknown class '{klass}'; choose from {COMPARISON_CLASSES}")
    WE, cE = _as_affine_encoder(estimate)
    WT, cT = _as_affine_encoder(truth)
    if WE.shape != WT.shape:
        raise DimensionMismatchError(
            f"estimate is {WE.shape}, truth is {WT.shape}; shapes must agree"
        )
    d = WE.shape[0]
    RE = np.hstack([WE, cE[:, None]])
    RT = np.hstack([WT, cT[:, None]])
    _require_finite(RE, "estimate")
    _require_finite(RT, "truth")
    # the residual's norms are taken on unit-scaled rows, where they neither
    # over- nor underflow; the exact scaling cancels in their ratio
    _, SE, ST = unit_scaled(RE, RT)
    perm = None
    signs = None
    if klass == "exact":
        L = np.eye(d)
        q = np.zeros(d)
        gap = SE - ST
    elif klass == "offset":
        L = np.eye(d)
        q = cE - cT
        gap = SE[:, :-1] - ST[:, :-1]
    elif klass == "signed-permutation":
        perm, signs = _signed_perm_match(SE, ST)
        L = _perm_matrix(perm, signs)
        q = np.zeros(d)
        gap = SE - L @ ST
    elif klass == "signed-permutation+offset":
        perm, signs = _signed_perm_match(*unit_scaled(WE, WT)[1:])  # offsets must not set the scale
        L = _perm_matrix(perm, signs)
        q = cE - L @ cT
        gap = SE[:, :-1] - L @ ST[:, :-1]
    else:  # linear
        L = np.linalg.lstsq(WT.T, WE.T, rcond=None)[0].T
        q = cE - L @ cT
        gap = SE[:, :-1] - L @ ST[:, :-1]
    residual = float(np.linalg.norm(gap) / max(float(np.linalg.norm(ST)), 1e-300))
    return ComparisonResult(residual=residual, L=L, q=q, klass=klass, permutation=perm, signs=signs)
