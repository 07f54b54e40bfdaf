"""Equivariance sets of affine mechanisms.

An affine map a(z) = A z + p carries a mechanism m1(z) = M1 z + b1 onto
m2(z) = M2 z + b2 exactly when A M1 = M2 A and A b1 + p = M2 p + b2. Both
constraints are linear in (A, p). `_intertwiner_system` builds them for a
stack of pairs (m1_i, m2_i) at once, one block of rows per pair, in a single
array. `_intertwiner_solve` solves it one pair's block at a time, and
`_intertwiner_family` turns the array and that solve into the affine solution
set: the null space N plus a particular solution, which is (I, 0) whenever
the identity solves the whole system. An equivariance of m is the case
m1 = m2 = m, so its solution set is (I, 0) + N; imitation solves the same
systems with m1 != m2, and its closure appends each pair in the same row
blocks (`_row_blocks`), so a family is the same bits on every route.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import AffineMechanism
from .errors import DimensionMismatchError, NonFiniteSampleError
from .grids import GridSpec
from .linalg import (
    DEFAULT_RTOL,
    _points,
    _require_finite,
    _square_matrix,
    intertwiner_operator,
    kron_rows,
    null_space,
    relative_rank,
    row_space,
    solve_residual,
    unit_scaled,
)
from .maps import AffineMap, _affine_parameters
from .rng import stream

__all__ = [
    "CLOSURE_TOL_FACTOR",
    "EIGENGAP_RTOL",
    "LinearSubspaceBasis",
    "AffineMapFamily",
    "EquivarianceFamily",
    "CheckReport",
    "ConditionVerdict",
    "ConditionReport",
    "linear_commutant",
    "affine_equivariances",
    "shared_equivariances",
    "check_equivariance",
    "exact_recovery_conditions",
    "offset_identifiability_check",
]

# Eigenvalues closer than this fraction of the spectral radius are equal: they
# count as tied, and they match between the spectra the imitator closure prunes by.
EIGENGAP_RTOL = 1e-7
# A stacked system is solvable, the identity solves it, and a closure
# representative's grid residuals verify, each within this multiple of the rank cut rtol.
CLOSURE_TOL_FACTOR = 10.0

_BASIS_ORTHO_TOL = 1e-10
_REPRESENTATIVE_ATTEMPTS = 20
# Offset pairs per batched eigencoordinate solve; bounds the premise scan's memory.
_PAIR_BLOCK = 4096
# Unknowns (d * d) from which a commutant is solved in row blocks rather than one SVD.
_BLOCKED_COMMUTANT_SIZE = 64


@dataclass(frozen=True, eq=False)
class LinearSubspaceBasis:
    """An orthonormal (Frobenius) basis of a subspace of d x d matrices."""

    matrices: np.ndarray  # (k, d, d)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatchError(f"basis must be (k, d, d), got {mats.shape}")
        k = mats.shape[0]
        if k:
            flat = mats.reshape(k, -1)
            gram = flat @ flat.T
            if np.max(np.abs(gram - np.eye(k))) > _BASIS_ORTHO_TOL:
                raise ValueError("basis is not orthonormal under the Frobenius inner product")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def dimension(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True, eq=False)
class AffineMapFamily:
    """An affine subspace of candidate maps (A, p).

    The set is {particular + sum_i c_i basis_i}. The basis pairs are jointly
    orthonormal in the flattened (vec A, p) space. `particular` is None when
    the defining system has no solution at all. `rtol` is the rank cut the
    basis was taken at; every later decision about the family reads it.
    """

    basis_A: np.ndarray  # (k, d, d)
    basis_p: np.ndarray  # (k, d)
    particular_A: np.ndarray | None
    particular_p: np.ndarray | None
    residual: float
    rtol: float

    @property
    def dimension(self) -> int:
        return self.basis_A.shape[0]

    @property
    def a_dimension(self) -> int:
        """Dimension of the projection of the homogeneous part onto A."""
        return self.a_part_basis().dimension

    @property
    def p_fiber_dimension(self) -> int:
        """Number of homogeneous directions that move only the offset."""
        return self.dimension - self.a_dimension

    @property
    def consistent(self) -> bool:
        return self.particular_A is not None

    def element(self, coeffs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The family member at the given homogeneous coordinates."""
        if not self.consistent:
            raise ValueError("family is empty: the defining system has no solution")
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.dimension,):
            raise DimensionMismatchError(f"expected {self.dimension} coefficients")
        A = self.particular_A + np.tensordot(c, self.basis_A, axes=1)
        p = self.particular_p + c @ self.basis_p if self.dimension else self.particular_p.copy()
        return A, p

    def a_part_basis(self) -> LinearSubspaceBasis:
        """Orthonormal basis of the A-projection of the homogeneous part."""
        return self._a_part_basis

    @cached_property  # one row-space SVD per family; not a field, so reports omit it
    def _a_part_basis(self) -> LinearSubspaceBasis:
        k = self.dimension
        d = self.basis_A.shape[1]
        if k == 0:
            return LinearSubspaceBasis(np.zeros((0, d, d)))
        return LinearSubspaceBasis(row_space(self.basis_A.reshape(k, -1), self.rtol).reshape(-1, d, d))

    def representative(self, seed: int = 0) -> AffineMap | None:
        """An invertible member, or None if none is found.

        Tries the particular solution first, then seeded random combinations
        of the homogeneous basis; a member is invertible when it has full
        `relative_rank` at the family's `rtol`, cut at unit scale or above,
        as `AffineMap` requires. Failure after the attempt
        budget means no invertible representative was found, not that none
        exists.
        """
        if not self.consistent:
            return None
        candidates = [np.zeros(self.dimension)]
        gen = stream(seed, 7041)
        for _ in range(_REPRESENTATIVE_ATTEMPTS if self.dimension else 0):
            candidates.append(gen.standard_normal(self.dimension))
        for c in candidates:
            A, p = self.element(c)
            if relative_rank(A, self.rtol, 1.0) == len(A):
                return AffineMap(A, p)
        return None


def _intertwiner_system(
    M1: np.ndarray, b1: np.ndarray, M2: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows over (vec A, p) for a∘m1_i = m2_i∘a, i < k, with rhs.

    M1, M2 are (k, d, d) stacks and b1, b2 (k, d). Block i holds the d*d rows
    of A M1_i - M2_i A = 0, then the d rows of A b1_i + (I - M2_i) p = b2_i;
    m1 = m2 gives equivariance. The blocks are written into one
    (k(d*d + d), d*d + d) array.
    """
    k, d = b1.shape
    dd = d * d
    C = np.zeros((k, dd + d, dd + d))
    C[:, :dd, :dd] = intertwiner_operator(M1, M2)
    C[:, dd:, :dd] = kron_rows(np.eye(d), b1[..., None])
    C[:, dd:, dd:] = np.eye(d) - M2
    rhs = np.zeros((k, dd + d))
    rhs[:, dd:] = b2
    return C.reshape(k * (dd + d), dd + d), rhs.reshape(-1)


def _data_scale(*arrays: np.ndarray) -> float:
    """Largest absolute entry of the data a constraint system is built from: its rank-cut floor."""
    return max([float(abs(a).max(initial=0.0)) for a in arrays])


def _particular(C: np.ndarray, r: np.ndarray, x: np.ndarray, d: int, rtol: float):
    """(particular solution or None, its residual) of C x = r over (vec A, p).

    The particular solution is (I, 0) if it solves the system within
    CLOSURE_TOL_FACTOR * rtol, else `x` if that one does; otherwise the system
    has no solution and None is returned with x's residual.
    """
    tol = CLOSURE_TOL_FACTOR * rtol
    ident = np.concatenate([np.eye(d).reshape(-1), np.zeros(d)])
    ident_residual = solve_residual(C, ident, r)
    if ident_residual <= tol:
        return ident, ident_residual
    residual = solve_residual(C, x, r)
    return (x if residual <= tol else None), residual


def _intertwiner_family(
    C: np.ndarray, r: np.ndarray, basis: np.ndarray, x: np.ndarray, d: int, rtol: float
) -> AffineMapFamily:
    """The solutions of the whole stacked system C x = r, given its null basis and a solution x.

    `_particular` decides on all of C which particular solution is kept, or
    that the family is empty.
    """
    x, residual = _particular(C, r, x, d, rtol)
    dd = d * d
    return AffineMapFamily(
        basis_A=basis[:, :dd].reshape(-1, d, d),
        basis_p=basis[:, dd:],
        particular_A=None if x is None else x[:dd].reshape(d, d),
        particular_p=None if x is None else x[dd:],
        residual=residual,
        rtol=rtol,
    )


@dataclass(frozen=True)
class EquivarianceFamily:
    """All affine maps commuting with every mechanism in `mechanisms`.

    Always contains the identity, which serves as the particular solution.
    `degenerate_offset` flags that some (M - I) is singular, in which case
    the offset is not a function of A and pure-offset directions can appear.
    """

    mechanisms: tuple[AffineMechanism, ...]
    family: AffineMapFamily
    degenerate_offset: bool

    @property
    def dimension(self) -> int:
        return self.family.dimension

    @property
    def a_dimension(self) -> int:
        return self.family.a_dimension

    @property
    def p_fiber_dimension(self) -> int:
        return self.family.p_fiber_dimension

    def classify(self) -> "ConditionVerdict":
        """Decision-table verdict from the family's shape."""
        d = self.family.basis_A.shape[1]
        dim = self.dimension
        a_dim = self.a_dimension
        p_fib = self.p_fiber_dimension
        if dim == 0:
            return ConditionVerdict("exact", 0)
        if dim == d * d + d:
            return ConditionVerdict("unconstrained", dim)
        if a_dim == 0 and p_fib >= 1:
            return ConditionVerdict("offset-only", p_fib)
        if a_dim >= 1 and p_fib == 0:
            return ConditionVerdict("linear-family", a_dim)
        return ConditionVerdict("other", dim)


def _row_blocks(C: np.ndarray, r: np.ndarray, dd: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of rows, with their right-hand sides, in which C x = r is solved.

    C's first dd = d*d rows are commutator rows and the rest offset rows. From
    _BLOCKED_COMMUTANT_SIZE commutator rows up, the commutator rows form four
    blocks and the offset rows one more, last; each block is cut on the null
    basis the blocks before it left. A smaller system, where splitting gains
    little or loses, stays one block: one SVD of all its rows.
    """
    if dd < _BLOCKED_COMMUTANT_SIZE:
        return [(C, r)]
    blocks = [*zip(np.array_split(C[:dd], 4), np.array_split(r[:dd], 4))]
    return blocks + ([(C[dd:], r[dd:])] if len(C) > dd else [])


def _blocked_null_space(C: np.ndarray, r: np.ndarray, dd: int, rtol: float, scale: float, start=None):
    """(null basis, particular solution) of C x = r appended to `start`, as `null_space` gives
    them, solved block by block in `_row_blocks`."""
    for block, rhs in _row_blocks(C, r, dd):
        basis, x, _ = null_space(block, rtol, rhs, scale, start)
        start = basis, x
    return start


def _intertwiner_solve(
    M1: np.ndarray, b1: np.ndarray, M2: np.ndarray, b2: np.ndarray, rtol: float
) -> AffineMapFamily:
    """The affine maps a with a∘m1_i = m2_i∘a for every pair i of the stacks, as for
    `_intertwiner_system`: its rows are solved one pair at a time, each pair in
    `_blocked_null_space`'s row blocks and cut on the basis the pairs before it left."""
    k, d = b1.shape
    C, r = _intertwiner_system(M1, b1, M2, b2)
    scale = _data_scale(M1, b1, M2, b2)
    start = None
    for block, rhs in zip(np.split(C, k), np.split(r, k)):
        start = _blocked_null_space(block, rhs, d * d, rtol, scale, start)
    basis, x = start
    return _intertwiner_family(C, r, basis, x, d, rtol)


def _commutant_null_space(M: np.ndarray, offsets: np.ndarray, rtol: float) -> np.ndarray:
    """Null basis over vec(A) of {A M = M A, A b = 0 for each row b of offsets}, solved in
    `_blocked_null_space`'s row blocks."""
    rows = kron_rows(np.eye(len(M)), offsets[..., None]).reshape(-1, M.size)
    C = np.vstack([intertwiner_operator(M, M), rows])
    basis, _ = _blocked_null_space(C, np.zeros(len(C)), M.size, rtol, _data_scale(M, offsets))
    return basis


def linear_commutant(M: np.ndarray | AffineMechanism, rtol: float = DEFAULT_RTOL) -> LinearSubspaceBasis:
    """Orthonormal basis of {A : A M = M A}: the null space of its d*d commutator rows,
    solved in `_row_blocks`, which split from d = 8 up. A bare M is checked by
    `_square_matrix`."""
    M = M.M if isinstance(M, AffineMechanism) else _square_matrix(M, "M")
    d = M.shape[0]
    return LinearSubspaceBasis(_commutant_null_space(M, np.zeros((0, d)), rtol).reshape(-1, d, d))


def affine_equivariances(m: AffineMechanism, rtol: float = DEFAULT_RTOL) -> EquivarianceFamily:
    """The affine solution set of {A M = M A, (A - I) b = (M - I) p}."""
    return shared_equivariances([m], rtol)


def shared_equivariances(
    mechanisms: Sequence[AffineMechanism], rtol: float = DEFAULT_RTOL
) -> EquivarianceFamily:
    """Affine maps commuting with every mechanism simultaneously: the
    `_intertwiner_solve` of each mechanism onto itself."""
    mechanisms = tuple(mechanisms)
    if not mechanisms:
        raise ValueError("at least one mechanism is required")
    d = mechanisms[0].dim
    if any(m.dim != d for m in mechanisms):
        raise DimensionMismatchError("mechanisms have mixed dimensions")
    M = np.stack([m.M for m in mechanisms])
    b = np.stack([m.b for m in mechanisms])
    family = _intertwiner_solve(M, b, M, b, rtol)
    degenerate = any(relative_rank(m.M - np.eye(d), rtol, 1.0) < d for m in mechanisms)
    return EquivarianceFamily(mechanisms=mechanisms, family=family, degenerate_offset=degenerate)


# ---------------------------------------------------------------------------
# grid checks


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a pointwise residual check over a grid."""

    passed: bool
    max_residual: float
    worst_index: int
    points: int
    tol: float

    def __bool__(self) -> bool:
        return self.passed


def _as_points(grid, dim: int) -> np.ndarray:
    if grid is None:
        grid = GridSpec(dim=dim)
    if isinstance(grid, GridSpec):
        if grid.dim != dim:
            raise DimensionMismatchError(f"grid dimension {grid.dim} != map dimension {dim}")
        return grid.points()
    return _points(grid, "grid", dim)


def _row_residuals(lhs, rhs, scale, where: str = "grid point") -> np.ndarray:
    """|lhs - rhs| / (1 + |scale|) per row; a non-finite row raises, naming it."""
    finite = np.isfinite(lhs).all(axis=-1) & np.isfinite(rhs).all(axis=-1)
    if not finite.all():
        raise NonFiniteSampleError(f"{where} {int(np.argmin(finite))}")
    return np.linalg.norm(lhs - rhs, axis=-1) / (1.0 + np.linalg.norm(scale, axis=-1))


def _residual_report(res: np.ndarray, tol: float) -> CheckReport:
    worst = int(np.argmax(res))
    mx = float(res[worst])
    return CheckReport(
        passed=bool(mx <= tol), max_residual=mx, worst_index=worst, points=res.shape[0], tol=tol
    )


def check_imitation(a, m1, m2, grid=None, tol: float = DEFAULT_RTOL) -> CheckReport:
    """Does a carry m1 onto m2 on the grid, i.e. a∘m1 = m2∘a?

    The residual at z is |a(m1(z)) - m2(a(z))| / (1 + |m2(a(z))|); the check
    passes when the maximum over the grid is at or below tol. Each of a, m1
    and m2 may be any callable on (N, d) points; one that returns another
    shape raises DimensionMismatchError naming it. Without a grid, m1 or a
    must have a `dim` to size the default one.
    """

    def apply(f, name, X):
        out = np.asarray(f(X))
        if out.shape != X.shape:
            raise DimensionMismatchError(f"{name} returned shape {out.shape}, expected {X.shape}")
        return out

    dim = getattr(m1, "dim", getattr(a, "dim", None))
    if grid is None and dim is None:
        raise ValueError("grid is required when neither a nor m1 has a dim")
    Z = _as_points(grid, dim)
    lhs = apply(a, "a", apply(m1, "m1", Z))
    rhs = apply(m2, "m2", apply(a, "a", Z))
    return _residual_report(_row_residuals(lhs, rhs, rhs), tol)


def check_equivariance(a, m, grid=None, tol: float = DEFAULT_RTOL) -> CheckReport:
    """Does a commute with m on the grid? That is, does a carry m onto itself?"""
    return check_imitation(a, m, m, grid, tol)


# ---------------------------------------------------------------------------
# condition reports


@dataclass(frozen=True)
class ConditionVerdict:
    """Classification of the residual non-identifiability.

    kind is one of: exact, offset-only, linear-family, unconstrained, other,
    not-applicable. `dimension` measures the remaining solution-space
    dimension where that is meaningful.
    """

    kind: str
    dimension: int | None = None

    _KINDS = ("exact", "offset-only", "linear-family", "unconstrained", "other", "not-applicable")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown verdict kind '{self.kind}'")


@dataclass(frozen=True)
class ConditionReport:
    """Checkable premises for unique or offset-only encoder recovery.

    `analytic_measure_assumed` records the standing smoothness/measure
    hypothesis that is declared, never machine-checked. `measured_dimension`
    is the data-independent solution-space dimension of the homogeneous
    constraint system {A M = M A, A b_t = 0 for all offsets}.
    `min_eigenvalue_gap` is None when M has a single eigenvalue.
    """

    eigenvalues: tuple[complex, ...]
    diagonalizable: bool
    distinct_eigenvalues: bool
    min_eigenvalue_gap: float | None
    spectral_radius: float
    measured_dimension: int
    verdict: ConditionVerdict
    offset_component_magnitudes: tuple[float, ...] | None = None
    zero_component_count: int | None = None
    offset_condition: bool | None = None
    offset_count: int | None = None
    distinct_offset_count: int | None = None
    difference_rank: int | None = None
    assumption_rank_ok: bool | None = None
    nonzero_difference_pair: tuple[int, int] | None = None
    analytic_measure_assumed: bool = True


# M = S diag(w) S^-1 as `_eigen_summary` gives it: w, S and the spectral premises a check reads
_Spectrum = namedtuple("_Spectrum", "eigenvalues vectors radius diagonalizable distinct min_gap")


def _eigen_summary(M: np.ndarray) -> _Spectrum:
    w, S = np.linalg.eig(M)
    radius = float(np.max(np.abs(w))) if w.size else 0.0
    recon_ok = False
    if relative_rank(S, 1e-12, 1.0) == len(S):
        s, M = unit_scaled(M)  # the error is relative, so it is measured where no norm overflows
        recon = S @ np.diag(w * s) @ np.linalg.inv(S)
        denom = max(np.linalg.norm(M), 1e-300)
        recon_ok = bool(np.linalg.norm(recon - M) / denom <= 1e-8)
    gaps = [abs(w[i] - w[j]) for i in range(len(w)) for j in range(i + 1, len(w))]
    min_gap = float(min(gaps)) if gaps else None
    distinct = min_gap is None or bool(min_gap > EIGENGAP_RTOL * max(radius, 1e-300))
    return _Spectrum(w, S, radius, recon_ok, distinct, min_gap)


def _premise_report(
    spectrum: _Spectrum, measured: int, kind: str, dimension: int, premises: bool, **fields
) -> ConditionReport:
    """A premise check's report on M, given `_eigen_summary(M)`, and its own report `fields`.

    The verdict is not-applicable unless M is diagonalizable; the check's
    `kind` and `dimension` when the eigenvalues are distinct and its
    `premises` hold; other otherwise. The first and last carry `measured`.
    """
    if not spectrum.diagonalizable:
        verdict = ConditionVerdict("not-applicable", measured)
    elif spectrum.distinct and premises:
        verdict = ConditionVerdict(kind, dimension)
    else:
        verdict = ConditionVerdict("other", measured)
    return ConditionReport(
        eigenvalues=tuple(complex(x) for x in spectrum.eigenvalues),
        diagonalizable=spectrum.diagonalizable,
        distinct_eigenvalues=spectrum.distinct,
        min_eigenvalue_gap=spectrum.min_gap,
        spectral_radius=spectrum.radius,
        measured_dimension=measured,
        verdict=verdict,
        **fields,
    )


def _eigencoordinates(S: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|S^-1 v| for each row v of V, as C-order rows, and each row's norm as norm() takes it.

    The norms are taken on the rows `unit_scaled` gives, so none overflows, and scaled back.
    """
    av = np.ascontiguousarray(np.abs(np.linalg.solve(S, V.astype(complex).T)).T)
    s, scaled = unit_scaled(av)
    return av, np.sqrt((scaled[:, None, :] @ scaled[:, :, None])[:, 0, 0]) / s


def exact_recovery_conditions(
    M: np.ndarray | AffineMechanism, b: np.ndarray | None = None, rtol: float = DEFAULT_RTOL
) -> ConditionReport:
    """Premises for a unique linear encoder given one affine map z -> M z + b.

    Uniqueness holds exactly when the eigenvalues of M are distinct and every
    eigencoordinate of the offset is nonzero; each violated component adds a
    free direction, whose count is also measured directly as the null-space
    dimension of {A M = M A, A b = 0}. A mechanism gives its own M and b; a
    bare M, which may be singular, is checked by `_square_matrix` and needs
    a finite `b` of its dimension.
    """
    if isinstance(M, AffineMechanism):
        M, b = M.M, M.b
    else:
        M, b = _affine_parameters(M, b, ("M", "b"), None)
    spectrum = _eigen_summary(M)
    measured = _commutant_null_space(M, b[None, :], rtol).shape[0]
    mags = zero_count = offset_ok = None
    if spectrum.diagonalizable:
        [av], [norm] = _eigencoordinates(spectrum.vectors, b[None, :])
        mags = tuple(float(x) for x in av)
        zero_count = int(np.sum(av <= rtol * max(norm, 1e-300)))
        offset_ok = bool(zero_count == 0)
    return _premise_report(
        spectrum, measured, "exact", 0, offset_ok,
        offset_component_magnitudes=mags,
        zero_component_count=zero_count,
        offset_condition=offset_ok,
        offset_count=1,
        distinct_offset_count=1,
    )


def _distinct_rows(rows: np.ndarray, rtol: float) -> list[int]:
    """Indices of the rows that a greedy scan in index order keeps.

    Row i is kept iff it lies farther than tol = rtol * (1 + largest row
    norm) from every row kept before it. The rule is not transitive: in the
    chain a, a + 0.6 tol e, a + 1.2 tol e (e a unit vector) both ends are
    kept, while a + 0.6 tol e, a, a + 1.2 tol e keeps only the first row.

    An exact duplicate is as far from every kept row as its first copy, so
    it is always dropped, and one sort collapses duplicates. A pair within
    tol also lies within tol in coordinate 0, so windows over that sorted
    coordinate find every near pair, and the greedy rule runs only over the
    rows that have one.
    """
    n = rows.shape[0]
    if n == 0:
        return []
    # decided on the rows as `unit_scaled` gives them, where no norm overflows; tol scales with them
    s, rows = unit_scaled(rows)
    tol = rtol * (s + float(np.max(np.linalg.norm(rows, axis=1))))
    if tol < 0:
        return list(range(n))
    # lexicographic with coordinate 0 first; stable, so a first copy leads its duplicates
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = order[new]
    x0 = ranked[new, 0]
    # twice tol, so that rounding in the recomputed distances loses no pair
    lo = np.searchsorted(x0, x0 - 2.0 * tol, side="left")
    hi = np.searchsorted(x0, x0 + 2.0 * tol, side="right")
    keep = np.ones(first.size, dtype=bool)
    crowded = np.flatnonzero(hi - lo > 1)
    for p in crowded[np.argsort(first[crowded])]:
        window = np.arange(lo[p], hi[p])
        earlier = first[window[(first[window] < first[p]) & keep[window]]]
        row = rows[first[p]]
        if any(np.linalg.norm(row - rows[j]) <= tol for j in earlier):
            keep[p] = False
    return np.sort(first[keep]).tolist()


def offset_identifiability_check(
    M: np.ndarray | AffineMechanism, offsets: Sequence[np.ndarray], rtol: float = DEFAULT_RTOL
) -> ConditionReport:
    """Premises for offset-only recovery from a shared M with varying offsets.

    Requires at least d+1 distinct offsets whose differences from the first
    span all of R^d, some pair of offsets whose difference has all nonzero
    eigencoordinates, and distinct eigenvalues. When every premise holds the
    verdict is offset-only; otherwise the measured solution-space dimension
    from the supplied offsets is reported.

    A bare M is checked by `_square_matrix`, and `offsets` must hold at
    least one offset. Offsets are deduplicated by the rule of `_distinct_rows`.
    `nonzero_difference_pair` is the pair (a, b), a < b, of kept offsets
    whose difference has the largest smallest-to-norm eigencoordinate
    ratio; on a tie it is the first such pair in lexicographic order.
    """
    M = M.M if isinstance(M, AffineMechanism) else _square_matrix(M, "M")
    d = M.shape[0]
    B = np.atleast_2d(np.asarray(offsets, dtype=float))
    if B.size == 0:
        raise ValueError("offsets: at least one offset is required")
    if B.ndim != 2 or B.shape[1] != d:
        raise DimensionMismatchError(f"offsets must be a (k, {d}) array for a {d}x{d} M, got shape {B.shape}")
    _require_finite(B, "offsets")
    spectrum = _eigen_summary(M)
    kept = _distinct_rows(B, rtol)
    R = B[kept]
    K = len(kept)
    rank = relative_rank(R[1:] - R[0], rtol)  # 0 for a single kept offset
    rank_ok = bool(K >= d + 1 and rank == d)
    best_pair = best_mags = offset_ok = None
    if spectrum.diagonalizable:
        offset_ok = False
        best_score = -1.0
        # pairs a < b in lexicographic order, whole rows a at a time
        cols = np.arange(K)
        step = max(1, _PAIR_BLOCK // K)
        for a0 in range(0, K - 1, step):
            a, b = np.nonzero(cols[a0 : a0 + step, None] < cols)
            a += a0
            av, norm = _eigencoordinates(spectrum.vectors, R.take(a, axis=0) - R.take(b, axis=0))
            low = av.min(axis=1)
            live = norm > 0
            score = np.full(norm.shape, -np.inf)
            np.divide(low, norm, out=score, where=live)
            i = int(np.argmax(score))
            if score[i] > best_score:
                best_score = float(score[i])
                best_pair = (kept[a[i]], kept[b[i]])
                best_mags = tuple(float(x) for x in av[i])
            # every |v| > rtol * norm exactly when the smallest one is
            offset_ok = offset_ok or bool(np.any(live & (low > rtol * norm)))
    measured = _commutant_null_space(M, R, rtol).shape[0]
    return _premise_report(
        spectrum, measured, "offset-only", d, rank_ok and offset_ok,
        offset_component_magnitudes=best_mags,
        offset_condition=offset_ok,
        offset_count=int(B.shape[0]),
        distinct_offset_count=K,
        difference_rank=int(rank),
        assumption_rank_ok=rank_ok,
        nonzero_difference_pair=best_pair,
    )
