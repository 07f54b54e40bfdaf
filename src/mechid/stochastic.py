"""Equivariance in distribution and map-class tests for noisy dynamics.

With additive-noise walks the commutation identity only holds in
distribution, so it is tested: push one anchor through a∘m1 and through
m2∘a with independent noise streams and compare the two samples. Separate
tests probe the map-class restrictions that make such models identifiable:
volume preservation of the Jacobian, and the signed-permutation structure
that product non-Gaussian increments force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import AffineMechanism
from .errors import DimensionMismatchError, IllConditionedError, NonFiniteSampleError
from .grids import GridSpec
from .linalg import (
    _check_count,
    _min_cost_assignment,
    _perm_matrix,
    _points,
    _square_matrix,
    orthonormal_defect,
    unit_scaled,
)
from .maps import AffineMap
from .rng import stream
from .shipped import scipy_extension

__all__ = [
    "DistributionalTestSpec",
    "TwoSampleResult",
    "AnchorResult",
    "TestReport",
    "ClassVerdict",
    "JacobianClassReport",
    "two_sample_test",
    "stochastic_equivariance_test",
    "signed_perm_offset_test",
    "finite_difference_jacobian",
    "jacobian_identifiability_test",
]

DEFAULT_FD_STEP = 1e-5
# Samples per anchor: fewer leave the two-sample tests without power. The cap
# bounds config documents: 10^6 samples of a 2-D walk peak near 140 MiB.
MIN_SAMPLES_PER_ANCHOR = 100
MAX_SAMPLES_PER_ANCHOR = 10**6
_ENERGY_MAX_POINTS = 512
# ks_2samp(method="auto") takes its exact p-value up to this sample size
_KS_EXACT_MAX_N = 10_000
# permutation labellings per S D product; bounds the null's memory
_ENERGY_BLOCK = 256
# least rows of D per kernel call while D streams: 1 MiB at the 1024-point cap,
# not D's 8.4 MB. A taller labelling block sets the height: there, with 258
# labellings, 128-row pieces took ~10 % longer than 258-row ones (2 vCPUs, one
# BLAS thread)
_ENERGY_ROWS = 128
# KS terms, or factors, held at once by the exact-probability pass; bounds its memory
_KS_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class DistributionalTestSpec:
    """Protocol parameters for an equivariance-in-distribution test.

    `anchors` holds one point per row; at `dim` 1 a 1-D array is that many anchors.
    """

    METHODS = ("ks", "energy")

    dim: int
    samples_per_anchor: int = 1000
    significance: float = 0.05
    method: str = "ks"
    seed: int = 0
    anchors: np.ndarray | None = None
    anchor_count: int = 5
    permutations: int = 500

    def __post_init__(self):
        _check_count("dim", self.dim, 1)
        _check_count("samples_per_anchor", self.samples_per_anchor, MIN_SAMPLES_PER_ANCHOR)
        if not 0 < self.significance < 1:
            raise ValueError("significance must lie in (0, 1)")
        if self.method not in self.METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        _check_count("seed", self.seed, 0)
        _check_count("anchor_count", self.anchor_count, 1)
        _check_count("permutations", self.permutations, 1)
        if self.anchors is not None:
            object.__setattr__(self, "anchors", _points(self.anchors, "anchors", self.dim))

    def anchor_points(self) -> np.ndarray:
        """The given anchors, or `anchor_count` grid points in [-2, 2]^dim."""
        if self.anchors is not None:
            return self.anchors
        return GridSpec(dim=self.dim, count=self.anchor_count).points()


@dataclass(frozen=True)
class TwoSampleResult:
    """Outcome of one two-sample comparison."""

    p_value: float
    statistic: float
    method: str
    coordinate_p_values: tuple[float, ...] | None = None
    permutations: int | None = None


def _energy_products(S: np.ndarray, blocks) -> np.ndarray:
    """S D for the pool's distance matrix D, given as `blocks` of D's upper triangle.

    Each block is (lo, hi, D[lo:hi, lo:]), and the first spans every column.
    D is symmetric, so a block adds S[:, lo:hi] D[lo:hi, lo:] to the columns
    from lo on, and its transpose past the diagonal, S[:, hi:] D[lo:hi, hi:]',
    to columns lo..hi-1. A single block (0, N, D) is the one product S @ D.
    """
    for lo, hi, Db in blocks:
        if not lo:
            SD = S[:, :hi] @ Db
        else:
            SD[:, lo:] += S[:, lo:hi] @ Db
        if hi < S.shape[1]:
            SD[:, lo:hi] += S[:, hi:] @ Db[:, hi - lo :].T
        del Db  # before the next block is computed
    return SD


def _energy_statistics(SD: np.ndarray, S: np.ndarray, n: int, m: int, total: float | None):
    """(energy statistic of each labelling in S, 1'D1), from the product SD = S D.

    S holds one 0/1 row per labelling: a row x marks the X side and y = 1 - x
    the Y side. x'D1 is the sum of the row x'D, and with T = 1'D1,
    x'Dy = x'D1 - x'Dx and y'Dy = T - 2 x'D1 + x'Dx. Without `total`, the
    first row of S is all ones, and its row sum is T.
    """
    xr = SD.sum(axis=1)
    xdx = np.einsum("ij,ij->i", SD, S)
    if total is None:
        total = xr[0]
    xdy = xr - xdx
    ydy = total - 2.0 * xr + xdx
    return 2.0 * xdy / (n * m) - xdx / (n * n) - ydy / (m * m), total


def _distance_blocks(pool: np.ndarray, rows: int):
    """Row blocks (lo, hi, D[lo:hi, lo:]) of the upper triangle of the pool's
    distance matrix D, `rows` at a time, each computed when it is reached."""
    kernel = scipy_extension("spatial", "_distance_pybind").cdist_euclidean
    for lo in range(0, len(pool), rows):
        hi = min(lo + rows, len(pool))
        yield lo, hi, kernel(pool[lo:hi], pool[lo:])


def _ks_factors(n: int, kh: np.ndarray, h: np.ndarray, j0: int, j1: int):
    """Rows j0..j1-1 of the factors n - kh - j and n + kh + j + 1 of cells (kh, h), 1.0 for j >= h.

    kh and h hold integers as floats, so every factor is exact.
    """
    rows = np.arange(j0, j1, dtype=float)[:, None]
    steps = kh + rows
    past = rows >= h
    numerators = np.subtract(n, steps)
    np.copyto(numerators, 1.0, where=past)
    denominators = np.add(steps, n + 1, out=steps)
    np.copyto(denominators, 1.0, where=past)
    return numerators, denominators


def _ks_terms(n: int, hs: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The terms A_0..A_{n//h} of each h in `hs` (descending), side by side."""
    h_cell = np.repeat(hs, widths).astype(float)
    kh = (np.arange(h_cell.size) - np.repeat(np.cumsum(widths) - widths, widths)) * h_cell
    terms = np.ones(h_cell.size)
    j = 0
    while j < hs[0]:
        active = int(np.count_nonzero(h_cell > j))  # a prefix, as h descends
        stop = min(int(hs[0]), j + max(1, _KS_CHUNK_CELLS // active))
        view = terms[:active]
        for num, den in zip(*_ks_factors(n, kh[:active], h_cell[:active], j, stop)):
            np.multiply(view, num, out=view)
            np.divide(view, den, out=view)
        j = stop
    return terms


def _ks_prob_outside_square(n: int, hs) -> np.ndarray:
    """Pr(D_{n,n} >= h/n) for each h in `hs`, 0 < h <= n, bitwise as scipy computes it.

    scipy's `_compute_prob_outside_square` (Hodges 1958) forms, for one h,
    the terms A_k = prod_j (n - kh - j) / (n + kh + j + 1), j < h, for
    k = 0..n//h, one multiply and one divide per j, then
    P = 2 A_0 (1 - A_1 (1 - ...)). Here the terms of every h lie side by
    side, columns sorted by descending h, and advance together through one
    j loop up to max h, two ufunc calls per j. Past its own h a column's
    factors are exactly 1.0, and x * 1.0 and x / 1.0 are exact, so each term,
    and the Horner pass over it, sees scipy's IEEE operations in scipy's
    order. The terms go in groups of at most _KS_CHUNK_CELLS, and each group's
    factors in chunks of rows j of at most that many cells, holding only the
    columns whose h the chunk has not passed; so memory stays flat in the
    number and size of the columns. Returns an array of the shape of `hs`.
    """
    hs = np.asarray(hs, dtype=np.int64)
    order = np.argsort(-hs.reshape(-1), kind="stable")
    descending = hs.reshape(-1)[order]
    widths = n // descending + 1
    ends = np.cumsum(widths)
    out = np.empty(order.size)
    start = 0
    while start < order.size:
        # a group: the next columns whose terms fit in one chunk, at least one
        first = ends[start] - widths[start]
        stop = max(start + 1, int(np.searchsorted(ends, first + _KS_CHUNK_CELLS, side="right")))
        terms = _ks_terms(n, descending[start:stop], widths[start:stop])
        lo = 0
        for col, hi in zip(order[start:stop].tolist(), (ends[start:stop] - first).tolist()):
            P = 0.0
            for term in reversed(terms[lo:hi].tolist()):
                P = term * (1.0 - P)
            out[col] = 2 * P
            lo = hi
        start = stop
    return out.reshape(hs.shape)


def _ks_h_values(X: np.ndarray, Y: np.ndarray) -> list[int]:
    """h = n·D of each column of two (n, d) samples: the KS statistic times n.

    Each column's h comes from one stable merge of its two sorted samples
    (numpy's stable sort is timsort, which merges two runs in O(n)): the
    running count of +1 per X value and -1 per Y value, read where each run
    of equal values ends, peaks at ±h. For n <= _KS_EXACT_MAX_N this is the
    integer round(n·D) of `ks_2samp(method="auto")`.
    """
    n = X.shape[0]
    hs = []
    for x, y in zip(np.sort(X.T, axis=1), np.sort(Y.T, axis=1)):
        runs = np.concatenate([x, y])
        order = np.argsort(runs, kind="stable")
        merged = runs[order]
        count = np.cumsum(np.where(order < n, 1, -1))
        # the count ends at n - n = 0, so the last position can be left out
        hs.append(int(np.abs(count[:-1][merged[1:] != merged[:-1]]).max(initial=0)))
    return hs


def _ks_results(n: int, hs: list[list[int]]) -> list[TwoSampleResult]:
    """The KS result of each list of per-column h values of two samples of n <= _KS_EXACT_MAX_N points.

    Each statistic is h/n, and each p-value the two-sided one
    `ks_2samp(method="auto")` gives, bit for bit: 1 at h = 0, else the exact
    value, or `kstwo.sf(h/n, round(n/2))` when the exact value falls outside
    [0, 1] (scipy's fallback, taken here without its RuntimeWarning),
    clipped to [0, 1]. Every exact value comes from one
    `_ks_prob_outside_square` pass.
    """
    flat = np.array([h for row in hs for h in row], dtype=np.int64)
    probs = np.ones(flat.shape)
    probs[flat > 0] = _ks_prob_outside_square(n, flat[flat > 0])
    pvals = []
    for h, p in zip(flat.tolist(), probs.tolist()):
        if not 0 <= p <= 1:
            from scipy.stats import kstwo

            p = kstwo.sf(h / n, np.round(n / 2))
        pvals.append(float(np.clip(p, 0, 1)))
    pvals = iter(pvals)
    return [_ks_result([next(pvals) for _ in row], [h / n for h in row]) for row in hs]


def _ks_result(pvals: list[float], stats: list[float]) -> TwoSampleResult:
    """Coordinate KS p-values and statistics, Bonferroni-combined."""
    return TwoSampleResult(
        p_value=min(1.0, len(pvals) * min(pvals)),
        statistic=max(stats),
        method="ks",
        coordinate_p_values=tuple(pvals),
    )


def _samples(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as (points, coordinates) arrays of one dimension, each checked and named."""
    X, Y = _points(X, "sample X"), _points(Y, "sample Y")
    for name, sample in (("X", X), ("Y", Y)):
        if not np.isfinite(sample).all():
            raise NonFiniteSampleError(f"sample {name}")
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatchError("samples have different dimensions")
    return X, Y


def two_sample_test(
    X: np.ndarray,
    Y: np.ndarray,
    method: str = DistributionalTestSpec.method,
    seed: int = 0,
    permutations: int = DistributionalTestSpec.permutations,
) -> TwoSampleResult:
    """Test whether X and Y come from one distribution.

    X and Y hold one point per row; a 1-D array is n points of one
    coordinate. "ks": per-coordinate two-sample Kolmogorov-Smirnov,
    Bonferroni-combined (d times the smallest coordinate p-value, capped at
    1). Each coordinate gets what `scipy.stats.ks_2samp(method="auto")`
    gives: the exact p-value when neither sample has more than 10^4 points,
    with Smirnov's asymptotic one where the exact value leaves [0, 1], and
    the asymptotic one above 10^4 points. Equal-size samples up to 10^4
    points find the statistic by merging the two sorted columns, and take
    every coordinate's exact p-value from one pass of scipy's arithmetic
    (`_ks_prob_outside_square`), so they are bitwise equal to it; other
    sizes call it. "energy": the energy-distance statistic with a
    label-permutation null; samples over 512 points are subsampled, so the
    pool holds at most 1024 points. Its distance matrix D comes in row
    blocks of D's upper triangle, block [lo, hi) from the compiled kernel
    that `scipy.spatial.distance.cdist` calls, as cdist(pool[lo:hi],
    pool[lo:]), loaded without importing `scipy.spatial`, so each distance
    is cdist's bit for bit and is computed once. Distances are taken on the
    pool scaled by the exact power of two `linalg.unit_scaled` gives, so
    they neither overflow nor underflow, and the statistic is scaled back.
    The null's statistics come from blocked products S D of 0/1 labellings
    S with D, drawn in the same order as one permutation per statistic, at
    most 256 labellings per block: the first block also carries an
    all-ones row, for 1'D1, and the observed labelling. Up to 256
    permutations the one labelling block reads D once, so D streams in row
    blocks as tall as that labelling block and at least 128 rows, each
    freed before the next is computed; above, D is one block, computed once
    and kept for every labelling block. Fewer than one
    permutation, a negative seed, or either not an integer raises
    ValueError naming it. An empty X or Y raises ValueError, a non-finite
    value in X or Y raises NonFiniteSampleError, and X or Y with more than
    two axes raises DimensionMismatchError, each naming the sample.
    """
    if method not in DistributionalTestSpec.METHODS:
        raise ValueError(f"unknown method '{method}'")
    _check_count("permutations", permutations, 1)
    _check_count("seed", seed, 0)
    X, Y = _samples(X, Y)
    if method == "ks":
        if X.shape[0] == Y.shape[0] <= _KS_EXACT_MAX_N:
            return _ks_results(X.shape[0], [_ks_h_values(X, Y)])[0]
        from scipy.stats import ks_2samp

        results = [ks_2samp(X[:, i], Y[:, i]) for i in range(X.shape[1])]
        return _ks_result([float(r.pvalue) for r in results], [float(r.statistic) for r in results])
    gen = stream(seed, 101)
    if X.shape[0] > _ENERGY_MAX_POINTS:
        X = X[np.sort(gen.choice(X.shape[0], _ENERGY_MAX_POINTS, replace=False))]
    if Y.shape[0] > _ENERGY_MAX_POINTS:
        Y = Y[np.sort(gen.choice(Y.shape[0], _ENERGY_MAX_POINTS, replace=False))]
    n, m = X.shape[0], Y.shape[0]
    scale, pool = unit_scaled(np.vstack([X, Y]))
    if permutations > _ENERGY_BLOCK:  # several labelling blocks reuse D: one block, kept
        blocks = list(_distance_blocks(pool, n + m))
    else:  # the one labelling block, with its two extra rows, reads each entry once, so D streams
        blocks = _distance_blocks(pool, max(_ENERGY_ROWS, permutations + 2))
    count, observed, total = 0, 0.0, None
    for start in range(0, permutations, _ENERGY_BLOCK):
        block = min(_ENERGY_BLOCK, permutations - start)
        S = np.zeros((block if start else block + 2, n + m))
        if not start:  # the all-ones row, then the observed labelling
            S[0] = 1.0
            S[1, :n] = 1.0
        for row in S[len(S) - block :]:
            row[gen.permutation(n + m)[:n]] = 1.0
        SD = _energy_products(S, blocks)
        stats, total = _energy_statistics(SD, S, n, m, total)
        del S, SD  # before the next block is drawn
        if not start:
            observed, stats = float(stats[1]), stats[2:]
        count += int(np.count_nonzero(stats >= observed))
    p = (1.0 + count) / (1.0 + permutations)
    return TwoSampleResult(
        p_value=float(p), statistic=observed / scale, method="energy", permutations=permutations
    )


@dataclass(frozen=True)
class AnchorResult:
    anchor: tuple[float, ...]
    result: TwoSampleResult


@dataclass(frozen=True)
class TestReport:
    """Per-anchor p-values with a Bonferroni verdict across anchors."""

    anchors: tuple[AnchorResult, ...]
    passed: bool
    significance: float
    method: str
    samples_per_anchor: int

    def __bool__(self) -> bool:
        return self.passed

    @property
    def min_p_value(self) -> float:
        return min(r.result.p_value for r in self.anchors)


def stochastic_equivariance_test(
    a,
    m1: AffineMechanism,
    m2: AffineMechanism,
    spec: DistributionalTestSpec,
    workers: int = 1,
) -> TestReport:
    """Test a(m1(z, U)) =_d m2(a(z), U') at each anchor z.

    The two sides draw from independent counter-based streams keyed
    (seed, anchor, side), so results are reproducible and side-independent;
    anchors are likewise independent, so `workers > 1` runs them on a thread
    pool without changing any number. Each anchor's result is the one
    `two_sample_test` gives on its two samples, bit for bit. On the exact KS
    path (equal samples of up to 10^4 points) an anchor keeps only the
    integer h = n·D of each coordinate, and one `_ks_results` pass then
    gives the exact p-values of every anchor and coordinate, each by the same
    operations as one call per h. An `a` that does not return one point per
    row raises `DimensionMismatchError` naming the anchor, and an m1 or m2
    with no noise `ValueError` naming it. The verdict passes when every
    anchor's p-value clears the level significance / #anchors.
    """
    _check_count("workers", workers, 1)
    for name, m in (("m1", m1), ("m2", m2)):
        if isinstance(m, AffineMechanism) and m.noise is None:
            raise ValueError(f"{name}: a mechanism with no noise draws no next state")
    anchors = spec.anchor_points()
    if m1.dim != spec.dim or m2.dim != spec.dim:
        raise DimensionMismatchError("mechanism dimensions do not match the test spec")
    n = spec.samples_per_anchor
    exact_ks = spec.method == "ks" and n <= _KS_EXACT_MAX_N  # every anchor draws n points a side

    def one_anchor(item) -> TwoSampleResult | list[int]:
        i, z = item
        U1 = stream(spec.seed, i, 0).random((n, spec.dim))
        X = np.asarray(a(m1.sample_next(z, U1)), dtype=float)
        az = np.asarray(a(z[None, :]), dtype=float)[0]
        U2 = stream(spec.seed, i, 1).random((n, spec.dim))
        Y = np.asarray(m2.sample_next(az, U2), dtype=float)
        if X.shape != Y.shape:
            raise DimensionMismatchError(f"anchor {i}: a(samples) has shape {X.shape}, expected {Y.shape}")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise NonFiniteSampleError(f"anchor {i}")
        if exact_ks:
            return _ks_h_values(X, Y)  # the p-values come from one pass below
        return two_sample_test(
            X, Y, method=spec.method, seed=spec.seed + 7919 * (i + 1), permutations=spec.permutations
        )

    items = list(enumerate(anchors))
    if workers > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one_anchor, items))
    else:
        outcomes = [one_anchor(it) for it in items]
    if exact_ks:
        outcomes = _ks_results(n, outcomes)
    results = [AnchorResult(anchor=tuple(float(v) for v in z), result=o) for (_, z), o in zip(items, outcomes)]
    level = spec.significance / len(results)
    return TestReport(
        anchors=tuple(results),
        passed=all(r.result.p_value >= level for r in results),
        significance=spec.significance,
        method=spec.method,
        samples_per_anchor=n,
    )


# ---------------------------------------------------------------------------
# map-class tests


@dataclass(frozen=True)
class ClassVerdict:
    """Membership of a linear part in the signed-permutation class.

    `signed_permutation` holds when A is within `tol` entrywise of the signed
    permutation P that pairs rows with columns by the largest total |A[i, j]|,
    signs taken from A; `permutation` and `signs` give P, or None when it fails.
    `in_class` also requires orthonormality; offsets never affect any flag.
    Volume preservation is reported alongside because it is the weaker
    necessary condition.
    """

    orthonormal: bool
    signed_permutation: bool
    volume_preserving: bool
    in_class: bool
    orthonormal_defect: float
    det_deviation: float
    permutation: tuple[int, ...] | None = None
    signs: tuple[int, ...] | None = None


def signed_perm_offset_test(a, tol: float = 1e-9) -> ClassVerdict:
    """Classify the linear part of a map; offsets are ignored by design."""
    A = a.A if isinstance(a, AffineMap) else _square_matrix(a, "a")
    defect = orthonormal_defect(A)
    orthonormal = bool(defect <= tol)
    det_dev = float(abs(abs(np.linalg.det(A)) - 1.0))
    volume = bool(det_dev <= tol)
    perm = tuple(_min_cost_assignment((-np.abs(A)).tolist()))
    signs = tuple(1 if A[i, j] > 0 else -1 for i, j in enumerate(perm))
    is_perm = bool(np.abs(A - _perm_matrix(perm, signs)).max() <= tol)
    if not is_perm:
        perm = signs = None
    return ClassVerdict(
        orthonormal=orthonormal,
        signed_permutation=is_perm,
        volume_preserving=volume,
        in_class=bool(orthonormal and is_perm),
        orthonormal_defect=defect,
        det_deviation=det_dev,
        permutation=perm,
        signs=signs,
    )


def finite_difference_jacobian(fn: Callable, z: np.ndarray, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Jacobian with a norm-relative step size."""
    z = np.asarray(z, dtype=float).reshape(-1)
    d = z.shape[0]
    h = step * (1.0 + float(np.linalg.norm(z)))
    pts = np.vstack([z + h * np.eye(d), z - h * np.eye(d)])
    out = np.asarray(fn(pts), dtype=float)
    if out.shape != (2 * d, d):
        raise DimensionMismatchError(
            f"map returned shape {out.shape}; a batched (2d, d) evaluation is required"
        )
    return (out[:d] - out[d:]).T / (2.0 * h)


def _consistent_jacobians(fn, z, tol, context):
    J1 = finite_difference_jacobian(fn, z, DEFAULT_FD_STEP)
    J2 = finite_difference_jacobian(fn, z, DEFAULT_FD_STEP / 2.0)
    if not (np.isfinite(J1).all() and np.isfinite(J2).all()):
        raise NonFiniteSampleError(context)
    if np.linalg.norm(J1 - J2) > 10.0 * tol * (1.0 + np.linalg.norm(J2)):
        raise IllConditionedError(
            f"finite-difference estimates at steps h and h/2 disagree at {context}; "
            f"the map may not be differentiable there"
        )
    return J2


@dataclass(frozen=True)
class JacobianClassReport:
    """Pointwise signed-permutation classification of a map's Jacobian.

    `in_class` requires every anchor verdict to pass and the recovered
    pattern (permutation and signs) to be identical across anchors.
    """

    anchors: tuple[ClassVerdict, ...]
    pattern_consistent: bool
    in_class: bool

    def __bool__(self) -> bool:
        return self.in_class


def jacobian_identifiability_test(fn, anchors: np.ndarray, tol: float = 1e-6) -> JacobianClassReport:
    """Is the map's Jacobian one fixed signed permutation everywhere?

    This is the checkable footprint of the class that product non-Gaussian
    increments single out; smooth maps outside it show either a
    non-orthonormal Jacobian or a pattern that drifts across anchors.
    `anchors` holds one point per row, and a 1-D array is one point.
    """
    pts = np.atleast_2d(np.asarray(anchors, dtype=float))
    verdicts = []
    for i, z in enumerate(pts):
        J = _consistent_jacobians(fn, z, tol, f"anchor {i}")
        verdicts.append(signed_perm_offset_test(J, tol=tol))
    patterns = {(v.permutation, v.signs) for v in verdicts}
    consistent = len(patterns) == 1 and None not in next(iter(patterns))
    in_class = bool(all(v.in_class for v in verdicts) and consistent)
    return JacobianClassReport(
        anchors=tuple(verdicts), pattern_consistent=consistent, in_class=in_class
    )
