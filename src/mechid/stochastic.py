"""Equivariance in distribution and map-class tests for noisy dynamics.

With additive-noise kernels the commutation identity only holds in
distribution, so it is tested: push one anchor through a∘m1 and through
m2∘a with independent noise streams and compare the two samples. Separate
tests probe the map-class restrictions that make such models identifiable:
volume preservation of the Jacobian, and the signed-permutation structure
that product non-Gaussian increments force.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import StochasticMechanism
from .errors import DimensionMismatchError, IllConditionedError, NonFiniteSampleError
from .grids import GridSpec
from .linalg import orthonormal_defect
from .maps import AffineMap
from .rng import stream

__all__ = [
    "DistributionalTestSpec",
    "TwoSampleResult",
    "AnchorResult",
    "TestReport",
    "ClassVerdict",
    "JacobianClassReport",
    "VolumeReport",
    "two_sample_test",
    "stochastic_equivariance_test",
    "signed_perm_offset_test",
    "finite_difference_jacobian",
    "volume_preservation_test",
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


@dataclass(frozen=True)
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
        if self.samples_per_anchor < MIN_SAMPLES_PER_ANCHOR:
            raise ValueError(f"samples_per_anchor must be >= {MIN_SAMPLES_PER_ANCHOR}")
        if not 0 < self.significance < 1:
            raise ValueError("significance must lie in (0, 1)")
        if self.method not in self.METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        if self.anchor_count < 1:
            raise ValueError("anchor_count must be >= 1")
        if self.permutations < 1:
            raise ValueError("permutations must be >= 1")
        if self.anchors is not None:
            anchors = np.asarray(self.anchors, dtype=float)
            if self.dim == 1 and anchors.ndim == 1:  # n anchors, as `two_sample_test` reads samples
                anchors = anchors.reshape(-1, 1)
            anchors = np.atleast_2d(anchors)
            if anchors.shape[1] != self.dim:
                raise DimensionMismatchError(
                    f"anchors have dimension {anchors.shape[1]}, spec says {self.dim}"
                )
            if anchors.shape[0] == 0:
                raise ValueError("anchors is empty")
            object.__setattr__(self, "anchors", anchors)

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


def _energy_statistics(D: np.ndarray, row_sums: np.ndarray, S: np.ndarray, n: int, m: int) -> np.ndarray:
    """Energy statistic of each labelling in S, one 0/1 row per labelling.

    A row x marks the X side and y = 1 - x the Y side. With r = D 1 and
    T = 1'D1: x'Dy = x'r - x'Dx and y'Dy = T - 2 x'r + x'Dx, so every
    statistic comes from one product S D plus row sums.
    """
    xdx = np.einsum("ij,ij->i", S @ D, S)
    xr = S @ row_sums
    xdy = xr - xdx
    ydy = row_sums.sum() - 2.0 * xr + xdx
    return 2.0 * xdy / (n * m) - xdx / (n * n) - ydy / (m * m)


def _ks_prob_outside_square(n: int, h: int) -> float:
    """Pr(D_{n,n} >= h/n) for 0 < h <= n, bitwise as scipy computes it.

    scipy's `_compute_prob_outside_square` (Hodges 1958) forms the terms
    A_k = prod_j (n - kh - j) / (n + kh + j + 1), j < h, for k = 0..n//h,
    one multiply and one divide per j, then P = 2 A_0 (1 - A_1 (1 - ...)).
    Here every A_k advances together through the same j sequence, so each
    term, and the Horner pass over them, sees the same IEEE operations in
    the same order. The terms depend only on the integers (n, h).
    """
    k_max = n // h
    steps = np.arange(0, (k_max + 1) * h, h) + np.arange(h)[:, None]  # [j, k] = kh + j
    numerators = (n - steps).astype(float)
    denominators = (n + 1 + steps).astype(float)
    terms = np.ones(k_max + 1)
    for j in range(h):
        np.multiply(terms, numerators[j], out=terms)
        np.divide(terms, denominators[j], out=terms)
    P = 0.0
    for term in reversed(terms.tolist()):
        P = term * (1.0 - P)
    return 2 * P


def _ks_equal_size(X: np.ndarray, Y: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-column two-sided KS p-values and statistics of two (n, d) samples.

    Each column's h = n·D comes from one stable merge of its two sorted
    samples (numpy's stable sort is timsort, which merges two runs in O(n)):
    the running count of +1 per X value and -1 per Y value, read where each
    run of equal values ends, peaks at ±h. For 0 < n <= _KS_EXACT_MAX_N this
    equals `ks_2samp(method="auto")` bit for bit, whose round(n·D) is the
    same integer: statistic h/n, p = 1 at h = 0, else the exact value, or
    `kstwo.sf(h/n, round(n/2))` when the exact value falls outside [0, 1]
    (scipy's fallback, taken here without its RuntimeWarning), clipped to
    [0, 1].
    """
    n = X.shape[0]
    pvals, stats = [], []
    for x, y in zip(np.sort(X.T, axis=1), np.sort(Y.T, axis=1)):
        runs = np.concatenate([x, y])
        order = np.argsort(runs, kind="stable")
        merged = runs[order]
        count = np.cumsum(np.where(order < n, 1, -1))
        # the count ends at n - n = 0, so the last position can be left out
        h = int(np.abs(count[:-1][merged[1:] != merged[:-1]]).max(initial=0))
        p = 1.0 if h == 0 else _ks_prob_outside_square(n, h)
        if not 0 <= p <= 1:
            from scipy.stats import kstwo

            p = kstwo.sf(h / n, np.round(n / 2))
        pvals.append(float(np.clip(p, 0, 1)))
        stats.append(h / n)
    return pvals, stats


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
    points find the statistic by merging the two sorted columns and share
    scipy's p-value arithmetic, so they are bitwise equal to it; other sizes
    call it. "energy": the energy-distance statistic with a
    label-permutation null; samples over 512 points are subsampled, so the
    distance matrix stays at most 1024². The null's statistics come from
    blocked products of 0/1 labellings with that matrix, drawn in the same
    order as one permutation per statistic. An empty X or Y raises
    ValueError, and a non-finite value in X or Y raises
    NonFiniteSampleError, each naming the sample.
    """
    if method not in DistributionalTestSpec.METHODS:
        raise ValueError(f"unknown method '{method}'")
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    samples = []
    for name, sample in (("X", X), ("Y", Y)):
        sample = np.asarray(sample, dtype=float)
        if sample.ndim < 2:  # n points of one coordinate, as ks_2samp reads it
            sample = sample.reshape(-1, 1)
        if sample.size == 0:
            raise ValueError(f"sample {name} is empty")
        if not np.isfinite(sample).all():
            raise NonFiniteSampleError(f"sample {name}")
        samples.append(sample)
    X, Y = samples
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatchError("samples have different dimensions")
    d = X.shape[1]
    if method == "ks":
        if X.shape[0] == Y.shape[0] <= _KS_EXACT_MAX_N:
            pvals, stats = _ks_equal_size(X, Y)
        else:
            from scipy.stats import ks_2samp

            results = [ks_2samp(X[:, i], Y[:, i]) for i in range(d)]
            pvals = [float(r.pvalue) for r in results]
            stats = [float(r.statistic) for r in results]
        p = min(1.0, d * min(pvals))
        return TwoSampleResult(
            p_value=p,
            statistic=max(stats),
            method="ks",
            coordinate_p_values=tuple(pvals),
        )
    gen = stream(seed, 101)
    if X.shape[0] > _ENERGY_MAX_POINTS:
        X = X[np.sort(gen.choice(X.shape[0], _ENERGY_MAX_POINTS, replace=False))]
    if Y.shape[0] > _ENERGY_MAX_POINTS:
        Y = Y[np.sort(gen.choice(Y.shape[0], _ENERGY_MAX_POINTS, replace=False))]
    n, m = X.shape[0], Y.shape[0]
    from scipy.spatial.distance import cdist

    pool = np.vstack([X, Y])
    D = cdist(pool, pool)
    row_sums = D.sum(axis=1)
    identity = np.zeros((1, n + m))
    identity[0, :n] = 1.0
    observed = float(_energy_statistics(D, row_sums, identity, n, m)[0])
    count = 0
    for start in range(0, permutations, _ENERGY_BLOCK):
        block = min(_ENERGY_BLOCK, permutations - start)
        S = np.zeros((block, n + m))
        for row in S:
            row[gen.permutation(n + m)[:n]] = 1.0
        count += int(np.count_nonzero(_energy_statistics(D, row_sums, S, n, m) >= observed))
    p = (1.0 + count) / (1.0 + permutations)
    return TwoSampleResult(p_value=float(p), statistic=observed, method="energy", permutations=permutations)


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
    m1: StochasticMechanism,
    m2: StochasticMechanism,
    spec: DistributionalTestSpec,
    workers: int = 1,
) -> TestReport:
    """Test a(m1(z, U)) =_d m2(a(z), U') at each anchor z.

    The two sides draw from independent counter-based streams keyed
    (seed, anchor, side), so results are reproducible and side-independent;
    anchors are likewise independent, so `workers > 1` runs them on a thread
    pool without changing any number. The verdict passes when every anchor's
    p-value clears the Bonferroni-corrected level significance / #anchors.
    """
    anchors = spec.anchor_points()
    if m1.dim != spec.dim or m2.dim != spec.dim:
        raise DimensionMismatchError("mechanism dimensions do not match the test spec")
    n = spec.samples_per_anchor

    def one_anchor(item) -> AnchorResult:
        i, z = item
        U1 = stream(spec.seed, i, 0).random((n, spec.dim))
        X = np.asarray(a(m1.sample_next(z, U1)), dtype=float)
        az = np.asarray(a(z[None, :]), dtype=float)[0]
        U2 = stream(spec.seed, i, 1).random((n, spec.dim))
        Y = np.asarray(m2.sample_next(az, U2), dtype=float)
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise NonFiniteSampleError(f"anchor {i}")
        r = two_sample_test(
            X, Y, method=spec.method, seed=spec.seed + 7919 * (i + 1), permutations=spec.permutations
        )
        return AnchorResult(anchor=tuple(float(v) for v in z), result=r)

    items = list(enumerate(anchors))
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_anchor, items))
    else:
        results = [one_anchor(it) for it in items]
    level = spec.significance / len(results)
    passed = all(r.result.p_value >= level for r in results)
    return TestReport(
        anchors=tuple(results),
        passed=passed,
        significance=spec.significance,
        method=spec.method,
        samples_per_anchor=n,
    )


# ---------------------------------------------------------------------------
# map-class tests


@dataclass(frozen=True)
class ClassVerdict:
    """Membership of a linear part in the signed-permutation class.

    `in_class` requires orthonormality together with the one-big-entry-per-
    row-and-column pattern; offsets never affect any flag. Volume
    preservation is reported alongside because it is the weaker necessary
    condition.
    """

    orthonormal: bool
    signed_permutation: bool
    volume_preserving: bool
    in_class: bool
    orthonormal_defect: float
    det_deviation: float
    permutation: tuple[int, ...] | None = None
    signs: tuple[int, ...] | None = None


def _signed_perm_pattern(A: np.ndarray, tol: float):
    d = A.shape[0]
    perm = []
    signs = []
    used = set()
    for i in range(d):
        row = np.abs(A[i])
        big = np.nonzero((row >= 1.0 - tol) & (row <= 1.0 + tol))[0]
        small_ok = bool(np.all(np.delete(row, big) <= tol)) if big.size else False
        if big.size != 1 or not small_ok:
            return None, None
        j = int(big[0])
        if j in used:
            return None, None
        used.add(j)
        perm.append(j)
        signs.append(1 if A[i, j] > 0 else -1)
    return tuple(perm), tuple(signs)


def signed_perm_offset_test(a, tol: float = 1e-9) -> ClassVerdict:
    """Classify the linear part of a map; offsets are ignored by design."""
    A = a.A if isinstance(a, AffineMap) else np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    defect = orthonormal_defect(A)
    orthonormal = bool(defect <= tol)
    det_dev = float(abs(abs(np.linalg.det(A)) - 1.0))
    volume = bool(det_dev <= tol)
    perm, signs = _signed_perm_pattern(A, tol)
    is_perm = perm is not None
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
class VolumeReport:
    passed: bool
    max_deviation: float
    determinants: tuple[float, ...]
    tol: float

    def __bool__(self) -> bool:
        return self.passed


def volume_preservation_test(fn, points: np.ndarray, tol: float = 1e-6) -> VolumeReport:
    """Check |det J(z)| = 1 at every sample point.

    `points` holds one point per row; the test takes no dimension, so a 1-D
    array is one point. Jacobians are estimated by central differences at
    steps h and h/2; the two estimates disagreeing beyond 10x the tolerance
    raises an ill-conditioning error instead of a silent verdict.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dets = []
    for i, z in enumerate(pts):
        J = _consistent_jacobians(fn, z, tol, f"point {i}")
        dets.append(float(abs(np.linalg.det(J))))
    deviation = float(max(abs(v - 1.0) for v in dets))
    return VolumeReport(
        passed=bool(deviation <= tol), max_deviation=deviation, determinants=tuple(dets), tol=tol
    )


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
