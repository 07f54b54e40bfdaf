"""Equivariance-in-distribution testing and class membership checks.

Statistical assertions run on frozen seeds, so every rate below is a
deterministic replay of a calibration experiment, not a flaky sample.
"""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial.distance import cdist
from scipy.stats import ks_2samp

from mechid import (
    DistributionalTestSpec,
    NoiseSpec,
    additive_noise_mechanism,
    compose,
    finite_difference_jacobian,
    jacobian_identifiability_test,
    signed_perm_offset_test,
    stochastic_equivariance_test,
    two_sample_test,
)
from mechid.errors import (
    DimensionMismatchError,
    IllConditionedError,
    NonFiniteSampleError,
)
from mechid.dynamics import StochasticMechanism
from mechid.maps import AffineMap
from mechid.rng import stream
from mechid.shipped import scipy_extension
from mechid.stochastic import (
    _ENERGY_BLOCK,
    _ENERGY_MAX_POINTS,
    _KS_CHUNK_CELLS,
    _ks_h_values,
    _ks_prob_outside_square,
)

from conftest import (
    SWAP,
    inverse_map,
    random_invertible,
    random_signed_permutation,
    rotation,
)


def laplace_walk(dim=2, alpha=1.0):
    return additive_noise_mechanism(NoiseSpec("generalized-laplace", alpha=alpha, dim=dim))


# ---------------------------------------------------------------------------
# two-sample machinery


def test_identical_arrays_give_p_one():
    X = stream(301).standard_normal((400, 2))
    assert two_sample_test(X, X, method="ks").p_value == 1.0
    assert two_sample_test(X, X, method="energy", seed=0).p_value == 1.0


def test_ks_calibration_rejection_rate():
    # null rejections at the 5% level over 200 frozen repetitions
    rejections = 0
    for rep in range(200):
        X = stream(303, rep, 0).standard_normal((10_000, 1))
        Y = stream(303, rep, 1).standard_normal((10_000, 1))
        if two_sample_test(X, Y, method="ks").p_value < 0.05:
            rejections += 1
    assert 4 <= rejections <= 18  # [0.02, 0.09] of 200


def test_ks_power_against_mean_shift():
    X = stream(305, 0).standard_normal((10_000, 1))
    Y = stream(305, 1).standard_normal((10_000, 1)) + 0.5
    assert two_sample_test(X, Y, method="ks").p_value < 1e-6


def test_energy_power_against_mean_shift():
    X = stream(307, 0).standard_normal((256, 2))
    Y = stream(307, 1).standard_normal((256, 2)) + 0.5
    res = two_sample_test(X, Y, method="energy", seed=1)
    assert res.p_value <= 2.0 / 501.0
    assert res.permutations == 500


@pytest.mark.parametrize("permutations", [0, -3])
def test_energy_test_requires_a_permutation(permutations):
    # with an empty null, samples 5 sigma apart came out p = 1.0 (0) or -0.5 (-3)
    X = stream(308, 0).standard_normal((64, 2))
    with pytest.raises(ValueError, match="permutations"):
        two_sample_test(X, X + 5.0, method="energy", permutations=permutations)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        two_sample_test(np.zeros((100, 2)), np.zeros((100, 3)))


@pytest.mark.parametrize("method", ["ks", "energy"])
@pytest.mark.parametrize("side", ["X", "Y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_sample_is_rejected_naming_it(method, side, value):
    # a NaN column gave a NaN coordinate p-value that the Bonferroni min
    # skipped (KS), or a NaN statistic with p = 1/(1+P) (energy)
    gen = stream(309)
    samples = {"X": gen.standard_normal((300, 2)), "Y": gen.standard_normal((300, 2)) + 0.5}
    samples[side][7, 1] = value
    with pytest.raises(NonFiniteSampleError, match=f"sample {side}"):
        two_sample_test(samples["X"], samples["Y"], method=method, permutations=19)


@pytest.mark.parametrize("method", ["ks", "energy"])
@pytest.mark.parametrize("side", ["X", "Y"])
@pytest.mark.parametrize("shape", [(0, 2), (0,)])
def test_empty_sample_is_rejected_naming_it(method, side, shape):
    # KS gave p = 1.0 with NaN statistics, energy p = 1/(1+P) with a NaN statistic
    full = (300,) + shape[1:]
    samples = {"X": stream(310).standard_normal(full), "Y": stream(311).standard_normal(full)}
    samples[side] = np.zeros(shape)
    with pytest.raises(ValueError, match=f"sample {side} is empty"):
        two_sample_test(samples["X"], samples["Y"], method=method, permutations=19)


@pytest.mark.parametrize("method", ["ks", "energy"])
def test_one_dimensional_sample_is_points_of_one_coordinate(method):
    # read as one point in 200 dimensions, N(0,1) against N(3,1) gave p = 1.0
    x = stream(312, 0).standard_normal(200)
    y = stream(312, 1).standard_normal(200) + 3.0
    res = two_sample_test(x, y, method=method, permutations=99)
    assert res == two_sample_test(x[:, None], y[:, None], method=method, permutations=99)
    assert res.p_value < 0.05
    if method == "ks":
        assert res.coordinate_p_values == (ks_2samp(x, y).pvalue,)


def reference_energy_test(X, Y, seed, permutations):
    """The energy test as one np.ix_ gather per permutation: the reference
    for the blocked null, with the same subsample and permutation stream."""
    gen = stream(seed, 101)
    if X.shape[0] > _ENERGY_MAX_POINTS:
        X = X[np.sort(gen.choice(X.shape[0], _ENERGY_MAX_POINTS, replace=False))]
    if Y.shape[0] > _ENERGY_MAX_POINTS:
        Y = Y[np.sort(gen.choice(Y.shape[0], _ENERGY_MAX_POINTS, replace=False))]
    n, m = X.shape[0], Y.shape[0]
    pool = np.vstack([X, Y])
    D = cdist(pool, pool)

    def statistic(idx_x, idx_y):
        dxy = D[np.ix_(idx_x, idx_y)].mean()
        dxx = D[np.ix_(idx_x, idx_x)].mean()
        dyy = D[np.ix_(idx_y, idx_y)].mean()
        return float(2.0 * dxy - dxx - dyy)

    observed = statistic(np.arange(n), np.arange(n, n + m))
    count = 0
    for _ in range(permutations):
        perm = gen.permutation(n + m)
        if statistic(perm[:n], perm[n:]) >= observed:
            count += 1
    return (1.0 + count) / (1.0 + permutations), observed


@pytest.mark.parametrize(
    "n, m, permutations, shift, seeds",
    [
        (37, 53, 199, 0.0, range(6)),
        (37, 53, 199, 0.4, range(6)),
        # more than one block of labellings
        (37, 53, 600, 0.1, range(3)),
        # both samples over the subsampling cap
        (600, 700, 40, 0.0, range(3)),
        (600, 700, 300, 0.08, (5,)),
        # ragged last row block of D: 281 = 2·128 + 25 points, and 129 = 128 + 1
        (150, 131, 199, 0.0, range(3)),
        (150, 131, 256, 0.15, range(3)),
        (100, 29, 99, 0.0, range(3)),
        (100, 29, 255, 0.3, range(3)),
    ],
)
def test_energy_null_matches_per_permutation_reference(n, m, permutations, shift, seeds):
    for seed in seeds:
        X = stream(313, seed, 0).standard_normal((n, 2))
        Y = stream(313, seed, 1).standard_normal((m, 2)) + shift
        res = two_sample_test(X, Y, method="energy", seed=seed, permutations=permutations)
        p_ref, stat_ref = reference_energy_test(X, Y, seed, permutations)
        assert res.p_value == p_ref
        assert res.statistic == pytest.approx(stat_ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "permutations", [1, _ENERGY_BLOCK - 1, _ENERGY_BLOCK, _ENERGY_BLOCK + 1, 2 * _ENERGY_BLOCK + 1]
)
@pytest.mark.parametrize("n, m", [(37, 53), (150, 131), (600, 530)])
def test_energy_null_matches_the_reference_at_block_boundaries(n, m, permutations):
    # the first block also carries the all-ones row and the observed labelling;
    # up to one block D streams in row blocks, above it D is whole and kept
    X = stream(314, n, 0).standard_normal((n, 2))
    Y = stream(314, n, 1).standard_normal((m, 2)) + 0.05
    res = two_sample_test(X, Y, method="energy", seed=2, permutations=permutations)
    p_ref, stat_ref = reference_energy_test(X, Y, 2, permutations)
    assert res.p_value == p_ref
    assert res.statistic == pytest.approx(stat_ref, rel=1e-10, abs=0.0)


def test_energy_null_memory_is_flat_in_permutations():
    X = stream(317, 0).standard_normal((600, 2))
    Y = stream(317, 1).standard_normal((600, 2))
    tracemalloc.start()
    try:
        two_sample_test(X, Y, method="energy", seed=0, permutations=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1024² distance matrix is 8.4 MB; without blocking, the 2000 x 1024
    # labelling matrix and its product with D would add about 33 MB
    assert peak < 16e6


def test_one_block_energy_null_holds_one_row_block_of_distances():
    X = stream(317, 2).standard_normal((600, 2))
    Y = stream(317, 3).standard_normal((600, 2))
    tracemalloc.start()
    try:
        two_sample_test(X, Y, method="energy", seed=0, permutations=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 1024² distance matrix alone is 8.4 MB; one 128-row block is 1 MiB
    assert peak < 2.5e6


@pytest.mark.parametrize("exponent", [520, -520, 900, -900])
def test_energy_test_reads_the_same_at_every_scale(exponent):
    # squared distances overflowed from c = 1e155 up (NaN statistic, p = 0.002)
    # and underflowed from c = 1e-170 down (statistic 0.0, p = 1.0)
    X = stream(318, 0).standard_normal((150, 2))
    Y = stream(318, 1).standard_normal((150, 2))
    base = two_sample_test(X, Y, method="energy", seed=3, permutations=499)
    c = 2.0**exponent
    scaled = two_sample_test(c * X, c * Y, method="energy", seed=3, permutations=499)
    assert bits([scaled.p_value]) == bits([base.p_value])
    assert bits([scaled.statistic]) == bits([c * base.statistic])


def test_energy_p_value_is_the_same_at_every_power_of_two_scale():
    X = stream(318, 2).standard_normal((60, 3))
    Y = stream(318, 3).standard_normal((60, 3)) + 0.2
    base = two_sample_test(X, Y, method="energy", seed=4, permutations=99)
    for exponent in range(-900, 901, 25):
        scaled = two_sample_test(2.0**exponent * X, 2.0**exponent * Y, method="energy", seed=4, permutations=99)
        assert scaled.p_value == base.p_value, exponent
        assert np.isfinite(scaled.statistic) and scaled.statistic > 0.0, exponent


# Each pool is built as two_sample_test builds it: the checked samples,
# stacked and scaled by unit_scaled. Prints whether scipy.spatial was loaded
# before the test imported it, then whether every matrix the kernel gave is
# cdist's, bit for bit.
KERNEL_SCRIPT = """
import sys
import numpy as np
from mechid.linalg import unit_scaled
from mechid.shipped import scipy_extension
from mechid.stochastic import _samples
if sys.argv[1] == "spatial-first":
    from scipy.spatial.distance import cdist
kernel = scipy_extension("spatial", "_distance_pybind").cdist_euclidean
gen = np.random.default_rng(7)
cases = [(gen.standard_normal(40), gen.standard_normal(30))]  # 1-D samples
cases += [(gen.standard_normal((37, d)), gen.standard_normal((53, d)) + 0.3) for d in (1, 2, 3, 5)]
cases += [(gen.standard_normal((1, 2)), gen.standard_normal((1, 2)))]
cases += [(gen.standard_normal((512, 2)), gen.standard_normal((512, 2)) + 0.1)]  # the 1024-point cap
cases += [(2.0**700 * gen.standard_normal((20, 3)), 2.0**700 * gen.standard_normal((20, 3)))]
pools = [unit_scaled(np.vstack(_samples(X, Y)))[1] for X, Y in cases]
pools.append(pools[2][:1])  # one point
Ds = [kernel(pool, pool) for pool in pools]
loaded = "scipy.spatial" in sys.modules
from scipy.spatial.distance import cdist
same = [
    D.dtype == np.float64 and D.flags.c_contiguous and D.shape == (len(pool), len(pool))
    and D.tobytes() == cdist(pool, pool).tobytes()
    for D, pool in zip(Ds, pools)
]
print(loaded, same.count(True), len(same))
"""


@pytest.mark.parametrize("order", ["kernel-first", "spatial-first"])
def test_distance_kernel_is_cdist_bitwise_in_either_import_order(order):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", KERNEL_SCRIPT, order], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # loading the kernel alone leaves scipy.spatial unimported
    assert proc.stdout.split() == [str(order == "spatial-first"), "9", "9"]


def test_a_missing_scipy_extension_raises_naming_the_directory_and_module():
    with pytest.raises(ImportError) as exc:
        scipy_extension("spatial", "_no_such_kernel")
    assert "scipy.spatial._no_such_kernel" in str(exc.value)
    assert os.path.dirname(scipy.spatial.__file__) in str(exc.value)


@pytest.mark.parametrize("method", ["ks", "energy"])
@pytest.mark.parametrize("side", ["X", "Y"])
def test_sample_with_more_than_two_axes_is_rejected_naming_it(method, side):
    # a (5, 2, 2) sample raised IndexError (KS) or scipy's ValueError (energy)
    samples = {"X": np.zeros((5, 2)), "Y": np.ones((5, 2))}
    samples[side] = np.zeros((5, 2, 2))
    with pytest.raises(DimensionMismatchError, match=f"sample {side}"):
        two_sample_test(samples["X"], samples["Y"], method=method, permutations=19)


def test_bonferroni_uses_worst_coordinate():
    gen = stream(311)
    X = gen.standard_normal((5000, 2))
    Y = gen.standard_normal((5000, 2))
    Y[:, 1] += 1.0  # only the second coordinate differs
    res = two_sample_test(X, Y, method="ks")
    assert res.p_value < 1e-6
    assert res.coordinate_p_values[0] > res.coordinate_p_values[1]


def ks_reference(X, Y):
    """Per-column scipy.stats.ks_2samp: the reference for the batched KS."""
    with warnings.catch_warnings():
        # scipy announces its exact-to-asymptotic fallback; the values are the reference
        warnings.simplefilter("ignore", RuntimeWarning)
        results = [ks_2samp(X[:, i], Y[:, i]) for i in range(X.shape[1])]
    return [r.pvalue for r in results], [r.statistic for r in results]


def bits(values):
    return [np.float64(v).tobytes() for v in values]


def ks_case(kind, n, m=None):
    gen = stream(313, n, len(kind))
    X = gen.laplace(size=(n, 2))
    if kind == "shifted":
        Y = gen.laplace(size=(m or n, 2)) + [0.0, 0.1]
    elif kind == "tied":
        X = np.round(X, 1)
        Y = np.round(gen.laplace(size=(n, 2)) + [0.05, 0.0], 1)
    elif kind == "ties_across":  # each run of equal values holds points of both samples
        X = gen.integers(0, 4, (n, 2)).astype(float)
        Y = gen.integers(1, 5, (n, 2)).astype(float)
    elif kind == "signed_zero":  # -0.0 == 0.0, in whatever order the sort leaves them
        X = np.where(gen.random((n, 2)) < 0.5, -0.0, 0.0)
        Y = np.where(gen.random((n, 2)) < 0.3, -0.0, 0.0)
        X[: n // 6] = 1.0
        Y[-(n // 3) :] = -1.0
    elif kind == "equal":  # all 2n values equal: h = 0
        X = np.full((n, 2), 1.5)
        Y = X.copy()
    elif kind == "identical":
        Y = X[gen.permutation(n)]
    elif kind == "one_step":
        X = np.tile(np.arange(float(n))[:, None], (1, 2))
        Y = X.copy()
        Y[-1, 0] += 0.5  # one point later: D = 1/n in the first column
    elif kind == "d1":
        X = X[:, :1]
        Y = gen.laplace(size=(n, 1)) + 0.2
    elif kind == "d5":
        X = gen.laplace(size=(n, 5))
        Y = gen.laplace(size=(n, 5)) + np.linspace(0.0, 0.3, 5)
    elif kind == "huge":  # entries near ±1e300
        X = gen.uniform(-1.0, 1.0, (n, 2)) * 1e300
        Y = gen.uniform(-0.9, 1.1, (n, 2)) * 1e300
    else:  # "separated": every Y beyond every X, D = 1
        Y = X + 100.0
    return X, Y


@pytest.mark.parametrize(
    "kind, n, m",
    [("shifted", n, None) for n in (1, 2, 100, 109, 400, 3000, 10_000)]
    + [
        ("tied", 400, None),
        ("tied", 3000, None),
        ("ties_across", 2, None),
        ("ties_across", 300, None),
        ("signed_zero", 60, None),
        ("equal", 50, None),
        ("d1", 500, None),
        ("d5", 500, None),
        ("huge", 400, None),
        ("identical", 400, None),
        ("one_step", 109, None),
        ("separated", 3000, None),
        ("shifted", 300, 500),  # unequal sizes: ks_2samp itself
        ("shifted", 10_001, None),  # above the exact limit: ks_2samp itself
    ],
)
def test_ks_is_bitwise_equal_to_per_column_ks_2samp(kind, n, m):
    X, Y = ks_case(kind, n, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = two_sample_test(X, Y, method="ks")
    pvals, stats = ks_reference(X, Y)
    assert bits(res.coordinate_p_values) == bits(pvals)
    assert bits([res.statistic]) == bits([max(stats)])
    if m is None and n <= 10_000:
        assert bits([h / n for h in _ks_h_values(X, Y)]) == bits(stats)
    gen = stream(315, n)
    for shuffled in ((X[gen.permutation(len(X))], Y), (X, Y[gen.permutation(len(Y))])):
        again = two_sample_test(*shuffled, method="ks")
        assert bits(again.coordinate_p_values) == bits(pvals)
        assert bits([again.statistic]) == bits([res.statistic])


def test_ks_cases_reach_every_branch():
    # the parametrized cases above cover h = 0, scipy's fallback and h = n
    assert ks_reference(*ks_case("identical", 400))[0] == [1.0, 1.0]
    assert _ks_h_values(*ks_case("equal", 50)) == [0, 0]
    assert not 0 <= _ks_prob_outside_square(109, 1) <= 1
    assert _ks_h_values(*ks_case("one_step", 109))[0] == 1
    assert _ks_h_values(*ks_case("separated", 3000)) == [3000, 3000]


def test_ks_random_cases_are_bitwise_equal_to_ks_2samp():
    gen = stream(317)
    for _ in range(60):
        n = int(gen.integers(100, 2001))
        X = np.round(gen.standard_normal((n, 2)), int(gen.integers(1, 4)))
        Y = np.round(gen.standard_normal((n, 2)) * gen.uniform(0.8, 1.2) + gen.uniform(-0.2, 0.2), 2)
        hs = _ks_h_values(X, Y)
        ref_p, ref_s = ks_reference(X, Y)
        assert bits(two_sample_test(X, Y, method="ks").coordinate_p_values) == bits(ref_p)
        assert bits([h / n for h in hs]) == bits(ref_s)


def per_h_reference(n, h):
    """Pr(D_{n,n} >= h/n) by one call per h, every A_k advancing through j
    together: the reference for the batched pass."""
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


@pytest.mark.parametrize("n", [1, 2, 60, 109, 997, 3000])
def test_batched_ks_probability_is_bitwise_the_per_h_loop_at_every_h(n):
    hs = np.arange(1, n + 1)
    assert bits(_ks_prob_outside_square(n, hs)) == bits([per_h_reference(n, h) for h in hs])


def test_batched_ks_probability_is_bitwise_the_per_h_loop_in_mixed_batches():
    gen = stream(319)
    for n in (1, 2, 60, 997, 3000, 10_000):
        batches = [
            [1, n],
            [n, 1, n, 1],
            [3] * 7 if n >= 3 else [1, 1],
            gen.integers(1, n + 1, 40),  # unsorted, with repeats at small n
            gen.integers(1, min(n, 12) + 1, 25),
        ]
        for hs in batches:
            got = _ks_prob_outside_square(n, hs)
            assert got.shape == np.shape(hs)
            assert bits(got) == bits([per_h_reference(n, int(h)) for h in hs]), (n, hs)
    # h = 1 at n = 10^4 spans more than one group of terms
    hs = [1, 500, 1, 7, 1, 1, 1, 1, 10_000, 1, 1]
    assert bits(_ks_prob_outside_square(10_000, hs)) == bits([per_h_reference(10_000, h) for h in hs])
    assert _ks_prob_outside_square(109, 1).shape == ()


def test_batched_ks_probability_memory_is_one_chunk_plus_the_terms():
    n, columns = 10_000, 10
    tracemalloc.start()
    try:
        _ks_prob_outside_square(n, np.ones(columns, dtype=int))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = columns * (n + 1) * 8
    # a chunk holds its k h and h per cell (8 B each), the cell's two factors
    # (8 B each) and their temporaries; without chunks the (h, cells) factor
    # matrices and their integer steps would grow with the columns
    assert peak < terms + 6 * 8 * _KS_CHUNK_CELLS


# ---------------------------------------------------------------------------
# the distributional equivariance test


def spec_for(dim, n=1000, seed=0, anchors=None, sig=0.05):
    return DistributionalTestSpec(
        dim=dim, samples_per_anchor=n, seed=seed, anchors=anchors, significance=sig
    )


def test_identity_map_calibration_rate():
    # a = id, m1 = m2: the null holds, so the Bonferroni verdict should pass
    # in at least 94% of 200 seeded repetitions
    m = laplace_walk()
    a = AffineMap(np.eye(2), np.zeros(2))
    passes = 0
    for rep in range(200):
        spec = DistributionalTestSpec(dim=2, samples_per_anchor=300, anchor_count=3, seed=rep)
        if stochastic_equivariance_test(a, m, m, spec).passed:
            passes += 1
    assert passes >= 188


def test_signed_permutation_with_offset_passes():
    m = laplace_walk()
    a = AffineMap(SWAP @ np.diag([1.0, -1.0]), np.array([0.3, 0.0]))
    report = stochastic_equivariance_test(a, m, m, spec_for(2, n=2000, seed=4))
    assert report.passed
    assert len(report.anchors) == 5


def test_rotation_rejected_with_laplace_increments():
    m = laplace_walk(alpha=1.0)
    a = AffineMap(rotation(np.pi / 4), np.zeros(2))
    for seed in (0, 1, 2):
        report = stochastic_equivariance_test(a, m, m, spec_for(2, n=10_000, seed=seed))
        assert not report.passed
        assert report.min_p_value < 1e-4


def test_rotation_passes_with_gaussian_increments():
    m = laplace_walk(alpha=2.0)
    a = AffineMap(rotation(np.pi / 4), np.zeros(2))
    passes = sum(
        stochastic_equivariance_test(a, m, m, spec_for(2, n=2000, seed=seed)).passed
        for seed in range(10)
    )
    assert passes >= 9  # isotropic Gaussian is rotation invariant


def test_nonfinite_samples_name_the_anchor():
    good = laplace_walk()
    bad = StochasticMechanism(
        kernel=lambda z, U: np.full_like(U, np.nan), dim=2, label="nan"
    )
    with pytest.raises(NonFiniteSampleError) as exc:
        stochastic_equivariance_test(AffineMap(np.eye(2), np.zeros(2)), bad, good, spec_for(2, n=200))
    assert "anchor 0" in str(exc.value)


def battery_mechanism(dim, shift):
    """A kernel keyed on the anchor's first coordinate: at 0 every point is 0
    (h = 0), at 1 a grid of n points moved `shift` points up (h = shift), and
    elsewhere logistic noise around the anchor."""

    def kernel(z, U):
        if z[0] == 0.0:
            return np.zeros_like(U)
        if z[0] == 1.0:
            return np.tile(np.arange(float(U.shape[0]))[:, None] + shift, (1, dim))
        return z + np.log(U / (1.0 - U))

    return StochasticMechanism(kernel=kernel, dim=dim, label=f"battery+{shift}")


# n -> the moved grid's h: at 109, 3000 and 10^4 one whose exact value leaves
# [0, 1], so scipy falls back to kstwo; no h does at n = 100, and 10^4 + 1
# points take ks_2samp's asymptotic path
FALLBACK_STEP = {100: 1, 109: 1, 3000: 2, 10_000: 1, 10_001: 1}


@pytest.mark.parametrize("n", [100, 109, 3000, 10_000, 10_001])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("workers", [1, 2])
def test_battery_is_bitwise_two_sample_test_at_each_anchor(n, dim, workers):
    h = FALLBACK_STEP[n]
    m1, m2 = battery_mechanism(dim, 0), battery_mechanism(dim, h)
    a = AffineMap(np.eye(dim), np.zeros(dim))
    anchors = np.array([[0.0, 0.5], [1.0, -1.0], [-0.5, 0.3], [0.7, -1.2], [1.5, 0.0]])[:, :dim]
    spec = DistributionalTestSpec(dim=dim, samples_per_anchor=n, anchors=anchors, seed=5)
    report = stochastic_equivariance_test(a, m1, m2, spec, workers=workers)
    for i, (z, got) in enumerate(zip(anchors, report.anchors)):
        X = a(m1.sample_next(z, stream(5, i, 0).random((n, dim))))
        Y = m2.sample_next(a(z[None, :])[0], stream(5, i, 1).random((n, dim)))
        want = two_sample_test(X, Y, method="ks")
        assert got.anchor == tuple(z)
        assert got.result.method == want.method == "ks"
        assert bits([got.result.p_value, got.result.statistic]) == bits([want.p_value, want.statistic])
        assert bits(got.result.coordinate_p_values) == bits(want.coordinate_p_values)
    assert report.anchors[0].result.statistic == 0.0
    assert report.anchors[1].result.statistic == pytest.approx(h / n, rel=1e-12)
    if n in (109, 3000, 10_000):  # the exact value at h leaves [0, 1]
        assert not 0 <= per_h_reference(n, h) <= 1
    assert report.passed == all(r.result.p_value >= 0.05 / len(anchors) for r in report.anchors)


@pytest.mark.parametrize("method", ["ks", "energy"])
def test_a_map_that_does_not_return_one_point_per_row_raises_naming_the_anchor(method):
    def doubled(z):  # twice the rows: a silent unequal-size test once took these samples
        return np.vstack([z, z]) if len(z) > 1 else z

    anchors = np.array([[0.0, 0.5], [1.0, -1.0]])
    spec = DistributionalTestSpec(dim=2, samples_per_anchor=200, anchors=anchors, method=method, permutations=20)
    with pytest.raises(DimensionMismatchError, match=r"anchor 0: .* shape \(400, 2\), expected \(200, 2\)"):
        stochastic_equivariance_test(doubled, laplace_walk(), laplace_walk(), spec)


def test_worker_count_does_not_change_report():
    m = laplace_walk()
    a = AffineMap(SWAP, np.zeros(2))
    spec = spec_for(2, n=500, seed=9)
    serial = stochastic_equivariance_test(a, m, m, spec, workers=1)
    threaded = stochastic_equivariance_test(a, m, m, spec, workers=4)
    assert [r.result.p_value for r in serial.anchors] == [
        r.result.p_value for r in threaded.anchors
    ]
    assert serial.passed == threaded.passed


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionalTestSpec(dim=2, samples_per_anchor=50)
    with pytest.raises(ValueError):
        DistributionalTestSpec(dim=2, significance=0.0)
    with pytest.raises(ValueError):
        DistributionalTestSpec(dim=2, method="wilcoxon")
    with pytest.raises(DimensionMismatchError):
        DistributionalTestSpec(dim=2, anchors=np.zeros((3, 3)))
    # accepted before, and the test then failed with "kernel expects dimension 2, got state 4"
    with pytest.raises(DimensionMismatchError, match="anchors"):
        DistributionalTestSpec(dim=2, anchors=np.zeros((2, 2, 2)))
    spec = DistributionalTestSpec(dim=2, anchors=[[0.5, -0.5]])
    assert spec.anchor_points().shape == (1, 2)


def test_one_dimensional_anchors_are_anchors_of_one_coordinate():
    spec = DistributionalTestSpec(dim=1, anchors=[0.0, 1.0], samples_per_anchor=200)
    assert spec.anchor_points().tolist() == [[0.0], [1.0]]
    walk = laplace_walk(dim=1)
    report = stochastic_equivariance_test(AffineMap(np.eye(1), np.zeros(1)), walk, walk, spec)
    assert [a.anchor for a in report.anchors] == [(0.0,), (1.0,)]
    # other shapes keep their errors, and without a dimension a 1-D array stays one point
    with pytest.raises(DimensionMismatchError):
        DistributionalTestSpec(dim=2, anchors=[0.0, 1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        DistributionalTestSpec(dim=1, anchors=[[0.0, 1.0]])
    with pytest.raises(ValueError, match="anchors is empty"):
        DistributionalTestSpec(dim=1, anchors=[])
    assert DistributionalTestSpec(dim=2, anchors=[0.5, -0.5]).anchor_points().shape == (1, 2)
    (doubling,) = jacobian_identifiability_test(lambda z: 2.0 * z, np.array([0.0, 1.0, 2.0])).anchors
    assert doubling.det_deviation == pytest.approx(7.0)


@pytest.mark.parametrize("field", ["anchor_count", "permutations"])
def test_spec_requires_an_anchor_and_a_permutation(field):
    with pytest.raises(ValueError, match=field):
        DistributionalTestSpec(dim=2, **{field: 0})


@pytest.mark.parametrize(
    "field, value",
    [
        # each ended in an error that named no field: range()'s TypeError, a
        # bitwise_and TypeError, a raw TypeError, then SeedSequence's two
        ("permutations", 2.5),
        ("anchor_count", 2.5),
        ("samples_per_anchor", 1000.5),
        ("seed", -1),
        ("seed", 1.5),
        # ran a one-permutation and a one-anchor test, and seed 0, without complaint
        ("permutations", True),
        ("anchor_count", True),
        ("seed", False),
        # a TypeError comparing str with int
        ("samples_per_anchor", "1000"),
        # a slice TypeError at the grid, and a spec no mechanism could match
        ("dim", 2.5),
        ("dim", True),
    ],
)
def test_spec_rejects_a_count_that_is_not_an_integer_naming_it(field, value):
    with pytest.raises(ValueError, match=field):
        DistributionalTestSpec(**{"dim": 2, "method": "energy", field: value})


@pytest.mark.parametrize(
    "field, value", [("permutations", 2.5), ("permutations", True), ("seed", -1), ("seed", 1.5), ("seed", True)]
)
@pytest.mark.parametrize("method", ["ks", "energy"])
def test_two_sample_test_rejects_a_count_that_is_not_an_integer_naming_it(method, field, value):
    X = stream(319, 0).standard_normal((64, 2))
    with pytest.raises(ValueError, match=field):
        two_sample_test(X, X + 0.5, method=method, **{field: value})


def test_numpy_integers_are_counts():
    walk = laplace_walk()
    a = AffineMap(SWAP, np.zeros(2))
    fields = dict(samples_per_anchor=200, anchor_count=2, permutations=19, seed=3)
    base = stochastic_equivariance_test(a, walk, walk, DistributionalTestSpec(dim=2, method="energy", **fields))
    spec = DistributionalTestSpec(dim=2, method="energy", **{k: np.int64(v) for k, v in fields.items()})
    assert stochastic_equivariance_test(a, walk, walk, spec) == base
    X = stream(319, 1).standard_normal((64, 2))
    assert two_sample_test(X, X, "energy", seed=np.int32(3), permutations=np.int64(19)) == two_sample_test(
        X, X, "energy", seed=3, permutations=19
    )


# ---------------------------------------------------------------------------
# class membership of the linear part


def test_swap_with_sign_and_offset_in_class():
    a = AffineMap(SWAP @ np.diag([1.0, -1.0]), np.array([0.3, 0.0]))
    verdict = signed_perm_offset_test(a)
    assert verdict.in_class
    assert verdict.orthonormal and verdict.signed_permutation and verdict.volume_preserving
    assert verdict.permutation == (1, 0)
    assert verdict.signs == (-1, 1)


def test_uniform_scaling_out_of_class():
    verdict = signed_perm_offset_test(2.0 * np.eye(2))
    assert not verdict.orthonormal
    assert not verdict.in_class
    assert verdict.det_deviation == pytest.approx(3.0)


def test_rotation_orthonormal_but_not_permutation():
    verdict = signed_perm_offset_test(rotation(np.pi / 6))
    assert verdict.orthonormal
    assert verdict.orthonormal_defect < 1e-12
    assert not verdict.signed_permutation
    assert not verdict.in_class


def test_in_class_implies_orthonormal_and_pattern():
    gen = stream(331)
    for d in (2, 3, 5):
        for _ in range(10):
            P = random_signed_permutation(gen, d)
            verdict = signed_perm_offset_test(AffineMap(P, gen.standard_normal(d)))
            assert verdict.in_class
            assert verdict.orthonormal and verdict.signed_permutation


def test_class_composition_closure():
    gen = stream(337)
    for _ in range(10):
        a = AffineMap(random_signed_permutation(gen, 3), gen.standard_normal(3))
        b = AffineMap(random_signed_permutation(gen, 3), gen.standard_normal(3))
        assert signed_perm_offset_test(compose(a, b)).in_class
        assert signed_perm_offset_test(inverse_map(a)).in_class


# ---------------------------------------------------------------------------
# finite differences


def test_fd_jacobian_exact_on_quadratics():
    fn = lambda z: np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)
    J = finite_difference_jacobian(fn, np.array([1.0, 2.0]))
    assert np.allclose(J, [[2.0, 0.0], [0.0, 1.0]], atol=1e-9)


def test_fd_guard_trips_on_square_root_kink():
    fn = lambda z: np.sign(z) * np.sqrt(np.abs(z))
    with pytest.raises(IllConditionedError):
        jacobian_identifiability_test(fn, np.zeros((1, 2)))


def test_volume_signed_permutation():
    gen = stream(341)
    a = AffineMap(random_signed_permutation(gen, 3), gen.standard_normal(3))
    anchors = jacobian_identifiability_test(a, gen.standard_normal((6, 3))).anchors
    assert all(v.volume_preserving for v in anchors)
    assert max(v.det_deviation for v in anchors) <= 1e-8


@pytest.mark.parametrize("d", [2, 3])
def test_volume_doubling_map_deviation(d):
    a = AffineMap(2.0 * np.eye(d), np.zeros(d))
    (v,) = jacobian_identifiability_test(a, np.zeros((1, d))).anchors
    assert not v.volume_preserving
    assert v.det_deviation == pytest.approx(2.0**d - 1.0, rel=1e-6)


def test_volume_shear_passes():
    fn = lambda z: np.stack([z[..., 0] + 0.1 * z[..., 1] ** 2, z[..., 1]], axis=-1)
    pts = stream(347).uniform(-2, 2, (12, 2))
    report = jacobian_identifiability_test(fn, pts)
    assert all(v.volume_preserving for v in report.anchors)


def test_jacobian_constant_rotation_pattern_in_class():
    q = np.array([0.4, -1.1])
    fn = lambda z: np.stack([-z[..., 1], z[..., 0]], axis=-1) + q
    anchors = stream(349).uniform(-2, 2, (5, 2))
    report = jacobian_identifiability_test(fn, anchors)
    assert report.in_class
    assert report.pattern_consistent
    for res in report.anchors:
        assert res.in_class
        assert res.permutation == (1, 0)
        assert res.signs == (-1, 1)


def test_jacobian_cubic_perturbation_out_of_class():
    fn = lambda z: np.stack([z[..., 0] + 0.1 * z[..., 0] ** 3, z[..., 1]], axis=-1)
    anchors = np.array([[1.0, 0.0], [0.8, 0.5], [-1.2, 0.3]])
    report = jacobian_identifiability_test(fn, anchors)
    assert not report.in_class
    for res in report.anchors:
        assert not res.in_class  # J_11 = 1 + 0.3 z_1^2 is off unit at these anchors


def test_jacobian_identity_in_class():
    report = jacobian_identifiability_test(AffineMap(np.eye(3), np.zeros(3)), np.zeros((2, 3)))
    assert report.in_class


def test_affine_class_consistency_across_levels():
    gen = stream(353)
    cases = [
        AffineMap(SWAP, np.array([0.2, 0.1])),
        AffineMap(rotation(0.7), np.zeros(2)),
        AffineMap(np.diag([1.0, -1.0]), np.ones(2)),
        AffineMap(1.5 * np.eye(2), np.zeros(2)),
        AffineMap(random_signed_permutation(gen, 4), gen.standard_normal(4)),
    ]
    for a in cases:
        closed_form = signed_perm_offset_test(a)
        anchors = stream(359).uniform(-1, 1, (4, a.dim))
        numeric = jacobian_identifiability_test(a, anchors, tol=1e-6)
        assert closed_form.in_class == numeric.in_class
        if closed_form.in_class:
            assert all(v.volume_preserving for v in numeric.anchors)
