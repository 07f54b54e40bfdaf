"""Equivariance-in-distribution testing and class membership checks.

Statistical assertions run on frozen seeds, so every rate below is a
deterministic replay of a calibration experiment, not a flaky sample.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
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
    volume_preservation_test,
)
from mechid.errors import (
    DimensionMismatchError,
    IllConditionedError,
    NonFiniteSampleError,
)
from mechid.dynamics import StochasticMechanism
from mechid.maps import AffineMap, FunctionBijection, identity_map
from mechid.rng import stream
from mechid.stochastic import _ENERGY_MAX_POINTS, _ks_equal_size, _ks_prob_outside_square

from conftest import (
    SWAP,
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
        assert bits(_ks_equal_size(X, Y)[1]) == bits(stats)
    gen = stream(315, n)
    for shuffled in ((X[gen.permutation(len(X))], Y), (X, Y[gen.permutation(len(Y))])):
        again = two_sample_test(*shuffled, method="ks")
        assert bits(again.coordinate_p_values) == bits(pvals)
        assert bits([again.statistic]) == bits([res.statistic])


def test_ks_cases_reach_every_branch():
    # the parametrized cases above cover h = 0, scipy's fallback and h = n
    assert ks_reference(*ks_case("identical", 400))[0] == [1.0, 1.0]
    assert _ks_equal_size(*ks_case("equal", 50))[1] == [0.0, 0.0]
    assert not 0 <= _ks_prob_outside_square(109, 1) <= 1
    assert round(_ks_equal_size(*ks_case("one_step", 109))[1][0] * 109) == 1
    assert _ks_equal_size(*ks_case("separated", 3000))[1] == [1.0, 1.0]


def test_ks_random_cases_are_bitwise_equal_to_ks_2samp():
    gen = stream(317)
    for _ in range(60):
        n = int(gen.integers(100, 2001))
        X = np.round(gen.standard_normal((n, 2)), int(gen.integers(1, 4)))
        Y = np.round(gen.standard_normal((n, 2)) * gen.uniform(0.8, 1.2) + gen.uniform(-0.2, 0.2), 2)
        pvals, stats = _ks_equal_size(X, Y)
        ref_p, ref_s = ks_reference(X, Y)
        assert bits(pvals) == bits(ref_p)
        assert bits(stats) == bits(ref_s)


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
    a = identity_map(2)
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
        stochastic_equivariance_test(identity_map(2), bad, good, spec_for(2, n=200))
    assert "anchor 0" in str(exc.value)


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
    spec = DistributionalTestSpec(dim=2, anchors=[[0.5, -0.5]])
    assert spec.anchor_points().shape == (1, 2)


def test_one_dimensional_anchors_are_anchors_of_one_coordinate():
    spec = DistributionalTestSpec(dim=1, anchors=[0.0, 1.0], samples_per_anchor=200)
    assert spec.anchor_points().tolist() == [[0.0], [1.0]]
    walk = laplace_walk(dim=1)
    report = stochastic_equivariance_test(identity_map(1), walk, walk, spec)
    assert [a.anchor for a in report.anchors] == [(0.0,), (1.0,)]
    # other shapes keep their errors, and without a dimension a 1-D array stays one point
    with pytest.raises(DimensionMismatchError):
        DistributionalTestSpec(dim=2, anchors=[0.0, 1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        DistributionalTestSpec(dim=1, anchors=[[0.0, 1.0]])
    with pytest.raises(ValueError, match="anchors is empty"):
        DistributionalTestSpec(dim=1, anchors=[])
    assert DistributionalTestSpec(dim=2, anchors=[0.5, -0.5]).anchor_points().shape == (1, 2)
    assert volume_preservation_test(lambda z: 2.0 * z, np.array([0.0, 1.0, 2.0])).determinants == (
        pytest.approx(8.0),
    )


@pytest.mark.parametrize("field", ["anchor_count", "permutations"])
def test_spec_requires_an_anchor_and_a_permutation(field):
    with pytest.raises(ValueError, match=field):
        DistributionalTestSpec(dim=2, **{field: 0})


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
        assert signed_perm_offset_test(a.inverse_map()).in_class


# ---------------------------------------------------------------------------
# finite differences


def test_fd_jacobian_exact_on_quadratics():
    fn = lambda z: np.stack([z[..., 0] ** 2, z[..., 1]], axis=-1)
    J = finite_difference_jacobian(fn, np.array([1.0, 2.0]))
    assert np.allclose(J, [[2.0, 0.0], [0.0, 1.0]], atol=1e-9)


def test_fd_guard_trips_on_square_root_kink():
    fn = lambda z: np.sign(z) * np.sqrt(np.abs(z))
    with pytest.raises(IllConditionedError):
        volume_preservation_test(fn, np.zeros((1, 2)))


def test_volume_signed_permutation():
    gen = stream(341)
    a = AffineMap(random_signed_permutation(gen, 3), gen.standard_normal(3))
    report = volume_preservation_test(a, gen.standard_normal((6, 3)))
    assert report.passed
    assert report.max_deviation <= 1e-8


@pytest.mark.parametrize("d", [2, 3])
def test_volume_doubling_map_deviation(d):
    a = AffineMap(2.0 * np.eye(d), np.zeros(d))
    report = volume_preservation_test(a, np.zeros((1, d)))
    assert not report.passed
    assert report.max_deviation == pytest.approx(2.0**d - 1.0, rel=1e-6)


def test_volume_shear_passes():
    fn = lambda z: np.stack([z[..., 0] + 0.1 * z[..., 1] ** 2, z[..., 1]], axis=-1)
    pts = stream(347).uniform(-2, 2, (12, 2))
    report = volume_preservation_test(fn, pts)
    assert report.passed


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
    report = jacobian_identifiability_test(identity_map(3), np.zeros((2, 3)))
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
            vol = volume_preservation_test(a, anchors)
            assert vol.passed
