"""Latent dynamics, heavy-tailed increments, decoders, trajectories.

Oracles used here are independent of the implementation route: trajectory
closed forms go through np.linalg.matrix_power, and the increment law is
checked against a CDF obtained by adaptive quadrature of the unnormalized
density, not against the gamma-transform used by the sampler.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from mechid import (
    AffineMechanism,
    LinearDecoder,
    NoiseSpec,
    ScalarMap,
    StructuredDecoder,
    Trajectory,
    additive_noise_mechanism,
    simulate,
)
from mechid.errors import (
    DimensionMismatchError,
    DivergedTrajectoryError,
    NonFiniteSampleError,
    OffManifoldError,
    SingularMapError,
)
from mechid.dynamics import _check_state, _resolve_schedule
from mechid.maps import AffineMap
from mechid.rng import stream

from conftest import TransformedDecoder, random_invertible, sample_generalized_laplace

G_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def test_apply_affine_mechanism():
    m = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    assert np.allclose(m(np.array([1.0, 1.0])), [3.0, 4.0])


def test_two_step_rollout_values():
    m = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    traj = simulate(LinearDecoder(G_SHEAR), [m], np.array([1.0, 1.0]), T=2)
    assert np.allclose(traj.latents[1], [3.0, 4.0])
    assert np.allclose(traj.observations[1], [7.0, 4.0])
    assert traj.steps == 2


def test_geometric_decay():
    m = AffineMechanism(0.5 * np.eye(2), np.zeros(2))
    traj = simulate(LinearDecoder(np.eye(2)), [m], np.array([1.0, -2.0]), T=8)
    for t in range(8):
        assert np.allclose(traj.latents[t], 0.5**t * np.array([1.0, -2.0]), rtol=1e-12)


def closed_form_state(M, b, z1, T):
    # z_T = M^{T-1} z_1 + sum_{k=0}^{T-2} M^k b
    z = np.linalg.matrix_power(M, T - 1) @ z1
    for k in range(T - 1):
        z = z + np.linalg.matrix_power(M, k) @ b
    return z


def test_rollout_matches_closed_form():
    for trial in range(20):
        gen = stream(900 + trial)
        d = int(gen.integers(2, 5))
        M = random_invertible(gen, d, cond_cap=10.0)
        M *= 1.05 / np.max(np.abs(np.linalg.eigvals(M)))
        b = gen.standard_normal(d)
        z1 = gen.standard_normal(d)
        T = int(gen.integers(2, 21))
        traj = simulate(
            LinearDecoder(np.eye(d)), [AffineMechanism(M, b)], z1, T=T
        )
        want = closed_form_state(M, b, z1, T)
        assert np.linalg.norm(traj.latents[-1] - want) <= 1e-9 * (1 + np.linalg.norm(want))


def test_divergence_guard_carries_step():
    m = AffineMechanism(3.0 * np.eye(2), np.zeros(2))
    with pytest.raises(DivergedTrajectoryError) as exc:
        simulate(LinearDecoder(np.eye(2)), [m], np.array([1.0, 1.0]), T=40)
    assert exc.value.norm > exc.value.bound
    # |z_t| = 3^(t-1) sqrt(2) first exceeds 1e12 at t = 26
    assert exc.value.step == 26


def test_non_finite_state_is_named_apart_from_divergence():
    dec = LinearDecoder(np.eye(2))
    doubling_then_nan = lambda z: np.where(z > 3.0, np.nan, 2.0 * z)
    with pytest.raises(NonFiniteSampleError, match="simulation step 4"):
        simulate(dec, [doubling_then_nan], np.ones(2), T=6)
    to_inf = lambda z: np.full_like(z, np.inf)
    with pytest.raises(NonFiniteSampleError, match="simulation step 2"):
        simulate(dec, [to_inf], np.ones(2), T=3)
    # finite entries whose norm overflows are a divergence, not a non-finite state
    with pytest.raises(DivergedTrajectoryError) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(dec, [to_inf], np.full(2, 1e200), T=3)
    assert exc.value.step == 1
    assert exc.value.norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)


def test_a_callable_mechanism_that_returns_the_wrong_shape_is_named_with_its_step():
    # the state was stored by broadcasting, so numpy's "could not broadcast
    # input array from shape (3,) into shape (2,)" was all a caller saw
    dec = LinearDecoder(np.eye(2))
    widen = lambda z: np.append(z, 0.0)
    with pytest.raises(DimensionMismatchError, match=r"simulation step 2: .* shape \(3,\), expected \(2,\)"):
        simulate(dec, [widen], np.ones(2), T=3)
    # after a run of affine steps, and for a shape that would have broadcast
    m = AffineMechanism(0.5 * np.eye(2), np.zeros(2))
    as_row = lambda z: z[None, :]
    with pytest.raises(DimensionMismatchError, match=r"simulation step 4: .* shape \(1, 2\), expected \(2,\)"):
        simulate(dec, [m, as_row], np.ones(2), T=5, schedule=[0, 0, 1, 0])


def per_step_rollout(mechanisms, schedule, z1, T, seed=0):
    """The rollout as one mechanism call and one state check per step: the reference."""
    z = np.asarray(z1, dtype=float)
    _check_state(z, 1)
    latents = [z]
    for t in range(1, T):
        mech = mechanisms[schedule[t - 1]]
        if isinstance(mech, AffineMechanism) and mech.noise is not None:
            z = mech.sample_next(z, stream(seed, t).random((1, mech.dim)))[0]
        else:
            z = mech(z)
        _check_state(z, t + 1)
        latents.append(z)
    return np.array(latents)


def outcome(run):
    """(latents bytes, None) of a rollout, or (None, what it raised)."""
    try:
        return run().tobytes(), None
    except (DivergedTrajectoryError, NonFiniteSampleError) as e:
        return None, (type(e), str(e), getattr(e, "step", None), getattr(e, "norm", None))


def test_long_rollout_is_the_per_step_rollout_bitwise():
    gen = stream(906)
    for d, k in ((2, 1), (3, 2), (5, 3)):
        mechs = []
        for _ in range(k):
            M = random_invertible(gen, d, cond_cap=10.0)
            mechs.append(AffineMechanism(0.99 * M / np.linalg.norm(M, 2), gen.standard_normal(d)))
        schedule = gen.integers(0, k, 10**5 - 1).tolist()
        z1 = gen.standard_normal(d)
        traj = simulate(LinearDecoder(np.eye(d)), mechs, z1, T=10**5, schedule=schedule)
        assert traj.latents.tobytes() == per_step_rollout(mechs, schedule, z1, 10**5).tobytes()


def test_mixed_rollout_keeps_each_stochastic_step_stream():
    mechs = [AffineMechanism([[0.9, 0.2], [-0.1, 0.8]], [0.3, -0.2]), walk()]
    schedule = stream(907).integers(0, 2, 3000).tolist()
    traj = simulate(LinearDecoder(np.eye(2)), mechs, np.ones(2), T=3001, schedule=schedule, seed=4)
    assert traj.latents.tobytes() == per_step_rollout(mechs, schedule, np.ones(2), 3001, seed=4).tobytes()


def per_step_schedule(count, schedule, T):
    """The schedule as one `int` and one range check per step: the reference."""
    if schedule is None:
        if count != 1:
            raise ValueError("schedule is required when more than one mechanism is given")
        schedule = [0] * (T - 1)
    if len(schedule) < T - 1:
        raise ValueError(f"schedule has {len(schedule)} steps, {T - 1} needed")
    idx = [int(i) for i in schedule[: T - 1]]
    for i in idx:
        if not 0 <= i < count:
            raise ValueError(f"schedule index {i} out of range for {count} mechanisms")
    return idx


@pytest.mark.parametrize(
    "count, schedule, T",
    [
        (1, None, 1),
        (1, None, 6),
        (2, None, 6),
        (3, (0, 2, 1, 1, 0), 6),
        (3, [0, 2, 1, 1, 0, 2, 2], 6),  # steps past T - 1 are not read, nor checked
        (3, (0, 2, 1, 1, 0, 7), 6),
        (3, np.array([2, 0, 1, 0, 1]), 6),
        (3, np.array([2, 0, 1], dtype=np.int32), 4),
        (3, np.array([2.0, 0.5, 1.9]), 4),  # truncated, as int() truncates
        (3, (), 1),
        (3, (0, 1), 4),
        (3, np.arange(5), 7),
        (3, (0, 1, 3, -1), 5),
        (3, (0, 1, -1, 3), 5),
        (3, np.array([0, -2, 5]), 4),
        (3, (0, 2**70, -1), 4),  # past int64
        (3, (0, 1, 2) * 1000 + (3,), 3002),
    ],
)
def test_resolve_schedule_gives_the_per_step_values_and_messages(count, schedule, T):
    try:
        want = np.array(per_step_schedule(count, schedule, T), dtype=np.int64)
    except ValueError as e:
        with pytest.raises(ValueError) as exc:
            _resolve_schedule(count, schedule, T)
        assert str(exc.value) == str(e)
    else:
        got = _resolve_schedule(count, schedule, T)
        assert got.dtype == np.int64 and got.shape == (T - 1,)
        assert np.array_equal(got, want)


def test_trajectory_keeps_a_schedule_array_as_a_tuple_of_ints():
    traj = Trajectory(latents=np.zeros((4, 1)), observations=np.zeros((4, 1)), mechanisms=np.array([2, 0, 1]))
    assert traj.mechanisms == (2, 0, 1) and all(type(i) is int for i in traj.mechanisms)


GROW = AffineMechanism(1.5 * np.eye(2), [1.0, -1.0])
SHRINK = AffineMechanism(0.5 * np.eye(2), [0.1, 0.0])
KEEP = AffineMechanism(np.eye(2), np.zeros(2))
OVERFLOW = AffineMechanism(1e300 * np.eye(2), np.zeros(2))
# from (1e10, 1e10) the first row is 1e310 - 1e310: inf - inf, NaN
NAN = AffineMechanism([[1e300, -1e300], [1e300, 1e300]], np.zeros(2))
HUGE = AffineMechanism(1e200 * np.eye(2), np.zeros(2))
LAPLACE_WALK = additive_noise_mechanism(NoiseSpec("generalized-laplace", alpha=1.0, dim=2))


@pytest.mark.parametrize(
    "mechs, schedule, z1",
    [
        ([GROW], [0] * 200, [1.0, 1.0]),
        # the bound is crossed deep into a long run, inside a block of steps
        ([SHRINK, GROW], [0] * 70_000 + [1] * 200, [1.0, 1.0]),
        ([KEEP, OVERFLOW], [0] * 5000 + [1] * 3, [1e10, 1e10]),
        ([KEEP, NAN], [0] * 4099 + [1] * 3, [1e10, 1e10]),
        # finite and past the bound before the step that overflows
        ([HUGE], [0] * 5, [1e10, 1e10]),
        ([NAN], [0] * 5, [1e10, 1e10]),
        ([OVERFLOW], [0] * 5, [1e10, 1e10]),
        # a stochastic step after a diverged affine one
        ([GROW, LAPLACE_WALK], [0] * 100 + [1] * 100, [1.0, 1.0]),
    ],
    ids=["grow", "late-grow", "overflow", "nan", "huge", "nan-first", "overflow-first", "then-noise"],
)
def test_planted_failures_name_the_step_the_per_step_rollout_names(mechs, schedule, z1):
    T = len(schedule) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference's overflow warnings
        want = outcome(lambda: per_step_rollout(mechs, schedule, z1, T, seed=1))
    assert want[0] is None  # each plant fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rollout screens its states under errstate
        got = outcome(lambda: simulate(LinearDecoder(np.eye(2)), mechs, z1, T=T, schedule=schedule, seed=1).latents)
    assert got == want


IDENTITY_MAPS = (ScalarMap("identity"),) * 2


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: AffineMechanism([[1.0, 0.0], [0.0, v]], np.zeros(2)), r"M\[1\]"),
        (lambda v: AffineMechanism(np.eye(2), [v, 0.0]), "b"),
        (lambda v: AffineMap([[v, 0.0], [0.0, 1.0]], np.zeros(2)), r"A\[0\]"),
        (lambda v: AffineMap(np.eye(2), [0.0, v]), "p"),
        (lambda v: LinearDecoder([[1.0, 0.0], [0.0, 1.0], [v, 1.0]]), r"G\[2\]"),
        (lambda v: StructuredDecoder([[1.0, v], [0.0, 1.0]], IDENTITY_MAPS), r"G\[0\]"),
    ],
    ids=["M", "b", "A", "p", "LinearDecoder.G", "StructuredDecoder.G"],
)
@pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_rejected_naming_them(build, name, v):
    with pytest.raises(NonFiniteSampleError, match=rf"at {name}$"):
        build(v)


def test_schedule_cycles_mechanisms():
    m0 = AffineMechanism(np.eye(2), np.array([1.0, 0.0]))
    m1 = AffineMechanism(np.eye(2), np.array([0.0, 1.0]))
    traj = simulate(
        LinearDecoder(np.eye(2)), [m0, m1], np.zeros(2), T=5, schedule=[0, 1, 0, 1]
    )
    assert np.allclose(traj.latents[-1], [2.0, 2.0])
    assert traj.mechanisms == (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# generalized-Laplace increments


def quad_cdf(alpha, scale):
    """CDF of the density proportional to exp(-|v/scale|^alpha), by quadrature."""
    half_mass = integrate.quad(lambda v: np.exp(-((v / scale) ** alpha)), 0, np.inf)[0]

    def cdf(x):
        out = np.empty_like(np.asarray(x, dtype=float))
        for i, xi in enumerate(np.atleast_1d(x)):
            tail = integrate.quad(
                lambda v: np.exp(-((v / scale) ** alpha)), 0, abs(xi), limit=200
            )[0]
            out.flat[i] = 0.5 + 0.5 * np.sign(xi) * tail / half_mass
        return out

    return cdf


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.0])
def test_sampler_matches_quadrature_cdf(alpha):
    draws = sample_generalized_laplace(alpha, 1.0, 2000, stream(17, int(alpha * 10)))
    res = stats.ks_1samp(draws, quad_cdf(alpha, 1.0))
    assert res.pvalue > 0.01


def test_gaussian_case_unit_variance():
    # alpha=2, scale=sqrt(2) is the standard normal
    spec = NoiseSpec("generalized-laplace", scale=np.sqrt(2.0), alpha=2.0)
    draws = spec.ppf(stream(23).random((50_000, 1)))
    assert abs(np.var(draws) - 1.0) < 0.03


def test_laplace_excess_kurtosis():
    draws = sample_generalized_laplace(1.0, 1.0, 200_000, stream(29))
    assert abs(stats.kurtosis(draws) - 3.0) < 0.2


def test_ppf_median_and_inverse_consistency():
    spec = NoiseSpec("generalized-laplace", scale=1.3, alpha=0.8)
    assert spec.ppf(np.array([0.5]))[0] == 0.0
    u = np.linspace(0.02, 0.98, 25)
    x = spec.ppf(u)
    assert np.all(np.diff(x) > 0)
    assert np.allclose(quad_cdf(0.8, 1.3)(x), u, atol=1e-7)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_ppf_closed_forms_match_gammaincinv(alpha):
    tiny = [1e-300, 1e-17, 1e-12, 1e-6]
    u = np.concatenate(
        [
            tiny,
            np.linspace(0.0, 1.0, 20001)[:-1],
            [0.5 - t for t in tiny[1:]] + [0.5 + t for t in tiny[1:]],
            [1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 1e-15, 1.0 - 1e-16],
        ]
    )
    scale = 1.7
    spec = NoiseSpec("generalized-laplace", scale=scale, alpha=alpha)
    x = spec.ppf(u)
    s = u - 0.5
    w = np.clip(2.0 * np.abs(s), 0.0, 1.0 - 1e-16)
    expected = np.sign(s) * scale * special.gammaincinv(1.0 / alpha, w) ** (1.0 / alpha)
    np.testing.assert_allclose(x, expected, rtol=1e-13, atol=0.0)
    assert spec.ppf(np.array([0.5]))[0] == 0.0
    # dyadic offsets, so that 0.5 + t and 0.5 - t are both exact
    t = np.arange(1, 512) / 1024.0
    np.testing.assert_array_equal(spec.ppf(0.5 + t), -spec.ppf(0.5 - t))


def test_ppf_sampling_agrees_with_direct_sampler():
    spec = NoiseSpec("generalized-laplace", scale=1.0, alpha=1.0)
    via_ppf = spec.ppf(stream(31, 0).random(4000))
    direct = sample_generalized_laplace(1.0, 1.0, 4000, stream(31, 1))
    assert stats.ks_2samp(via_ppf, direct).pvalue > 0.01


# ---------------------------------------------------------------------------
# stochastic rollouts


def walk(dim=2, alpha=1.0):
    return additive_noise_mechanism(NoiseSpec("generalized-laplace", alpha=alpha, dim=dim))


WALK_NOISES = [
    {"family": "gaussian"},
    {"family": "uniform"},
    {"family": "generalized-laplace", "alpha": 1.0},
    {"family": "generalized-laplace", "alpha": 1.5},
]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("noise", WALK_NOISES)
def test_identity_walk_is_the_state_plus_its_noise_bit_for_bit(noise, dim):
    # z @ I.T + 0 adds only exact zeros to z, so the walk's default M and b
    # leave every bit of z + ppf(U), signed zeros and subnormal states included
    noise = NoiseSpec(dim=dim, **noise)
    mech = additive_noise_mechanism(noise)
    assert (mech.dim, mech.label) == (dim, "additive-noise")
    gen = stream(47, dim)
    U = np.vstack([gen.random((64, dim)), np.full((1, dim), 0.5)])  # ppf(0.5) is exactly 0
    states = [np.zeros(dim), -np.zeros(dim), 1e3 * gen.standard_normal(dim), 1e-300 * gen.standard_normal(dim)]
    for z in states:
        want = z[None, :] + noise.ppf(U)
        assert mech.sample_next(z, U).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "fields, name",
    [
        # both were accepted, and a count of 2.5 or True is no dimension
        ({"family": "uniform", "dim": 2.5}, "dim"),
        ({"family": "uniform", "dim": True}, "dim"),
        # each built, and its ppf returned NaN or -inf, so a walk failed only at some later step
        ({"family": "gaussian", "scale": math.nan}, "scale"),
        ({"family": "gaussian", "scale": math.inf}, "scale"),
        ({"family": "generalized-laplace", "alpha": math.nan}, "alpha"),
        ({"family": "generalized-laplace", "alpha": math.inf}, "alpha"),
    ],
)
def test_noise_spec_rejects_a_field_out_of_its_domain_naming_it(fields, name):
    with pytest.raises(ValueError, match=name):
        NoiseSpec(**fields)


@pytest.mark.parametrize("T", [2.5, True])
def test_simulate_takes_an_integer_step_count(T):
    # 2.5 ended in a raw TypeError, and True ran one step
    m = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2))
    with pytest.raises(ValueError, match="^T must be an integer"):
        simulate(LinearDecoder(np.eye(2)), [m], np.zeros(2), T=T)


def test_walk_offset_and_matrix_must_match_the_noise_dimension():
    noise = NoiseSpec("uniform", dim=2)
    with pytest.raises(DimensionMismatchError, match=r"^M/b shapes \(3, 3\)/\(2,\) do not match dimension 2$"):
        additive_noise_mechanism(noise, M=np.eye(3))
    with pytest.raises(DimensionMismatchError, match=r"^M/b shapes \(2, 2\)/\(1,\) do not match dimension 2$"):
        additive_noise_mechanism(noise, b=[1.0])


@pytest.mark.parametrize("field, value", [("M", [[math.nan, 0.0], [0.0, 1.0]]), ("b", [math.inf, 0.0])])
def test_walk_with_a_non_finite_parameter_names_it(field, value):
    # both built, and the NaN walk then sampled [[nan, nan]] at every state
    with pytest.raises(NonFiniteSampleError, match=f"at {field}"):
        additive_noise_mechanism(NoiseSpec("uniform", dim=2), **{field: value})


def test_walk_holds_its_parameters_read_only():
    M, b = np.array([[0.5, 1.0], [0.0, 2.0]]), np.array([0.1, -3.0])
    noise = NoiseSpec("gaussian", scale=0.5, dim=2)
    mech = AffineMechanism(M, b, "w", noise)
    assert (mech.noise, mech.dim, mech.label) == (noise, 2, "w")
    M[0, 0] = b[0] = 7.0  # the walk keeps its own copies
    assert mech.M.tolist() == [[0.5, 1.0], [0.0, 2.0]] and mech.b.tolist() == [0.1, -3.0]
    assert not (mech.M.flags.writeable or mech.b.flags.writeable)
    U = stream(59, 0).random((16, 2))
    z = np.array([1.5, -0.25])
    assert mech.sample_next(z, U).tobytes() == (z @ mech.M.T + mech.b + noise.ppf(U)).tobytes()


def test_stochastic_rollout_reproducible():
    dec = LinearDecoder(np.eye(2))
    a = simulate(dec, [walk()], np.zeros(2), T=6, seed=5)
    b = simulate(dec, [walk()], np.zeros(2), T=6, seed=5)
    assert np.array_equal(a.latents, b.latents)
    c = simulate(dec, [walk()], np.zeros(2), T=6, seed=6)
    assert not np.array_equal(a.latents, c.latents)


def test_stochastic_rollout_prefix_property():
    # step t draws from the stream keyed (seed, t), so shorter runs are prefixes
    dec = LinearDecoder(np.eye(2))
    long = simulate(dec, [walk()], np.zeros(2), T=7, seed=11)
    short = simulate(dec, [walk()], np.zeros(2), T=4, seed=11)
    assert np.array_equal(long.latents[:4], short.latents)


def test_callable_initial_condition_seeded():
    dec = LinearDecoder(np.eye(2))
    init = lambda g: g.uniform(-1, 1, 2)
    a = simulate(dec, [walk()], init, T=3, seed=2)
    b = simulate(dec, [walk()], init, T=3, seed=2)
    assert np.array_equal(a.latents, b.latents)


# ---------------------------------------------------------------------------
# decoders


def test_linear_decoder_roundtrip():
    gen = stream(41)
    G = gen.standard_normal((5, 3))
    dec = LinearDecoder(G)
    z = gen.standard_normal((20, 3))
    assert np.max(np.abs(dec.encode(dec.decode(z)) - z)) < 1e-10


def test_linear_decoder_manifold_check():
    dec = LinearDecoder(np.array([[1.0], [1.0]]))
    with pytest.raises(OffManifoldError):
        dec.encode(np.array([1.0, 2.0]))
    assert np.allclose(dec.encode(np.array([1.5, 1.5])), [1.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "G", [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [1.0, 1.0]]], ids=["tall", "square"]
)
def test_linear_decoder_rejects_a_non_finite_observation(G, bad):
    # a NaN deviation is not above the tolerance, so it used to pass the manifold check
    dec = LinearDecoder(np.array(G))
    x = dec.decode(np.array([[0.3, -0.2], [1.0, 2.0]]))
    x[1, 0] = bad
    with pytest.raises(OffManifoldError) as exc:
        dec.encode(x)
    assert exc.value.point_index == 1


def test_structured_decoder_roundtrip():
    gen = stream(43)
    G = gen.standard_normal((4, 2))
    maps = (
        ScalarMap("exp"),
        ScalarMap("sinh"),
        ScalarMap("asinh"),
        ScalarMap("cubic", beta=0.4),
    )
    dec = StructuredDecoder(G, maps)
    z = gen.uniform(-1.5, 1.5, (30, 2))
    assert np.max(np.abs(dec.encode(dec.decode(z)) - z)) < 1e-8


def test_identity_structured_decoder_is_the_linear_decoder_bit_for_bit():
    # both decoders take one route, the structured one adding only its coordinate maps
    gen = stream(44)
    G = gen.standard_normal((4, 2))
    linear = LinearDecoder(G)
    structured = StructuredDecoder(G, tuple(ScalarMap("identity") for _ in range(4)))
    z = gen.standard_normal((9, 2))
    x = linear.decode(z)
    assert np.array_equal(structured.decode(z), x)
    assert np.array_equal(structured.encode(x), linear.encode(x))
    assert np.array_equal(structured.encode(x[0]), linear.encode(x[0]))
    for off in (x + 0.5 * gen.standard_normal(x.shape), np.where(np.arange(4) == 2, np.nan, x)):
        with pytest.raises(OffManifoldError) as want:
            linear.encode(off)
        with pytest.raises(OffManifoldError) as got:
            structured.encode(off)
        assert str(got.value) == str(want.value)


def test_structured_decoder_rejects_off_manifold():
    G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dec = StructuredDecoder(G, tuple(ScalarMap("exp") for _ in range(3)))
    x = dec.decode(np.array([0.3, -0.2]))
    dec.encode(x)
    with pytest.raises(OffManifoldError):
        dec.encode(x + np.array([0.0, 0.0, 0.5]))


def test_scalar_map_inverses():
    gen = stream(47)
    x = gen.uniform(-2, 2, 50)
    for kind in ("identity", "exp", "sinh", "asinh"):
        m = ScalarMap(kind)
        assert np.max(np.abs(m.inverse(m.forward(x)) - x)) < 1e-9, kind
    cub = ScalarMap("cubic", beta=0.4)
    assert np.max(np.abs(cub.inverse(cub.forward(x)) - x)) < 1e-9
    aff = ScalarMap("affine", s=2.5, t=0.5)
    assert np.allclose(aff.forward(x), 2.5 * x + 0.5)
    assert np.max(np.abs(aff.inverse(aff.forward(x)) - x)) < 1e-12


def test_transformed_decoder_is_base_after_latent_map():
    gen = stream(53)
    base = LinearDecoder(gen.standard_normal((4, 2)))
    a = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    dec = TransformedDecoder(base, a)
    z = gen.standard_normal((7, 2))
    assert np.allclose(dec.decode(a(z)), base.decode(z), atol=1e-12)
    assert np.allclose(dec.encode(base.decode(z)), a(z), atol=1e-10)


# ---------------------------------------------------------------------------
# trajectory container


def test_trajectory_csv_roundtrip(tmp_path):
    gen = stream(59)
    dec = LinearDecoder(gen.standard_normal((3, 2)))
    m = AffineMechanism(0.9 * random_invertible(gen, 2), gen.standard_normal(2))
    traj = simulate(dec, [m], gen.standard_normal(2) / 3, T=9)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.latents, traj.latents)
    assert np.array_equal(back.observations, traj.observations)
    assert back.mechanisms == traj.mechanisms


def test_simulate_rejects_mismatched_initial_state():
    with pytest.raises(DimensionMismatchError):
        simulate(
            LinearDecoder(np.eye(2)),
            [AffineMechanism(np.eye(2), np.zeros(2))],
            np.zeros(3),
            T=2,
        )


def test_simulate_rejects_a_scheduled_mechanism_of_another_dimension_at_its_step():
    mechs = [AffineMechanism(np.eye(2), np.ones(2)), AffineMechanism(np.eye(3), np.zeros(3))]
    with pytest.raises(DimensionMismatchError, match="state has dimension 2, mechanism expects 3"):
        simulate(LinearDecoder(np.eye(2)), mechs, np.zeros(2), T=3000, schedule=[0] * 2000 + [1] * 999)
    # never scheduled, it is never called
    assert simulate(LinearDecoder(np.eye(2)), mechs, np.zeros(2), T=3, schedule=[0, 0]).latents[-1].tolist() == [2, 2]


def test_mechanisms_compare_and_hash_as_objects():
    # == between two equal mechanisms raised numpy's ambiguous-truth
    # ValueError, and hash() a TypeError
    noise = NoiseSpec("uniform", dim=2)
    pairs = [
        (AffineMechanism(np.eye(2), np.zeros(2)), AffineMechanism(np.eye(2), np.zeros(2))),
        (additive_noise_mechanism(noise), additive_noise_mechanism(noise)),
        (AffineMap(np.eye(2), np.zeros(2)), AffineMap(np.eye(2), np.zeros(2))),
    ]
    for one, other in pairs:
        assert one == one and one != other
        assert len({one, other, one}) == 2


def test_a_walk_with_a_singular_mean_map_steps_by_its_noise():
    # M = 0 is linear ICA: each state is b plus that step's noise, and a
    # walk takes no invertibility cut, where a mechanism without noise does
    noise = NoiseSpec("generalized-laplace", alpha=1.0, dim=2)
    b = np.array([0.5, -1.0])
    walk = AffineMechanism(np.zeros((2, 2)), b, "ica", noise)
    traj = simulate(LinearDecoder(np.eye(2)), [walk], np.ones(2), T=6, seed=7)
    want = [b + noise.ppf(stream(7, t).random((1, 2)))[0] for t in range(1, 6)]
    assert traj.latents[1:].tobytes() == np.array(want).tobytes()
    with pytest.raises(SingularMapError):
        AffineMechanism(np.zeros((2, 2)), b, "ica")
