"""Constructive linear-encoder recovery and class-based comparison."""

import tracemalloc
import warnings

import numpy as np
import pytest

from mechid import (
    AffineMechanism,
    LinearDecoder,
    RecoveryProblem,
    Trajectory,
    compare_up_to_class,
    recover_linear_encoder,
    recover_with_multiple_offsets,
    simulate,
)
from mechid.config import parse_config
from mechid.errors import ConfigError, DataDeficiencyError, NonFiniteSampleError
from mechid.recovery import COMPARISON_CLASSES, _assemble_system, _min_cost_assignment
from mechid.rng import stream

from conftest import distinct_eig_mechanism, random_invertible, random_signed_permutation

G_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def problem_from_rollout(G, mechanisms, z1, T, schedule=None, rtol=1e-9):
    traj = simulate(LinearDecoder(G), mechanisms, z1, T=T, schedule=schedule)
    return RecoveryProblem.from_trajectory(traj, mechanisms, rtol=rtol)


def generic_pair_problem(gen, G, M, b_list):
    """Pairs (G z, G(Mz + b_t)) at independent generic latent points."""
    d = G.shape[1]
    Z = gen.standard_normal((len(b_list), d))
    B = np.asarray(b_list, dtype=float)
    x_prev = Z @ G.T
    x_next = (Z @ M.T + B) @ G.T
    return RecoveryProblem(x_prev=x_prev, x_next=x_next, M=np.asarray(M, float), offsets=B)


def test_unique_recovery_of_inverse_shear():
    m = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    problem = problem_from_rollout(G_SHEAR, [m], np.array([0.37, -0.81]), T=13)
    assert problem.pair_count == 12
    result = recover_linear_encoder(problem)
    assert result.solution_space_dim == 0
    want = np.array([[1.0, -1.0], [0.0, 1.0]])  # inverse of the shear
    assert np.linalg.norm(result.E_hat - want) <= 1e-8
    assert result.residual <= 1e-9
    assert result.conditions.verdict.kind == "exact"
    assert result.sufficient_pairs


def test_zero_eigencoordinate_leaves_one_direction():
    m = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 0.0]))
    problem = problem_from_rollout(G_SHEAR, [m], np.array([0.37, -0.81]), T=13)
    result = recover_linear_encoder(problem)
    assert result.solution_space_dim == 1
    assert result.conditions.verdict.kind == "other"
    assert result.residual <= 1e-9
    # the recovered encoder still solves the system even though it is not unique
    assert np.linalg.norm(result.E_hat @ problem.x_next.T
                          - m.M @ result.E_hat @ problem.x_prev.T
                          - m.b[:, None]) <= 1e-7


def test_identity_mechanism_full_ambiguity():
    # E x = E x constrains nothing: the free dimension is d * n
    gen = stream(211)
    d, n = 2, 3
    G = gen.standard_normal((n, d))
    Z = gen.standard_normal((d * (n + 1), d))
    X = Z @ G.T
    problem = RecoveryProblem(
        x_prev=X, x_next=X, M=np.eye(d), offsets=np.zeros((X.shape[0], d))
    )
    result = recover_linear_encoder(problem)
    assert result.solution_space_dim == d * result.observed_rank
    assert result.observed_rank == min(n, d)


def test_multi_offset_recovery_of_inverse():
    G = np.array([[2.0, 0.0], [1.0, 1.0]])
    M = np.diag([2.0, 3.0])
    offsets = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    mechanisms = [AffineMechanism(M, b) for b in offsets]
    schedule = [t % 3 for t in range(18)]
    problem = problem_from_rollout(G, mechanisms, np.array([0.21, 0.43]), T=19, schedule=schedule)
    assert problem.pair_count == 18
    result = recover_with_multiple_offsets(problem)
    assert result.solution_space_dim == 0
    assert np.linalg.norm(result.E_hat - np.linalg.inv(G)) <= 1e-8
    assert result.conditions.verdict.kind == "offset-only"


def test_multi_offset_requires_distinct_offsets():
    m = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 0.0]))
    problem = problem_from_rollout(G_SHEAR, [m], np.array([0.37, -0.81]), T=13)
    with pytest.raises(ValueError):
        recover_with_multiple_offsets(problem)


def test_collinear_offsets_report_other_with_dimension():
    G = np.array([[2.0, 0.0], [1.0, 1.0]])
    M = np.diag([2.0, 3.0])
    offsets = [np.zeros(2), np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    mechanisms = [AffineMechanism(M, b) for b in offsets]
    schedule = [t % 3 for t in range(18)]
    problem = problem_from_rollout(G, mechanisms, np.array([0.21, 0.43]), T=19, schedule=schedule)
    result = recover_with_multiple_offsets(problem)
    assert result.conditions.verdict.kind == "other"
    assert result.solution_space_dim == 1


def test_data_deficiency_raises_before_solving():
    # orbit confined to the first eigendirection spans only one direction
    m = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2))
    traj = simulate(
        LinearDecoder(np.eye(2)), [m], np.array([1.0, 0.0]), T=8
    )
    problem = RecoveryProblem.from_trajectory(traj, [m])
    with pytest.raises(DataDeficiencyError) as exc:
        recover_linear_encoder(problem)
    assert exc.value.rank == 1
    assert exc.value.needed == 2


def test_planted_zero_count_equals_solution_dimension():
    for trial in range(25):
        gen = stream(2300 + trial)
        d = int(gen.integers(2, 6))
        k = int(gen.integers(0, d))
        m, S, lam = distinct_eig_mechanism(gen, d, zero_eigencoords=k)
        n = d + int(gen.integers(0, 3))
        G = random_invertible(gen, max(n, d), cond_cap=20.0)[:n, :d]
        problem = generic_pair_problem(
            gen, G, m.M, [m.b] * (d * (n + 1))
        )
        result = recover_linear_encoder(problem)
        assert result.solution_space_dim == k, (trial, d, k)
        if k == 0:
            truth = np.linalg.pinv(G)
            rel = np.linalg.norm(result.E_hat - truth) / np.linalg.norm(truth)
            assert rel <= 1e-8


def test_exact_recovery_over_random_instances():
    for trial in range(30):
        gen = stream(2400 + trial)
        d = int(gen.integers(2, 6))
        n = d + int(gen.integers(0, 3))
        m, _, _ = distinct_eig_mechanism(gen, d)
        G = random_invertible(gen, max(n, d), cond_cap=20.0)[:n, :d]
        problem = generic_pair_problem(gen, G, m.M, [m.b] * (d * (n + 1)))
        result = recover_linear_encoder(problem)
        assert result.solution_space_dim == 0
        truth = np.linalg.pinv(G)
        assert np.linalg.norm(result.E_hat - truth) / np.linalg.norm(truth) <= 1e-8


def test_assembled_rows_match_per_pair_kron():
    gen = stream(2501)
    N, d, r = 40, 3, 5
    xp, xn = gen.standard_normal((N, r)), gen.standard_normal((N, r))
    M, B = gen.standard_normal((d, d)), gen.standard_normal((N, d))
    eye = np.eye(d)
    want = np.vstack(
        [np.kron(eye, xn[t][None, :]) - M @ np.kron(eye, xp[t][None, :]) for t in range(N)]
    )
    C, rhs = _assemble_system(xp, xn, M, B)
    assert np.array_equal(C, want)
    assert np.array_equal(rhs, B.reshape(-1))


def test_tall_system_builds_no_square_svd_factor():
    # 1000 pairs at d = 3 stack 3000 constraint rows; a full SVD would build
    # a 3000 x 3000 U factor (72 MB) that the null space never reads
    gen = stream(2500)
    d, n, N = 3, 6, 1000
    G = gen.standard_normal((n, d))
    offsets = gen.standard_normal((8, d))
    problem = generic_pair_problem(gen, G, np.diag([0.5, 0.8, 1.3]), offsets[np.arange(N) % 8])
    tracemalloc.start()
    try:
        result = recover_linear_encoder(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.solution_space_dim == 0
    assert result.conditions.distinct_offset_count == 8
    assert peak < 16 * 2**20


def test_from_trajectory_peak_is_a_small_multiple_of_the_trajectory():
    # one offset table indexed by the schedule: no per-step arrays or rows
    T = 10**5
    mechanisms = [AffineMechanism(np.array([[0.5]]), np.array([b])) for b in (1.0, -1.0, 0.25)]
    latents = stream(2504).standard_normal((T, 1))
    schedule = [t % 3 for t in range(T - 1)]
    traj = Trajectory(latents=latents, observations=2.0 * latents, mechanisms=schedule)
    tracemalloc.start()
    try:
        problem = RecoveryProblem.from_trajectory(traj, mechanisms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(problem.offsets[:, 0], np.array([1.0, -1.0, 0.25])[np.arange(T - 1) % 3])
    assert peak < 2 * (traj.latents.nbytes + traj.observations.nbytes)


def test_from_trajectory_rejects_a_schedule_that_mixes_transition_matrices():
    same = AffineMechanism(np.diag([2.0, 3.0]), np.ones(2))
    other = AffineMechanism(np.diag([2.0, 3.5]), np.ones(2))
    mechanisms = [AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2)), other, same]
    decoder = LinearDecoder(np.eye(2))
    z1 = np.array([0.1, 0.2])
    traj = simulate(decoder, mechanisms, z1, T=6, schedule=[0, 2, 0, 2, 0])
    assert RecoveryProblem.from_trajectory(traj, mechanisms).offsets.shape == (5, 2)
    traj = simulate(decoder, mechanisms, z1, T=6, schedule=[0, 2, 0, 1, 0])
    with pytest.raises(ValueError, match="schedule mixes different M"):
        RecoveryProblem.from_trajectory(traj, mechanisms)


def test_from_trajectory_ignores_unscheduled_mechanisms_of_another_dimension():
    mechanisms = [
        AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, -1.0])),
        AffineMechanism(np.eye(3), np.ones(3)),  # never scheduled
    ]
    traj = Trajectory(latents=np.zeros((3, 2)), observations=np.zeros((3, 2)), mechanisms=(0, 0))
    problem = RecoveryProblem.from_trajectory(traj, mechanisms)
    assert np.array_equal(problem.offsets, np.array([[1.0, -1.0], [1.0, -1.0]]))


@pytest.mark.parametrize(
    "other", [np.diag([2.0, 3.5]), np.diag([2.0, 3.0, 4.0])], ids=["entry", "shape"]
)
def test_an_unshared_M_is_named_by_config_and_by_from_trajectory(other):
    mechanisms = [AffineMechanism(np.diag([2.0, 3.0]), np.ones(2)), AffineMechanism(other, np.ones(len(other)))]
    traj = Trajectory(latents=np.zeros((4, 2)), observations=np.zeros((4, 2)), mechanisms=(0, 0, 1))
    with pytest.raises(ValueError, match=r"schedule mixes different M \(mechanisms\[1\]\.M\)"):
        RecoveryProblem.from_trajectory(traj, mechanisms)
    doc = {
        "experiment": "recover",
        "mechanisms": [{"M": m.M.tolist(), "b": m.b.tolist()} for m in mechanisms],
        "trajectory_csv": "trajectory.csv",
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.field == "mechanisms[1].M"


def test_many_pairs_with_few_offsets_count_each_offset_once():
    # 10^5 pairs cycling 8 offsets; the per-row dedupe made this O(N K) in Python
    gen = stream(2503)
    d, n, N = 3, 6, 10**5
    G = gen.standard_normal((n, d))
    offsets = gen.standard_normal((8, d))
    problem = generic_pair_problem(gen, G, np.diag([0.5, 0.8, 1.3]), offsets[np.arange(N) % 8])
    result = recover_linear_encoder(problem)
    assert result.solution_space_dim == 0
    assert result.conditions.offset_count == 8
    assert result.conditions.distinct_offset_count == 8
    assert result.conditions.verdict.kind == "offset-only"


@pytest.mark.parametrize("field", ["x_prev", "x_next", "M", "offsets"])
def test_problem_rejects_nonfinite_inputs(field):
    gen = stream(2502)
    arrays = {
        "x_prev": gen.standard_normal((6, 2)),
        "x_next": gen.standard_normal((6, 2)),
        "M": np.diag([2.0, 3.0]),
        "offsets": gen.standard_normal((6, 2)),
    }
    arrays[field][1, 0] = np.nan
    with pytest.raises(NonFiniteSampleError, match=rf"{field}\[1\]"):
        RecoveryProblem(**arrays)


# ---------------------------------------------------------------------------
# comparison up to a class


def test_compare_exact_is_zero_on_self():
    gen = stream(251)
    E = gen.standard_normal((2, 4))
    assert compare_up_to_class(E, E, "exact").residual == 0.0


def test_compare_signed_permutation_recovers_plant():
    gen = stream(253)
    for d in (2, 3, 4):
        truth = gen.standard_normal((d, d + 2))
        P = random_signed_permutation(gen, d)
        res = compare_up_to_class(P @ truth, truth, "signed-permutation")
        assert res.residual <= 1e-10
        assert np.allclose(res.L, P)


def test_compare_offset_recovers_shift():
    gen = stream(257)
    E = gen.standard_normal((2, 3))
    truth = (E, np.zeros(2))
    shifted = (E, np.array([0.7, -0.2]))
    res = compare_up_to_class(shifted, truth, "offset")
    assert res.residual <= 1e-10
    assert np.allclose(res.q, [0.7, -0.2])


def test_compare_linear_class_absorbs_mixing():
    gen = stream(259)
    truth = gen.standard_normal((3, 5))
    L = random_invertible(gen, 3)
    res = compare_up_to_class(L @ truth, truth, "linear")
    assert res.residual <= 1e-10


def test_compare_residual_symmetry_under_class_inversion():
    gen = stream(261)
    for trial in range(10):
        truth = gen.standard_normal((3, 4))
        P = random_signed_permutation(gen, 3)
        fwd = compare_up_to_class(P @ truth, truth, "signed-permutation")
        back = compare_up_to_class(truth, P @ truth, "signed-permutation")
        assert abs(fwd.residual - back.residual) <= 1e-9


def test_assignment_matches_scipy_on_float_costs():
    from scipy.optimize import linear_sum_assignment

    gen = stream(263)
    for d in range(1, 17):
        for trial in range(20):
            cost = gen.standard_normal((d, d))
            _, cols = linear_sum_assignment(cost)
            assert _min_cost_assignment(cost.tolist()) == cols.tolist(), (d, trial)


def test_assignment_reaches_scipy_total_on_tied_integer_costs():
    # costs in {0, 1, 2} have many optimal assignments; ties may break differently
    from scipy.optimize import linear_sum_assignment

    gen = stream(269)
    for d in range(1, 12):
        for trial in range(40):
            cost = gen.integers(0, 3, size=(d, d)).astype(float)
            rows, cols = linear_sum_assignment(cost)
            got = _min_cost_assignment(cost.tolist())
            assert sorted(got) == list(range(d))
            assert cost[np.arange(d), got].sum() == cost[rows, cols].sum(), (d, trial)


@pytest.mark.parametrize("klass", ["signed-permutation", "signed-permutation+offset"])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-300])
def test_compare_recovers_planted_signed_permutation_at_d12(klass, scale):
    # 1e200 would overflow every squared distance and 1e-300 underflow them
    gen = stream(271)
    d = 12
    W = scale * gen.standard_normal((d, d + 3))
    c = scale * gen.standard_normal(d)
    P = random_signed_permutation(gen, d)
    res = compare_up_to_class((P @ W, P @ c + scale), (W, c), klass)
    rows, cols = np.nonzero(P)
    assert res.permutation == tuple(cols.tolist())
    assert res.signs == tuple(int(s) for s in P[rows, cols])
    assert np.array_equal(res.L, P)
    if klass == "signed-permutation+offset":
        assert np.allclose(res.q, scale)
        assert res.residual <= 1e-12


@pytest.mark.parametrize("klass", COMPARISON_CLASSES)
@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_compare_residual_is_the_same_at_extreme_scales(klass, scale):
    # norms of the raw rows gave NaN or inf near 1e200 and 0 near 1e-300
    gen = stream(279)
    W = gen.standard_normal((4, 6))
    c = gen.standard_normal(4)
    P = random_signed_permutation(gen, 4)
    We = P @ W + 1e-3 * gen.standard_normal((4, 6))
    ce = P @ c + 0.5
    expected = compare_up_to_class((We, ce), (W, c), klass).residual
    assert 1e-4 < expected < 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = compare_up_to_class((scale * We, scale * ce), (scale * W, scale * c), klass)
    assert res.residual == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("klass", COMPARISON_CLASSES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["estimate", "truth"])
def test_compare_rejects_non_finite_encoder(klass, bad, which):
    gen = stream(277)
    W = gen.standard_normal((3, 4))
    c = gen.standard_normal(3)
    bad_W, bad_c = W.copy(), c.copy()
    if which == "estimate":
        bad_W[1, 2] = bad
    else:
        bad_c[1] = bad
    args = {"estimate": (W, c), "truth": (W, c), which: (bad_W, bad_c)}
    with pytest.raises(NonFiniteSampleError, match=f"{which}\\[1\\]"):
        compare_up_to_class(args["estimate"], args["truth"], klass)


def test_compare_rejects_unknown_class():
    E = np.eye(2)
    with pytest.raises(ValueError):
        compare_up_to_class(E, E, "frobnicated")
