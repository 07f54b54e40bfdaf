"""Affine equivariance families, commutants, and recovery-condition reports.

The commutant oracle below builds the bracket operator entry by entry from
its definition (no Kronecker algebra) and takes an SVD null space; family
examples additionally get closed-form parameterizations.
"""

import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from mechid import (
    AffineMechanism,
    GridSpec,
    LinearDecoder,
    MechanismClass,
    NoiseSpec,
    additive_noise_mechanism,
    affine_equivariances,
    check_equivariance,
    check_imitation,
    cycle_analysis,
    exact_recovery_conditions,
    imitator_closure,
    linear_commutant,
    membership_equivalence_audit,
    offset_identifiability_check,
    shared_equivariances,
)
from mechid.equivariance import (
    ConditionReport,
    ConditionVerdict,
    _BLOCKED_COMMUTANT_SIZE,
    _commutant_null_space,
    _data_scale,
    _distinct_rows,
    _eigen_summary,
    _intertwiner_system,
)
from mechid.config import parse_config
from mechid.errors import DimensionMismatchError, NonFiniteSampleError
from mechid.experiments import run_experiment
from mechid.jsonio import dumps_json
from mechid.linalg import DEFAULT_RTOL, intertwiner_operator, kron_rows, null_space, relative_rank, solve_residual
from mechid.maps import AffineMap, compose
from mechid.rng import stream

from conftest import (
    ROT90,
    commutant_dimension,
    distinct_eig_mechanism,
    inverse_map,
    random_invertible,
    random_orthogonal,
    span_distance,
    stacked_solve,
)

DIAG23 = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2))
DIAG23_B11 = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))


def brute_commutant_dim(M: np.ndarray) -> int:
    """Null-space dimension of A -> MA - AM, built entrywise."""
    d = M.shape[0]
    K = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    val = 0.0
                    if j == l:
                        val += M[i, k]
                    if i == k:
                        val -= M[l, j]
                    K[i * d + j, k * d + l] = val
    s = np.linalg.svd(K, compute_uv=False)
    return int(np.sum(s <= 1e-9 * max(s[0], 1.0)))


def test_commutant_dimensions_match_brute_force():
    cases = [np.diag([2.0, 3.0]), np.eye(2), ROT90]
    want = [2, 4, 2]
    for M, expect in zip(cases, want):
        assert brute_commutant_dim(M) == expect
        basis = linear_commutant(M)
        assert basis.dimension == expect
        for B in basis.matrices:
            assert np.linalg.norm(M @ B - B @ M) <= 1e-9 * max(np.linalg.norm(M), 1.0)


def test_rot90_commutant_contains_identity_and_m():
    basis = linear_commutant(ROT90)
    rows = basis.matrices.reshape(basis.dimension, -1)
    assert span_distance(rows, np.eye(2)) <= 1e-9
    assert span_distance(rows, ROT90) <= 1e-9
    assert not span_distance(rows, np.diag([1.0, 2.0])) <= 1e-6


def test_scaled_identity_has_full_commutant():
    basis = linear_commutant(2.0 * np.eye(3))
    assert basis.dimension == 9


def test_family_closed_form_diag_mechanism():
    # commuting A must be diagonal; the offset equation (A - I)b = (M - I)p
    # with b = (1,1) pins p = (A00 - 1, (A11 - 1)/2)
    fam = affine_equivariances(DIAG23_B11)
    assert fam.dimension == 2
    assert not fam.degenerate_offset
    gen = stream(61)
    for _ in range(20):
        A, p = fam.family.element(gen.standard_normal(2))
        assert abs(A[0, 1]) < 1e-9 and abs(A[1, 0]) < 1e-9
        assert np.allclose(p, [A[0, 0] - 1.0, (A[1, 1] - 1.0) / 2.0], atol=1e-9)
        assert np.allclose(A @ DIAG23_B11.M, DIAG23_B11.M @ A, atol=1e-9)


def test_family_identity_is_particular():
    fam = affine_equivariances(DIAG23_B11)
    assert np.allclose(fam.family.particular_A, np.eye(2), atol=1e-12)
    assert np.allclose(fam.family.particular_p, np.zeros(2), atol=1e-12)


def test_degenerate_offset_flag_and_pure_offset_directions():
    # M = 2I, b = 0: every A commutes, p forced to 0 since M - I is invertible
    fam = affine_equivariances(AffineMechanism(2.0 * np.eye(2), np.zeros(2)))
    assert fam.dimension == 4
    assert fam.a_dimension == 4
    assert fam.p_fiber_dimension == 0
    assert not fam.degenerate_offset
    # M = I: offsets are unconstrained, so pure-offset directions appear
    fam_id = affine_equivariances(AffineMechanism(np.eye(2), np.zeros(2)))
    assert fam_id.degenerate_offset
    assert fam_id.dimension == 6
    assert fam_id.p_fiber_dimension == 2


def test_shared_family_shrinks_to_scalars():
    rot = AffineMechanism(ROT90, np.zeros(2))
    shared = shared_equivariances([DIAG23, rot])
    assert shared.a_dimension == 1
    basis = shared.family.a_part_basis()
    assert span_distance(basis.matrices.reshape(basis.dimension, -1), np.eye(2)) <= 1e-9
    # strictly smaller than either individual family
    assert shared.a_dimension < affine_equivariances(DIAG23).a_dimension
    assert shared.a_dimension < affine_equivariances(rot).a_dimension


def test_shared_with_duplicates_idempotent():
    one = affine_equivariances(DIAG23_B11)
    two = shared_equivariances([DIAG23_B11, DIAG23_B11])
    assert two.dimension == one.dimension
    assert two.a_dimension == one.a_dimension


def test_check_equivariance_pass_and_fail():
    ok = AffineMap(np.diag([2.0, 5.0]), np.zeros(2))
    report = check_equivariance(ok, DIAG23)
    assert report.passed
    shift = AffineMap(np.eye(2), np.array([0.3, 0.0]))
    report = check_equivariance(shift, DIAG23, grid=np.array([[1.0, 1.0]]))
    assert not report.passed
    # a(m z) = (2.3, 3), m(a z) = (2.6, 3): residual 0.3 / (1 + |(2.6, 3)|)
    want = 0.3 / (1.0 + np.hypot(2.6, 3.0))
    assert np.isclose(report.max_residual, want, rtol=1e-12)


def grid_reader(name: str, d: int):
    """The library entry `name` at dimension d, as grid -> its result rendered as JSON."""
    m = AffineMechanism(np.diag([2.0, 3.0][:d]), np.zeros(d))
    ident = AffineMap(np.eye(d), np.zeros(d))
    calls = {
        "check_equivariance": lambda grid: check_equivariance(ident, m, grid=grid),
        "cycle_analysis": lambda grid: cycle_analysis(ident, [m], grid=grid),
        "imitator_closure": lambda grid: imitator_closure(MechanismClass(used=(m,)), grid=grid),
        "membership_equivalence_audit": lambda grid: membership_equivalence_audit(
            LinearDecoder(np.eye(d)), [m], [ident], grid=grid
        ),
    }
    return lambda grid: dumps_json(calls[name](grid))


GRID_READERS = ["check_equivariance", "cycle_analysis", "imitator_closure", "membership_equivalence_audit"]


@pytest.mark.parametrize("reader", GRID_READERS)
@pytest.mark.parametrize(
    "grid, error, message",
    [
        # numpy's argmax or zero-size-reduction ValueError, which named no argument
        pytest.param(np.zeros((0, 2)), ValueError, r"^grid is empty$", id="empty"),
        # "only 0-dimensional arrays can be converted", a TypeError
        pytest.param(
            np.zeros((3, 2, 2)),
            DimensionMismatchError,
            r"^grid has shape \(3, 2, 2\); expected one point per row$",
            id="three-axes",
        ),
    ],
)
def test_a_grid_that_is_no_point_set_is_rejected_naming_it(reader, grid, error, message):
    with pytest.raises(error, match=message):
        grid_reader(reader, 2)(grid)


@pytest.mark.parametrize("reader", GRID_READERS)
def test_a_one_dimensional_grid_at_dimension_one_is_that_many_points(reader):
    # "grid points have dimension 3, expected 1", where anchors and samples read three points
    read = grid_reader(reader, 1)
    assert read(np.array([0.1, 0.2, 0.3])) == read(np.array([[0.1], [0.2], [0.3]]))


def test_check_imitation_names_a_callable_that_returns_the_wrong_shape():
    ident = AffineMap(np.eye(2), np.zeros(2))
    grid = GridSpec(dim=2, count=8)

    def widen(z):
        return np.hstack([z, z[:, :1]])

    def first(z):
        return z[:, :1]

    # each call's output is checked before the next call reads it, so the error
    # names the callable at fault and not the one its output reached
    cases = [
        ((ident, widen, widen), "m1 returned shape (8, 3), expected (8, 2)"),
        ((first, DIAG23, DIAG23), "a returned shape (8, 1), expected (8, 2)"),
        ((ident, DIAG23, first), "m2 returned shape (8, 1), expected (8, 2)"),
        ((np.sum, DIAG23, DIAG23), "a returned shape (), expected (8, 2)"),
    ]
    for args, message in cases:
        with pytest.raises(DimensionMismatchError) as err:
            check_imitation(*args, grid=grid)
        assert str(err.value) == message
    assert check_imitation(np.sinh, ident, ident, grid=grid).passed


def test_check_imitation_without_a_grid_or_a_dim_names_the_grid():
    # this raised "dim must be an integer, got None", naming a GridSpec field the caller never set
    def same(z):
        return z

    with pytest.raises(ValueError, match="^grid is required"):
        check_imitation(same, same, same)
    # an array grid is read at any dimension
    for d in (1, 3):
        assert check_imitation(same, same, same, grid=np.ones((4, d))).passed


def test_members_of_random_families_pass_check():
    for trial in range(15):
        gen = stream(500 + trial)
        d = int(gen.integers(2, 5))
        m = AffineMechanism(random_invertible(gen, d), gen.standard_normal(d))
        fam = affine_equivariances(m)
        coeffs = gen.standard_normal(fam.dimension)
        A, p = fam.family.element(coeffs)
        # unconstrained check form: relative commutation residual on a grid
        pts = GridSpec(dim=d, count=64, low=-2.0, high=2.0).points()
        lhs = (m(pts)) @ A.T + p
        rhs = (pts @ A.T + p) @ m.M.T + m.b
        res = np.linalg.norm(lhs - rhs, axis=1) / (1 + np.linalg.norm(rhs, axis=1))
        assert res.max() <= 1e-8


def test_basis_commutation_bound():
    for trial in range(15):
        gen = stream(700 + trial)
        d = int(gen.integers(2, 7))
        M = gen.standard_normal((d, d))
        basis = linear_commutant(M)
        assert basis.dimension >= 1
        for A in basis.matrices:
            bound = 10 * 1e-9 * np.linalg.norm(M) * np.linalg.norm(A)
            assert np.linalg.norm(M @ A - A @ M) <= bound


def test_commutant_dimension_laws():
    for trial in range(25):
        gen = stream(800 + trial)
        d = int(gen.integers(2, 7))
        m, S, lam = distinct_eig_mechanism(gen, d)
        assert linear_commutant(m.M).dimension == d
        c = float(gen.uniform(0.5, 2.0))
        assert linear_commutant(c * np.eye(d)).dimension == d * d


def test_group_closure_of_equivariances():
    for trial in range(10):
        gen = stream(810 + trial)
        d = int(gen.integers(2, 4))
        m = AffineMechanism(random_invertible(gen, d), gen.standard_normal(d))
        fam = affine_equivariances(m)
        reps = []
        for k in range(2):
            rep = fam.family.representative(seed=trial * 10 + k)
            assert rep is not None
            reps.append(rep)
        tol = 1e-9
        for cand in (compose(reps[0], reps[1]), inverse_map(reps[0])):
            assert check_equivariance(cand, m, tol=10 * tol).passed


def test_shared_dimension_monotone():
    gen = stream(820)
    d = 3
    ms = [AffineMechanism(random_invertible(gen, d), gen.standard_normal(d)) for _ in range(3)]
    dims = [affine_equivariances(m).dimension for m in ms]
    shared = shared_equivariances(ms)
    assert shared.dimension <= min(dims)


# ---------------------------------------------------------------------------
# every rank cut is floored at the size of the data its rows are built from


def conjugated_scalar(c: float, d: int, seed: int) -> np.ndarray:
    """S (c I) S^-1: c I up to rounding, so its commutator rows are pure noise."""
    S = random_invertible(stream(5200, seed), d, cond_cap=20.0)
    return S @ (c * np.eye(d)) @ np.linalg.inv(S)


def test_conjugated_identity_is_unconstrained():
    M = conjugated_scalar(1.0, 3, 0)
    assert 0.0 < np.max(np.abs(M - np.eye(3))) < 1e-13
    doc = {"experiment": "commutant", "mechanisms": [{"M": M.tolist(), "b": [0.0, 0.0, 0.0]}]}
    summary = run_experiment(parse_config(doc)).summary
    assert (summary["dimension"], summary["a_dimension"], summary["measured_dimension"]) == (12, 9, 9)
    assert summary["verdict"] == "unconstrained"


@pytest.mark.parametrize("d", [2, 3, 5])
def test_conjugated_scalar_has_the_full_commutant(d):
    assert linear_commutant(conjugated_scalar(2.0, d, d)).dimension == d * d


@pytest.mark.parametrize("seed", range(8))
def test_a_mechanism_given_twice_adds_nothing(seed):
    gen = stream(5300, seed)
    d = int(gen.integers(1, 6))
    S = random_invertible(gen, d, cond_cap=20.0)
    spectrum = gen.choice([0.5, 1.0, 2.0, -1.5], d) if seed % 2 else gen.standard_normal(d)
    m = AffineMechanism(S @ np.diag(spectrum) @ np.linalg.inv(S), gen.standard_normal(d) * (seed % 3 > 0))
    once = shared_equivariances([m]).family
    twice = shared_equivariances([m, m]).family
    for field in ("basis_A", "basis_p", "particular_A", "particular_p", "residual"):
        assert np.array_equal(getattr(twice, field), getattr(once, field)), field


# ---------------------------------------------------------------------------
# from d = 8 up the commutant is solved in row blocks, the offsets' rows last

COMMUTANT_FAMILIES = ("tied", "jordan", "rotation", "scalar")


def planted_commutant(family: str, seed: int):
    """(M, offsets, M's Jordan blocks as (eigenvalue, size)) at d in 8..18, with 0-2 offsets.

    M = S J S^-1 for a real Jordan form J: tied real eigenvalues, Jordan chains,
    tied rotation pairs, or a scalar. The offsets' eigencoordinates are zero at random.
    """
    gen = stream(5400, COMMUTANT_FAMILIES.index(family), seed)
    d = int(gen.integers(8, 19))
    J, blocks, i = np.zeros((d, d)), [], 0
    while i < d:
        if family == "rotation" and d - i >= 2:
            a, w = [(0.5, 1.0), (-1.0, 0.5)][int(gen.integers(2))]
            J[i : i + 2, i : i + 2] = [[a, -w], [w, a]]
            blocks += [(complex(a, w), 1), (complex(a, -w), 1)]
            i += 2
            continue
        lam = 2.0 if family == "scalar" else float(gen.choice([0.5, -1.0, 1.5]))
        n = int(gen.integers(1, min(3, d - i) + 1)) if family == "jordan" else 1
        J[i : i + n, i : i + n] = lam * np.eye(n) + np.eye(n, k=1)
        blocks.append((lam, n))
        i += n
    S = random_orthogonal(gen, d) @ np.diag(gen.uniform(0.5, 2.0, d)) @ random_orthogonal(gen, d)
    v = gen.standard_normal((seed % 3, d)) * gen.choice([0.0, 1.0], (seed % 3, d))
    return S @ J @ np.linalg.inv(S), v @ S.T, blocks


def commutant_rows(M: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Every row of {A M = M A, A b = 0 for each offset b}, stacked."""
    d = len(M)
    return np.vstack([intertwiner_operator(M, M), kron_rows(np.eye(d), offsets[..., None]).reshape(-1, d * d)])


def stacked_commutant(M: np.ndarray, offsets: np.ndarray, rtol: float):
    """Null basis of one SVD over every commutant row, and whether its rank was decided clear of the cut."""
    rows = commutant_rows(M, offsets)
    basis, _, clear = stacked_solve(rows, np.zeros(len(rows)), rtol, _data_scale(M, offsets))
    return basis, clear


@pytest.mark.parametrize("family", COMMUTANT_FAMILIES)
def test_blocked_commutant_agrees_with_one_stacked_svd(family):
    clear_cases = 0
    for seed in range(10):
        M, offsets, _ = planted_commutant(family, seed)
        assert M.size >= _BLOCKED_COMMUTANT_SIZE
        want, clear = stacked_commutant(M, offsets, DEFAULT_RTOL)
        if not clear:
            continue
        clear_cases += 1
        got = _commutant_null_space(M, offsets, DEFAULT_RTOL)
        assert got.shape == want.shape, (seed, got.shape, want.shape)
        # sine of the largest principal angle between the two null spaces
        assert np.linalg.norm(got - (got @ want.T) @ want, 2) <= 1e-8 if got.size else True
    assert clear_cases >= 8


@pytest.mark.parametrize("family", COMMUTANT_FAMILIES)
def test_blocked_commutant_has_its_closed_form_dimension(family):
    for seed in range(0, 30, 3):  # no offsets
        M, _, blocks = planted_commutant(family, seed)
        if family == "tied":  # sum of the squared multiplicities
            want = sum(n * n for n in Counter(lam for lam, _ in blocks).values())
        elif family == "scalar":  # S (c I) S^-1 commutes with everything
            want = len(M) ** 2
        else:
            want = commutant_dimension(blocks)
        assert linear_commutant(M).dimension == want, seed


@pytest.mark.parametrize("family", COMMUTANT_FAMILIES)
def test_blocked_commutant_basis_is_orthonormal_and_commutes(family):
    for seed in range(6):
        M, offsets, _ = planted_commutant(family, seed)
        basis = _commutant_null_space(M, offsets, DEFAULT_RTOL)
        assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-10
        d = len(M)
        for A in basis.reshape(-1, d, d):
            assert np.linalg.norm(M @ A - A @ M) <= 10 * DEFAULT_RTOL * np.linalg.norm(M)
            for b in offsets:
                assert np.linalg.norm(A @ b) <= 10 * DEFAULT_RTOL * np.linalg.norm(b)


@pytest.mark.parametrize("d", range(1, 8))
def test_small_commutants_stay_one_svd(d):
    assert d * d < _BLOCKED_COMMUTANT_SIZE
    gen = stream(5500, d)
    M = gen.standard_normal((d, d))
    for k in range(3):
        offsets = gen.standard_normal((k, d))
        want = null_space(commutant_rows(M, offsets), DEFAULT_RTOL, scale=_data_scale(M, offsets))
        assert np.array_equal(_commutant_null_space(M, offsets, DEFAULT_RTOL), want)


# ---------------------------------------------------------------------------
# recovery-condition reports


def test_conditions_distinct_eigs_nonzero_offset():
    report = exact_recovery_conditions(DIAG23_B11)
    assert report.verdict.kind == "exact"
    assert report.measured_dimension == 0
    assert report.distinct_eigenvalues
    assert report.offset_condition
    assert report.zero_component_count == 0


def test_conditions_report_diagonalizable_as_a_bool():
    # a numpy.bool_ here made `report.diagonalizable is True` false
    assert exact_recovery_conditions(DIAG23_B11).diagonalizable is True
    jordan = AffineMechanism(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2))
    assert exact_recovery_conditions(jordan).diagonalizable is False


def test_conditions_zero_eigencoordinate():
    report = exact_recovery_conditions(AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 0.0])))
    assert report.verdict.kind == "other"
    assert report.zero_component_count == 1
    assert report.measured_dimension == 1


def test_conditions_repeated_eigenvalue():
    report = exact_recovery_conditions(AffineMechanism(np.diag([2.0, 2.0]), np.array([1.0, 1.0])))
    assert report.verdict.kind == "other"
    assert not report.distinct_eigenvalues
    # commutant is all of gl_2; A b = 0 removes two directions
    assert report.measured_dimension == 2


def test_offset_check_spanning_offsets():
    offsets = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    report = offset_identifiability_check(np.diag([2.0, 3.0]), offsets)
    assert report.verdict.kind == "offset-only"
    assert report.distinct_offset_count == 3
    assert report.difference_rank == 2
    assert report.assumption_rank_ok
    assert report.measured_dimension == 0


def test_offset_check_too_few_offsets():
    report = offset_identifiability_check(np.diag([2.0, 3.0]), [np.zeros(2), np.ones(2)])
    assert report.verdict.kind != "offset-only"
    assert not report.assumption_rank_ok
    assert report.distinct_offset_count == 2


def test_offset_check_collinear_differences():
    offsets = [np.zeros(2), np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    report = offset_identifiability_check(np.diag([2.0, 3.0]), offsets)
    assert report.verdict.kind == "other"
    assert report.difference_rank == 1
    assert not report.assumption_rank_ok
    # offsets confined to the first eigendirection leave one free direction
    assert report.measured_dimension == 1


@pytest.mark.parametrize(
    "M, error, message",
    [
        (np.zeros((2, 3)), DimensionMismatchError, "M must be square and nonempty, got shape (2, 3)"),
        (np.zeros((0, 0)), DimensionMismatchError, "M must be square and nonempty, got shape (0, 0)"),
        (np.array([[2.0, 0.0], [np.nan, 3.0]]), NonFiniteSampleError, "non-finite values produced at M[1]"),
    ],
    ids=["not-square", "empty", "non-finite"],
)
def test_a_malformed_bare_m_is_rejected_naming_it(M, error, message):
    # before, numpy's own broadcast, reshape, SVD or lexsort error came out instead
    with pytest.raises(error) as err:
        linear_commutant(M)
    assert str(err.value) == message
    with pytest.raises(error) as err:
        offset_identifiability_check(M, np.zeros((1, M.shape[1])))
    assert str(err.value) == message


def test_a_singular_m_is_checked_but_empty_offsets_are_not():
    # M need not be invertible; an empty offset list failed at R[0]
    assert linear_commutant(np.zeros((2, 2))).dimension == 4
    assert offset_identifiability_check(np.zeros((2, 2)), np.eye(2)).measured_dimension == 0  # A e_i = 0
    for offsets in (np.zeros((0, 2)), []):
        with pytest.raises(ValueError, match=r"^offsets: at least one offset is required$"):
            offset_identifiability_check(np.eye(2), offsets)


def test_offsets_with_more_than_two_axes_are_rejected_naming_them():
    # a (2, 2, 2) stack ended in numpy's broadcast error from the pair scan
    with pytest.raises(DimensionMismatchError, match=r"^offsets must be"):
        offset_identifiability_check(np.eye(2), np.zeros((2, 2, 2)))


def test_offset_check_rejects_nonfinite_offsets():
    offsets = np.arange(12.0).reshape(6, 2)
    offsets[3, 1] = np.nan
    with pytest.raises(NonFiniteSampleError, match=r"offsets\[3\]"):
        offset_identifiability_check(np.diag([2.0, 3.0]), offsets)
    offsets[3, 1] = np.inf
    with pytest.raises(NonFiniteSampleError, match=r"offsets\[3\]"):
        offset_identifiability_check(np.diag([2.0, 3.0]), offsets)
    with pytest.raises(NonFiniteSampleError, match=r"M\[1\]"):
        offset_identifiability_check(np.array([[2.0, 0.0], [np.nan, 3.0]]), offsets[:3])


def scaled_condition_reports(c: float):
    """Both condition reports, the commutant summary and two solve residuals at scale c."""
    M = c * np.array([[1.0, 1.0], [-1.0, 1.0]])
    b = c * np.array([1.0, 1.0])
    offsets = c * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    K = c * np.array([[1.0, 2.0], [4.0, 8.0]])
    doc = {"experiment": "commutant", "mechanisms": [{"M": M.tolist(), "b": b.tolist()}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (
            run_experiment(parse_config(doc)).summary,
            exact_recovery_conditions(AffineMechanism(M, b)),
            offset_identifiability_check(M, offsets),
            # K x - rhs is 0, then c (0, 3)
            solve_residual(K, np.array([1.0, -1.0]), c * np.array([-1.0, -4.0])),
            solve_residual(K, np.array([1.0, 0.0]), c * np.array([1.0, 1.0])),
        )


@pytest.mark.parametrize("c", [1e100, 1e160, 1e200, 1e300])
def test_condition_reports_read_the_same_at_every_scale(c):
    # at 0.10.0, norms of entries near 1e160 overflowed: both offset
    # magnitudes counted as zero at 1e160, and from 1e200 on a NaN
    # reconstruction error made M read as not diagonalizable
    summary, exact, offset, solved, missed = scaled_condition_reports(c)
    want_summary, want_exact, want_offset, _, _ = scaled_condition_reports(1.0)
    assert want_summary["condition_verdict"] == "exact"
    assert summary == want_summary
    for got, want in ((exact, want_exact), (offset, want_offset)):
        assert got.verdict == want.verdict
        assert (got.diagonalizable, got.distinct_eigenvalues, got.offset_condition) == (True, True, True)
        assert got.zero_component_count == want.zero_component_count
        assert got.measured_dimension == want.measured_dimension
        np.testing.assert_allclose(got.offset_component_magnitudes,
                                   c * np.array(want.offset_component_magnitudes), rtol=1e-12)
    assert offset.verdict == ConditionVerdict("offset-only", 2)
    assert offset.distinct_offset_count == 4
    assert offset.nonzero_difference_pair == want_offset.nonzero_difference_pair
    assert solved == 0.0
    assert missed == pytest.approx(3.0 * c / (1.0 + c * np.sqrt(2.0)), rel=1e-12)


# ---------------------------------------------------------------------------
# the near-duplicate rule of _distinct_rows


RULE_RTOL = 1e-3


def near_chain(steps):
    """Rows a + s * tau * e for each s in steps, with tau = rtol * scale of the rows."""
    a = np.array([1.0, 2.0, 2.0])
    e = np.array([0.0, 0.6, -0.8])
    # tau depends on the rows' largest norm, which moves by O(tau) with the steps
    tau = RULE_RTOL * (1.0 + np.linalg.norm(a))
    rows = a + np.outer(steps, e) * tau
    tau = RULE_RTOL * (1.0 + np.max(np.linalg.norm(rows, axis=1)))
    return rows, tau


def test_near_duplicate_chain_keeps_its_ends():
    rows, tau = near_chain([0.0, 0.6, 1.2])
    dist = lambda i, j: np.linalg.norm(rows[i] - rows[j])
    assert dist(0, 1) <= tau and dist(1, 2) <= tau and dist(0, 2) > tau
    assert _distinct_rows(rows, RULE_RTOL) == [0, 2]
    assert _distinct_rows(rows[::-1], RULE_RTOL) == [0, 2]


def test_near_duplicate_rule_is_greedy_in_index_order():
    # the middle of the chain comes first and absorbs both ends
    rows, _ = near_chain([0.6, 0.0, 1.2])
    assert _distinct_rows(rows, RULE_RTOL) == [0]


def test_exact_duplicates_keep_their_first_copy():
    a, b = np.array([1.0, -2.0]), np.array([0.5, 4.0])
    assert _distinct_rows(np.array([a, b, a, b, a]), 1e-9) == [0, 1]
    assert _distinct_rows(np.array([b, b, b]), 1e-9) == [0]
    # every distance exceeds a negative cut, so nothing is dropped
    assert _distinct_rows(np.array([a, b, a]), -1.0) == [0, 1, 2]


def test_signed_zeros_are_duplicates():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
    assert _distinct_rows(rows, 1e-9) == [0, 2, 4]


# ---------------------------------------------------------------------------
# the stacked constraint system against per-pair Kronecker blocks


def reference_intertwiner_rows(M1, b1, M2, b2):
    """Rows over (vec A, p) for a∘m1 = m2∘a, with rhs, one pair at a time."""
    d = M1.shape[0]
    eye = np.eye(d)
    top = np.hstack([np.kron(eye, M1.T) - np.kron(M2, eye), np.zeros((d * d, d))])
    bottom = np.hstack([np.kron(eye, b1[None, :]), eye - M2])
    return np.vstack([top, bottom]), np.concatenate([np.zeros(d * d), b2])


@pytest.mark.parametrize("seed", range(4))
def test_intertwiner_system_equals_stacked_pair_rows(seed):
    gen = stream(3200, seed)
    for _ in range(25):
        k, d = int(gen.integers(1, 5)), int(gen.integers(1, 7))
        M1, M2 = gen.standard_normal((2, k, d, d))
        b1, b2 = gen.standard_normal((2, k, d))
        for a in (M1, M2, b1, b2):  # exact zeros of both signs
            a[gen.random(a.shape) < 0.3] = float(gen.choice([0.0, -0.0]))
        pairs = [reference_intertwiner_rows(M1[i], b1[i], M2[i], b2[i]) for i in range(k)]
        want_C = np.vstack([C for C, _ in pairs])
        want_r = np.concatenate([r for _, r in pairs])
        C, r = _intertwiner_system(M1, b1, M2, b2)
        for got, want in ((C, want_C), (r, want_r)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# the sorted dedupe and the blocked pair scan against the per-row loops


def reference_distinct_rows(rows, rtol):
    scale = 1.0 + float(np.max(np.linalg.norm(rows, axis=1))) if rows.size else 1.0
    kept = []
    for i in range(rows.shape[0]):
        if all(np.linalg.norm(rows[i] - rows[j]) > rtol * scale for j in kept):
            kept.append(i)
    return kept


def reference_offset_check(M, offsets, rtol):
    """One eigencoordinate solve per pair of kept offsets, one kron per offset."""
    B = np.atleast_2d(np.asarray(offsets, dtype=float))
    d = M.shape[0]
    w, S, radius, diag_ok, distinct, min_gap = _eigen_summary(M)
    kept = reference_distinct_rows(B, rtol)
    diffs = B[kept[1:]] - B[kept[0]] if len(kept) > 1 else np.zeros((0, d))
    rank = relative_rank(diffs, rtol) if diffs.size else 0
    rank_ok = bool(len(kept) >= d + 1 and rank == d)
    best_pair = best_mags = offset_ok = None
    if diag_ok:
        offset_ok = False
        best_score = -1.0
        for ai in range(len(kept)):
            for bi in range(ai + 1, len(kept)):
                v = np.linalg.solve(S, (B[kept[ai]] - B[kept[bi]]).astype(complex))
                av = np.abs(v)
                norm = float(np.linalg.norm(av))
                if norm <= 0:
                    continue
                score = float(np.min(av) / norm)
                if score > best_score:
                    best_score = score
                    best_pair = (kept[ai], kept[bi])
                    best_mags = tuple(float(x) for x in av)
                if np.all(av > rtol * norm):
                    offset_ok = True
    eye = np.eye(d)
    blocks = [np.kron(eye, M.T) - np.kron(M, eye)] + [np.kron(eye, b[None, :]) for b in B[kept]]
    # the cut's floor is the largest entry of the data the rows are built from
    scale = max(np.max(np.abs(M)), np.max(np.abs(B[kept])))
    measured = null_space(np.vstack(blocks), rtol, scale=scale).shape[0]
    if not diag_ok:
        verdict = ConditionVerdict("not-applicable", measured)
    elif rank_ok and offset_ok and distinct:
        verdict = ConditionVerdict("offset-only", d)
    else:
        verdict = ConditionVerdict("other", measured)
    return ConditionReport(
        eigenvalues=tuple(complex(x) for x in w),
        diagonalizable=diag_ok,
        distinct_eigenvalues=distinct,
        min_eigenvalue_gap=min_gap,
        spectral_radius=radius,
        measured_dimension=measured,
        verdict=verdict,
        offset_component_magnitudes=best_mags,
        offset_condition=offset_ok,
        offset_count=int(B.shape[0]),
        distinct_offset_count=len(kept),
        difference_rank=int(rank),
        assumption_rank_ok=rank_ok,
        nonzero_difference_pair=best_pair,
    )


def random_offset_case(gen):
    """M with plain, tied, Jordan or complex spectra; offsets with repeats and near chains."""
    d = int(gen.integers(1, 7))
    kind = int(gen.integers(0, 4))
    S = random_invertible(gen, d)
    if kind == 0:  # diagonal: the eigenbasis is the identity, zeroed columns tie every score
        M = np.diag(gen.permutation(np.arange(1.0, d + 1)))
    elif kind == 1:
        M = S @ np.diag(gen.integers(1, 3, size=d).astype(float)) @ np.linalg.inv(S)
    elif kind == 2:
        J = np.diag(gen.uniform(0.5, 2.0, size=d))
        if d > 1:
            J[0, 1], J[1, 1] = 1.0, J[0, 0]
        M = S @ J @ np.linalg.inv(S)
    else:
        M = gen.standard_normal((d, d))
    k = int(gen.integers(1, 14))
    if gen.random() < 0.4:
        base = gen.integers(-2, 3, size=(k, d)).astype(float)
    else:
        base = gen.standard_normal((k, d))
    if gen.random() < 0.3:
        base[:, gen.integers(0, d)] = 0.0
    rows = base[gen.integers(0, k, size=int(gen.integers(1, 81)))]
    rtol = float(gen.choice([1e-9, 1e-3, 0.05, 0.3]))
    if gen.random() < 0.4:
        tau = rtol * (1.0 + np.max(np.linalg.norm(rows, axis=1)))
        e = gen.standard_normal(d)
        steps = np.cumsum(gen.uniform(0.3, 0.9, size=int(gen.integers(2, 8))))
        chain = rows[0] + np.outer(steps, e / np.linalg.norm(e)) * tau
        rows = np.vstack([rows, chain])[gen.permutation(rows.shape[0] + chain.shape[0])]
    if gen.random() < 0.2:
        rows = np.where(rows == 0.0, -0.0, rows)
    return M, rows, rtol


@pytest.mark.parametrize("seed", range(4))
def test_offset_check_matches_per_pair_reference(seed):
    gen = stream(3100, seed)
    for _ in range(100):
        M, rows, rtol = random_offset_case(gen)
        assert _distinct_rows(rows, rtol) == reference_distinct_rows(rows, rtol)
        got = offset_identifiability_check(M, rows, rtol=rtol)
        assert repr(got) == repr(reference_offset_check(M, rows, rtol))


def test_offset_check_matches_reference_across_pair_blocks():
    # 150 offsets make 11 175 pairs, several blocks of the scan
    gen = stream(3101)
    for M in (np.diag([0.5, 0.8, 1.3]), gen.standard_normal((3, 3))):
        rows = gen.standard_normal((150, 3))
        want = reference_offset_check(M, rows, 1e-9)
        assert repr(offset_identifiability_check(M, rows)) == repr(want)


@pytest.mark.parametrize("d", [3, 5, 6])
def test_offset_check_breaks_ties_like_the_reference(d):
    # ties in exact arithmetic, decided by the last bit of each norm: small
    # integer offsets under a diagonal M, a zeroed column, and collinear
    # offsets, whose differences all share one direction and one score
    gen = stream(3103, d)
    S = random_invertible(gen, d)
    cases = [
        (np.diag(np.arange(1.0, d + 1)), gen.integers(-2, 3, size=(120, d)).astype(float)),
        (np.diag(np.arange(1.0, d + 1)), gen.integers(-2, 3, size=(120, d)) * (np.arange(d) != 1)),
        (S @ np.diag(np.arange(1.0, d + 1)) @ np.linalg.inv(S),
         gen.standard_normal(d) + np.outer(np.arange(120.0), gen.standard_normal(d))),
    ]
    for M, rows in cases:
        rows = np.asarray(rows, dtype=float)
        want = reference_offset_check(M, rows, 1e-9)
        assert repr(offset_identifiability_check(M, rows)) == repr(want)


def test_offset_check_memory_is_flat_in_pairs():
    # 1200 offsets make 719 400 pairs; blocks keep the scan from holding them all
    gen = stream(3102)
    rows = gen.standard_normal((1200, 3))
    tracemalloc.start()
    try:
        report = offset_identifiability_check(np.diag([0.5, 0.8, 1.3]), rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.distinct_offset_count == 1200
    assert report.verdict.kind == "offset-only"
    assert peak < 16 * 2**20


def test_a_walk_and_its_mean_map_are_one_object_to_the_solvers():
    M, b = np.array([[0.5, 1.0], [0.0, 2.0]]), np.array([0.1, -3.0])
    walk = additive_noise_mechanism(NoiseSpec("gaussian", scale=0.5, dim=2), M, b, "w")
    got, want = shared_equivariances([walk]), shared_equivariances([AffineMechanism(M, b, "w")])
    assert got.degenerate_offset == want.degenerate_offset
    for f in dataclasses.fields(want.family):
        one, other = getattr(got.family, f.name), getattr(want.family, f.name)
        assert np.asarray(one).tobytes() == np.asarray(other).tobytes(), f.name
    (m,) = got.mechanisms
    assert (m.M.tobytes(), m.b.tobytes(), m.label) == (M.tobytes(), b.tobytes(), "w")
