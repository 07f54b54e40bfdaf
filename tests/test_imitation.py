"""Intertwiners, imitator closures, and cycle structure on finite classes."""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mechid import (
    AffineMechanism,
    FunctionBijection,
    GeneralMechanism,
    GridSpec,
    MechanismClass,
    affine_equivariances,
    check_imitation,
    cycle_analysis,
    find_affine_intertwiners,
    imitator_closure,
    linear_commutant,
    shared_equivariances,
)
from mechid.errors import BudgetExceededError, ToleranceAmbiguityError
from mechid.equivariance import _BLOCKED_COMMUTANT_SIZE, _data_scale, _intertwiner_family, _intertwiner_system
from mechid.imitation import CLOSURE_TOL_FACTOR, _spectra_match
from mechid.linalg import smallest_singular_gap
from mechid.maps import AffineMap, compose, map_power
from mechid.rng import stream

from conftest import (
    ROT90,
    SWAP,
    commutant_dimension,
    distinct_eig_mechanism,
    random_invertible,
    rotation,
    stacked_solve,
)

DIAG23 = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2))
DIAG32 = AffineMechanism(np.diag([3.0, 2.0]), np.zeros(2))


def test_intertwiners_between_swapped_diagonals_are_antidiagonal():
    fam = find_affine_intertwiners(DIAG23, DIAG32)
    assert fam.dimension == 2
    gen = stream(71)
    for _ in range(10):
        A, p = fam.element(gen.standard_normal(2))
        # A diag(2,3) = diag(3,2) A forces the diagonal to vanish
        assert abs(A[0, 0]) < 1e-9 and abs(A[1, 1]) < 1e-9
        assert np.allclose(p, 0.0, atol=1e-9)
    rep = fam.representative(seed=0)
    assert rep is not None
    assert check_imitation(rep, DIAG23, DIAG32).passed


def test_self_intertwiners_are_equivariances():
    m = AffineMechanism(np.array([[1.1, 0.3], [0.0, 0.7]]), np.array([0.2, -0.4]))
    inter = find_affine_intertwiners(m, m)
    equi = affine_equivariances(m).family
    assert inter.dimension == equi.dimension
    gen = stream(73)
    for _ in range(8):
        c = gen.standard_normal(inter.dimension)
        A, p = inter.element(c)
        assert equi.membership_defect(A, p) < 1e-8
        A2, p2 = equi.element(c)
        assert inter.membership_defect(A2, p2) < 1e-8


def test_disjoint_spectra_leave_only_zero():
    fam = find_affine_intertwiners(DIAG23, AffineMechanism(np.diag([4.0, 5.0]), np.zeros(2)))
    assert fam.dimension == 0
    assert np.allclose(fam.particular_A, 0.0, atol=1e-10)
    assert fam.representative(seed=0) is None


def test_exp_intertwines_sum_with_product():
    d = 3
    c = np.array([0.4, -0.3, 0.2])
    m_sum = AffineMechanism(np.eye(d), c)
    m_prod = AffineMechanism(np.diag(np.exp(c)), np.zeros(d))
    a = FunctionBijection(np.exp, np.log, dim=d)
    grid = stream(79).uniform(-1.5, 1.5, (128, d))
    assert check_imitation(a, m_sum, m_prod, grid=grid, tol=1e-12).passed
    assert not check_imitation(a, m_prod, m_sum, grid=grid, tol=1e-6).passed


def test_inconsistent_system_gives_empty_family():
    # a translation by 0 cannot imitate a translation by (1, 0): p = p + (1, 0)
    still = AffineMechanism(np.eye(2), np.zeros(2))
    shift = AffineMechanism(np.eye(2), np.array([1.0, 0.0]))
    fam = find_affine_intertwiners(still, shift)
    assert not fam.consistent
    assert fam.residual == 0.5
    assert fam.representative() is None
    with pytest.raises(ValueError):
        fam.element(np.zeros(fam.dimension))


@pytest.mark.parametrize("delta", [1e-11, 1e-12, 1e-13])
def test_particular_solution_is_cut_where_the_basis_is(delta):
    # 3 and 3 + delta are one eigenvalue at the rtol cut; a particular solution
    # that inverts the delta-sized singular value leans along the family's basis
    source = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    target = AffineMechanism(np.diag([2.0, 3.0 + delta]), np.array([0.5, 2.0]))
    fam = find_affine_intertwiners(source, target)
    assert fam.consistent and fam.dimension == 2
    x = np.concatenate([fam.particular_A.reshape(-1), fam.particular_p])
    basis = np.hstack([fam.basis_A.reshape(fam.dimension, -1), fam.basis_p])
    assert np.linalg.norm(basis @ x) <= 1e-12 * (1.0 + np.linalg.norm(x))


def test_identity_mechanisms_imitated_by_any_bijection():
    ident = AffineMechanism(np.eye(2), np.zeros(2))
    a = FunctionBijection(np.sinh, np.arcsinh, dim=2)
    assert check_imitation(a, ident, ident).passed


def test_distinct_scalings_never_imitate_affinely():
    m2 = AffineMechanism(2.0 * np.eye(2), np.zeros(2))
    m3 = AffineMechanism(3.0 * np.eye(2), np.zeros(2))
    gen = stream(83)
    for _ in range(50):
        a = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
        assert not check_imitation(a, m2, m3, tol=1e-6).passed
    # and the linear solve agrees: the solution space is trivial
    fam = find_affine_intertwiners(m2, m3)
    assert fam.dimension == 0 and fam.representative(seed=0) is None


def test_nonfinite_evaluation_raises():
    from mechid.errors import NonFiniteSampleError

    bad = GeneralMechanism(fn=lambda z: np.full_like(z, np.nan), dim=2, label="bad")
    a = AffineMap(np.eye(2), np.zeros(2))
    with pytest.raises(NonFiniteSampleError):
        check_imitation(a, bad, bad)


# ---------------------------------------------------------------------------
# closures


def assert_identity_kept(m):
    """(I, 0) solves m's self-assignment exactly, so every family of it keeps the identity."""
    d = m.dim
    fam = find_affine_intertwiners(m, m)
    assert fam.consistent
    assert np.array_equal(fam.particular_A, np.eye(d)) and np.array_equal(fam.particular_p, np.zeros(d))
    assert fam.residual <= CLOSURE_TOL_FACTOR * fam.rtol
    assert fam.dimension == shared_equivariances([m]).dimension
    closure = imitator_closure(MechanismClass(used=(m,)))
    assert closure.solved == 1
    assert [found.assignment for found in closure.assignments] == [(0,)]


def test_self_assignment_keeps_the_identity_when_the_minimum_norm_solution_misses():
    # eigenvalue 1 and a tiny offset: the minimum-norm solution's residual is 5e-8,
    # above CLOSURE_TOL_FACTOR * rtol, while (I, 0) solves the system exactly
    S = np.random.default_rng(3).standard_normal((3, 3))
    m = AffineMechanism(S @ np.diag([1.0, 2.0, -1.5]) @ np.linalg.inv(S), 1e-7 * np.ones(3))
    assert_identity_kept(m)
    assert shared_equivariances([m]).dimension == 4


@pytest.mark.parametrize("seed", range(40))
def test_self_assignment_keeps_the_identity_with_a_unit_eigenvalue(seed):
    # seeds 0, 14, 36 and 37 lost the identity when the minimum-norm residual decided first
    gen = stream(4100 + seed)
    d = int(gen.integers(2, 5))
    S = random_invertible(gen, d, cond_cap=20.0)
    spectrum = np.concatenate([[1.0], gen.choice([-1.0, 1.0], d - 1) * gen.uniform(0.5, 3.0, d - 1)])
    m = AffineMechanism(S @ np.diag(spectrum) @ np.linalg.inv(S), 1e-7 * gen.standard_normal(d))
    assert_identity_kept(m)


def test_closure_single_mechanism_equals_equivariances():
    cls = MechanismClass(used=(DIAG23,))
    closure = imitator_closure(cls)
    assert len(closure.assignments) == 1
    fam = closure.assignments[0].family
    equi = affine_equivariances(DIAG23).family
    assert fam.dimension == equi.dimension
    gen = stream(89)
    for _ in range(6):
        c = gen.standard_normal(fam.dimension)
        A, p = fam.element(c)
        assert equi.membership_defect(A, p) < 1e-8


def test_closure_spectrum_pruning_forces_identity_assignment():
    cls = MechanismClass(used=(DIAG23, AffineMechanism(ROT90, np.zeros(2))))
    closure = imitator_closure(cls)
    assert closure.candidates_total == 4
    assert closure.candidates_after_pruning == 1
    assert len(closure.assignments) == 1
    assert closure.assignments[0].assignment == (0, 1)
    # shared family is the scalars
    fam = closure.assignments[0].family
    A, p = fam.element(np.ones(fam.dimension))
    off = A - np.diag(np.diag(A))
    assert np.abs(off).max() < 1e-9
    assert abs(A[0, 0] - A[1, 1]) < 1e-9


def test_closure_includes_swap_assignment():
    cls = MechanismClass(used=(DIAG23,), hypothesized=(DIAG32,))
    closure = imitator_closure(cls)
    assignments = {a.assignment for a in closure.assignments}
    assert assignments == {(0,), (1,)}
    by_assignment = {a.assignment: a for a in closure.assignments}
    self_fam = by_assignment[(0,)].family
    # the antidiagonal solutions are not inside the self-assignment family
    rep = by_assignment[(1,)].representative
    assert self_fam.membership_defect(rep.A, rep.p) > 0.1
    assert not check_imitation(rep, DIAG23, DIAG23, tol=1e-6).passed
    for record in by_assignment[(1,)].records:
        assert record.residual <= record.tol


@pytest.mark.parametrize("seed", [29, 30])
def test_closure_matches_a_spectrum_of_tied_complex_pairs(seed):
    # the two copies of 0.25 + 1.5i differ in their real parts by rounding, so a
    # lexicographic sort can interleave them with their conjugates in one spectrum only
    gen = stream(5400, seed)
    S, P = random_invertible(gen, 4, cond_cap=10.0), random_invertible(gen, 4, cond_cap=10.0)
    M1 = S @ np.kron(np.eye(2), [[0.25, -1.5], [1.5, 0.25]]) @ np.linalg.inv(S)
    b = gen.standard_normal(4)
    m2 = AffineMechanism(P @ M1 @ np.linalg.inv(P), P @ b)
    closure = imitator_closure(MechanismClass(used=(AffineMechanism(M1, b),), hypothesized=(m2,)))
    assert closure.candidates_after_pruning == 2
    assert [found.assignment for found in closure.assignments] == [(0,), (1,)]


def test_closure_budget_error():
    m = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2))
    cls = MechanismClass(used=(m, m), hypothesized=(m, m))
    with pytest.raises(BudgetExceededError) as exc:
        imitator_closure(cls, budget=10)
    assert exc.value.required == 16
    assert exc.value.budget == 10


# ---------------------------------------------------------------------------
# cycles


def test_cycle_swap_between_mirrored_diagonals():
    a = AffineMap(SWAP, np.zeros(2))
    report = cycle_analysis(a, [DIAG23, DIAG32])
    assert report.in_closure
    assert report.permutation == (1, 0)
    assert report.cycles == ((0, 1),)
    assert report.power_checks_passed
    assert np.allclose(map_power(a, 2).A, np.eye(2))


def test_cycle_identity_map():
    report = cycle_analysis(AffineMap(np.eye(2), np.zeros(2)), [DIAG23, DIAG32])
    assert report.permutation == (0, 1)
    assert all(len(c) == 1 for c in report.cycles)


def test_cycle_diagonal_sign_flip_commutes():
    a = AffineMap(np.diag([1.0, -1.0]), np.zeros(2))
    report = cycle_analysis(a, [DIAG23])
    assert report.in_closure
    assert report.permutation == (0,)
    assert report.power_checks_passed


def test_cycle_out_of_closure_verdict():
    a = AffineMap(rotation(0.5), np.zeros(2))
    report = cycle_analysis(a, [DIAG23])
    assert not report.in_closure
    assert report.unmatched == (0,)
    assert report.permutation is None


def test_cycle_duplicate_targets_ambiguous():
    with pytest.raises(ToleranceAmbiguityError):
        cycle_analysis(AffineMap(np.eye(2), np.zeros(2)), [DIAG23, DIAG23])


# ---------------------------------------------------------------------------
# invariants


def conjugate(a: AffineMap, m: AffineMechanism) -> AffineMechanism:
    """The affine mechanism a∘m∘a^{-1}."""
    M2 = a.A @ m.M @ np.linalg.inv(a.A)
    return AffineMechanism(M2, a.A @ m.b + a.p - M2 @ a.p)


def test_intertwiner_transitivity():
    tol = 1e-9
    for trial in range(12):
        gen = stream(1100 + trial)
        d = int(gen.integers(2, 4))
        m1 = AffineMechanism(random_invertible(gen, d, cond_cap=8.0), gen.standard_normal(d))
        a1 = AffineMap(random_invertible(gen, d, cond_cap=8.0), gen.standard_normal(d))
        a2 = AffineMap(random_invertible(gen, d, cond_cap=8.0), gen.standard_normal(d))
        m2 = conjugate(a1, m1)
        m3 = conjugate(a2, m2)
        assert check_imitation(a1, m1, m2, tol=tol).passed
        assert check_imitation(a2, m2, m3, tol=tol).passed
        assert check_imitation(compose(a2, a1), m1, m3, tol=10 * tol).passed


def test_records_preserve_spectra():
    for trial in range(10):
        gen = stream(1200 + trial)
        d = int(gen.integers(2, 4))
        m, _, _ = distinct_eig_mechanism(gen, d)
        P = np.zeros((d, d))
        P[np.arange(d), gen.permutation(d)] = 1.0
        target = AffineMechanism(P @ m.M @ P.T, P @ m.b)
        cls = MechanismClass(used=(m,), hypothesized=(target,))
        closure = imitator_closure(cls, check_tol=1e-7)
        for fam in closure.assignments:
            for rec in fam.records:
                src = m if rec.source == cls.label_of(0) else target
                tgt_idx = fam.assignment[0]
                tgt = cls.members[tgt_idx]
                s1 = np.sort_complex(np.linalg.eigvals(src.M))
                s2 = np.sort_complex(np.linalg.eigvals(tgt.M))
                assert np.max(np.abs(s1 - s2)) < 1e-7


def test_closure_maps_yield_bijective_cycle_permutations():
    for trial in range(25):
        gen = stream(1300 + trial)
        d = int(gen.integers(2, 5))
        k = int(gen.integers(1, 4))
        # used-set arranged in one conjugation orbit of the cyclic shift
        base, _, _ = distinct_eig_mechanism(gen, d)
        P = np.zeros((d, d))
        P[np.arange(d), np.roll(np.arange(d), 1)] = 1.0
        a = AffineMap(P, np.zeros(d))
        used = [base]
        for _ in range(k - 1):
            prev = used[-1]
            used.append(
                AffineMechanism(P @ prev.M @ P.T, P @ prev.b)
            )
        try:
            report = cycle_analysis(a, used, tol=1e-7)
        except ToleranceAmbiguityError:
            continue  # random orbit collided with itself; regenerate next trial
        if report.in_closure:
            assert sorted(report.permutation) == list(range(len(used)))
            assert report.power_checks_passed


# ---------------------------------------------------------------------------
# every decision about a family reads the cut it was solved at

EIGENVALUES = [1.0, 1.0 + 1e-7, 1.0 + 1e-4, 1.0 - 1e-5, 0.5, 2.0, -1.5]
# apart by more than 1, so no closed form below depends on the cut
SEPARATED = [-2.0, -0.5, 1.0, 2.5]
PAIRS = [(0.25, 1.5), (-1.0, 1.0)]  # a +- i w


@dataclass
class Planted:
    """Mechanisms M = S J S^-1 sharing S, with each J's blocks as (eigenvalue, size)."""

    mechanisms: list
    jordans: list
    carry: AffineMap  # a generic affine map; conjugate(carry, m) is imitated by it
    split: AffineMechanism  # the first mechanism's spectrum, every Jordan chain cut, another S and offset
    rtol: float


@st.composite
def planted_families(
    draw, eigenvalues=EIGENVALUES, pairs=(), rtols=(1e-9, 1e-6, 1e-3), cond_cap=20.0, dims=(1, 8), used=(1, 2)
):
    """Planted mechanisms, `used` of them, at d in `dims` in real Jordan form, conjugated by S with cond(S) <= cond_cap.

    J has tied eigenvalues and Jordan blocks from `eigenvalues`, and
    complex-conjugate pairs a +- iw from `pairs` as rotation-scaling blocks,
    chained by identities into a real Jordan block of a pair; each
    eigencoordinate of an offset may be zero.
    """
    d = draw(st.integers(*dims))
    gen = stream(draw(st.integers(0, 2**32 - 1)))
    S = random_invertible(gen, d, cond_cap=cond_cap)

    def real_jordan():
        """J, J without its chains (same spectrum, diagonalizable), and J's blocks."""
        diagonal, chains, blocks, i = np.zeros((d, d)), np.zeros((d, d)), [], 0
        while i < d:
            if pairs and d - i >= 2 and draw(st.booleans()):
                (a, w), n = draw(st.sampled_from(pairs)), draw(st.integers(1, (d - i) // 2))
                diagonal[i : i + 2 * n, i : i + 2 * n] = np.kron(np.eye(n), [[a, -w], [w, a]])
                chains[i : i + 2 * n, i : i + 2 * n] = np.eye(2 * n, k=2)
                blocks += [(complex(a, w), n), (complex(a, -w), n)]
                i += 2 * n
                continue
            size, lam = draw(st.integers(1, d - i)), draw(st.sampled_from(eigenvalues))
            chained = draw(st.booleans())
            diagonal[i : i + size, i : i + size] = lam * np.eye(size)
            chains[i : i + size, i : i + size] = chained * np.eye(size, k=1)
            blocks += [(lam, size)] if chained else [(lam, 1)] * size
            i += size
        return diagonal + chains, diagonal, blocks

    def offset():
        return gen.uniform(0.5, 1.5, d) * draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=d, max_size=d))

    drawn = [real_jordan() for _ in range(draw(st.integers(*used)))]
    mechanisms = [AffineMechanism(S @ J @ np.linalg.inv(S), S @ offset()) for J, _, _ in drawn]
    T = random_invertible(gen, d, cond_cap=cond_cap)
    split = AffineMechanism(T @ drawn[0][1] @ np.linalg.inv(T), T @ offset())
    carry = AffineMap(random_invertible(gen, d, cond_cap=cond_cap), gen.standard_normal(d))
    rtol = draw(st.sampled_from(rtols))
    return Planted(mechanisms, [blocks for _, _, blocks in drawn], carry, split, rtol)


def assert_one_cut(family, rtol):
    assert family.rtol == rtol
    assert family.a_dimension == family.a_part_basis().dimension
    assert family.p_fiber_dimension == family.dimension - family.a_dimension
    for seed in range(3):
        rep = family.representative(seed)
        if rep is not None:
            assert smallest_singular_gap(rep.A) > family.rtol


@settings(max_examples=60, deadline=None)
@given(planted_families())
def test_every_family_decision_reads_its_own_cut(case):
    mechanisms, rtol = case.mechanisms, case.rtol
    m1 = mechanisms[0]
    m2 = conjugate(case.carry, m1)
    shared = shared_equivariances(mechanisms, rtol)
    assert_one_cut(shared.family, rtol)
    assert shared.a_dimension == shared.a_part_basis().dimension
    assert shared.p_fiber_dimension == shared.dimension - shared.a_dimension
    assert_one_cut(find_affine_intertwiners(m1, m2, rtol), rtol)
    closure = imitator_closure(MechanismClass(used=(m1,), hypothesized=(m2,)), rtol=rtol)
    for found in closure.assignments:
        assert_one_cut(found.family, rtol)
        assert smallest_singular_gap(found.representative.A) > rtol


# ---------------------------------------------------------------------------
# closed forms and one stacked SVD as oracles of the blocked solves


def stacked_family(used, targets, rtol, scale):
    """The family of one stacked SVD, and whether its rank was decided clear of the cut."""
    M1, b1 = np.stack([m.M for m in used]), np.stack([m.b for m in used])
    M2, b2 = np.stack([m.M for m in targets]), np.stack([m.b for m in targets])
    C, r = _intertwiner_system(M1, b1, M2, b2)
    basis, x, clear = stacked_solve(C, r, rtol, scale)
    return _intertwiner_family(C, r, basis, x, used[0].dim, rtol), clear


def assert_same_family(got, want):
    assert (got.dimension, got.consistent) == (want.dimension, want.consistent)
    B1, B2 = (np.hstack([f.basis_A.reshape(f.dimension, f.basis_p.shape[1] ** 2), f.basis_p]) for f in (got, want))
    # sine of the largest principal angle between the two null spaces
    assert np.linalg.norm(B1 - (B1 @ B2.T) @ B2, 2, axis=None) <= 1e-8 if B1.size else True


def exhaustive_closure(cls, rtol, scale, seed=0):
    """Every spectrum-compatible assignment solved from scratch: the kept ones, the solved
    count, and whether every rank was decided clear of the cut."""
    members = cls.members
    spectra = [np.linalg.eigvals(m.M) for m in members]
    compatible = [
        [j for j in range(len(members)) if _spectra_match(spectra[i], spectra[j])] for i in range(len(cls.used))
    ]
    points, tol = GridSpec(dim=cls.dim).points(), CLOSURE_TOL_FACTOR * rtol
    kept, solved, all_clear = {}, 0, True
    for k, assignment in enumerate(itertools.product(*compatible)):
        family, clear = stacked_family(cls.used, [members[j] for j in assignment], rtol, scale)
        all_clear &= clear
        rep = family.representative(seed + k)
        if rep is None:
            continue
        solved += 1
        if all(check_imitation(rep, cls.used[i], members[j], points, tol=tol) for i, j in enumerate(assignment)):
            kept[assignment] = family
    return kept, solved, all_clear


@settings(max_examples=25, deadline=None)
@given(planted_families(eigenvalues=SEPARATED, pairs=PAIRS, rtols=(1e-9,), cond_cap=50.0, dims=(8, 12), used=(1, 3)))
def test_shared_family_in_row_blocks_agrees_with_closed_forms_and_one_stacked_svd(case):
    # from d = 8 each mechanism's commutator rows are cut in four blocks, its offset rows last
    d = case.mechanisms[0].dim
    assert d * d >= _BLOCKED_COMMUTANT_SIZE
    for m, blocks in zip(case.mechanisms, case.jordans):
        assert linear_commutant(m).dimension == commutant_dimension(blocks)
    rtol, used = case.rtol, tuple(case.mechanisms)
    scale = _data_scale(np.stack([m.M for m in used]), np.stack([m.b for m in used]))
    want, clear = stacked_family(used, used, rtol, scale)
    assume(clear)
    got = shared_equivariances(used, rtol).family
    assert_same_family(got, want)
    if len(used) == 1 and all(lam != 1.0 for lam, _ in case.jordans[0]):
        # M - I is invertible, so p is a function of A and the family is the commutant
        assert got.dimension == got.a_dimension == commutant_dimension(case.jordans[0])


@settings(max_examples=40, deadline=None)
@given(planted_families(eigenvalues=SEPARATED, pairs=PAIRS, rtols=(1e-9,), cond_cap=10.0))
def test_blocked_solves_agree_with_closed_forms_and_one_stacked_svd(case):
    for m, blocks in zip(case.mechanisms, case.jordans):
        assert linear_commutant(m).dimension == commutant_dimension(blocks)
    rtol, used = case.rtol, tuple(case.mechanisms)
    scale = _data_scale(np.stack([m.M for m in used]), np.stack([m.b for m in used]))
    want, clear = stacked_family(used, used, rtol, scale)
    if clear:
        assert_same_family(shared_equivariances(used, rtol).family, want)
    # each used mechanism carried onto its image under (P, q); the Jordan-split copy of
    # m1 shares its spectrum, but every map carrying a Jordan chain onto it is singular
    carried = tuple(conjugate(case.carry, m) for m in used)
    cls = MechanismClass(used=used, hypothesized=carried + (case.split,))
    scale = _data_scale(np.stack([m.M for m in cls.members]), np.stack([m.b for m in cls.members]))
    kept, solved, clear = exhaustive_closure(cls, rtol, scale)
    if not clear:
        return
    closure = imitator_closure(cls, rtol=rtol)
    assert [found.assignment for found in closure.assignments] == list(kept)
    assert closure.solved == solved
    if all(n == 1 for blocks in case.jordans for _, n in blocks):
        # the spectrum prune keeps the planted assignment; it cannot see a Jordan chain's tie
        assert tuple(len(used) + i for i in range(len(used))) in kept
    for found in closure.assignments:
        assert_same_family(found.family, kept[found.assignment])
