"""Row-major vec identities and null-space machinery.

The operator constructions are verified against direct entrywise
evaluation of the bilinear maps they encode, not against each other. The
constraint solve is checked against numpy's pseudoinverse at the same cut,
and its block-by-block form against one solve of the stacked blocks.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechid.linalg import (
    intertwiner_operator,
    kron_rows,
    null_space,
    relative_rank,
    row_space,
)
from mechid.rng import stream


def test_vec_is_row_major():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(A.reshape(-1), [1.0, 2.0, 3.0, 4.0])  # vec, as every constraint row reads it


dims = st.integers(min_value=2, max_value=5)


@settings(max_examples=40, deadline=None)
@given(dims, st.integers(min_value=0, max_value=2**31 - 1))
def test_intertwiner_operator_matches_difference(d, seed):
    gen = stream(seed, 2)
    M1 = gen.standard_normal((d, d))
    M2 = gen.standard_normal((d, d))
    A = gen.standard_normal((d, d))
    lhs = intertwiner_operator(M1, M2) @ A.reshape(-1)
    assert np.allclose(lhs, (A @ M1 - M2 @ A).reshape(-1), atol=1e-12 * (1 + np.abs(lhs).max()))


def _bitwise_equal(a, b):
    same_bits = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and same_bits


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stacked_operators_equal_kron_bit_for_bit(k, d, seed):
    gen = stream(seed, 5)
    M1 = gen.standard_normal((k, d, d))
    M2 = gen.standard_normal((k, d, d))
    b = gen.standard_normal((k, d))
    # exact zeros of both signs, so that signed-zero products are exercised
    M1[gen.random((k, d, d)) < 0.3] = 0.0
    M2[gen.random((k, d, d)) < 0.3] = -0.0
    b[gen.random((k, d)) < 0.3] = -0.0
    eye = np.eye(d)
    stack = intertwiner_operator(M1, M2)
    offsets = kron_rows(eye, b[..., None])
    for i in range(k):
        want = np.kron(eye, M1[i].T) - np.kron(M2[i], eye)
        assert _bitwise_equal(stack[i], want)
        assert _bitwise_equal(intertwiner_operator(M1[i], M2[i]), want)
        assert _bitwise_equal(offsets[i], np.kron(eye, b[i][None, :]))
        assert _bitwise_equal(kron_rows(eye, b[i][:, None]), offsets[i])


sides = st.integers(min_value=1, max_value=4)


@settings(max_examples=80, deadline=None)
@given(sides, sides, sides, sides, st.integers(0, 3), st.integers(0, 2**31 - 1))
@example(1, 1, 1, 1, 0, 0)
def test_kron_rows_equals_kron_bit_for_bit(p, n, m, q, stacked, seed):
    # stacked: 0 neither side, 1 only L, 2 only R, 3 both
    gen = stream(seed, 6)
    k = 3
    L = gen.standard_normal((k, p, n) if stacked in (1, 3) else (p, n))
    R = gen.standard_normal((k, m, q) if stacked in (2, 3) else (m, q))
    # exact zeros of both signs, so that signed-zero products are exercised
    L[gen.random(L.shape) < 0.3] = 0.0
    L[gen.random(L.shape) < 0.2] = -0.0
    R[gen.random(R.shape) < 0.3] = -0.0
    R[gen.random(R.shape) < 0.2] = 0.0
    got = kron_rows(L, R)
    if not stacked:
        assert _bitwise_equal(got, np.kron(L, R.T))
        return
    assert got.shape == (k, p * q, n * m)
    Ls = L if L.ndim == 3 else [L] * k
    Rs = R if R.ndim == 3 else [R] * k
    for i in range(k):
        assert _bitwise_equal(got[i], np.kron(Ls[i], Rs[i].T))


@settings(max_examples=40, deadline=None)
@given(sides, sides, sides, sides, st.integers(min_value=0, max_value=2**31 - 1))
def test_kron_rows_applies_the_bilinear_map(p, n, m, q, seed):
    gen = stream(seed, 3)
    L, X, R = gen.standard_normal((p, n)), gen.standard_normal((n, m)), gen.standard_normal((m, q))
    assert np.allclose(kron_rows(L, R) @ X.reshape(-1), (L @ X @ R).reshape(-1))


def test_null_space_rows_orthonormal_and_annihilated():
    gen = stream(5, 4)
    K = gen.standard_normal((6, 10))
    K[4] = K[0] + K[1]  # plant rank deficiency
    K[5] = 2 * K[2]
    B = null_space(K)
    assert B.shape == (6, 10)
    assert np.allclose(B @ B.T, np.eye(6), atol=1e-10)
    assert np.abs(K @ B.T).max() < 1e-10


def test_null_space_of_zero_matrix_is_identity_sized():
    B = null_space(np.zeros((3, 4)))
    assert B.shape == (4, 4)
    assert np.allclose(B @ B.T, np.eye(4), atol=1e-12)


def test_relative_rank():
    gen = stream(6, 1)
    U = gen.standard_normal((5, 2))
    V = gen.standard_normal((2, 7))
    assert relative_rank(U @ V) == 2


def test_relative_rank_keeps_the_imaginary_part():
    # [[1, i], [i, -1]] has rank 1, its real part diag(1, -1) rank 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert relative_rank(np.array([[1, 1j], [1j, -1]])) == 1


def test_full_rank_at_a_floor_of_one_is_the_singular_ratio_rule():
    # oracle: the invertibility test relative_rank(A, t, 1.0) == d replaced,
    # s_min / max(1, s_max) > t, on the same singular values
    outcomes = set()
    for t in (1e-9, 1e-12):
        for trial in range(200):
            gen = stream(6, 3, trial)
            d = int(gen.integers(2, 6))
            s_max = 10.0 ** gen.uniform(-12, 12)
            s_min = min(s_max, t * max(1.0, s_max) * 10.0 ** gen.uniform(-1, 1))
            s = np.concatenate([[s_max], np.sort(gen.uniform(s_min, s_max, d - 2))[::-1], [s_min]])
            # A = U diag(s) V^H, with U and V unitary for odd trials and orthogonal for even ones
            imag = 1j * (trial % 2)
            U, V = [np.linalg.qr(gen.standard_normal((d, d)) + imag * gen.standard_normal((d, d)))[0] for _ in "UV"]
            A = U * s @ V.conj().T
            A = A if imag else A.real
            sv = np.linalg.svd(A, compute_uv=False)
            ratio = sv[-1] / max(1.0, sv[0])
            if abs(ratio - t) <= 8 * np.spacing(t):
                continue
            expect = bool(ratio > t)
            assert (relative_rank(A, t, 1.0) == d) == expect, (t, trial)
            outcomes.add((expect, sv[0] < 1.0, sv[-1] / sv[0] > t))
    # both verdicts occur, and the floor decides some: a purely relative cut
    # would call those full rank
    assert {True, False} <= {e for e, _, _ in outcomes}
    assert (False, True, True) in outcomes


def test_row_space_complements_null_space_at_one_cut():
    gen = stream(6, 2)
    for rows in (3, 9):  # wide and tall
        K = gen.standard_normal((rows, 2)) @ gen.standard_normal((2, 6))
        R = row_space(K)
        assert R.shape == (relative_rank(K), 6) == (2, 6)
        full = np.vstack([R, null_space(K)])
        assert np.allclose(full @ full.T, np.eye(6), atol=1e-12)
    assert row_space(np.zeros((3, 4))).shape == (0, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(rows=12, cols=4, rank=2, seed=1)  # tall
@example(rows=3, cols=10, rank=2, seed=2)  # wide
def test_constraint_solve_is_the_pseudoinverse_at_the_basis_cut(rows, cols, rank, seed):
    gen = stream(seed, 7)
    rank = min(rank, rows - 1, cols - 1)  # rank-deficient either way
    K = gen.standard_normal((rows, rank)) @ gen.standard_normal((rank, cols))
    rhs = K @ gen.standard_normal(cols) + 1e-6 * gen.standard_normal(rows)
    rtol = 1e-9
    basis, x, residual = null_space(K, rtol, rhs)
    want = np.linalg.pinv(K, rcond=rtol) @ rhs  # keeps s > rcond * s_0, as the cut does
    assert np.linalg.norm(x - want) <= 1e-10 * (1.0 + np.linalg.norm(want))
    assert np.abs(basis @ x).max(initial=0.0) <= 1e-10 * (1.0 + np.linalg.norm(x))
    assert _bitwise_equal(basis, null_space(K, rtol))
    assert residual == np.linalg.norm(K @ x - rhs) / (1.0 + np.linalg.norm(rhs))


def test_constraint_solve_of_empty_and_zero_systems():
    basis, x, residual = null_space(np.zeros((0, 3)), rhs=np.zeros(0))
    assert _bitwise_equal(basis, np.eye(3)) and _bitwise_equal(x, np.zeros(3))
    assert residual == 0.0
    rhs = np.array([3.0, 0.0, 4.0])
    basis, x, residual = null_space(np.zeros((3, 2)), rhs=rhs)
    assert _bitwise_equal(basis, np.eye(2)) and _bitwise_equal(x, np.zeros(2))
    assert residual == 5.0 / 6.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.lists(st.integers(min_value=1, max_value=11), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_blocked_solve_is_the_stacked_solve(cols, ranks, seed):
    # a consistent system of rank-deficient blocks, appended one at a time on the shrinking basis
    gen = stream(seed, 8)
    blocks = [
        gen.standard_normal((rank + 1, min(rank, cols - 1))) @ gen.standard_normal((min(rank, cols - 1), cols))
        for rank in ranks
    ]
    x_true = gen.standard_normal(cols)
    start = None
    for K in blocks:
        basis, x, residual = null_space(K, 1e-9, K @ x_true, start=start)
        start = basis, x
        assert residual <= 1e-10
    K = np.vstack(blocks)
    want_basis, want_x, _ = null_space(K, 1e-9, K @ x_true)
    assert basis.shape == want_basis.shape
    assert np.allclose(basis @ basis.T, np.eye(basis.shape[0]), atol=1e-10)
    # sine of the largest principal angle between the two null spaces
    assert np.linalg.norm(basis - (basis @ want_basis.T) @ want_basis, 2) <= 1e-8 if basis.size else True
    assert np.linalg.norm(x - want_x) <= 1e-8 * (1.0 + np.linalg.norm(want_x))


def test_a_cut_is_floored_at_the_given_scale():
    noise = 1e-15 * np.array([[1.0, -2.0], [0.5, 1.0]])
    assert null_space(noise, 1e-9).shape == (0, 2)
    assert _bitwise_equal(null_space(noise, 1e-9, scale=1.0), np.eye(2))
