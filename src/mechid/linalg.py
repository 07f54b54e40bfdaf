"""Shared linear-algebra plumbing.

Row-major (C-order) vectorization is used throughout:

    vec(M @ A) = kron(M, I) @ vec(A)
    vec(A @ M) = kron(I, M.T) @ vec(A)
    A @ b      = kron(I, b.T) @ vec(A)

so operators on matrices become explicit (d*d x d*d) matrices and solution
sets of matrix equations become null spaces computed by SVD with a relative
threshold: `null_space` solves each system with one SVD and one rank cut.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_RTOL",
    "vec",
    "intertwiner_operator",
    "offset_operator",
    "null_space",
    "row_space",
    "relative_rank",
    "smallest_singular_gap",
    "orthonormal_defect",
]

DEFAULT_RTOL = 1e-9


def vec(A: np.ndarray) -> np.ndarray:
    """Row-major flattening of a matrix."""
    return np.asarray(A, dtype=float).reshape(-1)


def intertwiner_operator(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    """Matrix of A -> A M1 - M2 A acting on vec(A); stacks (k, d, d) give (k, d*d, d*d).

    Entry [i*d + j, k*d + l] is I[i, k] * M1[l, j] - M2[i, k] * I[j, l]: the
    same products np.kron(I, M1.T) and np.kron(M2, I) form, so the result
    equals their difference bit for bit, signed zeros included.
    """
    M1 = np.asarray(M1, dtype=float)
    M2 = np.asarray(M2, dtype=float)
    d = M1.shape[-1]
    eye = np.eye(d)
    op = eye[:, None, :, None] * np.swapaxes(M1, -1, -2)[..., None, :, None, :]
    op -= M2[..., :, None, :, None] * eye[:, None, :]
    return op.reshape(M1.shape[:-2] + (d * d, d * d))


def offset_operator(b: np.ndarray) -> np.ndarray:
    """Matrix of A -> A b acting on vec(A); shape (d, d*d), or (k, d, d*d) for (k, d).

    Entry [i, j*d + l] is I[i, j] * b[l], the product np.kron(I, b[None, :]) forms.
    """
    b = np.asarray(b, dtype=float)
    d = b.shape[-1]
    return (np.eye(d)[:, :, None] * b[..., None, None, :]).reshape(b.shape[:-1] + (d, d * d))


def _rank(s: np.ndarray, rtol: float) -> int:
    """Count of singular values (descending) above rtol times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def null_space(K: np.ndarray, rtol: float = DEFAULT_RTOL, rhs: np.ndarray | None = None):
    """Orthonormal basis of the null space of K, as rows; the one constraint solve.

    Singular values at or below rtol times the largest count as zero. A
    wide K needs the full V factor for its null rows; a tall one needs only
    the economy factors, and never the (rows x rows) U. Given `rhs`, returns
    (basis, x, residual) from the same factors and cut: x = V_k diag(1/s_k)
    U_k^T rhs is the minimum-norm solution at the rtol cut, and residual is
    |K x - rhs| / (1 + |rhs|), which counts the directions the cut dropped.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = K.shape[1]
    x = np.zeros(n)
    if K.shape[0] == 0:
        basis = np.eye(n)
    else:
        u, s, vh = np.linalg.svd(K, full_matrices=K.shape[0] < n)
        k = _rank(s, rtol)
        basis = vh[k:, :] if s.size and s[0] != 0.0 else np.eye(n)
        if rhs is not None:
            x = vh[:k].T @ ((u[:, :k].T @ rhs) / s[:k])
    if rhs is None:
        return basis
    residual = float(np.linalg.norm(K @ x - rhs) / (1.0 + np.linalg.norm(rhs)))
    return basis, x, residual


def row_space(K: np.ndarray, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthonormal basis of the row space of K, as rows, at the same cut."""
    _, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(K, dtype=float)), full_matrices=False)
    return vh[: _rank(s, rtol)]


def relative_rank(A: np.ndarray, rtol: float = DEFAULT_RTOL) -> int:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return 0
    return _rank(np.linalg.svd(A, compute_uv=False), rtol)


def smallest_singular_gap(A: np.ndarray) -> float:
    """sigma_min / max(1, sigma_max): invertibility at unit working scale.

    The floor matters: a matrix of pure rounding noise can have a healthy
    sigma ratio, and a purely relative measure would call it invertible.
    """
    s = np.linalg.svd(np.asarray(A), compute_uv=False)
    if s.size == 0:
        return 0.0
    return float(s[-1] / max(1.0, s[0]))


def orthonormal_defect(A: np.ndarray) -> float:
    """Frobenius norm of A^T A - I."""
    A = np.asarray(A, dtype=float)
    return float(np.linalg.norm(A.T @ A - np.eye(A.shape[1])))
