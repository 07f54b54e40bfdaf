"""Shared linear-algebra plumbing.

Row-major (C-order) vectorization is used throughout:

    vec(L @ X @ R) = kron(L, R.T) @ vec(X)

so every linear constraint on a matrix unknown is a sum of `kron_rows(L, R)`
blocks, and solution sets of matrix equations become null spaces computed by
SVD with a relative threshold.

`null_space` is the one constraint solve. It takes rows one block at a time:
given the null basis N (as rows) and particular solution x of the blocks
before, a block C with right-hand side r is projected onto that basis and cut
there,

    N' = null(C N^T) N,    x' = x + N^T y,    y = argmin-norm |C N^T y - (r - C x)|,

so each later block costs an SVD of its rows against the surviving directions
only, and a solution set shared by k mechanisms costs about one mechanism's
SVD. A first block (no N) is solved directly. Every cut keeps the singular
values above rtol * max(s_1, scale), where `scale` is the size of the data the
rows were built from: a block that is rounding noise next to its data (the
commutator rows of a scalar M, or a mechanism appended twice) has no rank.

`_min_cost_assignment` is the one matching: `compare_up_to_class`'s signed-permutation
fit, the class test `signed_perm_offset_test` and the closure's spectrum prune pair through it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, NonFiniteSampleError

__all__ = [
    "DEFAULT_RTOL",
    "kron_rows",
    "intertwiner_operator",
    "null_space",
    "solve_residual",
    "unit_scaled",
    "row_space",
    "relative_rank",
    "orthonormal_defect",
]

DEFAULT_RTOL = 1e-9


def _require_finite(a: np.ndarray, field: str) -> None:
    """Raise NonFiniteSampleError naming `field`, and the first bad row of a 2-D `a`."""
    if not np.isfinite(a).all():
        row = f"[{int(np.argmin(np.isfinite(a).all(axis=1)))}]" if a.ndim == 2 else ""
        raise NonFiniteSampleError(field + row)


def _check_count(name: str, value, minimum: int) -> None:
    """Raise ValueError naming `name` unless `value` is an integer >= `minimum`; bools are not counts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _points(value, name: str, dim: int | None = None) -> np.ndarray:
    """`value` as a float array of one point per row, non-empty and of dimension `dim`, or raise naming it.

    A 1-D array is that many points of one coordinate when `dim` is None or 1,
    and one point otherwise.
    """
    P = np.asarray(value, dtype=float)
    if P.ndim > 2:
        raise DimensionMismatchError(f"{name} has shape {P.shape}; expected one point per row")
    P = P.reshape(-1, 1) if P.ndim < 2 and dim in (None, 1) else np.atleast_2d(P)
    if P.size == 0:
        raise ValueError(f"{name} is empty")
    if dim is not None and P.shape[1] != dim:
        raise DimensionMismatchError(f"{name} has dimension {P.shape[1]}, expected {dim}")
    return P


def _square_matrix(matrix, name: str) -> np.ndarray:
    """`matrix` as a new float array that is square, non-empty and finite, or raise naming it."""
    A = np.array(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must be square and nonempty, got shape {A.shape}")
    _require_finite(A, name)
    return A


def kron_rows(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Matrix of X -> L X R on vec(X): (p*q, n*m) for L (p, n) and R (m, q).

    Entry [i*q + c, j*m + k] is L[i, j] * R[k, c], the product np.kron(L, R.T) forms,
    so the two agree bit for bit, signed zeros included. Leading axes broadcast.
    """
    L = np.asarray(L, dtype=float)
    R = np.asarray(R, dtype=float)
    (p, n), (m, q) = L.shape[-2:], R.shape[-2:]
    # written in C order, so that the reshape is a view and not a strided copy
    op = np.multiply(L[..., :, None, :, None], np.swapaxes(R, -1, -2)[..., None, :, None, :], order="C")
    return op.reshape(op.shape[:-4] + (p * q, n * m))


def intertwiner_operator(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    """Matrix of A -> A M1 - M2 A acting on vec(A); stacks (k, d, d) give (k, d*d, d*d)."""
    eye = np.eye(np.shape(M1)[-1])
    op = kron_rows(eye, M1)
    op -= kron_rows(M2, eye)
    return op


def _rank(s: np.ndarray, rtol: float, scale: float = 0.0) -> int:
    """Count of singular values (descending) above rtol * max(largest, scale)."""
    return int(np.count_nonzero(s > rtol * max(s[0], scale))) if s.size else 0


def null_space(
    K: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    rhs: np.ndarray | None = None,
    scale: float = 0.0,
    start: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Orthonormal basis of the null space of K, as rows; the one constraint solve.

    Singular values at or below rtol * max(largest, scale) count as zero. A
    wide K needs the full V factor for its null rows; a tall one needs only
    the economy factors, and never the (rows x rows) U. Given `rhs`, returns
    (basis, x, residual) from the same factors and cut: x = V_k diag(1/s_k)
    U_k^T rhs is the minimum-norm solution at the cut, and residual is
    |K x - rhs| / (1 + |rhs|), which counts the directions the cut dropped.

    `start` = (N, x) appends K as a further block of rows to a system whose
    null basis is N and particular solution x: K N^T is cut instead of K, and
    the returned basis and solution lie in the affine set x + span(N).
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = K.shape[1]
    N, x = (None, np.zeros(n)) if start is None else start
    P = K if N is None else K @ N.T
    k = 0
    if P.size:
        u, s, vh = np.linalg.svd(P, full_matrices=P.shape[0] < P.shape[1])
        k = _rank(s, rtol, scale)
    if k == 0:
        basis = np.eye(n) if N is None else N
    else:
        basis = vh[k:] if N is None else vh[k:] @ N
    if rhs is None:
        return basis
    if k:
        y = vh[:k].T @ ((u[:, :k].T @ (rhs if N is None else rhs - K @ x)) / s[:k])
        x = y if N is None else x + N.T @ y
    return basis, x, solve_residual(K, x, rhs)


def solve_residual(K: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
    """|K x - rhs| / (1 + |rhs|): how far x is from solving K x = rhs.

    Where a sum of squares overflows, both norms are taken again on the
    vectors `unit_scaled` gives, which changes no result that is finite.
    """
    gap = K @ x - rhs
    with np.errstate(over="ignore"):
        gap2, rhs2 = gap.dot(gap), rhs.dot(rhs)
    if math.isinf(gap2) or math.isinf(rhs2):
        s, gap, rhs = unit_scaled(gap, rhs)
        return float(np.linalg.norm(gap) / (s + np.linalg.norm(rhs)))
    return math.sqrt(gap2) / (1.0 + math.sqrt(rhs2))


def unit_scaled(*arrays):
    """(s, s * a for each array a): s is a power of two such that no sum of squares overflows.

    Nor does one underflow unless it is negligible beside the largest
    entry's square. The scaling is exact, so it changes no result that
    stays finite: s is 1, and the arrays are returned as they are, when the
    largest entry lies in [2**-400, 2**400); otherwise s puts it in
    [0.5, 1), with s at most 2**1000 so that s is finite.
    """
    e = math.frexp(max([np.abs(a).max(initial=0.0) for a in arrays]))[1]
    if -400 < e <= 400:
        return (1.0, *arrays)
    s = 2.0 ** -max(e, -1000)
    return (s, *[a * s for a in arrays])


def row_space(K: np.ndarray, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthonormal basis of the row space of K, as rows, at the same cut."""
    _, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(K, dtype=float)), full_matrices=False)
    return vh[: _rank(s, rtol)]


def relative_rank(A: np.ndarray, rtol: float = DEFAULT_RTOL, scale: float = 0.0) -> int:
    """Count of A's singular values above rtol * max(largest, scale): the one rank rule. A square
    A is invertible when that is its size; at `scale` = 1, pure rounding noise is not."""
    A = np.atleast_2d(np.asarray(A))
    if A.size == 0:
        return 0
    return _rank(np.linalg.svd(A, compute_uv=False), rtol, scale)


def orthonormal_defect(A: np.ndarray) -> float:
    """Frobenius norm of A^T A - I."""
    A = np.asarray(A, dtype=float)
    return float(np.linalg.norm(A.T @ A - np.eye(A.shape[1])))


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a least-total-cost assignment of a square matrix.

    Shortest augmenting paths with row and column potentials (Kuhn 1955; the
    Jonker-Volgenant family, Crouse, IEEE TAES 2016): row `start` joins the
    matching along the cheapest alternating path, found by a Dijkstra search
    over reduced costs cost[i][j] - u[i] - v[j], which the potentials keep
    non-negative. O(d^3) in all. Plain Python over lists: at the sizes
    compared here a numpy call per step costs more than the arithmetic. A
    cost that is not finite raises ValueError: an infinite one keeps the
    search from settling, and a NaN compares false everywhere.
    """
    if not all(math.isfinite(c) for row in cost for c in row):
        raise ValueError("assignment costs must be finite")
    d = len(cost)
    u = [0.0] * d
    v = [0.0] * d
    col4row = [-1] * d
    row4col = [-1] * d
    path = [-1] * d  # the row that reaches column j on the current search
    for start in range(d):
        dist = [math.inf] * d
        rows = [start]  # rows reached, in order
        cols = []  # columns settled, in order
        todo = list(range(d - 1, -1, -1))
        i, low = start, 0.0
        while True:
            row, ui = cost[i], u[i]
            best, at = math.inf, -1
            for k, j in enumerate(todo):
                r = low + row[j] - ui - v[j]
                if r < dist[j]:
                    dist[j], path[j] = r, i
                # among equally near columns prefer a free one: it ends the path
                if dist[j] < best or (dist[j] == best and row4col[j] < 0):
                    best, at = dist[j], k
            low = best
            j = todo[at]
            todo[at] = todo[-1]
            todo.pop()
            cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
        u[start] += low
        for i in rows[1:]:
            u[i] += low - dist[col4row[i]]
        for j in cols:
            v[j] -= low - dist[j]
        while True:  # flip the path: each row on it takes the column it reached
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def _perm_matrix(perm: tuple[int, ...], signs: tuple[int, ...]) -> np.ndarray:
    d = len(perm)
    P = np.zeros((d, d))
    for i, (j, s) in enumerate(zip(perm, signs)):
        P[i, j] = s
    return P
