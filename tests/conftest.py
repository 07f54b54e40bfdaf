"""Shared constructors for randomized test instances.

Everything here is seeded through mechid.rng.stream so the suite is
bit-reproducible; no test may touch the global numpy RNG.
"""

import numpy as np
import pytest

from mechid import AffineMechanism
from mechid.rng import stream


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_invertible(gen: np.random.Generator, d: int, cond_cap: float = 50.0) -> np.ndarray:
    """Generic invertible matrix with bounded condition number."""
    for _ in range(100):
        A = gen.standard_normal((d, d))
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= cond_cap:
            return A
    raise AssertionError("failed to draw a well-conditioned matrix")


def random_orthogonal(gen: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(gen.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def random_signed_permutation(gen: np.random.Generator, d: int) -> np.ndarray:
    P = np.zeros((d, d))
    perm = gen.permutation(d)
    signs = gen.choice([-1.0, 1.0], size=d)
    P[np.arange(d), perm] = signs
    return P


def distinct_eig_mechanism(
    gen: np.random.Generator, d: int, zero_eigencoords: int = 0
) -> tuple[AffineMechanism, np.ndarray, np.ndarray]:
    """Mechanism with real distinct eigenvalues and controlled offset.

    Returns (mechanism, S, lam) with M = S diag(lam) S^-1. The offset is
    drawn with every eigencoordinate bounded away from zero, then exactly
    `zero_eigencoords` of them are zeroed.
    """
    lam = np.sort(gen.uniform(0.4, 1.4, size=d))
    while np.min(np.diff(lam)) < 0.08:
        lam = np.sort(gen.uniform(0.4, 1.4, size=d))
    S = random_invertible(gen, d, cond_cap=20.0)
    v = gen.uniform(0.3, 1.0, size=d) * gen.choice([-1.0, 1.0], size=d)
    if zero_eigencoords:
        idx = gen.choice(d, size=zero_eigencoords, replace=False)
        v[idx] = 0.0
    M = S @ np.diag(lam) @ np.linalg.inv(S)
    b = S @ v
    return AffineMechanism(M, b), S, lam


# ---------------------------------------------------------------------------
# closed forms and one stacked SVD as oracles of the blocked solves


def commutant_dimension(blocks) -> int:
    """sum over eigenvalues of sum_{i, j} min(n_i, n_j) over their Jordan block sizes."""
    sizes = {}
    for lam, n in blocks:
        sizes.setdefault(lam, []).append(n)
    return sum(min(a, b) for ns in sizes.values() for a in ns for b in ns)


# Within this factor of the cut a rank decision may go either way: the blocked and the
# stacked solve see different singular values there. Outside it they must agree.
MARGIN = 100.0


def stacked_solve(C, r, rtol, scale):
    """Null basis, minimum-norm solution and whether no singular value is near the cut,
    from one SVD of the whole system cut as the kernel cuts."""
    u, s, vh = np.linalg.svd(C, full_matrices=C.shape[0] < C.shape[1])
    cut = rtol * max(s[0], scale)
    k = int(np.sum(s > cut))
    clear = not np.any((s > cut / MARGIN) & (s <= cut * MARGIN))
    return vh[k:], vh[:k].T @ ((u[:, :k].T @ r) / s[:k]), clear


@pytest.fixture
def gen():
    return stream(20260819)
