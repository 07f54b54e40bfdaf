"""Shared constructors for randomized test instances, and oracles.

Everything here is seeded through mechid.rng.stream so the suite is
bit-reproducible; no test may touch the global numpy RNG. The oracles
compute what the library computes by another route.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from mechid import AffineMechanism
from mechid.equivariance import (
    EIGENGAP_RTOL,
    AffineMapFamily,
    CheckReport,
    _as_points,
    _intertwiner_solve,
    _residual_report,
    _row_residuals,
)
from mechid.errors import DimensionMismatchError
from mechid.linalg import DEFAULT_RTOL
from mechid.maps import AffineMap
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


def inverse_map(a: AffineMap) -> AffineMap:
    """The affine map z -> A^-1 (z - p), from the explicit inverse of A."""
    Ainv = np.linalg.inv(a.A)
    return AffineMap(Ainv, -Ainv @ a.p)


def span_distance(rows: np.ndarray, v: np.ndarray) -> float:
    """|v - P v| / |v| for P the projection onto the span of orthonormal `rows`; 0 for v = 0."""
    v = np.ravel(v)
    nv = np.linalg.norm(v)
    return float(np.linalg.norm(v - rows.T @ (rows @ v)) / nv) if nv else 0.0


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


def find_affine_intertwiners(
    m1: AffineMechanism, m2: AffineMechanism, rtol: float = DEFAULT_RTOL
) -> AffineMapFamily:
    """The affine solution set of {A M1 = M2 A, A b1 + p = M2 p + b2}: the solve
    `shared_equivariances` and the closure make, for the one pair m1 -> m2."""
    if m1.dim != m2.dim:
        raise DimensionMismatchError("mechanisms have different dimensions")
    return _intertwiner_solve(m1.M[None], m1.b[None], m2.M[None], m2.b[None], rtol)


# ---------------------------------------------------------------------------
# the pairings the assignment solver replaced, as oracles: a per-row scan for
# the signed-permutation pattern, and a nearest-first pairing of two spectra


def signed_perm_pattern_scan(A: np.ndarray, tol: float):
    """(permutation, signs) when each row of A has one entry within tol of ±1, in a column
    no earlier row took, and every other entry within tol of 0; (None, None) otherwise."""
    d = A.shape[0]
    perm = []
    signs = []
    used = set()
    for i in range(d):
        row = np.abs(A[i])
        big = np.nonzero((row >= 1.0 - tol) & (row <= 1.0 + tol))[0]
        small_ok = bool(np.all(np.delete(row, big) <= tol)) if big.size else False
        if big.size != 1 or not small_ok:
            return None, None
        j = int(big[0])
        if j in used:
            return None, None
        used.add(j)
        perm.append(j)
        signs.append(1 if A[i, j] > 0 else -1)
    return tuple(perm), tuple(signs)


def greedy_spectra_match(w1: np.ndarray, w2: np.ndarray) -> bool:
    """Each eigenvalue of w1 in turn takes the nearest one of w2 not yet taken, which must
    lie within EIGENGAP_RTOL of the larger spectral radius. It can reject spectra that pair."""
    scale = max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))), 1e-300)
    left = list(w2)
    for z in w1:
        gaps = np.abs(np.array(left) - z)
        k = int(np.argmin(gaps))
        if gaps[k] > EIGENGAP_RTOL * scale:
            return False
        del left[k]
    return True


# ---------------------------------------------------------------------------
# independent routes as oracles: the per-candidate observation identity, which
# `membership_equivalence_audit` computes in blocks, and the gamma-transform
# sampler of the law `NoiseSpec.ppf` draws


@dataclass(frozen=True)
class TransformedDecoder:
    """The decoder g∘a^{-1} for a base decoder g and a latent bijection a.

    Its encoder is a∘g^{-1}, so candidate models that differ from the truth
    by a latent map are built by wrapping the true decoder.
    """

    base: object
    latent_map: object

    @property
    def latent_dim(self) -> int:
        return self.base.latent_dim

    @property
    def obs_dim(self) -> int:
        return self.base.obs_dim

    def decode(self, z: np.ndarray) -> np.ndarray:
        # a^{-1}(z): one solve against A, every point a column, whatever axes lead
        A, p = self.latent_map.A, self.latent_map.p
        w = np.asarray(z, dtype=float) - p
        return self.base.decode(np.linalg.solve(A, w.reshape(-1, len(p)).T).T.reshape(w.shape))

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.latent_map(self.base.encode(x))


def _identity_residuals(
    truth_decoder, mechanism, candidate_decoder, candidate_mechanism, X: np.ndarray
) -> np.ndarray:
    truth_next = truth_decoder.decode(mechanism(truth_decoder.encode(X)))
    cand_next = candidate_decoder.decode(candidate_mechanism(candidate_decoder.encode(X)))
    return _row_residuals(truth_next, cand_next, X, "observation grid point")


def verify_observation_identity(
    truth_decoder,
    mechanism,
    candidate_decoder,
    grid=None,
    tol: float = 1e-8,
    candidate_mechanism=None,
) -> CheckReport:
    """Check g∘m∘g^{-1} = g~∘m~∘g~^{-1} on decoded grid points.

    The grid lives in latent space and is pushed forward through the true
    decoder, so every test point lies on the data manifold. The residual at
    x is normalized by (1 + |x|). An encoder that is undefined at some grid
    point raises an off-manifold error carrying the point index.
    """
    Z = _as_points(grid, truth_decoder.latent_dim)
    X = truth_decoder.decode(Z)
    cand_mech = mechanism if candidate_mechanism is None else candidate_mechanism
    res = _identity_residuals(truth_decoder, mechanism, candidate_decoder, cand_mech, X)
    return _residual_report(res, tol)


def sample_generalized_laplace(
    alpha: float, scale: float, size, gen: np.random.Generator | int
) -> np.ndarray:
    """Exact draws from density proportional to exp(-|v/scale|^alpha).

    Uses the gamma transform: |V|^alpha / scale^alpha ~ Gamma(1/alpha, 1),
    with an independent symmetric sign.
    """
    if alpha <= 0 or scale <= 0:
        raise ValueError("alpha and scale must be positive")
    if not isinstance(gen, np.random.Generator):
        gen = stream(int(gen))
    mag = scale * gen.gamma(1.0 / alpha, 1.0, size) ** (1.0 / alpha)
    sign = np.where(gen.random(size) < 0.5, -1.0, 1.0)
    return sign * mag


@pytest.fixture
def gen():
    return stream(20260819)
