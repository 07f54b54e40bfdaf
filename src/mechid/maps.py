"""Invertible affine latent-space maps, their composition and powers.

An affine map a(z) = A z + p with invertible A acts on the last axis of its
input, so batched evaluation over (N, d) point sets works without loops. A
nonlinear map is passed as a plain callable wherever one is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularMapError
from .linalg import _check_count, _require_finite, _square_matrix, relative_rank

__all__ = ["AffineMap", "compose", "map_power"]

_INVERTIBILITY_RTOL = 1e-12


def _affine_parameters(matrix, offset, names: tuple[str, str], rtol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, offset) as read-only float arrays, or raise.

    The matrix must be as `_square_matrix` requires, the offset finite and
    as long as the matrix is wide, and, unless `rtol` is None, the matrix
    invertible: of full `relative_rank` at `rtol`, cut at unit scale or
    above. `names` are the caller's names for the two, which every error
    message uses.
    """
    m, v = names
    A = _square_matrix(matrix, m)
    p = np.array(offset, dtype=float).reshape(-1)
    if p.shape[0] != A.shape[0]:
        raise DimensionMismatchError(f"{v} has dimension {p.shape[0]}, {m} is {A.shape[0]}x{A.shape[1]}")
    _require_finite(p, v)
    if rtol is not None and relative_rank(A, rtol, 1.0) < len(A):
        raise SingularMapError(f"{m} is singular to working tolerance")
    A.setflags(write=False)
    p.setflags(write=False)
    return A, p


@dataclass(frozen=True, eq=False)
class AffineMap:
    """z -> A z + p with A square and invertible."""

    A: np.ndarray
    p: np.ndarray
    label: str | None = None

    def __post_init__(self):
        A, p = _affine_parameters(self.A, self.p, ("A", "p"), _INVERTIBILITY_RTOL)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z @ self.A.T + self.p


def compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """The affine map z -> outer(inner(z))."""
    for name, a in (("outer", outer), ("inner", inner)):
        if not isinstance(a, AffineMap):
            raise TypeError(f"{name}: compose takes an AffineMap, got {type(a).__name__}")
    if outer.dim != inner.dim:
        raise DimensionMismatchError("composed maps have different dimensions")
    return AffineMap(outer.A @ inner.A, outer.A @ inner.p + outer.p)


def map_power(a, k: int):
    """k-fold composition of a with itself, k >= 1."""
    _check_count("k", k, 1)
    out = a
    for _ in range(k - 1):
        out = compose(a, out)
    return out
