"""Invertible latent-space maps.

An affine map a(z) = A z + p with invertible A, plus a thin wrapper for
general bijections given as forward/inverse callables. All maps act on the
last axis of their input, so batched evaluation over (N, d) point sets works
without loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, SingularMapError
from .linalg import _require_finite, smallest_singular_gap

__all__ = ["AffineMap", "FunctionBijection", "compose", "map_power"]

_INVERTIBILITY_RTOL = 1e-12


@dataclass(frozen=True)
class AffineMap:
    """z -> A z + p with A square and invertible."""

    A: np.ndarray
    p: np.ndarray
    label: str | None = None

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be square, got shape {A.shape}")
        p = np.array(self.p, dtype=float).reshape(-1)
        if p.shape[0] != A.shape[0]:
            raise DimensionMismatchError(
                f"offset has dimension {p.shape[0]}, matrix is {A.shape[0]}x{A.shape[1]}"
            )
        _require_finite(A, "A")
        _require_finite(p, "p")
        if smallest_singular_gap(A) <= _INVERTIBILITY_RTOL:
            raise SingularMapError("affine map matrix is singular to working tolerance")
        A.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z @ self.A.T + self.p

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            return np.linalg.solve(self.A, x - self.p)
        if x.ndim == 2:
            return np.linalg.solve(self.A, (x - self.p).T).T
        # a stack of (N, d) batches: one right-hand side per point
        return np.linalg.solve(self.A, (x - self.p)[..., None])[..., 0]

    def inverse_map(self) -> "AffineMap":
        Ainv = np.linalg.inv(self.A)
        return AffineMap(Ainv, -Ainv @ self.p)


@dataclass(frozen=True)
class FunctionBijection:
    """A bijection given by explicit forward and inverse callables.

    Both callables must broadcast over the last axis, i.e. accept (..., d)
    arrays. No invertibility verification is performed beyond what callers
    choose to spot-check.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    backward: Callable[[np.ndarray], np.ndarray]
    dim: int
    label: str | None = None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(z, dtype=float))

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return self.backward(np.asarray(x, dtype=float))


def compose(outer, inner):
    """The map z -> outer(inner(z)); affine pairs stay affine."""
    if isinstance(outer, AffineMap) and isinstance(inner, AffineMap):
        if outer.dim != inner.dim:
            raise DimensionMismatchError("composed maps have different dimensions")
        return AffineMap(outer.A @ inner.A, outer.A @ inner.p + outer.p)
    dim = getattr(outer, "dim", getattr(inner, "dim", None))
    return FunctionBijection(
        forward=lambda z: outer(inner(z)),
        backward=lambda x: inner.inverse(outer.inverse(x)),
        dim=dim,
    )


def map_power(a, k: int):
    """k-fold composition of a with itself, k >= 1."""
    if k < 1:
        raise ValueError("power must be >= 1")
    out = a
    for _ in range(k - 1):
        out = compose(a, out)
    return out
