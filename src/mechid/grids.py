"""Deterministic evaluation grids.

Residual checks are evaluated on low-discrepancy point sets inside an axis
box. Unscrambled Sobol points are used so a grid is a pure function of its
spec; no seed is involved.

Up to 32 dimensions the points are built here in numpy, bit for bit those
of scipy's `qmc.Sobol(d, scramble=False)`, without importing scipy: the
first 32 rows of the Joe–Kuo direction numbers (Joe & Kuo, "Constructing
Sobol sequences with better two-dimensional projections", SIAM J. Sci.
Comput. 2008) are written out below, and each point is an XOR of 30-bit
integers scaled by 2^-30, which is exact. Above 32 dimensions the points
are `qmc.Sobol`'s own.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import _check_count

__all__ = ["GridSpec"]

_BITS = 30  # scipy's default: a coordinate is an integer below 2^30, times 2^-30

# Joe–Kuo's first 32 primitive polynomials, leading and trailing bits
# included, and each one's initial direction numbers, as many as its degree
_POLY = (
    1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97,
    103, 109, 115, 131, 137, 143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213,
)
_VINIT = (
    (), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103), (1, 3, 7, 13, 13, 15, 69),
    (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53), (1, 3, 1, 13, 9, 35, 107), (1, 3, 1, 5, 27, 61, 31),
    (1, 1, 5, 11, 19, 41, 61), (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59),
    (1, 1, 3, 9, 25, 29, 41), (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17),
)


@functools.cache
def _direction_integers() -> np.ndarray:
    """The (31, 32) XOR table: row 0 is zero and row j + 1 is the direction of bit j.

    Each dimension's polynomial of degree s extends its s initial direction
    numbers by the Bratley–Fox recurrence (ACM TOMS 14, 1988); dimension 0
    is van der Corput's sequence. The direction of bit j is then shifted to
    bit 29 - j. A column depends on its own table row alone, so a grid of
    dimension d takes the first d columns.
    """
    table = np.zeros((_BITS + 1, len(_POLY)), dtype=np.uint32)
    for col, (p, vinit) in enumerate(zip(_POLY, _VINIT)):
        s = len(vinit)
        v = list(vinit) if s else [1] * _BITS
        for j in range(len(v), _BITS):
            new = v[j - s]
            for k in range(s):
                new ^= ((p >> (s - 1 - k)) & 1) * (v[j - k - 1] << (k + 1))
            v.append(new)
        table[1:, col] = [x << (_BITS - 1 - j) for j, x in enumerate(v)]
    table.setflags(write=False)  # cached: every grid shares it
    return table


@dataclass(frozen=True)
class GridSpec:
    """count low-discrepancy points in the box [low, high]^dim."""

    dim: int
    count: int = 256
    low: float = -2.0
    high: float = 2.0

    def __post_init__(self):
        _check_count("dim", self.dim, 1)
        _check_count("count", self.count, 1)
        if self.count > 2**_BITS:  # the distinct points of the sequence
            raise ValueError(f"grid count must lie between 1 and 2**{_BITS}")
        if not self.high > self.low:
            raise ValueError("grid box is empty: high must exceed low")
        if not math.isfinite(self.high - self.low):
            raise ValueError("grid box width high - low must be a finite number")

    def points(self) -> np.ndarray:
        """The first `count` Sobol points, C-ordered (count, dim) float64.

        Up to 32 dimensions point 0 is the origin and point k is point k - 1
        XOR the direction of the lowest set bit of k, whose index plus one is
        frexp's exponent. Above 32 they are `qmc.Sobol`'s, which builds them
        the same way from the whole table.
        """
        if self.dim > len(_POLY):
            from scipy.stats import qmc

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # qmc's balance warning off powers of two
                u = qmc.Sobol(self.dim, scramble=False).random(self.count)
        else:
            k = np.arange(self.count)
            q = np.take(_direction_integers()[:, : self.dim], np.frexp(k & -k)[1], axis=0)
            np.bitwise_xor.accumulate(q, axis=0, out=q)
            u = q * (1.0 / 2**_BITS)
        return self.low + (self.high - self.low) * u
