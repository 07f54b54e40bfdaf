"""Deterministic evaluation grids.

Residual checks are evaluated on low-discrepancy point sets inside an axis
box. Unscrambled Sobol points are used so a grid is a pure function of its
spec; no seed is involved.

The points are built here in numpy, bit for bit those of scipy's
`qmc.Sobol(d, scramble=False)`, without importing `scipy.stats`: the
Joe–Kuo direction numbers (Joe & Kuo, "Constructing Sobol sequences with
better two-dimensional projections", SIAM J. Sci. Comput. 2008) are read
from the table scipy ships, and each point is an XOR of 30-bit integers
scaled by 2^-30, which is exact.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec"]

_BITS = 30  # scipy's default: a coordinate is an integer below 2^30, times 2^-30


@functools.cache
def _direction_numbers() -> tuple[np.ndarray, np.ndarray]:
    """scipy's table: a primitive polynomial and initial direction numbers per dimension.

    `find_spec` runs only scipy's top-level `__init__`, not `scipy.stats`.
    """
    (stats_dir,) = importlib.util.find_spec("scipy.stats").submodule_search_locations
    with np.load(os.path.join(stats_dir, "_sobol_direction_numbers.npz")) as table:
        return table["poly"], table["vinit"]


@functools.cache
def _direction_integers(dim: int) -> np.ndarray:
    """The (31, dim) XOR table: row 0 is zero and row j + 1 is the direction of bit j.

    Each dimension's polynomial of degree s extends its s initial direction
    numbers by the Bratley–Fox recurrence (ACM TOMS 14, 1988); dimension 0
    is van der Corput's sequence. The direction of bit j is then shifted to
    bit 29 - j.
    """
    poly, vinit = _direction_numbers()
    if dim > len(poly):
        raise ValueError(f"Maximum supported dimensionality is {len(poly)}.")
    v = np.ones((_BITS, dim), dtype=np.int64)
    degree = np.frexp(poly[:dim])[1] - 1  # bit length minus one
    for s in np.unique(degree[1:]).tolist():  # every dimension of degree s at once
        cols = np.flatnonzero(degree == s)
        p = poly[cols]
        v[:s, cols] = vinit[cols, :s].T
        for j in range(s, _BITS):
            new = v[j - s, cols]
            for k in range(s):
                new ^= ((p >> (s - 1 - k)) & 1) * (v[j - k - 1, cols] << (k + 1))
            v[j, cols] = new
    v <<= np.arange(_BITS - 1, -1, -1)[:, None]
    table = np.vstack([np.zeros((1, dim), dtype=np.uint32), v.astype(np.uint32)])
    table.setflags(write=False)  # cached: every caller shares it
    return table


@dataclass(frozen=True)
class GridSpec:
    """count low-discrepancy points in the box [low, high]^dim."""

    dim: int
    count: int = 256
    low: float = -2.0
    high: float = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("grid dimension must be >= 1")
        if not 1 <= self.count <= 2**_BITS:  # the distinct points of the sequence
            raise ValueError(f"grid count must lie between 1 and 2**{_BITS}")
        if not self.high > self.low:
            raise ValueError("grid box is empty: high must exceed low")
        if not math.isfinite(self.high - self.low):
            raise ValueError("grid box width high - low must be a finite number")

    def points(self) -> np.ndarray:
        """The first `count` Sobol points, C-ordered (count, dim) float64.

        Point 0 is the origin; point k is point k - 1 XOR the direction of
        the lowest set bit of k, whose index plus one is frexp's exponent.
        """
        k = np.arange(self.count)
        q = np.take(_direction_integers(self.dim), np.frexp(k & -k)[1], axis=0)
        np.bitwise_xor.accumulate(q, axis=0, out=q)
        u = q * (1.0 / 2**_BITS)
        return self.low + (self.high - self.low) * u
