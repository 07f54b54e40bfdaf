"""Deterministic evaluation grids.

Residual checks are evaluated on low-discrepancy point sets inside an axis
box. Unscrambled Sobol points are used so a grid is a pure function of its
spec; no seed is involved.

The points are built here in numpy, bit for bit those of scipy's
`qmc.Sobol(d, scramble=False)`, without importing scipy: the Joe–Kuo
direction numbers (Joe & Kuo, "Constructing Sobol sequences with better
two-dimensional projections", SIAM J. Sci. Comput. 2008) are streamed from
the table scipy ships, of which a grid of dimension d reads only the rows
of its d dimensions, and each point is an XOR of 30-bit integers scaled by
2^-30, which is exact.
"""

from __future__ import annotations

import functools
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy

from .shipped import scipy_dir

__all__ = ["GridSpec"]

_BITS = 30  # scipy's default: a coordinate is an integer below 2^30, times 2^-30
_CHUNK = 1 << 14  # bytes per read while skipping the table's unused rows: small buffers per read


def _table() -> str:
    """The path of scipy's Joe–Kuo table, found without importing scipy."""
    return os.path.join(scipy_dir("stats"), "_sobol_direction_numbers.npz")


def _int64_member(archive: zipfile.ZipFile, path: str, name: str, ndim: int):
    """Member `name` of the .npz `archive`, opened at its data: (stream, shape, fortran order, dtype).

    Raises ValueError naming `path` and the member when it is missing or is
    not an `ndim`-D int64 array (of either byte order).
    """
    try:
        stream = archive.open(f"{name}.npy")
    except KeyError:
        raise ValueError(f"{path}: no member '{name}'") from None
    try:
        version = npy.read_magic(stream)
        header = npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0
        shape, fortran, dtype = header(stream)
    except ValueError as e:
        stream.close()
        raise ValueError(f"{path}: member '{name}' is not a .npy array: {e}") from None
    if len(shape) != ndim or dtype.newbyteorder("=") != np.int64:
        stream.close()
        raise ValueError(f"{path}: member '{name}' is a {len(shape)}-D {dtype} array, expected {ndim}-D int64")
    return stream, shape, fortran, dtype


def _read(stream, count: int, dtype: np.dtype, where: str) -> np.ndarray:
    """The next `count` values of `stream` as native int64; `where` names the member in errors."""
    data = stream.read(count * dtype.itemsize)
    if len(data) < count * dtype.itemsize:
        raise ValueError(f"{where} ends before its header's shape")
    return np.frombuffer(data, dtype).astype(np.int64)


def _skip(stream, count: int, dtype: np.dtype, where: str) -> None:
    """Read past the next `count` values of `stream`, at most _CHUNK bytes at a time."""
    left = count * dtype.itemsize
    while left:
        got = len(stream.read(min(left, _CHUNK)))
        if not got:
            raise ValueError(f"{where} ends before its header's shape")
        left -= got


def _direction_numbers(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's primitive polynomials and initial direction numbers of dimensions 0..dim-1.

    `poly` is (dim,) and `vinit` is (dim, s), s the largest polynomial
    degree among them (dimension 0 needs none). Both are streamed from the
    table, read in either C or Fortran order: of `vinit` only the leading
    dim rows of its first s columns are kept, so memory grows with the
    grid, not with the table's 21201 x 18 values.
    """
    path = _table()
    with zipfile.ZipFile(path) as archive:
        stream, (n,), _, dtype = _int64_member(archive, path, "poly", 1)
        with stream:
            if dim > n:
                raise ValueError(f"Maximum supported dimensionality is {n}.")
            poly = _read(stream, dim, dtype, f"{path}: member 'poly'")
        s = int(np.frexp(poly[1:])[1].max()) - 1 if dim > 1 else 0  # bit length minus one
        stream, (rows, cols), fortran, dtype = _int64_member(archive, path, "vinit", 2)
        where = f"{path}: member 'vinit'"
        with stream:
            if rows != n or cols < s:
                raise ValueError(f"{where} is {rows} x {cols}, expected {n} rows and at least {s} columns")
            if not fortran:  # row by row: the leading dim rows whole
                return poly, _read(stream, dim * cols, dtype, where).reshape(dim, cols)[:, :s]
            vinit = np.empty((dim, s), dtype=np.int64)
            for j in range(s):  # column by column: each one's leading dim rows
                if j:
                    _skip(stream, n - dim, dtype, where)
                vinit[:, j] = _read(stream, dim, dtype, where)
            return poly, vinit


@functools.cache
def _direction_integers(dim: int) -> np.ndarray:
    """The (31, dim) XOR table: row 0 is zero and row j + 1 is the direction of bit j.

    Each dimension's polynomial of degree s extends its s initial direction
    numbers by the Bratley–Fox recurrence (ACM TOMS 14, 1988); dimension 0
    is van der Corput's sequence. The direction of bit j is then shifted to
    bit 29 - j.
    """
    poly, vinit = _direction_numbers(dim)
    v = np.ones((_BITS, dim), dtype=np.int64)
    degree = np.frexp(poly)[1] - 1  # bit length minus one
    for s in sorted(set(degree[1:].tolist())):  # every dimension of degree s at once
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
