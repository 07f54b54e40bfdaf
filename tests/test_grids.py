"""Evaluation grids: unscrambled Sobol points in an axis box.

`GridSpec.points` builds the Joe–Kuo Sobol' points in numpy; scipy's
`qmc.Sobol` is the bitwise oracle.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from mechid import GridSpec

DIMS = (1, 2, 3, 4, 5, 8, 12, 33, 100, 1000, 21201)
COUNTS = (1, 2, 3, 7, 64, 256, 1000, 4097, 65537)
# every dim and every count is swept; pairs over 2**22 values (21201 x 65537
# would be 11 GB) are left out to bound the suite's memory
MAX_VALUES = 2**22
SWEEP = [(d, n) for d in DIMS for n in COUNTS if d * n <= MAX_VALUES]


def sobol_oracle(dim: int, count: int, low: float, high: float) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # balance warning off powers of two
        u = qmc.Sobol(d=dim, scramble=False).random(count)
    return low + (high - low) * u


def test_sweep_covers_every_dim_and_count():
    assert {d for d, _ in SWEEP} == set(DIMS)
    assert {n for _, n in SWEEP} == set(COUNTS)


@pytest.mark.parametrize("dim, count", SWEEP)
def test_points_equal_scipy_sobol_bitwise(dim, count):
    low, high = -2.0, 2.0
    pts = GridSpec(dim, count, low, high).points()
    assert pts.shape == (count, dim) and pts.dtype == np.float64
    assert pts.flags.c_contiguous
    assert pts.tobytes() == sobol_oracle(dim, count, low, high).tobytes()


@pytest.mark.parametrize("low, high", [(-1.0, 1.0), (0.0, 1.0), (-1e-3, 3e5), (-1e300, 1e300)])
def test_points_in_any_box_equal_scipy_sobol_bitwise(low, high):
    pts = GridSpec(3, 100, low, high).points()
    assert pts.tobytes() == sobol_oracle(3, 100, low, high).tobytes()


def test_points_are_a_pure_function_of_the_spec():
    spec = GridSpec(dim=5, count=300)
    first = spec.points()
    first[:] = 0.0  # a caller may write into its copy
    assert spec.points().tobytes() == sobol_oracle(5, 300, -2.0, 2.0).tobytes()


def test_dimension_above_the_direction_table_raises():
    with pytest.raises(ValueError, match="21201"):
        GridSpec(dim=21202, count=1).points()


@pytest.mark.parametrize("low, high", [(2.0, -2.0), (1.0, 1.0), (0.0, math.nan)])
def test_empty_box_is_rejected(low, high):
    with pytest.raises(ValueError, match="empty"):
        GridSpec(dim=2, low=low, high=high)


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf)])
def test_box_of_infinite_width_is_rejected(low, high):
    # high - low overflowed, and every point past the origin became inf or nan
    with pytest.raises(ValueError, match="width"):
        GridSpec(dim=2, low=low, high=high)


def test_counts_outside_the_sequence_are_rejected():
    with pytest.raises(ValueError):
        GridSpec(dim=2, count=0)
    with pytest.raises(ValueError):
        GridSpec(dim=2, count=2**30 + 1)
