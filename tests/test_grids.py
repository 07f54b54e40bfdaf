"""Evaluation grids: unscrambled Sobol points in an axis box.

`GridSpec.points` builds the Joe–Kuo Sobol' points in numpy up to 32 dims and
takes scipy's above; scipy's `qmc.Sobol` is the bitwise oracle at every dim.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from mechid import GridSpec

SRC = Path(__file__).resolve().parent.parent / "src"

DIMS = (1, 2, 3, 4, 5, 8, 12, 31, 32, 33, 100, 1000, 21201)  # 32 is the last vendored dim
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


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"dim": 2.5}, "dim"),  # a slice TypeError in points()
        ({"dim": True, "count": 4}, "dim"),  # a (4, 1) grid
        ({"dim": 2, "count": 2.5}, "count"),  # a TypeError from bitwise_and in points()
    ],
)
def test_a_count_that_is_not_an_integer_is_rejected_naming_it(fields, name):
    with pytest.raises(ValueError, match=name):
        GridSpec(**fields).points()


# The first grid of a process builds its directions from the vendored rows
# and reads no file; up to 32 dims it runs no scipy code.
FIRST_GRID_SCRIPT = """
import json, sys, tracemalloc
from mechid import GridSpec
tracemalloc.start()
points = GridSpec(dim=int(sys.argv[1])).points()
peak = tracemalloc.get_traced_memory()[1]
scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps({"peak": peak, "scipy": scipy, "shape": points.shape}))
"""


def test_first_grid_in_a_fresh_process_reads_little_and_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for dim in (4, 32):  # 32: the last vendored dim
        proc = subprocess.run(
            [sys.executable, "-c", FIRST_GRID_SCRIPT, str(dim)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["scipy"] == [] and out["shape"] == [256, dim]
        assert out["peak"] < 256 * 1024, out


def test_a_grid_above_the_vendored_rows_warns_of_nothing():
    # qmc warns that a count off a power of two unbalances the points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = GridSpec(dim=33, count=100).points()
    assert pts.tobytes() == sobol_oracle(33, 100, -2.0, 2.0).tobytes()
