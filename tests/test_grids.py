"""Evaluation grids: unscrambled Sobol points in an axis box.

`GridSpec.points` builds the Joe–Kuo Sobol' points in numpy; scipy's
`qmc.Sobol` is the bitwise oracle.
"""

import json
import math
import os
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from mechid import GridSpec, grids

SRC = Path(__file__).resolve().parent.parent / "src"

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


@pytest.fixture(scope="module")
def table():
    """scipy's whole Joe–Kuo table: poly (21201,) and vinit (21201, 18), Fortran-ordered."""
    with np.load(grids._table()) as t:
        return t["poly"], t["vinit"]


@pytest.fixture
def table_at(monkeypatch):
    """Point the grids at another table file; the per-dim cache is emptied around the test."""

    def use(path):
        monkeypatch.setattr(grids, "_table", lambda: str(path))
        grids._direction_integers.cache_clear()

    yield use
    grids._direction_integers.cache_clear()


@pytest.mark.parametrize("save", [np.savez, np.savez_compressed])
@pytest.mark.parametrize("order, dtype", [("C", "<i8"), ("F", "<i8"), ("C", ">i8"), ("F", ">i8")])
def test_table_in_either_order_gives_the_same_points(tmp_path, table, table_at, save, order, dtype):
    poly, vinit = table
    path = tmp_path / "table.npz"
    save(path, poly=poly.astype(dtype), vinit=np.asarray(vinit, dtype=dtype, order=order))
    with zipfile.ZipFile(path) as archive, archive.open("vinit.npy") as member:
        np.lib.format.read_magic(member)
        assert np.lib.format.read_array_header_1_0(member)[1] == (order == "F")
    table_at(path)
    for dim in (1, 2, 4, 33, 1000, 21201):
        assert GridSpec(dim, 300).points().tobytes() == sobol_oracle(dim, 300, -2.0, 2.0).tobytes()


def test_a_shorter_table_bounds_the_dimension(tmp_path, table, table_at):
    poly, vinit = table
    np.savez(tmp_path / "short.npz", poly=poly[:10], vinit=vinit[:10])
    table_at(tmp_path / "short.npz")
    assert GridSpec(10, 64).points().tobytes() == sobol_oracle(10, 64, -2.0, 2.0).tobytes()
    with pytest.raises(ValueError, match="Maximum supported dimensionality is 10[.]"):
        GridSpec(11, 64).points()


# each a small table (50 dims) with one member made wrong, keyed by that member
MALFORMED = {
    "float poly": lambda poly, vinit: dict(poly=poly.astype(float), vinit=vinit),
    "float vinit": lambda poly, vinit: dict(poly=poly, vinit=vinit.astype(float)),
    "int32 vinit": lambda poly, vinit: dict(poly=poly, vinit=vinit.astype(np.int32)),
    "2-D poly": lambda poly, vinit: dict(poly=poly[:, None], vinit=vinit),
    "1-D vinit": lambda poly, vinit: dict(poly=poly, vinit=vinit[:, 0]),
    "no poly": lambda poly, vinit: dict(vinit=vinit),
    "no vinit": lambda poly, vinit: dict(poly=poly),
    "short vinit": lambda poly, vinit: dict(poly=poly, vinit=vinit[:40]),  # fewer rows than polynomials
    "narrow vinit": lambda poly, vinit: dict(poly=poly, vinit=vinit[:, :2]),  # dimension 3 has degree 3
}


@pytest.mark.parametrize("bad", sorted(MALFORMED))
def test_malformed_table_raises_naming_the_file_and_the_member(tmp_path, table, table_at, bad):
    poly, vinit = table
    path = tmp_path / "bad.npz"
    np.savez(path, **MALFORMED[bad](poly[:50], vinit[:50]))
    table_at(path)
    with pytest.raises(ValueError) as exc:
        GridSpec(dim=4).points()
    member = bad.split()[-1]
    assert str(path) in str(exc.value) and f"'{member}'" in str(exc.value)


@pytest.mark.parametrize("order", ["C", "F"])
def test_truncated_member_raises_naming_the_file_and_the_member(tmp_path, table, table_at, order):
    poly, vinit = table
    whole = tmp_path / "whole.npz"
    np.savez(whole, poly=poly[:50], vinit=np.asarray(vinit[:50], order=order))
    path = tmp_path / "truncated.npz"
    with zipfile.ZipFile(whole) as src, zipfile.ZipFile(path, "w") as dst:
        dst.writestr("poly.npy", src.read("poly.npy"))
        dst.writestr("vinit.npy", src.read("vinit.npy")[: -8 * 700])  # 200 of the 900 values left
    table_at(path)
    with pytest.raises(ValueError, match="ends before") as exc:
        GridSpec(dim=50).points()
    assert str(path) in str(exc.value) and "'vinit'" in str(exc.value)


# The first grid of a process reads its dims' rows of the table and nothing
# else: the whole table (21201 x 18 int64, 3.05 MB) is never decompressed,
# and finding the file runs no scipy code.
FIRST_GRID_SCRIPT = """
import json, sys, tracemalloc
from mechid import GridSpec
tracemalloc.start()
points = GridSpec(dim=4).points()
peak = tracemalloc.get_traced_memory()[1]
scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps({"peak": peak, "scipy": scipy, "shape": points.shape}))
"""


def test_first_grid_in_a_fresh_process_reads_little_and_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_GRID_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["scipy"] == [] and out["shape"] == [256, 4]
    assert out["peak"] < 256 * 1024, out
