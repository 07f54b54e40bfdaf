"""Deterministic evaluation grids.

Residual checks are evaluated on low-discrepancy point sets inside an axis
box. Unscrambled Sobol points are used so a grid is a pure function of its
spec; no seed is involved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec"]


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
        if self.count < 1:
            raise ValueError("grid count must be >= 1")
        if not self.high > self.low:
            raise ValueError("grid box is empty: high must exceed low")

    def points(self) -> np.ndarray:
        from scipy.stats import qmc

        sampler = qmc.Sobol(d=self.dim, scramble=False)
        with warnings.catch_warnings():
            # balance warning for non power-of-two counts; harmless here
            warnings.simplefilter("ignore", UserWarning)
            u = sampler.random(self.count)
        return self.low + (self.high - self.low) * u
