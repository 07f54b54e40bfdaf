"""Counter-based random streams.

Every stochastic quantity in the package draws from a stream keyed by
(seed, *path), where path is a tuple of small integers naming the consumer
(step index, anchor index, side, trial, ...). Streams with different paths are
independent and reproducible regardless of evaluation order or thread count,
so parallel runs are bit-identical to serial ones.

A simulation reserves the one-integer paths, (seed, t) with t >= 1 for step t
and (seed, 0) for its start state; consumers that share its runs take longer ones.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "spawn_seeds"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream (seed, *path).

    Same (seed, path) always yields the same bit stream; distinct paths are
    statistically independent. Backed by Philox, a counter-based generator.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def spawn_seeds(seed: int, count: int, *path: int) -> list[int]:
    """Derive `count` child seeds from (seed, *path), for nested consumers."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]
