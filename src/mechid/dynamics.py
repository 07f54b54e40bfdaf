"""Latent dynamics, noise, decoders, and trajectory simulation.

The data-generating picture: a latent state evolves by per-step mechanisms
z_{t+1} = m_t(z_t): an `AffineMechanism` z -> M z + b, or with `noise` the
walk z -> M z + b + V, or any callable; a decoder maps each latent to an
observation x_t. Encoders are left inverses of decoders restricted to the
decoder's image, which is the only place the data ever lives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergedTrajectoryError,
    OffManifoldError,
    SingularMapError,
)
from .jsonio import table_text, write_text
from .linalg import DEFAULT_RTOL, _check_count, _require_finite, _square_matrix, relative_rank
from .maps import _affine_parameters
from .rng import stream

__all__ = [
    "DIVERGENCE_BOUND",
    "SCALAR_MAP_KINDS",
    "AffineMechanism",
    "NoiseSpec",
    "additive_noise_mechanism",
    "ScalarMap",
    "LinearDecoder",
    "StructuredDecoder",
    "Trajectory",
    "simulate",
]

# States with norm beyond this are treated as numerically divergent.
DIVERGENCE_BOUND = 1e12
# A state's sum of squares above this may put its norm past DIVERGENCE_BOUND.
_SCREEN_SQUARES = ((1.0 - 1e-6) * DIVERGENCE_BOUND) ** 2
# Affine steps taken between two screens of the states.
_SIMULATE_BLOCK = 1024
SCALAR_MAP_KINDS = ("identity", "exp", "sinh", "asinh", "cubic", "affine")


# ---------------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseSpec:
    """A product distribution of iid coordinates for increments.

    family "generalized-laplace" has density proportional to
    exp(-|v/scale|^alpha); alpha = 2 recovers a Gaussian and alpha = 1 the
    Laplace distribution. "gaussian" is N(0, scale^2) and "uniform" is flat
    on [-scale, scale].
    """

    FAMILIES = ("generalized-laplace", "gaussian", "uniform")

    family: str
    scale: float = 1.0
    alpha: float | None = None
    dim: int = 1

    def __post_init__(self):
        if self.family not in self.FAMILIES:
            raise ValueError(f"unknown noise family '{self.family}'")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
        _check_count("dim", self.dim, 1)
        if self.family == "generalized-laplace":
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise ValueError(f"generalized-laplace requires a finite alpha > 0, got {self.alpha!r}")

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Coordinatewise quantile transform of uniform-[0,1) variates."""
        u = np.asarray(u, dtype=float)
        if self.family == "gaussian":
            from scipy.special import ndtri

            return self.scale * ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
        if self.family == "uniform":
            return self.scale * (2.0 * u - 1.0)
        s = u - 0.5
        w = np.clip(2.0 * np.abs(s), 0.0, 1.0 - 1e-16)
        # |V/scale|^alpha ~ Gamma(1/alpha, 1); Laplace and Gaussian have closed
        # forms far cheaper than gammaincinv: gammaincinv(1, w) = -log1p(-w)
        # and gammaincinv(1/2, w) ** 0.5 = erfinv(w)
        if self.alpha == 1.0:
            mag = -np.log1p(-w)
        elif self.alpha == 2.0:
            from scipy.special import erfinv

            mag = erfinv(w)
        else:
            from scipy.special import gammaincinv

            mag = gammaincinv(1.0 / self.alpha, w) ** (1.0 / self.alpha)
        return np.sign(s) * (self.scale * mag)


# ---------------------------------------------------------------------------
# mechanisms


@dataclass(frozen=True, eq=False)
class AffineMechanism:
    """z -> M z + b, or with `noise` the walk z -> M z + b + V, V drawn coordinatewise from it.

    M and b are stored read-only. Without noise M must be invertible. A walk
    takes no invertibility cut, since M = 0 is linear ICA, and its M and b
    must be finite and of the noise's dimension. Calling a mechanism applies
    z -> M z + b, a walk's mean map; `sample_next(z, U)` maps a state of
    shape (dim,) and uniforms U of shape (m, dim) to m next states of a walk.
    """

    M: np.ndarray
    b: np.ndarray
    label: str | None = None
    noise: NoiseSpec | None = None

    def __post_init__(self):
        rtol = DEFAULT_RTOL
        if self.noise is not None:
            dim, rtol = self.noise.dim, None
            shapes = _square_matrix(self.M, "M").shape, np.shape(self.b)
            if shapes != ((dim, dim), (dim,)):
                raise DimensionMismatchError(f"M/b shapes {shapes[0]}/{shapes[1]} do not match dimension {dim}")
        M, b = _affine_parameters(self.M, self.b, ("M", "b"), rtol)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"state has dimension {z.shape[-1]}, mechanism expects {self.dim}"
            )
        return z @ self.M.T + self.b

    def sample_next(self, z: np.ndarray, U: np.ndarray) -> np.ndarray:
        if self.noise is None:
            raise ValueError("a mechanism with no noise draws no next state")
        z = np.asarray(z, dtype=float).reshape(-1)
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if z.shape[0] != self.dim or U.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"walk expects dimension {self.dim}, got state {z.shape[0]} / noise {U.shape[1]}"
            )
        return z @ self.M.T + self.b + self.noise.ppf(U)


def additive_noise_mechanism(noise: NoiseSpec, M=None, b=None, label="additive-noise") -> AffineMechanism:
    """The walk z -> M z + b + V with V drawn coordinatewise from `noise`; M = I and b = 0 by default."""
    M = np.eye(noise.dim) if M is None else M
    b = np.zeros(noise.dim) if b is None else b
    return AffineMechanism(M, b, label, noise)


# ---------------------------------------------------------------------------
# decoders


@dataclass(frozen=True)
class ScalarMap:
    """A smooth strictly monotone scalar map with a closed-form inverse.

    Supported kinds (SCALAR_MAP_KINDS): identity, exp, sinh, asinh, cubic
    (x + beta x^3 with beta >= 0), affine (s x + t with s != 0). Inverses
    return NaN outside their domain; decoders turn that into an off-manifold
    error.
    """

    kind: str
    beta: float = 0.0
    s: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        if self.kind not in SCALAR_MAP_KINDS:
            raise ValueError(f"unknown scalar map '{self.kind}'")
        if self.kind == "cubic" and self.beta < 0:
            raise ValueError("cubic map requires beta >= 0")
        if self.kind == "affine" and self.s == 0:
            raise ValueError("affine map requires nonzero slope")

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x
        if self.kind == "exp":
            return np.exp(x)
        if self.kind == "sinh":
            return np.sinh(x)
        if self.kind == "asinh":
            return np.arcsinh(x)
        if self.kind == "cubic":
            return x + self.beta * x**3
        return self.s * x + self.t

    def inverse(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind == "identity":
            return y
        if self.kind == "exp":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(y > 0, np.log(np.where(y > 0, y, 1.0)), np.nan)
            return out
        if self.kind == "sinh":
            return np.arcsinh(y)
        if self.kind == "asinh":
            return np.sinh(y)
        if self.kind == "cubic":
            if self.beta == 0.0:
                return y
            # unique real root of beta x^3 + x = y (Cardano, monotone case)
            half = y / (2.0 * self.beta)
            disc = np.sqrt(half**2 + (1.0 / (3.0 * self.beta)) ** 3)
            return np.cbrt(half + disc) + np.cbrt(half - disc)
        return (y - self.t) / self.s


@dataclass(frozen=True, eq=False)
class _Decoder:
    """x = G z with G of full column rank, then the decoder's coordinate maps, if any.

    The one validation and route of both decoders: the encoder undoes the
    coordinate maps, then applies the pseudoinverse of G. An observation
    with no finite preimage, or one whose reconstruction deviates from it
    by more than `manifold_tol`, raises an off-manifold error.
    """

    G: np.ndarray

    def __post_init__(self):
        G = np.array(self.G, dtype=float)
        if G.ndim != 2 or G.shape[0] < G.shape[1] or G.shape[1] < 1:
            raise DimensionMismatchError(f"G must be n x d with n >= d >= 1, got {G.shape}")
        _require_finite(G, "G")
        if relative_rank(G) < G.shape[1]:
            raise SingularMapError("decoder matrix is column-rank deficient")
        G.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "_pinv", np.linalg.pinv(G))

    @property
    def latent_dim(self) -> int:
        return self.G.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.G.shape[0]

    def decode(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self.G.T

    def _unmapped(self, x: np.ndarray) -> np.ndarray:
        """x before the coordinate maps: x itself when there are none."""
        return x

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self._unmapped(x)
        bad_rows = np.nonzero(~np.isfinite(np.atleast_2d(y)).all(axis=-1))[0]
        if bad_rows.size:
            raise OffManifoldError(int(bad_rows[0]), float("inf"), self.manifold_tol)
        z = y @ self._pinv.T
        if self.obs_dim > self.latent_dim:
            x2 = np.atleast_2d(x)
            recon = np.atleast_2d(self.decode(z))
            dev = np.linalg.norm(recon - x2, axis=-1) / (1.0 + np.linalg.norm(x2, axis=-1))
            bad = np.nonzero(dev > self.manifold_tol)[0]
            if bad.size:
                raise OffManifoldError(int(bad[0]), float(dev[bad[0]]), self.manifold_tol)
        return z


@dataclass(frozen=True, eq=False)
class LinearDecoder(_Decoder):
    """x = G z with G of full column rank; encoder is the pseudoinverse."""

    manifold_tol: float = 1e-6


@dataclass(frozen=True, eq=False)
class StructuredDecoder(_Decoder):
    """x = h(G z) with h strictly monotone coordinatewise.

    The encoder inverts h in closed form per coordinate, then applies the
    pseudoinverse of G. Observations outside the image of h (or off the
    column space of G) raise an off-manifold error.
    """

    maps: tuple[ScalarMap, ...]
    manifold_tol: float = LinearDecoder.manifold_tol

    def __post_init__(self):
        super().__post_init__()
        maps = tuple(self.maps)
        if len(maps) != self.obs_dim:
            raise DimensionMismatchError(
                f"{len(maps)} coordinate maps for {self.obs_dim} observation coordinates"
            )
        object.__setattr__(self, "maps", maps)

    def decode(self, z: np.ndarray) -> np.ndarray:
        lin = super().decode(z)
        out = np.empty_like(lin)
        for i, m in enumerate(self.maps):
            out[..., i] = m.forward(lin[..., i])
        return out

    def _unmapped(self, x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        for i, m in enumerate(self.maps):
            y[..., i] = m.inverse(x[..., i])
        return y


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Latent and observed paths plus the per-step mechanism indices."""

    latents: np.ndarray
    observations: np.ndarray
    mechanisms: tuple[int, ...]

    def __post_init__(self):
        z = np.asarray(self.latents, dtype=float)
        x = np.asarray(self.observations, dtype=float)
        if z.ndim != 2 or x.ndim != 2 or z.shape[0] != x.shape[0]:
            raise DimensionMismatchError("latents and observations must align per step")
        if len(self.mechanisms) != z.shape[0] - 1:
            raise DimensionMismatchError(
                f"{len(self.mechanisms)} mechanism indices for {z.shape[0]} states"
            )
        object.__setattr__(self, "latents", z)
        object.__setattr__(self, "observations", x)
        mechs = self.mechanisms  # a schedule array takes one tolist()
        mechs = mechs.astype(np.int64).tolist() if isinstance(mechs, np.ndarray) else map(int, mechs)
        object.__setattr__(self, "mechanisms", tuple(mechs))

    @property
    def steps(self) -> int:
        return self.latents.shape[0]

    def to_csv(self, path) -> str:
        """Write the trajectory as a CSV table, rows ended by "\\r\\n" as the csv module ends them.

        Returns the sha256 of the bytes written.
        """
        d, n = self.latents.shape[1], self.observations.shape[1]
        header = ["t", *(f"z_{i + 1}" for i in range(d)), *(f"x_{i + 1}" for i in range(n)), "mech"]
        mechs = [*self.mechanisms, ""]
        states = enumerate(zip(self.latents.tolist(), self.observations.tolist()))
        rows = ([t + 1, *z, *x, mechs[t]] for t, (z, x) in states)
        return write_text(path, table_text(header, rows, "\r\n"))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        """Read a table `to_csv` wrote; a malformed one raises ValueError naming file and row."""
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2:
            raise ValueError(f"{path}: expected a header row and at least one state row")
        d = sum(1 for h in rows[0] if h.startswith("z_"))
        n = sum(1 for h in rows[0] if h.startswith("x_"))
        latents, observations, mechs = [], [], []
        for r, row in enumerate(rows[1:], start=2):
            try:
                if len(row) != 2 + d + n:
                    raise ValueError(f"{len(row)} cells where the header implies {2 + d + n}")
                latents.append([float(v) for v in row[1 : 1 + d]])
                observations.append([float(v) for v in row[1 + d : 1 + d + n]])
                if row[1 + d + n] != "":
                    mechs.append(int(row[1 + d + n]))
            except ValueError as e:
                raise ValueError(f"{path}, row {r}: {e}") from None
        return cls(
            latents=np.array(latents),
            observations=np.array(observations),
            mechanisms=tuple(mechs),
        )


def _check_state(z: np.ndarray, step: int) -> None:
    norm = math.hypot(*np.ravel(z).tolist())  # scaled inside, so finite entries never overflow it
    if norm <= DIVERGENCE_BOUND:
        return
    _require_finite(np.ravel(z), f"simulation step {step}")
    raise DivergedTrajectoryError(step, norm, DIVERGENCE_BOUND)


def _screen_states(states: np.ndarray, step: int) -> None:
    """Check each row of `states`, the states of steps step, step + 1, ..., as `_check_state` would.

    One sum of squares per row finds the rows that may fail: those not
    finite, or whose sum exceeds (1 - 1e-6)^2 DIVERGENCE_BOUND^2, a margin
    far above its rounding. `_check_state` then decides those rows in order,
    so the error raised is the one a check after every step raises.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.einsum("ij,ij->i", states, states)
    for i in np.flatnonzero(~(squares <= _SCREEN_SQUARES)):
        _check_state(states[i], step + int(i))


def _affine_steps(affine: list, idx: list[int], latents: np.ndarray, t: int, stop: int) -> int:
    """Take the affine steps from state t on, before `stop`, into `latents`; return the first state not taken.

    `affine[i]` is (M.T, b) of mechanism i, or None where that mechanism is
    not stepped here. Each state is z @ M.T + b, the expression
    `AffineMechanism.__call__` evaluates, on the stored arrays and written in
    place. The states are screened once, after the last step.
    """
    rows = list(latents[t - 1 : stop])
    matmul, add = np.matmul, np.add
    taken = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, z, row in zip(idx[t - 1 : stop - 1], rows, rows[1:]):
            step = affine[i]
            if step is None:
                break
            matmul(z, step[0], out=row)
            add(row, step[1], out=row)
            taken += 1
    _screen_states(latents[t : t + taken], t + 1)
    return t + taken


def _resolve_schedule(count: int, schedule: Sequence[int] | None, T: int) -> np.ndarray:
    """The mechanism index of each of the T - 1 steps, as one int64 array; None runs the one mechanism.

    Too few steps, or an index out of range, raises ValueError; the message names the first bad index.
    """
    if schedule is None:
        if count != 1:
            raise ValueError("schedule is required when more than one mechanism is given")
        return np.zeros(T - 1, dtype=np.int64)
    if len(schedule) < T - 1:
        raise ValueError(f"schedule has {len(schedule)} steps, {T - 1} needed")
    steps = schedule[: T - 1]
    try:
        idx = np.asarray(steps, dtype=np.int64)
        valid = bool(((idx >= 0) & (idx < count)).all())
    except OverflowError:  # an index beyond int64
        valid = False
    if not valid:
        i = next(i for i in map(int, steps) if not 0 <= i < count)
        raise ValueError(f"schedule index {i} out of range for {count} mechanisms")
    return idx


def simulate(
    decoder,
    mechanisms: Sequence,
    z1,
    T: int,
    schedule: Sequence[int] | None = None,
    seed: int = 0,
) -> Trajectory:
    """Roll out z_{t+1} = m_t(z_t) for T states and decode each one.

    z1 is the start state, or a sampler of it called with the stream
    (seed, 0); a mechanism with noise at step t >= 1 draws from (seed, t).
    Other draws of a run take longer paths, so each step's noise is
    independent of the start state, and reruns with one seed are
    bit-identical, independent of thread count. A non-finite state raises
    `NonFiniteSampleError`, a norm above DIVERGENCE_BOUND
    `DivergedTrajectoryError`, and a state of another shape
    `DimensionMismatchError`, each naming the step. Runs of affine steps
    are taken on the mechanisms' arrays, up to _SIMULATE_BLOCK at a time,
    and their states screened once per run; the states, and the first error,
    are those of calling each mechanism and checking each state in turn.
    """
    _check_count("T", T, 1)
    idx = _resolve_schedule(len(mechanisms), schedule, T)
    if callable(z1):
        z1 = z1(stream(seed, 0))
    z = np.asarray(z1, dtype=float).reshape(-1)
    if z.shape[0] != decoder.latent_dim:
        raise DimensionMismatchError(
            f"z1 has dimension {z.shape[0]}, decoder expects {decoder.latent_dim}"
        )
    _check_state(z, 1)
    latents = np.empty((T, z.shape[0]))
    latents[0] = z
    # a walk draws its noise, and an affine mechanism of another dimension is called, which
    # raises DimensionMismatchError
    affine = [
        (m.M.T, m.b) if isinstance(m, AffineMechanism) and m.noise is None and m.dim == z.shape[0] else None
        for m in mechanisms
    ]
    steps = idx.tolist()  # the step loop reads Python ints, which index faster than numpy scalars
    t = 1
    while t < T:
        if affine[steps[t - 1]] is not None:
            t = _affine_steps(affine, steps, latents, t, min(t + _SIMULATE_BLOCK, T))
            continue
        mech, z = mechanisms[steps[t - 1]], latents[t - 1].copy()
        if isinstance(mech, AffineMechanism) and mech.noise is not None:
            U = stream(seed, t).random((1, mech.dim))
            z = mech.sample_next(z, U)[0]
        else:
            z = mech(z)
            if np.shape(z) != latents[t].shape:
                raise DimensionMismatchError(
                    f"simulation step {t + 1}: mechanism returned shape {np.shape(z)}, "
                    f"expected {latents[t].shape}"
                )
        _check_state(z, t + 1)
        latents[t] = z
        t += 1
    return Trajectory(latents=latents, observations=decoder.decode(latents), mechanisms=idx)
