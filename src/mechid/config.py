"""JSON experiment configs parsed into typed, validated objects.

Every config object is stated once, as a table of `Field` rows read by
`jsonio`'s table reader: the key, a converter from its JSON form, a default
and a constraint. An experiment kind's config class has one attribute per
row of its table. Only checks that relate two fields are written by hand.
Every parse error is a `ConfigError` carrying the dotted path of the
offending field (`mechanisms[0].M`), so a malformed document is diagnosable
from the message alone.
"""

from __future__ import annotations

import inspect
from dataclasses import field, make_dataclass, replace

import numpy as np

from .dynamics import (
    SCALAR_MAP_KINDS,
    AffineMechanism,
    LinearDecoder,
    NoiseSpec,
    ScalarMap,
    StructuredDecoder,
    _resolve_schedule,
)
from .errors import ConfigError
from .grids import GridSpec
from .imitation import CLOSURE_TOL_FACTOR, DEFAULT_ASSIGNMENT_BUDGET
from .jsonio import (
    REQUIRED,
    Field,
    _bool,
    _choice,
    _count,
    _dict,
    _each,
    _int,
    _join,
    _list,
    _matrix,
    _non_negative,
    _number,
    _object,
    _open_unit,
    _positive,
    _read,
    _str,
    _typed,
    _vector,
)
from .linalg import DEFAULT_RTOL
from .maps import AffineMap
from .recovery import COMPARISON_CLASSES, _unshared_M
from .stochastic import MAX_SAMPLES_PER_ANCHOR, MIN_SAMPLES_PER_ANCHOR, DistributionalTestSpec
from .verify import CandidateModel, membership_equivalence_audit

__all__ = [
    "EXPERIMENT_KINDS",
    "SimulateConfig",
    "CommutantConfig",
    "ImitateConfig",
    "VerifyConfig",
    "RecoverConfig",
    "StochasticTestConfig",
    "parse_config",
]

# Counts run from 1 to a cap, so that no document can ask for unbounded memory
# or time. Each cap alone, at the fixtures' d = 2, peaks well under 1 GiB:
MAX_STEPS = 10**6  # about 355 B per step in a recover run
# A simulated recovery with d latent and n observed coordinates costs about
# (steps - 1) d d n units: under 95 B each at d = 1, 30 B at d = 6 and 12. The
# largest accepted, d = 1 and n = 8 at 10^6 steps, peaks at about 700 MiB.
MAX_RECOVERY_SIZE = 8 * 10**6
MAX_GRID_COUNT = 10**6  # about 235 B per point in a verify run
MAX_ANCHOR_COUNT = 10**4  # about 2.5 KB and 1 ms per anchor at 100 samples
MAX_PERMUTATIONS = 10**5  # memory flat; about 50 us each at 1000 samples

# ---------------------------------------------------------------------------
# nested objects

NOISE = (
    Field("family", _choice(*NoiseSpec.FAMILIES)),
    Field("scale", _number, NoiseSpec.scale, _positive),
    Field("alpha", _number, None, _positive),
)
# z -> Mz + b, or with noise in the enclosing `dim` the walk z -> Mz + b + V, whose
# M defaults to the identity and whose label has no default
MECHANISM = (
    Field("type", _choice("affine"), "affine"),
    Field("noise", _object(NOISE, lambda g, c: NoiseSpec(dim=c["dim"], **g)), None),
    Field("M", _matrix, lambda c: REQUIRED if c.get("noise") is None else np.eye(c["noise"].dim)),
    Field("b", _vector, lambda c: np.zeros(len(c["M"]) if c.get("noise") is None else c["noise"].dim)),
    Field("label", _str, lambda c: c.get("item_label") if c.get("noise") is None else None),
)


def _affine(g, _) -> AffineMechanism:
    return AffineMechanism(g["M"], g["b"], g["label"], g.get("noise"))


# simulate's mechanisms may have noise, in the decoder's dimension; stochastic-test's
# m1 and m2 must; every other kind's mechanisms refuse `noise` as an unknown field
_mechanism = _object(tuple(f for f in MECHANISM if f.name != "noise"), _affine)
_mechanisms = _each(_mechanism, "m")
_walk = _object(tuple(replace(f, default=REQUIRED) if f.name == "noise" else f for f in MECHANISM), _affine)


def _latent_mechanisms(raw, path, ctx):
    """Mechanisms that may have noise, in the decoder's latent dimension."""
    return _each(_object(MECHANISM, _affine), "m")(raw, path, ctx.new_child({"dim": ctx["decoder"].latent_dim}))


SCALAR_MAP = (
    Field("kind", _choice(*SCALAR_MAP_KINDS)),
    Field("beta", _number, ScalarMap.beta),
    Field("s", _number, ScalarMap.s),
    Field("t", _number, ScalarMap.t),
)
DECODER = (
    Field("G", _matrix),
    Field("manifold_tol", _number, LinearDecoder.manifold_tol, _positive),
    Field("maps", _each(_object(SCALAR_MAP, lambda g, _: ScalarMap(**g), bare="kind")), None),
)


def _decoder(g, _):
    if g["maps"] is None:
        return LinearDecoder(G=g["G"], manifold_tol=g["manifold_tol"])
    return StructuredDecoder(**g)


GRID = (
    Field("count", _int, GridSpec.count, _count(1, MAX_GRID_COUNT)),
    Field("low", _number, GridSpec.low),
    Field("high", _number, GridSpec.high),
)


def _grid(latent_dim):
    """A grid in the dimension `latent_dim(ctx)`; with its count checked, a bad box names `high`."""

    def build(g, ctx) -> GridSpec:
        try:
            return GridSpec(dim=latent_dim(ctx), **g)
        except ValueError as e:
            raise ConfigError("high", str(e)) from None

    return build


AFFINE_MAP = (
    Field("A", _matrix),
    Field("p", _vector, lambda c: np.zeros(len(c["A"]))),
    Field("label", _str, None),
)
CANDIDATE = AFFINE_MAP[:2] + (
    Field("label", _str, lambda c: c.get("item_label")),
    Field("claim", _bool, None),
)


def _candidate(g, _) -> CandidateModel:
    a = AffineMap(A=g["A"], p=g["p"], label=g["label"])
    return CandidateModel(label=g["label"], latent_map=a, expect_equivariant=g["claim"])


BOUNDS = (Field("min", _number, None), Field("max", _number, None))
_exact = _typed("a number, string, boolean or {min, max} object", str, bool, int)


def _expect(raw, path, ctx) -> dict:
    """Summary key -> exact value, or inclusive {min, max} bounds."""
    out = {}
    for key, want in _dict(raw, path).items():
        kpath = _join(path, key)
        if isinstance(want, dict):  # only the bounds given, as reports echo them
            out[key] = {k: v for k, v in _read(BOUNDS, want, kpath, ctx).items() if v is not None}
        else:
            out[key] = _number(want, kpath) if isinstance(want, float) else _exact(want, kpath)
    return out


def _schedule(raw, path, ctx=None):
    if raw == "cycle":
        return raw
    if isinstance(raw, str):
        raise ConfigError(path, f"expected an index array or 'cycle', got '{raw}'")
    return tuple(_int(v, _join(path, i)) for i, v in enumerate(_list(raw, path)))


Z1_BOX = (Field("low", _number, -1.0), Field("high", _number, 1.0))


def _z1(raw, path, ctx):
    """A start state in the decoder's dimension, or a sampler g -> g.uniform(low, high, d) of a {low, high} box."""
    d = ctx["decoder"].latent_dim
    if isinstance(raw, dict):
        box = _read(Z1_BOX, raw, path, ctx)
        if not box["high"] > box["low"]:
            raise ConfigError(path, "sampling box requires high > low")
        return lambda g: g.uniform(box["low"], box["high"], d)
    z1 = _vector(raw, path)
    if z1.shape[0] != d:
        raise ConfigError(path, f"has dimension {z1.shape[0]}, decoder expects {d}")
    return z1


def _offsets(raw, path, ctx):
    offsets = _matrix(raw, path)
    if offsets.shape[1] != ctx["mechanisms"][0].dim:
        raise ConfigError(path, "offset columns must match the mechanism dimension")
    return offsets


def _dim(raw, path, ctx):
    dim, cand = _int(raw, path), ctx["candidate"].dim
    if dim != cand:
        raise ConfigError(path, f"candidate map has dimension {cand}, dim says {dim}")
    return dim


ENCODER = (Field("W", _matrix), Field("c", _vector, lambda c: np.zeros(len(c["W"]))))
COMPARISON = (
    Field("class", _choice(*COMPARISON_CLASSES), "exact"),
    Field("encoder", _object(ENCODER, lambda g, _: (g["W"], g["c"]), bare="W"), None),
)
TEST = (
    Field(
        "samples_per_anchor",
        _int,
        DistributionalTestSpec.samples_per_anchor,
        _count(MIN_SAMPLES_PER_ANCHOR, MAX_SAMPLES_PER_ANCHOR),
    ),
    Field("significance", _number, DistributionalTestSpec.significance, _open_unit),
    Field("method", _choice(*DistributionalTestSpec.METHODS), DistributionalTestSpec.method),
    Field("anchors", _matrix, None),
    Field("anchor_count", _int, DistributionalTestSpec.anchor_count, _count(1, MAX_ANCHOR_COUNT)),
    Field("permutations", _int, DistributionalTestSpec.permutations, _count(1, MAX_PERMUTATIONS)),
)


# ---------------------------------------------------------------------------
# experiment kinds

_KINDS = {}


def _kind(kind: str, table, build=lambda g: g, **namespace):
    """Register `kind`; its config class has one attribute per row of `table`, plus `kind`.

    `build(fields)` makes the checks that relate two fields.
    """
    rows = [(f.name, object) for f in table] + [("kind", str, field(default=kind, init=False))]
    name = "".join(word.capitalize() for word in kind.split("-")) + "Config"
    cls = make_dataclass(name, rows, namespace=namespace, frozen=True, eq=False)
    cls.__module__ = __name__
    _KINDS[kind] = _object(table, lambda g, _: cls(**build(g)))
    return cls


def _simulation(g) -> dict:
    """Resolve the schedule, "cycle" expanded, against steps and mechanisms: the array `simulate` takes."""
    count, schedule = len(g["mechanisms"]), g["schedule"]
    if schedule == "cycle":
        schedule = np.arange(g["steps"] - 1) % count
    try:
        g["schedule"] = _resolve_schedule(count, schedule, g["steps"])
    except ValueError as e:
        raise ConfigError("schedule", str(e)) from None
    return g


def _recovery(g) -> dict:
    """One shared M and a system that fits in memory, checked here so errors name a field."""
    sim = g["simulate"]
    if (g["trajectory_csv"] is None) == (sim is None):
        raise ConfigError("trajectory_csv", "exactly one of trajectory_csv or simulate is required")
    if sim is not None:
        d, n = sim.decoder.latent_dim, sim.decoder.obs_dim
        most = 1 + MAX_RECOVERY_SIZE // (d * d * n)
        if sim.steps > most:
            problem = f"must lie between 1 and {most} for a {n} x {d} decoder, got {sim.steps}"
            raise ConfigError("simulate.steps", problem)
    i = _unshared_M(g["mechanisms"], g["rtol"])
    if i is not None:
        raise ConfigError(f"mechanisms[{i}].M", "recovery needs one M shared by all mechanisms")
    return g


def _simulation_in_recover(g, ctx):
    return SimulateConfig(seed=ctx["seed"], expect=None, **_simulation(g))


def _stochastic(cfg) -> bool:
    return any(m.noise is not None for m in cfg.mechanisms)


def _test_spec(g, ctx) -> DistributionalTestSpec:
    return DistributionalTestSpec(dim=ctx["dim"], seed=ctx["seed"], **g)


_SEED = Field("seed", _int, 0, _non_negative)
_RTOL = Field("rtol", _number, DEFAULT_RTOL, _open_unit)
_EXPECT = Field("expect", _expect, None)
_DECODER = Field("decoder", _object(DECODER, _decoder))

# inside recover, simulate takes recover's seed, and its mechanisms and schedule default to recover's
SIMULATION = (
    _DECODER,
    Field("mechanisms", _latent_mechanisms, lambda c: c.get("mechanisms", REQUIRED)),
    Field("steps", _int, check=_count(1, MAX_STEPS)),
    Field("schedule", _schedule, lambda c: c.get("schedule")),
    Field("z1", _z1, {}),
)
SIMULATE = (_SEED,) + SIMULATION + (_EXPECT,)
COMMUTANT = (
    _SEED,
    Field("mechanisms", _mechanisms),
    Field("offsets", _offsets, None),
    _RTOL,
    Field("csv_tables", _bool, False),
    _EXPECT,
)
IMITATE = (
    _SEED,
    Field("used", _mechanisms),
    Field("hypothesized", _each(_mechanism, "h"), ()),
    _RTOL,
    Field("check_tol", _number, lambda c: CLOSURE_TOL_FACTOR * c["rtol"], _positive),
    Field("budget", _int, DEFAULT_ASSIGNMENT_BUDGET, _positive),
    Field("grid", _object(GRID, _grid(lambda c: c["used"][0].dim)), {}),
    _EXPECT,
)
VERIFY = (
    _SEED,
    _DECODER,
    Field("mechanisms", _mechanisms),
    Field("candidates", _each(_object(CANDIDATE, _candidate), "candidate")),
    Field("grid", _object(GRID, _grid(lambda c: c["decoder"].latent_dim)), {}),
    Field(
        "tol_equivariance",
        _number,
        inspect.signature(membership_equivalence_audit).parameters["tol_equivariance"].default,
        _positive,
    ),
    Field("tol_identity", _number, None, _positive),
    _EXPECT,
)
RECOVER = (
    _SEED,
    Field("mechanisms", _mechanisms),
    Field("schedule", _schedule, None),
    Field("trajectory_csv", _str, None),
    Field("simulate", _object(SIMULATION, _simulation_in_recover), None),
    _RTOL,
    Field("comparison", _object(COMPARISON, lambda g, _: g), {}),
    _EXPECT,
)
STOCHASTIC_TEST = (
    _SEED,
    Field("candidate", _object(AFFINE_MAP, lambda g, _: AffineMap(**g))),
    Field("dim", _dim, lambda c: c["candidate"].dim),
    Field("m1", _walk),
    Field("m2", _walk, lambda c: c["m1"]),
    Field("test", _object(TEST, _test_spec), {}),
    Field("class_test", _bool, True),
    _EXPECT,
)

SimulateConfig = _kind("simulate", SIMULATE, _simulation, stochastic=property(_stochastic))
CommutantConfig = _kind("commutant", COMMUTANT)
ImitateConfig = _kind("imitate", IMITATE)
VerifyConfig = _kind("verify", VERIFY)
RecoverConfig = _kind("recover", RECOVER, _recovery)
StochasticTestConfig = _kind("stochastic-test", STOCHASTIC_TEST)
EXPERIMENT_KINDS = tuple(_KINDS)


def parse_config(doc):
    """Parse a full experiment document; dispatches on `experiment`."""
    doc = _dict(doc, "")
    if "experiment" not in doc:
        raise ConfigError("experiment", "missing required field")
    kind = _choice(*EXPERIMENT_KINDS)(doc["experiment"], "experiment")
    return _KINDS[kind]({k: v for k, v in doc.items() if k != "experiment"}, "", {})
