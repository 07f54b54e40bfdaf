"""JSON experiment configs parsed into typed, validated objects.

Every parse error carries the dotted path of the offending field
(`mechanisms[0].M`) so a malformed document is diagnosable from the
message alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import (
    AffineMechanism,
    LinearDecoder,
    NoiseSpec,
    ScalarMap,
    StochasticMechanism,
    StructuredDecoder,
)
from .errors import ConfigError
from .grids import GridSpec
from .maps import AffineMap
from .recovery import COMPARISON_CLASSES

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

EXPERIMENT_KINDS = (
    "simulate",
    "commutant",
    "imitate",
    "verify",
    "recover",
    "stochastic-test",
)


def _join(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else str(key)


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    return value


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(_join(path, key), "missing required field")
    return obj[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_str(value, path: str, choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {', '.join(choices)}; got '{value}'")
    return value


def _as_vector(value, path: str) -> np.ndarray:
    arr = np.asarray(_as_list(value, path), dtype=object)
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected an array of numbers") from None
    if vec.ndim != 1 or arr.ndim != 1:
        raise ConfigError(path, f"expected a flat vector, got shape {vec.shape}")
    return vec


def _as_matrix(value, path: str) -> np.ndarray:
    _as_list(value, path)
    try:
        mat = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected a nested array of numbers") from None
    if mat.ndim != 2:
        raise ConfigError(path, f"expected a matrix (array of rows), got shape {mat.shape}")
    return mat


def parse_affine_map(obj, path: str) -> AffineMap:
    obj = _as_dict(obj, path)
    A = _as_matrix(_get(obj, "A", path), _join(path, "A"))
    p_raw = obj.get("p")
    p = np.zeros(A.shape[0]) if p_raw is None else _as_vector(p_raw, _join(path, "p"))
    label = obj.get("label")
    try:
        return AffineMap(A=A, p=p, label=label)
    except Exception as e:
        raise ConfigError(path, str(e)) from None


def parse_mechanism(obj, path: str, label: str | None = None) -> AffineMechanism:
    obj = _as_dict(obj, path)
    kind = obj.get("type", "affine")
    if kind != "affine":
        raise ConfigError(_join(path, "type"), f"unsupported mechanism type '{kind}'")
    M = _as_matrix(_get(obj, "M", path), _join(path, "M"))
    b_raw = obj.get("b")
    b = np.zeros(M.shape[0]) if b_raw is None else _as_vector(b_raw, _join(path, "b"))
    try:
        return AffineMechanism(M=M, b=b, label=obj.get("label", label))
    except Exception as e:
        raise ConfigError(path, str(e)) from None


def parse_mechanisms(value, path: str, prefix: str = "m") -> tuple[AffineMechanism, ...]:
    items = _as_list(value, path)
    if not items:
        raise ConfigError(path, "at least one mechanism is required")
    return tuple(
        parse_mechanism(m, _join(path, i), label=f"{prefix}{i + 1}") for i, m in enumerate(items)
    )


def parse_noise(obj, path: str, dim: int) -> NoiseSpec:
    obj = _as_dict(obj, path)
    family = _as_str(
        _get(obj, "family", path),
        _join(path, "family"),
        choices=("generalized-laplace", "gaussian", "uniform"),
    )
    scale = _as_float(obj.get("scale", 1.0), _join(path, "scale"))
    alpha = obj.get("alpha")
    if alpha is not None:
        alpha = _as_float(alpha, _join(path, "alpha"))
    try:
        return NoiseSpec(family=family, scale=scale, alpha=alpha, dim=dim)
    except Exception as e:
        raise ConfigError(path, str(e)) from None


def _parse_scalar_map(obj, path: str) -> ScalarMap:
    if isinstance(obj, str):
        try:
            return ScalarMap(kind=obj)
        except Exception as e:
            raise ConfigError(path, str(e)) from None
    obj = _as_dict(obj, path)
    kind = _as_str(_get(obj, "kind", path), _join(path, "kind"))
    params = {}
    for key in ("beta", "s", "t"):
        if key in obj:
            params[key] = _as_float(obj[key], _join(path, key))
    try:
        return ScalarMap(kind=kind, **params)
    except Exception as e:
        raise ConfigError(path, str(e)) from None


def parse_decoder(obj, path: str):
    obj = _as_dict(obj, path)
    G = _as_matrix(_get(obj, "G", path), _join(path, "G"))
    tol = _as_float(obj.get("manifold_tol", 1e-6), _join(path, "manifold_tol"))
    maps_raw = obj.get("maps")
    try:
        if maps_raw is None:
            return LinearDecoder(G=G, manifold_tol=tol)
        maps = tuple(
            _parse_scalar_map(m, _join(_join(path, "maps"), i)) for i, m in enumerate(maps_raw)
        )
        return StructuredDecoder(G=G, maps=maps, manifold_tol=tol)
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(path, str(e)) from None


def parse_grid(obj, path: str, dim: int) -> GridSpec:
    if obj is None:
        return GridSpec(dim=dim)
    obj = _as_dict(obj, path)
    try:
        return GridSpec(
            dim=dim,
            count=_as_int(obj.get("count", 256), _join(path, "count")),
            low=_as_float(obj.get("low", -2.0), _join(path, "low")),
            high=_as_float(obj.get("high", 2.0), _join(path, "high")),
        )
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(path, str(e)) from None


def parse_stochastic_mechanism(obj, path: str, dim: int | None = None) -> StochasticMechanism:
    """Kernel z -> Mz + b + noise; M and b default to the identity walk."""
    obj = _as_dict(obj, path)
    noise_raw = _get(obj, "noise", path)
    M_raw = obj.get("M")
    if dim is None:
        if M_raw is None:
            raise ConfigError(_join(path, "M"), "missing required field (or set top-level dim)")
        dim = len(_as_matrix(M_raw, _join(path, "M")))
    M = np.eye(dim) if M_raw is None else _as_matrix(M_raw, _join(path, "M"))
    b_raw = obj.get("b")
    b = np.zeros(dim) if b_raw is None else _as_vector(b_raw, _join(path, "b"))
    if M.shape != (dim, dim) or b.shape != (dim,):
        raise ConfigError(path, f"M/b shapes {M.shape}/{b.shape} do not match dimension {dim}")
    noise = parse_noise(noise_raw, _join(path, "noise"), dim)

    def kernel(z, U):
        return z @ M.T + b + noise.ppf(U)

    return StochasticMechanism(kernel=kernel, dim=dim, label=obj.get("label"))


def _parse_expect(obj, path: str) -> dict | None:
    if obj is None:
        return None
    obj = _as_dict(obj, path)
    out = {}
    for key, val in obj.items():
        if isinstance(val, dict):
            for bound in val:
                if bound not in ("min", "max"):
                    raise ConfigError(
                        _join(_join(path, key), bound), "expected 'min' or 'max'"
                    )
            out[key] = {k: _as_float(v, _join(_join(path, key), k)) for k, v in val.items()}
        else:
            out[key] = val
    return out


@dataclass(frozen=True)
class SimulateConfig:
    seed: int
    decoder: object
    mechanisms: tuple
    steps: int
    schedule: tuple[int, ...] | None
    z1: np.ndarray | None
    z1_low: float
    z1_high: float
    expect: dict | None
    kind: str = field(default="simulate", init=False)

    @property
    def stochastic(self) -> bool:
        return any(isinstance(m, StochasticMechanism) for m in self.mechanisms)


@dataclass(frozen=True)
class CommutantConfig:
    seed: int
    mechanisms: tuple[AffineMechanism, ...]
    offsets: np.ndarray | None
    rtol: float
    expect: dict | None
    kind: str = field(default="commutant", init=False)


@dataclass(frozen=True)
class ImitateConfig:
    seed: int
    used: tuple[AffineMechanism, ...]
    hypothesized: tuple[AffineMechanism, ...]
    rtol: float
    check_tol: float
    budget: int
    grid: GridSpec
    expect: dict | None
    kind: str = field(default="imitate", init=False)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int
    decoder: object
    mechanisms: tuple[AffineMechanism, ...]
    candidates: tuple
    grid: GridSpec
    tol_equivariance: float
    tol_identity: float | None
    expect: dict | None
    kind: str = field(default="verify", init=False)


@dataclass(frozen=True)
class RecoverConfig:
    seed: int
    mechanisms: tuple[AffineMechanism, ...]
    schedule: tuple[int, ...] | str | None
    trajectory_csv: str | None
    simulate: SimulateConfig | None
    rtol: float
    comparison_class: str
    truth_encoder: tuple[np.ndarray, np.ndarray] | None
    expect: dict | None
    kind: str = field(default="recover", init=False)


@dataclass(frozen=True)
class StochasticTestConfig:
    seed: int
    dim: int
    candidate: AffineMap
    m1: StochasticMechanism
    m2: StochasticMechanism
    samples_per_anchor: int
    significance: float
    method: str
    anchors: np.ndarray | None
    anchor_count: int
    permutations: int
    run_class_test: bool
    expect: dict | None
    kind: str = field(default="stochastic-test", init=False)

    def test_spec(self, seed: int):
        from .stochastic import DistributionalTestSpec

        return DistributionalTestSpec(
            dim=self.dim,
            samples_per_anchor=self.samples_per_anchor,
            significance=self.significance,
            method=self.method,
            seed=seed,
            anchors=self.anchors,
            anchor_count=self.anchor_count,
            permutations=self.permutations,
        )


def _seed_of(doc: dict) -> int:
    return _as_int(doc.get("seed", 0), "seed")


def _rtol_of(doc: dict) -> float:
    """The relative rank cut; outside (0, 1) it silently flips verdicts."""
    rtol = _as_float(doc.get("rtol", 1e-9), "rtol")
    if not 0.0 < rtol < 1.0:
        raise ConfigError("rtol", f"must lie strictly between 0 and 1, got {rtol!r}")
    return rtol


def _schedule_of(doc: dict, path: str = "schedule"):
    raw = doc.get("schedule")
    if raw is None:
        return None
    if isinstance(raw, str):
        if raw != "cycle":
            raise ConfigError(path, f"expected an index array or 'cycle', got '{raw}'")
        return "cycle"
    return tuple(_as_int(v, _join(path, i)) for i, v in enumerate(_as_list(raw, path)))


def _resolve_cycle(schedule, count: int, steps: int):
    if schedule == "cycle":
        return tuple(t % count for t in range(steps - 1))
    return schedule


def _parse_simulate(doc: dict) -> SimulateConfig:
    decoder = parse_decoder(_get(doc, "decoder", ""), "decoder")
    d = decoder.latent_dim
    mech_raw = _as_list(_get(doc, "mechanisms", ""), "mechanisms")
    if not mech_raw:
        raise ConfigError("mechanisms", "at least one mechanism is required")
    mechanisms = []
    for i, m in enumerate(mech_raw):
        mpath = _join("mechanisms", i)
        if isinstance(m, dict) and "noise" in m:
            mechanisms.append(parse_stochastic_mechanism(m, mpath, dim=d))
        else:
            mechanisms.append(parse_mechanism(m, mpath, label=f"m{i + 1}"))
    steps = _as_int(_get(doc, "steps", ""), "steps")
    if steps < 1:
        raise ConfigError("steps", "must be a positive integer")
    schedule = _resolve_cycle(_schedule_of(doc), len(mechanisms), steps)
    z1_raw = doc.get("z1")
    z1 = None
    z1_low, z1_high = -1.0, 1.0
    if isinstance(z1_raw, dict):
        z1_low = _as_float(z1_raw.get("low", -1.0), "z1.low")
        z1_high = _as_float(z1_raw.get("high", 1.0), "z1.high")
        if not z1_high > z1_low:
            raise ConfigError("z1", "sampling box requires high > low")
    elif z1_raw is not None:
        z1 = _as_vector(z1_raw, "z1")
        if z1.shape[0] != d:
            raise ConfigError("z1", f"has dimension {z1.shape[0]}, decoder expects {d}")
    return SimulateConfig(
        seed=_seed_of(doc),
        decoder=decoder,
        mechanisms=tuple(mechanisms),
        steps=steps,
        schedule=schedule,
        z1=z1,
        z1_low=z1_low,
        z1_high=z1_high,
        expect=_parse_expect(doc.get("expect"), "expect"),
    )


def _parse_commutant(doc: dict) -> CommutantConfig:
    mechanisms = parse_mechanisms(_get(doc, "mechanisms", ""), "mechanisms")
    offsets_raw = doc.get("offsets")
    offsets = None if offsets_raw is None else _as_matrix(offsets_raw, "offsets")
    if offsets is not None and offsets.shape[1] != mechanisms[0].dim:
        raise ConfigError("offsets", "offset columns must match the mechanism dimension")
    return CommutantConfig(
        seed=_seed_of(doc),
        mechanisms=mechanisms,
        offsets=offsets,
        rtol=_rtol_of(doc),
        expect=_parse_expect(doc.get("expect"), "expect"),
    )


def _parse_imitate(doc: dict) -> ImitateConfig:
    used = parse_mechanisms(_get(doc, "used", ""), "used", prefix="m")
    hyp_raw = doc.get("hypothesized")
    hypothesized = (
        () if hyp_raw is None else parse_mechanisms(hyp_raw, "hypothesized", prefix="h")
    )
    rtol = _rtol_of(doc)
    return ImitateConfig(
        seed=_seed_of(doc),
        used=used,
        hypothesized=hypothesized,
        rtol=rtol,
        check_tol=_as_float(doc.get("check_tol", 10.0 * rtol), "check_tol"),
        budget=_as_int(doc.get("budget", 10000), "budget"),
        grid=parse_grid(doc.get("grid"), "grid", used[0].dim),
        expect=_parse_expect(doc.get("expect"), "expect"),
    )


def _parse_verify(doc: dict) -> VerifyConfig:
    from .verify import CandidateModel

    decoder = parse_decoder(_get(doc, "decoder", ""), "decoder")
    mechanisms = parse_mechanisms(_get(doc, "mechanisms", ""), "mechanisms")
    cand_raw = _as_list(_get(doc, "candidates", ""), "candidates")
    if not cand_raw:
        raise ConfigError("candidates", "at least one candidate is required")
    candidates = []
    for i, c in enumerate(cand_raw):
        cpath = _join("candidates", i)
        c = _as_dict(c, cpath)
        a = parse_affine_map(c, cpath)
        label = c.get("label", f"candidate{i + 1}")
        claim = c.get("claim")
        if claim is not None and not isinstance(claim, bool):
            raise ConfigError(_join(cpath, "claim"), "expected true or false")
        candidates.append(
            CandidateModel(label=label, latent_map=a, expect_equivariant=claim)
        )
    tol_eq = _as_float(doc.get("tol_equivariance", 1e-9), "tol_equivariance")
    tol_id_raw = doc.get("tol_identity")
    tol_id = None if tol_id_raw is None else _as_float(tol_id_raw, "tol_identity")
    return VerifyConfig(
        seed=_seed_of(doc),
        decoder=decoder,
        mechanisms=mechanisms,
        candidates=tuple(candidates),
        grid=parse_grid(doc.get("grid"), "grid", decoder.latent_dim),
        tol_equivariance=tol_eq,
        tol_identity=tol_id,
        expect=_parse_expect(doc.get("expect"), "expect"),
    )


def _parse_recover(doc: dict) -> RecoverConfig:
    mechanisms = parse_mechanisms(_get(doc, "mechanisms", ""), "mechanisms")
    trajectory_csv = doc.get("trajectory_csv")
    if trajectory_csv is not None:
        trajectory_csv = _as_str(trajectory_csv, "trajectory_csv")
    sim_raw = doc.get("simulate")
    simulate = None
    if sim_raw is not None:
        sim_doc = dict(_as_dict(sim_raw, "simulate"))
        sim_doc.setdefault("mechanisms", doc.get("mechanisms"))
        sim_doc.setdefault("schedule", doc.get("schedule"))
        sim_doc.setdefault("seed", doc.get("seed", 0))
        try:
            simulate = _parse_simulate(sim_doc)
        except ConfigError as e:
            raise ConfigError(_join("simulate", e.field) if e.field else "simulate", e.problem)
    if (trajectory_csv is None) == (simulate is None):
        raise ConfigError(
            "trajectory_csv", "exactly one of trajectory_csv or simulate must be given"
        )
    comparison_class = "exact"
    truth_encoder = None
    comp_raw = doc.get("comparison")
    if comp_raw is not None:
        comp = _as_dict(comp_raw, "comparison")
        comparison_class = _as_str(
            comp.get("class", "exact"),
            "comparison.class",
            choices=COMPARISON_CLASSES,
        )
        enc_raw = comp.get("encoder")
        if enc_raw is not None:
            if isinstance(enc_raw, dict):
                W = _as_matrix(_get(enc_raw, "W", "comparison.encoder"), "comparison.encoder.W")
                c_raw = enc_raw.get("c")
                c = (
                    np.zeros(W.shape[0])
                    if c_raw is None
                    else _as_vector(c_raw, "comparison.encoder.c")
                )
            else:
                W = _as_matrix(enc_raw, "comparison.encoder")
                c = np.zeros(W.shape[0])
            truth_encoder = (W, c)
    return RecoverConfig(
        seed=_seed_of(doc),
        mechanisms=mechanisms,
        schedule=_schedule_of(doc),
        trajectory_csv=trajectory_csv,
        simulate=simulate,
        rtol=_rtol_of(doc),
        comparison_class=comparison_class,
        truth_encoder=truth_encoder,
        expect=_parse_expect(doc.get("expect"), "expect"),
    )


def _parse_stochastic_test(doc: dict) -> StochasticTestConfig:
    candidate = parse_affine_map(_get(doc, "candidate", ""), "candidate")
    dim = doc.get("dim")
    dim = candidate.dim if dim is None else _as_int(dim, "dim")
    if dim != candidate.dim:
        raise ConfigError("dim", f"candidate map has dimension {candidate.dim}, dim says {dim}")
    m1 = parse_stochastic_mechanism(_get(doc, "m1", ""), "m1", dim=dim)
    m2_raw = doc.get("m2")
    m2 = m1 if m2_raw is None else parse_stochastic_mechanism(m2_raw, "m2", dim=dim)
    test_raw = _as_dict(doc.get("test", {}), "test")
    anchors_raw = test_raw.get("anchors")
    anchors = None if anchors_raw is None else _as_matrix(anchors_raw, "test.anchors")
    samples = _as_int(test_raw.get("samples_per_anchor", 1000), "test.samples_per_anchor")
    if samples < 100:
        raise ConfigError("test.samples_per_anchor", "must be at least 100")
    run_class_test = doc.get("class_test", True)
    if not isinstance(run_class_test, bool):
        raise ConfigError("class_test", "expected true or false")
    return StochasticTestConfig(
        seed=_seed_of(doc),
        dim=dim,
        candidate=candidate,
        m1=m1,
        m2=m2,
        samples_per_anchor=samples,
        significance=_as_float(test_raw.get("significance", 0.05), "test.significance"),
        method=_as_str(test_raw.get("method", "ks"), "test.method", choices=("ks", "energy")),
        anchors=anchors,
        anchor_count=_as_int(test_raw.get("anchor_count", 5), "test.anchor_count"),
        permutations=_as_int(test_raw.get("permutations", 500), "test.permutations"),
        run_class_test=run_class_test,
        expect=_parse_expect(doc.get("expect"), "expect"),
    )


_PARSERS = {
    "simulate": _parse_simulate,
    "commutant": _parse_commutant,
    "imitate": _parse_imitate,
    "verify": _parse_verify,
    "recover": _parse_recover,
    "stochastic-test": _parse_stochastic_test,
}


def parse_config(doc):
    """Parse a full experiment document; dispatches on `experiment`."""
    doc = _as_dict(doc, "")
    kind = _as_str(_get(doc, "experiment", ""), "experiment", choices=EXPERIMENT_KINDS)
    return _PARSERS[kind](doc)
