"""Config parsing, canonical serialization, CLI contract, and replay."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, make_dataclass, replace
from dataclasses import field as dataclass_field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mechid import AffineMechanism, __version__, config, experiments, find_affine_intertwiners
from mechid.cli import main
from mechid.config import parse_config
from mechid.errors import ConfigError
from mechid.experiments import run_experiment
from mechid.dynamics import LinearDecoder, NoiseSpec, ScalarMap, StructuredDecoder, additive_noise_mechanism
from mechid.grids import GridSpec
from mechid.jsonio import Field, _read, canonical_digest, dumps_json, file_digest, load_json
from mechid.rng import stream
from mechid.stochastic import DistributionalTestSpec
from mechid.verify import membership_equivalence_audit

from conftest import random_invertible

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path: Path):
    return json.loads(path.read_text())


def with_src_path(env: dict) -> dict:
    """`env` with this checkout's `src` first on PYTHONPATH, for a child interpreter."""
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(FIXTURES.parent / "src"), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# serialization


def test_canonical_digest_ignores_key_order():
    doc = {"b": [1.0, {"y": 2.5, "x": -0.0}], "a": "text"}
    reordered = {"a": "text", "b": [1.0, {"x": -0.0, "y": 2.5}]}
    assert canonical_digest(doc) == canonical_digest(reordered)
    assert canonical_digest(doc) != canonical_digest({"a": "text", "b": [1.0, {"x": 0.1, "y": 2.5}]})


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_serialization_roundtrips_exactly(x):
    rendered = dumps_json({"v": x})
    assert json.loads(rendered)["v"] == x


def test_nonfinite_floats_rejected():
    with pytest.raises(ValueError):
        dumps_json({"v": float("inf")})


def test_numpy_values_serialize():
    doc = {"m": np.eye(2), "n": np.float64(0.1), "k": np.int64(3)}
    parsed = json.loads(dumps_json(doc))
    assert parsed == {"m": [[1.0, 0.0], [0.0, 1.0]], "n": 0.1, "k": 3}


@dataclass(frozen=True)
class _Inner:
    z: complex
    a: np.ndarray


@dataclass(frozen=True)
class _Outer:
    name: str
    pair: tuple
    missing: None
    inner: _Inner


def test_dataclasses_serialize_in_declaration_order():
    doc = _Outer("x", (1, 2.5), None, _Inner(complex(1.5, -2.0), np.arange(2.0)))
    parsed = json.loads(dumps_json(doc))
    assert parsed == {
        "name": "x",
        "pair": [1, 2.5],
        "missing": None,
        "inner": {"z": [1.5, -2.0], "a": [0.0, 1.0]},
    }
    assert list(parsed) == ["name", "pair", "missing", "inner"]
    assert list(parsed["inner"]) == ["z", "a"]
    with pytest.raises(ValueError):
        dumps_json(_Inner(complex(float("nan"), 0.0), np.zeros(1)))
    with pytest.raises(TypeError):
        dumps_json(_Inner(1j, object()))


def test_a_value_that_cannot_be_written_is_named_with_its_file(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError, match=r"^a\[1\]: non-finite value nan cannot be serialized$"):
        dumps_json({"a": [1.0, float("nan")]})
    with pytest.raises(ValueError, match=r"^inner\.a\[0\]\[1\]: non-finite value inf"):
        dumps_json(_Outer("x", (), None, _Inner(1j, np.array([[0.0, np.inf]]))))
    with pytest.raises(ValueError, match=r"^non-finite value -inf"):
        dumps_json(-math.inf)
    real_run = experiments.run_experiment

    def run_to_nan(*args, **kwargs):
        outcome = real_run(*args, **kwargs)
        return replace(outcome, report={**outcome.report, "a": [1.0, float("nan")]})

    monkeypatch.setattr("mechid.cli.run_experiment", run_to_nan)
    out = tmp_path / "run"
    assert run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'report.json'}: detail.a[1]: non-finite value nan cannot be serialized\n"


# The renderer of mechid 0.10.0, which converted a value in one recursive pass
# and rendered the converted copy in another. Its one difference from the
# one-pass renderer: a 0-d array raised TypeError; now it is written as its
# element, which `reference_dumps` here reads it as.


def reference_to_jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: reference_to_jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): reference_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return reference_to_jsonable(value.item())
        return [reference_to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, Path):
        return str(value)
    return value


def reference_render(value, sort_keys: bool, indent, level: int = 0) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite value {value} cannot be serialized")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    pad = "" if indent is None else "\n" + " " * indent * (level + 1)
    end = "" if indent is None else "\n" + " " * indent * level
    sep = "," + (pad if indent is not None else "")
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else list(value.items())
        if not items:
            return "{}"
        body = sep.join(
            f"{json.dumps(str(k))}: {reference_render(v, sort_keys, indent, level + 1)}" for k, v in items
        )
        return "{" + pad + body + end + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        body = sep.join(reference_render(v, sort_keys, indent, level + 1) for v in value)
        return "[" + pad + body + end + "]"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def reference_dumps(value) -> str:
    return reference_render(reference_to_jsonable(value), sort_keys=False, indent=2)


def reference_digest(value) -> str:
    text = reference_render(reference_to_jsonable(value), sort_keys=True, indent=None)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rendered(render, value):
    """What `render` makes of `value`: its text, or the type of error it raises."""
    try:
        return render(value)
    except (TypeError, ValueError) as e:
        return type(e)


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


ARRAYS = st.sampled_from([np.float64, np.int64, np.bool_, np.complex128]).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.complex_numbers(),
    st.text(),
    st.text().map(Path),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    ARRAYS,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(-3, 3)), inner, max_size=4),
        st.builds(_Pair, inner, inner),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({"\u00e9\n\x00": [-0.0, 5e-324, 1.7976931348623157e308], 2: (1, "\u2603")})
@example({1: "int key", "1": "str key", 0: None})
@example(_Pair(np.zeros((2, 0, 3)), np.array(1.5 - 2j)))
def test_renderer_matches_the_two_pass_renderer_byte_for_byte(value):
    assert rendered(dumps_json, value) == rendered(reference_dumps, value)
    assert rendered(canonical_digest, value) == rendered(reference_digest, value)


def test_every_fixture_report_and_manifest_render_as_before(tmp_path, monkeypatch):
    import mechid.cli

    real_dump = mechid.cli.dump_json
    documents = []

    def dump(value, path):
        documents.append(value)
        return real_dump(value, path)

    monkeypatch.setattr(mechid.cli, "dump_json", dump)
    for name, kind in RUNNABLE.items():
        out = tmp_path / name
        run_cli(kind, FIXTURES / f"{name}.json", "--output-dir", out, "--seed", 0)
        [report, manifest] = documents[-2:]
        assert (out / "report.json").read_text() == reference_dumps(report) + "\n"
        assert (out / "manifest.json").read_text() == reference_dumps(manifest) + "\n"
        assert manifest["config_digest"] == reference_digest(manifest["config"])
        for doc in (report, manifest):
            assert canonical_digest(doc) == reference_digest(doc)
    assert len(documents) == 2 * len(RUNNABLE)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_reports_field_paths():
    with pytest.raises(ConfigError) as exc:
        parse_config({"experiment": "commutant", "mechanisms": [{"b": [1.0, 1.0]}]})
    assert "mechanisms[0].M" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config({"experiment": "unknown-kind"})
    with pytest.raises(ConfigError) as exc2:
        parse_config({"experiment": "simulate", "mechanisms": []})
    assert "decoder" in str(exc2.value)


def test_parse_config_applies_defaults():
    cfg = parse_config(
        {
            "experiment": "commutant",
            "mechanisms": [{"M": [[2.0, 0.0], [0.0, 3.0]]}],
        }
    )
    assert cfg.rtol == 1e-9
    assert np.allclose(cfg.mechanisms[0].b, 0.0)


# ---------------------------------------------------------------------------
# run subcommands against the shipped fixtures


def test_commutant_fixture_passes(tmp_path):
    out = tmp_path / "run"
    assert run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", out) == 0
    report = read_json(out / "report.json")
    assert report["verdict"] is True
    assert report["summary"]["dimension"] == 2
    assert report["summary"]["condition_verdict"] == "exact"
    manifest = read_json(out / "manifest.json")
    assert manifest["exit_status"] == 0
    assert manifest["version"] == __version__


def test_planted_claim_fixture_fails_with_status_2(tmp_path, capsys):
    out = tmp_path / "run"
    status = run_cli("verify", FIXTURES / "verify_planted_claim.json", "--output-dir", out)
    assert status == 2
    text = capsys.readouterr().out
    assert "FAIL" in text
    report = read_json(out / "report.json")
    assert report["verdict"] is False
    rows = {r["label"]: r for r in report["detail"]["audit"]["rows"]}
    assert rows["planted-liar"]["equivariance_pass"] is False
    assert rows["diagonal-member"]["equivariance_pass"] is True


def test_malformed_fixture_exits_1_naming_field(tmp_path, capsys):
    status = run_cli(
        "commutant", FIXTURES / "malformed_missing_matrix.json", "--output-dir", tmp_path / "x"
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "mechanisms[0].M" in err


def test_experiment_subcommand_mismatch_is_an_error(tmp_path):
    assert run_cli("imitate", FIXTURES / "commutant_shared.json", "--output-dir", tmp_path) == 1


def test_all_runnable_fixtures_pass(tmp_path):
    runnable = [
        ("commutant", "commutant_shared.json"),
        ("simulate", "simulate_shear.json"),
        ("recover", "recover_inverse.json"),
        ("imitate", "imitate_swap_pair.json"),
        ("stochastic-test", "stochastic_swap.json"),
    ]
    for kind, name in runnable:
        out = tmp_path / name.replace(".json", "")
        assert run_cli(kind, FIXTURES / name, "--output-dir", out, "--seed", 7) == 0, name


def test_manifest_output_digests_match_files(tmp_path):
    # the digests come from the bytes as they were written; each must be the file's
    written = set()
    for name, kind in RUNNABLE.items():
        out = tmp_path / name
        run_cli(kind, FIXTURES / f"{name}.json", "--output-dir", out, *(["--csv"] * (kind == "commutant")))
        manifest = read_json(out / "manifest.json")
        assert sorted(manifest["outputs"]) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        for output, digest in manifest["outputs"].items():
            assert file_digest(out / output) == digest, (name, output)
        written |= set(manifest["outputs"])
    assert written == {"report.json", "basis.csv", "records.csv", "trajectory.csv", "anchors.csv", "audit.csv"}


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("stochastic-test", FIXTURES / "stochastic_swap.json", "--output-dir", out,
                "--seed", 3)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert read_json(a / "manifest.json")["outputs"] == read_json(b / "manifest.json")["outputs"]


DURATION = re.compile(rb'("duration_seconds": )[^,\n]*')


def masked_outputs(directory: Path) -> dict:
    """Every output file's bytes, with the value of the manifest's duration_seconds masked."""
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    files["manifest.json"] = DURATION.sub(rb"\1<masked>", files["manifest.json"], count=1)
    return files


def test_outputs_written_over_longer_ones_equal_a_fresh_run(tmp_path, capsys):
    # the second config audits one candidate, so its report.json and audit.csv
    # are shorter than the first run's; no stale tail may survive either run
    planted = read_json(FIXTURES / "verify_planted_claim.json")
    single = {**planted, "candidates": planted["candidates"][:1]}
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("{" + " " * 65536 + "}\n")
    sizes = []
    for i, (doc, status) in enumerate(((planted, 2), (single, 0))):
        cfg = tmp_path / f"verify{i}.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("verify", cfg, "--output-dir", out) == status
        assert run_cli("verify", cfg, "--output-dir", tmp_path / f"fresh{i}") == status
        assert masked_outputs(out) == masked_outputs(tmp_path / f"fresh{i}")
        sizes.append([(out / name).stat().st_size for name in ("report.json", "audit.csv")])
    assert all(after < before for before, after in zip(*sizes))
    capsys.readouterr()
    assert run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "replayed") == 0
    result = json.loads(capsys.readouterr().out)
    assert [entry["match"] for entry in result["files"]] == ["bitwise", "bitwise"]


def test_thread_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t4"
    for out, threads in ((a, "1"), (b, "4")):
        run_cli("verify", FIXTURES / "verify_planted_claim.json", "--output-dir", out,
                "--seed", 5, "--threads", threads)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_thread_count_is_bounded_on_run_and_replay(tmp_path, capsys):
    # the fixture has 3 anchors, so even an unbounded pool starts at most 3 threads
    out = tmp_path / "run"
    args = ("stochastic-test", FIXTURES / "stochastic_swap.json", "--seed", 3)
    assert run_cli(*args, "--output-dir", out, "--threads", 100000) == 0
    manifest = read_json(out / "manifest.json")
    assert 1 <= manifest["threads"] <= (os.cpu_count() or 1)
    for threads, status in ((1000000, 0), (0, 1), (2.5, 1), ("4", 1)):
        manifest["threads"] = threads
        (out / "manifest.json").write_text(dumps_json(manifest))
        capsys.readouterr()
        assert run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "r") == status
        if status == 1:
            assert "threads" in capsys.readouterr().err
    assert run_cli(*args, "--output-dir", tmp_path / "zero", "--threads", 0) == 1
    assert "threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seed precedence


def seeded_simulate_doc(tmp_path) -> Path:
    doc = {
        "experiment": "simulate",
        "decoder": {"G": [[1.0, 0.0], [0.0, 1.0]]},
        "mechanisms": [{"M": [[0.9, 0.0], [0.0, 0.8]], "b": [0.1, 0.0]}],
        "steps": 5,
        "z1": {"low": -1.0, "high": 1.0},
        "seed": 1,
    }
    path = tmp_path / "seeded.json"
    path.write_text(dumps_json(doc))
    return path


def test_seed_precedence_flag_env_config(tmp_path, monkeypatch):
    cfg = seeded_simulate_doc(tmp_path)
    out1 = tmp_path / "from_config"
    monkeypatch.delenv("MECHID_SEED", raising=False)
    run_cli("simulate", cfg, "--output-dir", out1)
    assert read_json(out1 / "manifest.json")["seed"] == 1

    monkeypatch.setenv("MECHID_SEED", "22")
    out2 = tmp_path / "from_env"
    run_cli("simulate", cfg, "--output-dir", out2)
    assert read_json(out2 / "manifest.json")["seed"] == 22

    out3 = tmp_path / "from_flag"
    run_cli("simulate", cfg, "--output-dir", out3, "--seed", 333)
    assert read_json(out3 / "manifest.json")["seed"] == 333

    monkeypatch.setenv("MECHID_SEED", "not-a-number")
    assert run_cli("simulate", cfg, "--output-dir", tmp_path / "bad_env") == 1


def test_seed_changes_sampled_initial_condition(tmp_path, monkeypatch):
    monkeypatch.delenv("MECHID_SEED", raising=False)
    cfg = seeded_simulate_doc(tmp_path)
    a, b = tmp_path / "s1", tmp_path / "s2"
    run_cli("simulate", cfg, "--output-dir", a, "--seed", 10)
    run_cli("simulate", cfg, "--output-dir", b, "--seed", 11)
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def requested_paths(monkeypatch, run) -> list[tuple]:
    """Every (seed, *path) that `run()` asks of `stream`, wrapped where each mechid module looks it up."""
    import mechid.rng

    real, paths = mechid.rng.stream, []

    def recording(seed, *path):
        paths.append((int(seed), *map(int, path)))
        return real(seed, *path)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if (name == "mechid" or name.startswith("mechid.")) and getattr(module, "stream", None) is real:
                patch.setattr(module, "stream", recording)
        run()
    return paths


def test_no_stream_path_is_requested_twice_in_one_run(tmp_path, monkeypatch):
    # a start box drawn from a step's stream makes that step's noise equal the start state
    monkeypatch.delenv("MECHID_SEED", raising=False)
    walk = {"noise": {"family": "uniform", "scale": 1.0}}
    sim = {"experiment": "simulate", "decoder": {"G": np.eye(2).tolist()}, "mechanisms": [walk], "steps": 9903}
    (tmp_path / "sim.json").write_text(dumps_json(sim))
    sim_paths = requested_paths(
        monkeypatch, lambda: run_cli("simulate", tmp_path / "sim.json", "--seed", 3, "--output-dir", tmp_path / "s")
    )

    # a walk whose noise lies under the rank cut: the encoder keeps the two free
    # directions of diag(0.5, 0.8)'s commutant, its minimum-norm point is 0, and
    # the refinement draws
    M = np.diag([0.5, 0.8]).tolist()
    tiny_walk = {"noise": {"family": "uniform", "scale": 1e-30}, "M": M}
    rec = {
        "experiment": "recover",
        "mechanisms": [{"M": M}],
        "simulate": {"decoder": {"G": [[2.0, 0.0], [1.0, 1.0]]}, "mechanisms": [tiny_walk], "steps": 9204},
    }
    (tmp_path / "rec.json").write_text(dumps_json(rec))
    rec_paths = requested_paths(
        monkeypatch, lambda: run_cli("recover", tmp_path / "rec.json", "--seed", 3, "--output-dir", tmp_path / "r")
    )
    assert read_json(tmp_path / "r" / "report.json")["summary"]["solution_space_dim"] == 2
    for paths in (sim_paths, rec_paths):
        twice = sorted(p for p, count in Counter(paths).items() if count > 1)
        assert not twice, f"stream paths requested more than once: {twice}"
    assert sorted(sim_paths) == [(3, t) for t in range(9903)]  # the start box, then each step
    assert set(rec_paths) > {(3, t) for t in range(9204)}  # the refinement drew too


def test_recover_fails_when_its_encoder_is_rank_deficient(tmp_path, capsys):
    # a noisy identity walk: the offsets are all zero, so the minimum-norm
    # encoder is 0; the run printed "recover: pass" and exited 0
    walk = {"M": np.eye(2).tolist(), "noise": {"family": "generalized-laplace", "alpha": 1.0, "scale": 0.1}}
    doc = {
        "experiment": "recover",
        "mechanisms": [{"M": np.eye(2).tolist(), "b": [0.0, 0.0]}],
        "simulate": {"decoder": {"G": [[2.0, 0.0], [1.0, 1.0]]}, "mechanisms": [walk], "z1": [0.2, 0.4], "steps": 5000},
    }
    (tmp_path / "rec.json").write_text(dumps_json(doc))
    capsys.readouterr()
    assert run_cli("recover", tmp_path / "rec.json", "--seed", 1, "--output-dir", tmp_path / "run") == 2
    assert "recover: FAIL" in capsys.readouterr().out
    report = read_json(tmp_path / "run" / "report.json")
    assert report["verdict"] is False and report["detail"]["recovery"]["E_hat"] == [[0, 0], [0, 0]]


# ---------------------------------------------------------------------------
# replay


def test_replay_bitwise_match(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("simulate", FIXTURES / "simulate_shear.json", "--output-dir", out, "--seed", 2)
    capsys.readouterr()
    status = run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "replayed")
    assert status == 0
    result = json.loads(capsys.readouterr().out)
    assert result["match"] is True
    assert result["first_divergence"] is None
    assert all(entry["match"] == "bitwise" for entry in result["files"])


def test_replay_reports_an_output_it_did_not_write_as_missing_despite_a_stale_file(tmp_path, capsys):
    out, replayed = tmp_path / "run", tmp_path / "replayed"
    run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", out, "--csv")
    manifest = read_json(out / "manifest.json")
    manifest["config"]["csv_tables"] = False  # the replay writes no basis.csv
    (out / "manifest.json").write_text(dumps_json(manifest))
    replayed.mkdir()
    shutil.copy(out / "basis.csv", replayed / "basis.csv")
    capsys.readouterr()
    assert run_cli("replay", out / "manifest.json", "--output-dir", replayed) == 2
    result = json.loads(capsys.readouterr().out)
    assert result["files"] == [
        {"file": "report.json", "match": "bitwise"},
        {"file": "basis.csv", "match": "missing", "problem": "output was not regenerated"},
    ]
    assert result["first_divergence"] == result["files"][1]


def test_replay_reports_a_recorded_output_that_disagrees_with_its_digest(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", out, "--csv")
    with open(out / "report.json", "ab") as f:
        f.write(b"tampered\n")
    capsys.readouterr()
    assert run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "replayed") == 2
    result = json.loads(capsys.readouterr().out)
    assert result["match"] is False
    assert result["files"] == [
        {"file": "report.json", "match": "divergent", "problem": "recorded file does not match its manifest digest"},
        {"file": "basis.csv", "match": "bitwise"},
    ]
    assert result["first_divergence"] == result["files"][0]


def test_replay_without_the_recorded_files_compares_digests_only(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", out, "--csv")
    (out / "report.json").unlink()
    (out / "basis.csv").unlink()
    capsys.readouterr()
    assert run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "replayed") == 0
    result = json.loads(capsys.readouterr().out)
    assert [entry["match"] for entry in result["files"]] == ["bitwise", "bitwise"]


def test_replay_detects_altered_seed(tmp_path, capsys):
    cfg = seeded_simulate_doc(tmp_path)
    out = tmp_path / "run"
    run_cli("simulate", cfg, "--output-dir", out, "--seed", 10)
    manifest = read_json(out / "manifest.json")
    manifest["config"]["seed"] = 11  # tamper with the recorded protocol
    (out / "manifest.json").write_text(dumps_json(manifest))
    capsys.readouterr()
    status = run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "replayed")
    assert status == 2
    result = json.loads(capsys.readouterr().out)
    assert result["match"] is False
    assert result["first_divergence"]["match"] in ("divergent", "missing")


def test_replay_rejects_version_mismatch(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("simulate", FIXTURES / "simulate_shear.json", "--output-dir", out)
    manifest = read_json(out / "manifest.json")
    manifest["version"] = "0.0.0-other"
    (out / "manifest.json").write_text(dumps_json(manifest))
    capsys.readouterr()
    assert run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "r") == 1
    assert "version" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("outputs", []),
        ("outputs", {"report.json": 5}),
        ("config", 5),
        ("config", [1, 2]),
        ("replay_tolerance", "x"),
        ("replay_tolerance", -1e-9),
        ("replay_tolerance", math.nan),
        ("replay_tolerance", math.inf),
        ("replay_tolerance", True),
    ],
)
def test_replay_of_a_malformed_manifest_names_the_field(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", out)
    manifest = read_json(out / "manifest.json")
    manifest[key] = value
    (out / "manifest.json").write_text(json.dumps(manifest))  # json.dumps writes NaN and Infinity
    capsys.readouterr()
    assert run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "r") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{key}"), err


def edited_run(tmp_path, argv, name, edit) -> Path:
    """Run `argv`, rewrite its recorded output `name` with `edit` and re-digest it; the manifest path."""
    out = tmp_path / "run"
    assert run_cli(*argv, "--output-dir", out) == 0
    path = out / name
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    manifest = read_json(out / "manifest.json")
    manifest["outputs"][name] = file_digest(path)
    (out / "manifest.json").write_text(dumps_json(manifest))
    return out / "manifest.json"


def replay_result(capsys, manifest: Path, tmp_path) -> tuple[int, dict]:
    capsys.readouterr()
    status = run_cli("replay", manifest, "--output-dir", tmp_path / "replayed")
    return status, json.loads(capsys.readouterr().out)


def edit_cell(row: int, column: int, change):
    """An edit of one cell of a written table, row 0 being the header."""

    def edit(text: str) -> str:
        lines = text.split("\n")
        cells = lines[row].split(",")
        cells[column] = change(cells[column])
        lines[row] = ",".join(cells)
        return "\n".join(lines)

    return edit


COMMUTANT_CSV = ["commutant", FIXTURES / "commutant_shared.json", "--csv"]


def test_replay_names_the_row_and_column_of_a_table_cell_outside_tolerance(tmp_path, capsys):
    manifest = edited_run(tmp_path, COMMUTANT_CSV, "basis.csv", edit_cell(2, 1, lambda c: "0.25"))
    status, result = replay_result(capsys, manifest, tmp_path)
    assert status == 2
    first = result["first_divergence"]
    assert first["file"] == "basis.csv" and first["match"] == "divergent"
    assert first["path"] == "rows[2][1]"
    assert first["recorded"] == 0.25


def test_replay_of_a_stochastic_table_within_its_tolerance(tmp_path, capsys):
    nudge = edit_cell(1, 1, lambda c: format(float(c) * (1.0 + 1e-12), ".17g"))
    argv = ["stochastic-test", FIXTURES / "stochastic_swap.json"]
    manifest = edited_run(tmp_path, argv, "anchors.csv", nudge)
    status, result = replay_result(capsys, manifest, tmp_path)
    assert status == 0, result
    assert {e["file"]: e["match"] for e in result["files"]}["anchors.csv"] == "within-tolerance"


def test_replay_reports_an_edited_header_cell(tmp_path, capsys):
    manifest = edited_run(tmp_path, COMMUTANT_CSV, "basis.csv", edit_cell(0, 0, lambda c: "idx"))
    status, result = replay_result(capsys, manifest, tmp_path)
    assert status == 2
    first = result["first_divergence"]
    assert first["match"] == "divergent"
    assert (first["path"], first["recorded"], first["regenerated"]) == ("rows[0][0]", "idx", "index")


def test_replay_reports_an_extra_table_row_as_a_length_problem(tmp_path, capsys):
    def extra_row(text: str) -> str:
        return text + text.splitlines()[-1] + "\n"

    manifest = edited_run(tmp_path, COMMUTANT_CSV, "basis.csv", extra_row)
    status, result = replay_result(capsys, manifest, tmp_path)
    assert status == 2
    first = result["first_divergence"]
    rows = len((tmp_path / "replayed" / "basis.csv").read_text().splitlines())
    assert (first["path"], first["problem"]) == ("rows", f"length {rows + 1} vs {rows}")


@pytest.mark.parametrize("inside, path", [(("summary",), "summary.extra"), ((), "extra")])
def test_replay_reports_an_extra_json_key(tmp_path, capsys, inside, path):
    def extra_key(text: str) -> str:
        doc = json.loads(text)
        target = doc
        for key in inside:
            target = target[key]
        target["extra"] = 1
        return dumps_json(doc) + "\n"

    manifest = edited_run(tmp_path, ["commutant", FIXTURES / "commutant_shared.json"], "report.json", extra_key)
    status, result = replay_result(capsys, manifest, tmp_path)
    assert status == 2
    first = result["first_divergence"]
    assert (first["path"], first["problem"]) == (path, "key missing on one side")


def test_replay_first_divergence_does_not_depend_on_string_hashing(tmp_path):
    def four_keys(text: str) -> str:
        doc = json.loads(text)
        for key in ("dimension", "a_dimension", "p_fiber_dimension", "verdict_dimension"):
            doc["summary"][key] += 1
        return dumps_json(doc) + "\n"

    argv = ["commutant", FIXTURES / "commutant_shared.json"]
    manifest = edited_run(tmp_path, argv, "report.json", four_keys)
    paths = []
    for hash_seed in ("1", "2"):
        env = with_src_path({**os.environ, "PYTHONHASHSEED": hash_seed})
        proc = subprocess.run(
            [sys.executable, "-m", "mechid.cli", "replay", str(manifest)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        paths.append(json.loads(proc.stdout)["first_divergence"]["path"])
    # the recorded document's first diverging key, whatever the hash seed
    assert paths == ["summary.dimension", "summary.dimension"]


def set_mech(row: int, value: str):
    def edit(lines):
        lines[row - 1] = lines[row - 1].rsplit(",", 1)[0] + "," + value
        return lines

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]], "row 3: 5 cells"),
        (lambda lines: [], "expected a header row"),
        (set_mech(2, "7"), "schedule index 7 out of range for 1 mechanisms"),
        (set_mech(2, "-1"), "schedule index -1 out of range for 1 mechanisms"),
    ],
    ids=["short-row", "empty-file", "index-7", "index-minus-1"],
)
def test_malformed_trajectory_csv_exits_1_with_one_error_line(tmp_path, capsys, edit, message):
    assert run_cli("simulate", FIXTURES / "simulate_shear.json", "--output-dir", tmp_path / "sim") == 0
    lines = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
    table = tmp_path / "edited.csv"
    table.write_text("".join(line + "\n" for line in edit(lines)))
    mechanism = read_json(FIXTURES / "simulate_shear.json")["mechanisms"][0]
    cfg = tmp_path / "recover.json"
    cfg.write_text(json.dumps({"mechanisms": [mechanism], "trajectory_csv": str(table)}))
    capsys.readouterr()
    assert run_cli("recover", cfg, "--output-dir", tmp_path / "run") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    if "row" in message or "header" in message:
        assert str(table) in err[0]


def test_non_ascii_text_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    """Outputs are written as UTF-8; configs, tables and trajectories are read back as UTF-8."""
    env = with_src_path({k: v for k, v in os.environ.items() if k != "MECHID_SEED"})
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONIOENCODING="utf-8")

    def cli(*argv) -> subprocess.CompletedProcess:
        argv = [sys.executable, "-m", "mechid.cli", *map(str, argv)]
        return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8")

    def write_utf8(name: str, doc: dict) -> Path:
        (tmp_path / name).write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        return tmp_path / name

    commutant = read_json(FIXTURES / "commutant_shared.json")
    commutant["mechanisms"][0]["label"] = "λ-stretch"
    proc = cli("commutant", write_utf8("commutant.json", commutant), "--output-dir", "run")
    assert proc.returncode == 0, proc.stderr
    proc = cli("replay", "run/manifest.json")
    assert proc.returncode == 0, proc.stderr
    assert [entry["match"] for entry in json.loads(proc.stdout)["files"]] == ["bitwise"]

    # a recorded table whose digest differs is read as UTF-8 to find its first divergence
    verify = read_json(FIXTURES / "verify_planted_claim.json")
    verify["candidates"] = [{**verify["candidates"][0], "label": "λ-member"}]
    assert cli("verify", write_utf8("verify.json", verify), "--output-dir", "audit").returncode == 0
    audit = tmp_path / "audit" / "audit.csv"
    audit.write_bytes(audit.read_bytes().replace("λ-member".encode(), "λ-edited".encode()))
    manifest = read_json(tmp_path / "audit" / "manifest.json")
    manifest["outputs"]["audit.csv"] = file_digest(audit)
    (tmp_path / "audit" / "manifest.json").write_text(dumps_json(manifest))
    proc = cli("replay", "audit/manifest.json")
    assert proc.returncode == 2, proc.stderr
    first = json.loads(proc.stdout)["first_divergence"]
    assert (first["path"], first["recorded"], first["regenerated"]) == ("rows[1][0]", "λ-edited", "λ-member")

    # a malformed trajectory is named by its row, not by a decoding error
    assert cli("simulate", FIXTURES / "simulate_shear.json", "--output-dir", "sim").returncode == 0
    lines = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
    table = tmp_path / "edited.csv"
    table.write_text("".join(line + "\n" for line in set_mech(2, "λ")(lines)), encoding="utf-8")
    mechanism = read_json(FIXTURES / "simulate_shear.json")["mechanisms"][0]
    recover = write_utf8("recover.json", {"mechanisms": [mechanism], "trajectory_csv": str(table)})
    proc = cli("recover", recover, "--output-dir", "recovered")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {table}, row 2: invalid literal for int()"), proc.stderr


def test_stochastic_manifest_records_tolerance(tmp_path):
    out = tmp_path / "run"
    run_cli("stochastic-test", FIXTURES / "stochastic_swap.json", "--output-dir", out)
    manifest = read_json(out / "manifest.json")
    assert manifest["stochastic"] is True
    assert manifest["replay_tolerance"] == 1e-9
    det_dir = tmp_path / "det"
    run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", det_dir)
    det = read_json(det_dir / "manifest.json")
    assert det["stochastic"] is False
    assert det["replay_tolerance"] == 0.0


def test_console_entry_point_runs(tmp_path):
    exe = shutil.which("mechid")
    cmd = [exe] if exe else [sys.executable, "-m", "mechid.cli"]
    out = tmp_path / "run"
    proc = subprocess.run(
        cmd + ["commutant", str(FIXTURES / "commutant_shared.json"), "--output-dir", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout
    assert (out / "report.json").exists()


def test_calls_in_one_process_match_separate_processes(tmp_path, monkeypatch, capsys):
    """main reuses one parser; a usage error must leave it fit for the calls after it."""
    calls = [
        ["commutant", str(FIXTURES / "commutant_shared.json"), "--bogus"],
        ["commutant", str(FIXTURES / "commutant_shared.json"), "--output-dir", "run"],
        ["replay", "run/manifest.json", "--output-dir", "replayed"],
        ["imitate", str(FIXTURES / "imitate_swap_pair.json"), "--output-dir", "imitated", "--budget", "4"],
    ]
    env = with_src_path({k: v for k, v in os.environ.items() if k != "MECHID_SEED"})
    monkeypatch.delenv("MECHID_SEED", raising=False)
    separate, together = tmp_path / "separate", tmp_path / "together"
    separate.mkdir()
    together.mkdir()
    expected = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "mechid.cli", *argv], cwd=separate, env=env, capture_output=True
        )
        expected.append((proc.returncode, proc.stdout, proc.stderr))
    monkeypatch.chdir(together)
    got = []
    for argv in calls:
        try:
            status = main(argv)
        except SystemExit as e:
            status = e.code
        captured = capsys.readouterr()
        got.append((status, captured.out.encode(), captured.err.encode()))
    assert [status for status, _, _ in got] == [1, 0, 0, 0]
    assert got == expected
    for name in ("run", "replayed", "imitated"):
        assert masked_outputs(together / name) == masked_outputs(separate / name)


# Loading scipy.stats costs about 1 s and scipy.optimize about 0.5 s, and
# scipy's own __init__ about 4 MiB; no kind needs any scipy module to run a
# shipped fixture or to compare a recovered encoder up to a signed
# permutation, and a run on one thread builds no thread pool.
IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
import mechid, mechid.cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("concurrent.futures"))
at_import = loaded()
statuses = {}
for path, kind in json.loads(sys.argv[1]).items():
    name = Path(path).stem
    with contextlib.redirect_stdout(io.StringIO()):
        statuses[name] = mechid.cli.main([kind, path, "--output-dir", name, "--threads", "1"])
after_runs = loaded()
print(json.dumps({"at_import": at_import, "statuses": statuses, "after_runs": after_runs}))
"""


def test_import_and_every_fixture_leave_heavy_scipy_unloaded(tmp_path):
    env = with_src_path(dict(os.environ))
    kinds = dict(RUNNABLE, malformed_missing_matrix="commutant")
    assert sorted(kinds) == sorted(p.stem for p in FIXTURES.glob("*.json"))
    configs = {str(FIXTURES / f"{name}.json"): kind for name, kind in kinds.items()}
    # no shipped fixture compares up to a signed permutation
    doc = load_json(FIXTURES / "recover_inverse.json")
    for klass in ("signed-permutation", "signed-permutation+offset"):
        doc["comparison"]["class"] = klass
        path = tmp_path / f"recover_{klass.replace('+', '_')}.json"
        path.write_text(dumps_json(doc))
        configs[str(path)] = "recover"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT, json.dumps(configs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    statuses = {Path(path).stem: 0 for path in configs}
    statuses.update(malformed_missing_matrix=1, verify_planted_claim=2)
    assert json.loads(proc.stdout) == {"at_import": [], "statuses": statuses, "after_runs": []}


def test_signed_permutation_comparison_loads_no_scipy():
    env = with_src_path(dict(os.environ))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import mechid\n"
        "E = np.arange(12.0).reshape(3, 4)\n"
        "res = mechid.compare_up_to_class(-E[[2, 0, 1]], E, 'signed-permutation')\n"
        "assert res.permutation == (2, 0, 1) and res.signs == (-1, -1, -1), res\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The energy test takes its distances from the compiled kernel that
# cdist calls, loaded without scipy.spatial (about 0.27 s and 30 MiB).
ENERGY_RUN_SCRIPT = """
import contextlib, io, json, sys
import mechid.cli
config = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    ran = mechid.cli.main(["stochastic-test", config, "--output-dir", "run", "--threads", "1"])
replay = io.StringIO()
with contextlib.redirect_stdout(replay):
    replayed = mechid.cli.main(["replay", "run/manifest.json", "--output-dir", "replayed"])
files = json.loads(replay.getvalue())["files"]
print(json.dumps({"statuses": [ran, replayed], "files": files, "spatial": "scipy.spatial" in sys.modules}))
"""


def test_energy_stochastic_test_runs_and_replays_without_scipy_spatial(tmp_path):
    doc = load_json(FIXTURES / "stochastic_swap.json")
    doc["test"]["method"] = "energy"
    config = tmp_path / "stochastic_energy.json"
    config.write_text(dumps_json(doc))
    proc = subprocess.run(
        [sys.executable, "-c", ENERGY_RUN_SCRIPT, str(config)],
        cwd=tmp_path, env=with_src_path(dict(os.environ)), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["statuses"] == [0, 0]
    assert [entry["file"] for entry in result["files"]] == ["report.json", "anchors.csv"]
    assert {entry["match"] for entry in result["files"]} <= {"bitwise", "within-tolerance"}
    assert result["spatial"] is False
    assert load_json(tmp_path / "run" / "report.json")["summary"]["method"] == "energy"


# ---------------------------------------------------------------------------
# report shapes at the seams


def write_doc(tmp_path, doc) -> Path:
    path = tmp_path / "config.json"
    path.write_text(dumps_json(doc))
    return path


def read_csv_rows(path: Path) -> list:
    return path.read_text().splitlines()[1:]


# the shared family of a diagonal stretch and a rotation is trivial
TRIVIAL_DOC = {
    "experiment": "commutant",
    "mechanisms": [
        {"M": [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]], "b": [1.0, 1.0, 1.0]},
        {"M": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.5]], "b": [0.5, 0.0, 1.0]},
    ],
}
# a 2x2 Jordan block: family dimension 3 (two commutant, one offset direction)
JORDAN_DOC = {"experiment": "commutant", "mechanisms": [{"M": [[1.0, 1.0], [0.0, 1.0]]}]}


def test_commutant_trivial_family_reports_empty_basis(tmp_path):
    out = tmp_path / "run"
    assert run_cli("commutant", write_doc(tmp_path, TRIVIAL_DOC), "--output-dir", out, "--csv") == 0
    report = read_json(out / "report.json")
    assert report["summary"]["dimension"] == 0
    assert report["detail"]["family"]["family"]["basis_A"] == []
    assert read_csv_rows(out / "basis.csv") == []


def test_commutant_jordan_block_reports_every_basis_element(tmp_path):
    out = tmp_path / "run"
    assert run_cli("commutant", write_doc(tmp_path, JORDAN_DOC), "--output-dir", out, "--csv") == 0
    report = read_json(out / "report.json")
    assert report["summary"]["dimension"] == 3
    assert len(report["detail"]["family"]["family"]["basis_A"]) == 3
    assert len(read_csv_rows(out / "basis.csv")) == 3


def test_commutant_one_by_one_mechanism_reports_null_eigenvalue_gap(tmp_path):
    # one eigenvalue has no pairwise gap; the report must still serialize
    doc = {"experiment": "commutant", "mechanisms": [{"M": [[2.0]], "b": [1.0]}]}
    out = tmp_path / "run"
    assert run_cli("commutant", write_doc(tmp_path, doc), "--output-dir", out) == 0
    conditions = read_json(out / "report.json")["detail"]["conditions"]
    assert conditions["min_eigenvalue_gap"] is None
    assert conditions["distinct_eigenvalues"] is True


DIAG23_B11_DOC = {
    "experiment": "commutant",
    "mechanisms": [{"M": [[2.0, 0.0], [0.0, 3.0]], "b": [1.0, 1.0]}],
}


def test_commutant_rtol_reaches_the_split_into_a_and_offset_directions(tmp_path):
    # at rtol 1e-6 the eigenvalue 1 + 1e-7 is 1, so one family direction moves
    # mostly the offset; a_dimension used to be cut at 1e-9 whatever the rtol
    doc = {"experiment": "commutant", "mechanisms": [{"M": [[1.0 + 1e-7, 0.0], [0.0, 2.0]], "b": [1.0, 1.0]}]}
    out = tmp_path / "run"
    assert run_cli("commutant", write_doc(tmp_path, doc), "--output-dir", out, "--rtol", 1e-6) == 0
    report = read_json(out / "report.json")
    summary = report["summary"]
    assert (summary["dimension"], summary["a_dimension"], summary["p_fiber_dimension"]) == (2, 1, 1)
    assert (summary["verdict"], summary["verdict_dimension"]) == ("other", 2)
    assert len(report["detail"]["family"]["family"]["basis_A"]) == 2


@pytest.mark.parametrize("rtol", [-1.0, 0.0, 1.0, 2.5])
def test_rtol_outside_unit_interval_exits_1_naming_rtol(tmp_path, capsys, rtol):
    # rtol = -1 used to turn this linear-family (dimension 2) into exact, exit 0
    path = write_doc(tmp_path, {**DIAG23_B11_DOC, "rtol": rtol})
    assert run_cli("commutant", path, "--output-dir", tmp_path / "a") == 1
    assert "rtol" in capsys.readouterr().err
    flagged = write_doc(tmp_path, DIAG23_B11_DOC)
    assert run_cli("commutant", flagged, "--output-dir", tmp_path / "b", "--rtol", rtol) == 1
    assert "rtol" in capsys.readouterr().err


def test_failed_bound_is_reported_as_written(tmp_path):
    doc = {**DIAG23_B11_DOC, "expect": {"dimension": {"max": 1}}}
    assert run_cli("commutant", write_doc(tmp_path, doc), "--output-dir", tmp_path / "run") == 2
    failures = read_json(tmp_path / "run" / "report.json")["expect_failures"]
    assert failures == [{"key": "dimension", "expected": {"max": 1}, "actual": 2}]


@pytest.mark.parametrize("want", [-2.5, {"min": 0.0}])
def test_expectation_of_another_type_fails_the_verdict(tmp_path, want):
    # a number against the string summary field used to end in an error, not a verdict
    doc = {**DIAG23_B11_DOC, "expect": {"condition_verdict": want}}
    assert run_cli("commutant", write_doc(tmp_path, doc), "--output-dir", tmp_path / "run") == 2


@pytest.mark.parametrize(
    "name", ["commutant_shared.json", "imitate_swap_pair.json", "recover_inverse.json"]
)
def test_parse_config_rejects_rtol_outside_unit_interval(name):
    doc = {**load_json(FIXTURES / name), "rtol": -1e-9}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.field == "rtol"


def test_imitate_reports_family_dimension_not_matrix_size(tmp_path):
    M = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
    doc = {"experiment": "imitate", "used": [{"M": M}]}
    out = tmp_path / "run"
    assert run_cli("imitate", write_doc(tmp_path, doc), "--output-dir", out) == 0
    assignments = read_json(out / "report.json")["detail"]["closure"]["assignments"]
    m = AffineMechanism(np.array(M), np.zeros(3))
    assert assignments
    assert all(len(a["family"]["basis_A"]) == 5 for a in assignments)
    assert find_affine_intertwiners(m, m).dimension == 5


def test_imitate_without_hypothesized_lists_each_used_mechanism_once():
    stretch = {"M": [[2.0, 0.0], [0.0, 3.0]]}
    mirrored = {"M": [[3.0, 0.0], [0.0, 2.0]]}
    report = run_experiment(
        parse_config({"experiment": "imitate", "used": [stretch, mirrored]}), seed=0
    ).report
    assert [m.label for m in report["class"].members] == ["m1", "m2"]
    assert report["closure"].candidates_total == 4
    assert [list(a.assignment) for a in report["closure"].assignments] == [[0, 1], [1, 0]]

    M = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
    report = run_experiment(parse_config({"experiment": "imitate", "used": [{"M": M}]}), seed=0).report
    assert [m.label for m in report["class"].members] == ["m1"]
    assert report["closure"].candidates_total == 1
    assert [len(a.family.basis_A) for a in report["closure"].assignments] == [5]


def test_imitate_report_marks_unmatched_mechanism_residual_null(tmp_path):
    out = tmp_path / "run"
    assert run_cli("imitate", FIXTURES / "imitate_swap_pair.json", "--output-dir", out) == 0
    detail = read_json(out / "report.json")["detail"]
    pairs = zip(detail["closure"]["assignments"], detail["cycles"])
    mirrored = [cycle for a, cycle in pairs if a["assignment"] == [1]]
    assert len(mirrored) == 1
    assert mirrored[0]["match_residuals"] == [None]
    assert mirrored[0]["unmatched"] == [0]


EIGENVALUES = (-1.0, 0.5, 2.0, 3.0)


@st.composite
def commutant_docs(draw):
    """Commutant configs with tied spectra, Jordan blocks and trivial families.

    Mechanisms either share one eigenbasis (large shared families) or each
    get their own (often trivial shared families).
    """
    d = draw(st.integers(min_value=1, max_value=4))
    gen = stream(draw(st.integers(min_value=0, max_value=2**31 - 1)), 41)
    shared_basis = draw(st.booleans())
    S0 = random_invertible(gen, d, cond_cap=10.0)
    mechanisms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["tied", "jordan", "generic", "scalar"]))
        eigs = np.array([draw(st.sampled_from(EIGENVALUES)) for _ in range(d)])
        if kind == "jordan":
            eigs = np.sort(eigs)
            J = np.diag(eigs) + np.diag((np.diff(eigs) == 0).astype(float), 1)
        elif kind == "generic":
            J = np.diag(gen.uniform(0.4, 2.5, d))
        elif kind == "scalar":
            J = eigs[0] * np.eye(d)
        else:
            J = np.diag(eigs)
        S = S0 if shared_basis else random_invertible(gen, d, cond_cap=10.0)
        offset = draw(st.sampled_from(["zero", "generic", "partial"]))
        v = np.zeros(d) if offset == "zero" else gen.uniform(0.3, 1.0, d)
        if offset == "partial":
            v[0] = 0.0
        M = S @ J @ np.linalg.inv(S)
        mechanisms.append({"M": M.tolist(), "b": (S @ v).tolist()})
    return {"experiment": "commutant", "mechanisms": mechanisms}


@settings(max_examples=80, deadline=None)
@given(commutant_docs())
@example(TRIVIAL_DOC)
@example(JORDAN_DOC)
def test_commutant_basis_matches_dimension_and_constraints(doc):
    cfg = parse_config({**doc, "csv_tables": True})
    outcome = run_experiment(cfg, seed=0)
    family = outcome.report["family"].family
    assert len(family.basis_A) == outcome.summary["dimension"]
    assert len(outcome.tables["basis.csv"]["rows"]) == len(family.basis_A)
    for A, p in zip(family.basis_A, family.basis_p):
        for m in cfg.mechanisms:
            assert np.abs(A @ m.M - m.M @ A).max() <= 1e-8
            assert np.abs(A @ m.b - (m.M - np.eye(m.dim)) @ p).max() <= 1e-8


# ---------------------------------------------------------------------------
# malformed documents: every one is a ConfigError naming its field

RUNNABLE = {
    "commutant_shared": "commutant",
    "imitate_swap_pair": "imitate",
    "recover_inverse": "recover",
    "simulate_shear": "simulate",
    "stochastic_swap": "stochastic-test",
    "verify_planted_claim": "verify",
}
DROP = object()


def mutated(name: str, path: tuple, value):
    """The fixture `name` with the value at `path` replaced, added, or dropped (DROP)."""
    doc = load_json(FIXTURES / f"{name}.json")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def write_raw(directory: Path, doc) -> Path:
    """Write `doc` as Python's JSON writer does, NaN and Infinity included."""
    path = directory / "config.json"
    path.write_text(json.dumps(doc))
    return path


# (the library call whose result each runner reports, the report key holding it)
PRODUCERS = {
    "commutant_shared": ("shared_equivariances", "family"),
    "imitate_swap_pair": ("imitator_closure", "closure"),
    "recover_inverse": ("recover_linear_encoder", "recovery"),
    "stochastic_swap": ("stochastic_equivariance_test", "test"),
    "verify_planted_claim": ("membership_equivalence_audit", "audit"),
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_report_holds_library_result_objects(name):
    # result objects go into reports as they are; no runner copies their fields
    cfg = parse_config(load_json(FIXTURES / f"{name}.json"))
    for key, value in run_experiment(cfg, cfg.seed).report.items():
        for item in value if isinstance(value, list) else [value]:
            assert item is None or (
                is_dataclass(item) and type(item).__module__.startswith("mechid.")
            ), key


@pytest.mark.parametrize("name", PRODUCERS)
def test_field_added_to_a_result_type_reaches_the_report(monkeypatch, name):
    call, key = PRODUCERS[name]
    original = getattr(experiments, call)

    def widened(*args, **kwargs):
        result = original(*args, **kwargs)
        extra = [("margin", float, dataclass_field(default=0.125))]
        cls = make_dataclass(type(result).__name__, extra, bases=(type(result),), frozen=True)
        return cls(**{f.name: getattr(result, f.name) for f in fields(result)})

    monkeypatch.setattr(experiments, call, widened)
    cfg = parse_config(load_json(FIXTURES / f"{name}.json"))
    detail = json.loads(dumps_json(run_experiment(cfg, cfg.seed).report))
    assert detail[key]["margin"] == 0.125


# (fixture, path of the changed value, new value, field the error must name)
PROBES = [
    ("commutant_shared", ("rtoll",), 1e-3, "rtoll"),
    ("commutant_shared", ("mechanisms", 0, "bb"), [1.0, 1.0], "mechanisms[0].bb"),
    ("commutant_shared", ("mechanisms", 0, "M", 0, 0), math.nan, "mechanisms[0].M"),
    ("commutant_shared", ("mechanisms", 0, "b", 1), math.inf, "mechanisms[0].b"),
    ("stochastic_swap", ("test", "significance"), 2, "test.significance"),
    ("stochastic_swap", ("test", "permutations"), 0, "test.permutations"),
    ("stochastic_swap", ("test", "anchor_count"), 0, "test.anchor_count"),
    ("verify_planted_claim", ("tol_equivariance",), -1, "tol_equivariance"),
    ("imitate_swap_pair", ("check_tol",), -1, "check_tol"),
    ("imitate_swap_pair", ("budget",), -1, "budget"),
    ("stochastic_swap", ("seed",), -1, "seed"),
    ("verify_planted_claim", ("decoder", "maps"), 5, "decoder.maps"),
    ("commutant_shared", ("mechanisms", 0, "label"), 7, "mechanisms[0].label"),
    ("verify_planted_claim", ("csv_tables",), True, "csv_tables"),
    ("stochastic_swap", ("test", "samples_per_anchor"), 50, "test.samples_per_anchor"),
    ("verify_planted_claim", ("decoder", "maps"), ["identity", "cosh", "identity"], "decoder.maps[1].kind"),
    # an empty box and one whose width overflows name `high`, as relational checks name a field
    ("verify_planted_claim", ("grid",), {"low": 2, "high": -2}, "grid.high"),
    ("verify_planted_claim", ("grid",), {"low": -1e308, "high": 1e308}, "grid.high"),
    ("imitate_swap_pair", ("grid", "high"), -2.0, "grid.high"),
]


@pytest.mark.parametrize("name, path, value, field", PROBES)
def test_malformed_document_exits_1_naming_its_field(tmp_path, capsys, name, path, value, field):
    config = write_raw(tmp_path, mutated(name, path, value))
    assert run_cli(RUNNABLE[name], config, "--output-dir", tmp_path / "run") == 1
    assert f"config field '{field}'" in capsys.readouterr().err


# (fixture, path of a count, name of its cap in mechid.config)
CAPS = [
    ("simulate_shear", ("steps",), "MAX_STEPS"),
    ("recover_inverse", ("simulate", "steps"), "MAX_STEPS"),
    ("verify_planted_claim", ("grid", "count"), "MAX_GRID_COUNT"),
    ("imitate_swap_pair", ("grid", "count"), "MAX_GRID_COUNT"),
    ("stochastic_swap", ("test", "samples_per_anchor"), "MAX_SAMPLES_PER_ANCHOR"),
    ("stochastic_swap", ("test", "anchor_count"), "MAX_ANCHOR_COUNT"),
    ("stochastic_swap", ("test", "permutations"), "MAX_PERMUTATIONS"),
]


@pytest.mark.parametrize("name, path, cap", CAPS)
def test_count_above_its_cap_exits_1_naming_it(tmp_path, capsys, name, path, cap):
    cap = getattr(config, cap)
    parse_config(mutated(name, path, cap))
    document = write_raw(tmp_path, mutated(name, path, cap + 1))
    assert run_cli(RUNNABLE[name], document, "--output-dir", tmp_path / "run") == 1
    assert f"config field '{'.'.join(path)}'" in capsys.readouterr().err


def _run_under_1_gib(tmp_path, doc):
    """`mechid recover` on `doc` in a child whose address space is capped at 1 GiB.

    The limit keeps a regression from taking the host.
    """
    document = write_raw(tmp_path, doc)
    env = with_src_path(dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    limit = 1 << 30
    return subprocess.run(
        [sys.executable, "-m", "mechid.cli", "recover", str(document), "--output-dir", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=120, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_huge_step_count_exits_1_before_building_its_schedule(tmp_path):
    # a "cycle" schedule of 10^9 steps used to be expanded while parsing, ending
    # in MemoryError
    proc = _run_under_1_gib(tmp_path, mutated("recover_inverse", ("simulate", "steps"), 10**9))
    assert proc.returncode == 1, proc.stderr
    assert "config field 'simulate.steps'" in proc.stderr
    assert not (tmp_path / "run").exists()


def wide_recovery(steps: int) -> dict:
    """A 12 x 6 decoder and 7 offsets: (steps - 1) d d n grows by 432 a step."""
    G = np.vstack([np.eye(6), np.arange(36).reshape(6, 6) % 5 / 4.0 + 0.1])
    M = np.diag(np.linspace(0.3, 0.8, 6))
    offsets = np.vstack([np.zeros(6), np.eye(6)])
    return {
        "experiment": "recover",
        "mechanisms": [{"M": M.tolist(), "b": b.tolist()} for b in offsets],
        "schedule": "cycle",
        "simulate": {"decoder": {"G": G.tolist()}, "steps": steps},
    }


def test_recovery_too_large_for_memory_exits_1_naming_steps(tmp_path):
    # at 10^6 steps its recovery needs gigabytes; it used to start and die in MemoryError
    largest = 1 + config.MAX_RECOVERY_SIZE // (6 * 6 * 12)
    parse_config(wide_recovery(largest))
    with pytest.raises(ConfigError) as exc:
        parse_config(wide_recovery(largest + 1))
    assert exc.value.field == "simulate.steps"
    proc = _run_under_1_gib(tmp_path, wide_recovery(10**6))
    assert proc.returncode == 1, proc.stderr
    assert "config field 'simulate.steps'" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_readme_names_every_config_field():
    text = (FIXTURES.parent / "README.md").read_text()
    tables = [
        t for t in vars(config).values() if isinstance(t, tuple) and t and isinstance(t[0], Field)
    ]
    names = {f.name for table in tables for f in table}
    assert {"M", "samples_per_anchor", "csv_tables", "z1"} <= names
    assert not {n for n in names if not re.search(rf'[`"]{re.escape(n)}[`"]', text)}


def test_config_defaults_are_the_library_defaults():
    # each default is stated once, by the library type, and an empty document reads it
    def read(table, **required):
        return _read(table, required, "", {})

    assert GridSpec(dim=2, **read(config.GRID)) == GridSpec(dim=2)
    assert DistributionalTestSpec(dim=2, **read(config.TEST)) == DistributionalTestSpec(dim=2)
    assert NoiseSpec(dim=2, **read(config.NOISE, family="gaussian")) == NoiseSpec("gaussian", dim=2)
    assert ScalarMap(**read(config.SCALAR_MAP, kind="cubic")) == ScalarMap("cubic")
    tol = read(config.DECODER, G=[[1.0]])["manifold_tol"]
    assert tol == LinearDecoder(np.eye(1)).manifold_tol
    assert tol == StructuredDecoder(np.eye(1), (ScalarMap("exp"),)).manifold_tol
    doc = load_json(FIXTURES / "verify_planted_claim.json")
    assert "tol_equivariance" not in doc
    cfg = parse_config(doc)
    audit = membership_equivalence_audit(cfg.decoder, cfg.mechanisms, cfg.candidates[:1])
    assert cfg.tol_equivariance == audit.tol_equivariance


def test_stochastic_config_holds_the_test_spec():
    cfg = parse_config(load_json(FIXTURES / "stochastic_swap.json"))
    assert (cfg.test.dim, cfg.test.samples_per_anchor, cfg.test.anchor_count) == (2, 400, 3)
    assert (cfg.test.method, cfg.test.permutations, cfg.test.seed) == ("ks", 500, 0)


@pytest.mark.parametrize(
    "m1",
    [
        None,  # the fixture's identity walk
        {"noise": {"family": "gaussian", "scale": 0.5}, "M": [[0.5, 1.0], [0.0, 2.0]], "b": [0.1, -3.0], "label": "w"},
    ],
)
def test_config_walks_are_the_library_walk(m1):
    doc = load_json(FIXTURES / "stochastic_swap.json")
    raw = doc["m1"] if m1 is None else m1
    doc["m1"] = raw
    walk = parse_config(doc).m1
    noise = NoiseSpec(dim=2, **raw["noise"])
    M, b = (np.asarray(raw[k], dtype=float) if k in raw else None for k in ("M", "b"))
    same = additive_noise_mechanism(noise, M, b, raw.get("label"))
    assert (walk.dim, walk.label) == (same.dim, same.label)
    gen = stream(53, 0)
    U = gen.random((32, 2))
    for z in (np.zeros(2), gen.standard_normal(2), 1e-300 * gen.standard_normal(2)):
        assert walk.sample_next(z, U).tobytes() == same.sample_next(z, U).tobytes()


@pytest.mark.parametrize("key, value", [("M", np.eye(3).tolist()), ("b", [1.0, 2.0, 3.0])])
def test_config_walk_of_another_dimension_names_m1(key, value):
    doc = load_json(FIXTURES / "stochastic_swap.json")
    doc["m1"][key] = value
    shapes = "(3, 3)/(2,)" if key == "M" else "(2, 2)/(3,)"
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == f"config field 'm1': M/b shapes {shapes} do not match dimension 2"


def _paths(value, prefix=()):
    """(path, is a key of an object) for every value inside a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,), isinstance(value, dict)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


NASTY = [math.nan, math.inf, -math.inf, "text", -1, [], {}]


@st.composite
def mutants(draw):
    """A runnable fixture with one key dropped, one unknown key added, or one value replaced."""
    name = draw(st.sampled_from(sorted(RUNNABLE)))
    paths = list(_paths(load_json(FIXTURES / f"{name}.json")))
    op = draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "drop":
        return name, draw(st.sampled_from([p for p, keyed in paths if keyed])), DROP
    if op == "add":
        objects = [()] + [p for p, _ in paths if isinstance(_lookup(name, p), dict)]
        return name, draw(st.sampled_from(objects)) + ("unknown",), draw(st.sampled_from(NASTY))
    return name, draw(st.sampled_from([p for p, _ in paths])), draw(st.sampled_from(NASTY))


def _lookup(name: str, path: tuple):
    value = load_json(FIXTURES / f"{name}.json")
    for key in path:
        value = value[key]
    return value


def _with_probes(test):
    for name, path, value, _ in PROBES:
        test = example((name, path, value))(test)
    return test


@settings(max_examples=40, deadline=2000)
@given(mutants())
@_with_probes
def test_no_cli_input_ends_in_a_traceback(mutant):
    name, path, value = mutant
    with tempfile.TemporaryDirectory() as td:
        config = write_raw(Path(td), mutated(name, path, value))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            argv = [RUNNABLE[name], str(config), "--output-dir", f"{td}/run", "--threads", "1"]
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert re.search(r"config field '[^']+'", err.getvalue()), err.getvalue()


# ---------------------------------------------------------------------------
# usage errors and versions


@pytest.mark.parametrize(
    "argv",
    [
        ["commutant", FIXTURES / "commutant_shared.json", "--bogus"],
        ["verify", FIXTURES / "verify_planted_claim.json", "--rtol", "0.5"],
    ],
)
def test_usage_errors_exit_1_with_the_usage_on_stderr(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--output-dir", tmp_path)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mechid")
    assert "unrecognized arguments" in err


def test_replay_of_a_0_4_0_manifest_names_both_versions(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("simulate", FIXTURES / "simulate_shear.json", "--output-dir", out)
    manifest = read_json(out / "manifest.json")
    manifest["version"] = "0.4.0"
    (out / "manifest.json").write_text(dumps_json(manifest))
    capsys.readouterr()
    assert run_cli("replay", out / "manifest.json", "--output-dir", tmp_path / "r") == 1
    err = capsys.readouterr().err
    assert "0.4.0" in err and __version__ in err
