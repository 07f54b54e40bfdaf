"""Config parsing, canonical serialization, CLI contract, and replay."""

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechid import AffineMechanism, __version__, find_affine_intertwiners
from mechid.cli import main
from mechid.config import parse_config
from mechid.errors import ConfigError
from mechid.experiments import run_experiment
from mechid.jsonio import canonical_digest, dumps_json, load_json
from mechid.rng import stream

from conftest import random_invertible

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path: Path):
    return json.loads(path.read_text())


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
    rows = {r["candidate_id"]: r for r in report["detail"]["rows"]}
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
    out = tmp_path / "run"
    run_cli("commutant", FIXTURES / "commutant_shared.json", "--output-dir", out, "--csv")
    manifest = read_json(out / "manifest.json")
    assert "basis.csv" in manifest["outputs"]
    from mechid.jsonio import file_digest

    for name, digest in manifest["outputs"].items():
        assert file_digest(out / name) == digest, name


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("stochastic-test", FIXTURES / "stochastic_swap.json", "--output-dir", out,
                "--seed", 3)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert read_json(a / "manifest.json")["outputs"] == read_json(b / "manifest.json")["outputs"]


def test_thread_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t4"
    for out, threads in ((a, "1"), (b, "4")):
        run_cli("verify", FIXTURES / "verify_planted_claim.json", "--output-dir", out,
                "--seed", 5, "--threads", threads)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


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
    assert report["detail"]["family"]["basis"] == []
    assert read_csv_rows(out / "basis.csv") == []


def test_commutant_jordan_block_reports_every_basis_element(tmp_path):
    out = tmp_path / "run"
    assert run_cli("commutant", write_doc(tmp_path, JORDAN_DOC), "--output-dir", out, "--csv") == 0
    report = read_json(out / "report.json")
    assert report["summary"]["dimension"] == 3
    assert len(report["detail"]["family"]["basis"]) == 3
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


@pytest.mark.parametrize("rtol", [-1.0, 0.0, 1.0, 2.5])
def test_rtol_outside_unit_interval_exits_1_naming_rtol(tmp_path, capsys, rtol):
    # rtol = -1 used to turn this linear-family (dimension 2) into exact, exit 0
    path = write_doc(tmp_path, {**DIAG23_B11_DOC, "rtol": rtol})
    assert run_cli("commutant", path, "--output-dir", tmp_path / "a") == 1
    assert "rtol" in capsys.readouterr().err
    flagged = write_doc(tmp_path, DIAG23_B11_DOC)
    assert run_cli("commutant", flagged, "--output-dir", tmp_path / "b", "--rtol", rtol) == 1
    assert "rtol" in capsys.readouterr().err


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
    assignments = read_json(out / "report.json")["detail"]["assignments"]
    m = AffineMechanism(np.array(M), np.zeros(3))
    assert assignments
    assert all(a["family_dimension"] == 5 for a in assignments)
    assert find_affine_intertwiners(m, m).dimension == 5


def test_imitate_without_hypothesized_lists_each_used_mechanism_once():
    stretch = {"M": [[2.0, 0.0], [0.0, 3.0]]}
    mirrored = {"M": [[3.0, 0.0], [0.0, 2.0]]}
    report = run_experiment(
        parse_config({"experiment": "imitate", "used": [stretch, mirrored]}), seed=0
    ).report
    assert report["members"] == ["m1", "m2"]
    assert report["candidates_total"] == 4
    assert [a["assignment"] for a in report["assignments"]] == [[0, 1], [1, 0]]

    M = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
    report = run_experiment(parse_config({"experiment": "imitate", "used": [{"M": M}]}), seed=0).report
    assert report["members"] == ["m1"]
    assert report["candidates_total"] == 1
    assert [a["family_dimension"] for a in report["assignments"]] == [5]


def test_imitate_report_marks_unmatched_mechanism_residual_null(tmp_path):
    out = tmp_path / "run"
    assert run_cli("imitate", FIXTURES / "imitate_swap_pair.json", "--output-dir", out) == 0
    assignments = read_json(out / "report.json")["detail"]["assignments"]
    mirrored = [a for a in assignments if a["assignment"] == [1]]
    assert len(mirrored) == 1
    assert mirrored[0]["cycle"]["match_residuals"] == [None]
    assert mirrored[0]["cycle"]["unmatched"] == [0]


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
    cfg = parse_config(doc)
    outcome = run_experiment(cfg, seed=0, csv_tables=True)
    basis = outcome.report["family"]["basis"]
    assert len(basis) == outcome.summary["dimension"]
    assert len(outcome.tables["basis.csv"]["rows"]) == len(basis)
    for element in basis:
        A, p = element["A"], element["p"]
        for m in cfg.mechanisms:
            assert np.abs(A @ m.M - m.M @ A).max() <= 1e-8
            assert np.abs(A @ m.b - (m.M - np.eye(m.dim)) @ p).max() <= 1e-8
