"""Command line driver: config ingestion, dispatch, manifests, replay.

Every run writes a report.json, any tables, and a manifest.json recording
the effective config (flag and environment overrides already applied), its
canonical digest, and a sha256 per output file, taken from the bytes as
they are written. Replay first checks each recorded file that is present
against its manifest digest: one that disagrees (cut short, left with a
stale tail, edited) is divergent. It then re-executes the manifest's config
and compares the regenerated digests with the recorded ones; only where they
differ does it read both files, for a numeric comparison within the recorded
tolerance (stochastic runs) or to locate the first divergence.

Exit status: 0 success, 2 verdict-failure, 1 error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from . import __version__
from .config import EXPERIMENT_KINDS, parse_config
from .errors import ConfigError, MechidError, ReplayIncompatibilityError
from .experiments import run_experiment
from .jsonio import (
    _dict,
    _join,
    _non_negative,
    _number,
    _str,
    canonical_digest,
    dump_json,
    dumps_json,
    file_digest,
    load_json,
    table_text,
    write_text,
)
from .recovery import COMPARISON_CLASSES

__all__ = ["main", "build_parser"]

# Stochastic runs are still bit-reproducible (counter-based streams), but
# replay tolerates this much relative drift before declaring divergence.
STOCHASTIC_REPLAY_RTOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any other malformed input; 2 means a failed verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="mechid",
        description="Simulate latent dynamics, compute equivariance and imitator "
        "sets, verify observation identities, recover encoders, and test "
        "equivariance in distribution.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment from a JSON config")
        sp.add_argument("config", type=Path, help="JSON experiment config")
        sp.add_argument("--output-dir", type=Path, default=Path("."))
        sp.add_argument("--seed", type=int, default=None, help="overrides MECHID_SEED and config")
        sp.add_argument("--threads", type=int, default=None)
        if kind in ("commutant", "imitate", "recover"):
            sp.add_argument("--rtol", type=float, default=None)
        if kind == "imitate":
            sp.add_argument("--budget", type=int, default=None)
        if kind == "recover":
            sp.add_argument("--class", dest="comparison_class", choices=COMPARISON_CLASSES)
        if kind == "commutant":
            sp.add_argument("--csv", action="store_true", help="also write basis.csv (row-major)")
    rp = sub.add_parser("replay", help="re-run a manifest and compare outputs")
    rp.add_argument("manifest", type=Path)
    rp.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="keep regenerated outputs here (default: temporary directory)",
    )
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses; parsing leaves it unchanged, so one serves a whole process."""
    return build_parser()


def _effective_seed(doc: dict, flag_seed: int | None) -> None:
    if flag_seed is not None:
        doc["seed"] = flag_seed
        return
    env = os.environ.get("MECHID_SEED")
    if env is not None:
        try:
            doc["seed"] = int(env)
        except ValueError:
            raise ConfigError("seed", f"MECHID_SEED must be an integer, got '{env}'") from None


def _pool_size(threads) -> int:
    """Worker threads for a run or replay: an integer >= 1, clamped to the cores."""
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError("threads", f"must be a positive integer, got {threads!r}")
    return min(threads, os.cpu_count() or 1)


def _execute_config(doc: dict, output_dir: Path, threads: int):
    """Run one effective config document and write all outputs.

    Returns (exit_status, manifest dict). The manifest itself is written
    last and never appears in its own outputs map.
    """
    t0 = time.perf_counter()
    cfg = parse_config(doc)
    outcome = run_experiment(cfg, cfg.seed, threads=threads)
    output_dir.mkdir(parents=True, exist_ok=True)
    report_doc = {
        "experiment": outcome.kind,
        "verdict": outcome.verdict,
        "summary": outcome.summary,
        "expect_failures": list(outcome.expect_failures),
        "detail": outcome.report,
    }
    outputs = {"report.json": dump_json(report_doc, output_dir / "report.json")}
    for name in sorted(outcome.tables):
        tbl = outcome.tables[name]
        outputs[name] = write_text(output_dir / name, table_text(tbl["header"], tbl["rows"]))
    if outcome.trajectory is not None:
        outputs["trajectory.csv"] = outcome.trajectory.to_csv(output_dir / "trajectory.csv")
    exit_status = 0 if outcome.verdict else 2
    manifest = {
        "experiment": outcome.kind,
        "version": __version__,
        "seed": cfg.seed,
        "threads": threads,
        "config": doc,
        "config_digest": canonical_digest(doc),
        "duration_seconds": time.perf_counter() - t0,
        "outputs": outputs,
        "outcome": {
            "verdict": outcome.verdict,
            "summary": outcome.summary,
            "expect_failures": list(outcome.expect_failures),
        },
        "exit_status": exit_status,
        "stochastic": outcome.stochastic,
        "replay_tolerance": STOCHASTIC_REPLAY_RTOL if outcome.stochastic else 0.0,
    }
    dump_json(manifest, output_dir / "manifest.json")
    return exit_status, manifest


def _run_command(args) -> int:
    doc = load_json(args.config)
    if not isinstance(doc, dict):
        raise ConfigError("", "config document must be a JSON object")
    kind = args.command
    if "experiment" in doc and doc["experiment"] != kind:
        raise ConfigError(
            "experiment", f"document says '{doc['experiment']}', subcommand is '{kind}'"
        )
    doc["experiment"] = kind
    if getattr(args, "rtol", None) is not None:
        doc["rtol"] = args.rtol
    if getattr(args, "budget", None) is not None:
        doc["budget"] = args.budget
    if getattr(args, "comparison_class", None) is not None:
        comp = doc.get("comparison")
        comp = {} if comp is None else comp
        if isinstance(comp, dict):  # anything else is left for the parser to reject
            doc["comparison"] = {**comp, "class": args.comparison_class}
    if getattr(args, "csv", False):
        doc["csv_tables"] = True
    _effective_seed(doc, args.seed)
    threads = _pool_size(args.threads if args.threads is not None else (os.cpu_count() or 1))
    status, manifest = _execute_config(doc, args.output_dir, threads)
    verdict = manifest["outcome"]["verdict"]
    print(f"{kind}: {'pass' if verdict else 'FAIL'}; outputs in {args.output_dir}")
    for f in manifest["outcome"]["expect_failures"]:
        print(f"  expectation not met: {f}")
    return status


def _numeric_diff(a, b, rtol: float, path: str):
    """First divergence of two parsed values, or None; object keys in recorded order first."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{k}" if path else str(k)
            if k not in a or k not in b:
                return {"path": sub, "problem": "key missing on one side"}
            d = _numeric_diff(a[k], b[k], rtol, sub)
            if d is not None:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return {"path": path, "problem": f"length {len(a)} vs {len(b)}"}
        for i, (x, y) in enumerate(zip(a, b)):
            d = _numeric_diff(x, y, rtol, f"{path}[{i}]")
            if d is not None:
                return d
        return None
    if isinstance(a, bool) or isinstance(b, bool):
        return None if a is b else {"path": path, "recorded": a, "regenerated": b}
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if abs(float(a) - float(b)) <= rtol * (1.0 + abs(float(a))):
            return None
        return {"path": path, "recorded": a, "regenerated": b}
    return None if a == b else {"path": path, "recorded": a, "regenerated": b}


def _cell(c: str):
    """A table cell: a float where it parses as one, else the string."""
    try:
        return float(c)
    except ValueError:
        return c


def _compare_output(recorded: Path, regenerated: Path, rtol: float):
    if recorded.suffix == ".json":
        return _numeric_diff(load_json(recorded), load_json(regenerated), rtol, "")
    tables = (
        [[_cell(c) for c in line.split(",")] for line in f.read_text(encoding="utf-8").splitlines()]
        for f in (recorded, regenerated)
    )
    return _numeric_diff(*tables, rtol, "rows")


def _replay_command(args) -> int:
    manifest = load_json(args.manifest)
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ConfigError("", "not a run manifest: missing config echo")
    version = manifest.get("version")
    if version != __version__:
        raise ReplayIncompatibilityError(
            f"manifest written by version {version}, this artifact is {__version__}"
        )
    recorded_dir = args.manifest.parent
    config = _dict(manifest["config"], "config")
    outputs = _dict(manifest.get("outputs", {}), "outputs")
    for name, digest in outputs.items():
        _str(digest, _join("outputs", name))
    tolerance = _number(manifest.get("replay_tolerance", 0.0), "replay_tolerance")
    if problem := _non_negative(tolerance):
        raise ConfigError("replay_tolerance", problem)
    threads = _pool_size(manifest.get("threads", 1))
    # read before the re-run, which may write into the recorded directory
    altered = {
        name
        for name, digest in outputs.items()
        if (recorded_dir / name).exists() and file_digest(recorded_dir / name) != digest
    }

    def compare_into(workdir: Path) -> dict:
        regenerated = _execute_config(dict(config), workdir, threads)[1]["outputs"]
        files = []
        first_divergence = None
        for name, digest in outputs.items():
            entry = {"file": name}
            if name not in regenerated:
                entry["match"] = "missing"
                entry["problem"] = "output was not regenerated"
            elif name in altered:
                entry["match"] = "divergent"
                entry["problem"] = "recorded file does not match its manifest digest"
            elif regenerated[name] == digest:
                entry["match"] = "bitwise"
            else:
                recorded_path = recorded_dir / name
                if not recorded_path.exists():
                    entry["match"] = "divergent"
                    entry["problem"] = "digest differs and recorded file is unavailable"
                else:
                    div = _compare_output(recorded_path, workdir / name, tolerance)
                    if div is None and tolerance > 0:
                        entry["match"] = "within-tolerance"
                    elif div is None:
                        entry["match"] = "divergent"
                        entry["problem"] = "byte-level difference with equal parsed values"
                    else:
                        entry["match"] = "divergent"
                        entry.update(div)
            if entry["match"] in ("missing", "divergent") and first_divergence is None:
                first_divergence = entry
            files.append(entry)
        return {
            "match": first_divergence is None,
            "files": files,
            "first_divergence": first_divergence,
        }

    if args.output_dir is not None:
        result = compare_into(args.output_dir)
    else:
        with TemporaryDirectory() as td:
            result = compare_into(Path(td))
    print(dumps_json(result))
    return 0 if result["match"] else 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "replay":
            return _replay_command(args)
        return _run_command(args)
    except MechidError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
