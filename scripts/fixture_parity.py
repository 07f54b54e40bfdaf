#!/usr/bin/env python3
"""Check that a change writes every fixture output its parent writes, byte for byte.

    python3 scripts/fixture_parity.py --parent ../parent --change .

Both directories are source checkouts. Each fixture shipped in either one
runs at seeds 0 and 3, and each commutant fixture once more with ``--csv``:

    python3 -m mechid.cli <kind> fixtures/<name>.json --seed <seed> --threads 1 --output-dir out/<run>

Each side runs in its own fresh working directory, whose ``fixtures`` links
to that checkout's own, with the checkout's ``src`` as the only PYTHONPATH
entry, BLAS pinned to one thread and MECHID_SEED unset, so both sides see
the same relative paths. Per run the script compares exit status, stdout,
stderr and every output file (report.json, tables, trajectory.csv,
manifest.json) byte for byte, with only the value of the manifest's
``duration_seconds`` masked. Every manifest the parent wrote is then
replayed by both sides' code: each of its outputs must replay ``bitwise``
under the change, and the change's replay must print what the parent's
replay of its own manifest prints, byte for byte.

Prints one JSON document and exits 1 on any difference. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import PINNED_ENV, fixture_kinds

SEEDS = (0, 3)
COMMAND = (
    "python3 -m mechid.cli <kind> fixtures/<name>.json --seed <seed> --threads 1 "
    "--output-dir out/<run> [--csv]"
)


def cli(checkout: Path, workdir: Path, args: list[str]) -> subprocess.CompletedProcess:
    """One fresh ``python -m mechid.cli`` in `workdir`, importing `checkout`'s code; output as bytes."""
    env = {k: v for k, v in os.environ.items() if k != "MECHID_SEED"}
    env.update(PINNED_ENV, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "mechid.cli", *args]
    return subprocess.run(argv, cwd=workdir, env=env, capture_output=True)


def runs(kinds: dict[str, str]) -> list[tuple[str, str, list[str]]]:
    """(run, fixture, mechid arguments) for every run, fixtures in name order."""
    out = []
    for name, kind in sorted(kinds.items()):
        variants = [(f"seed{seed}", [str(seed)]) for seed in SEEDS]
        if kind == "commutant":
            variants.append(("seed0-csv", ["0", "--csv"]))
        for suffix, extra in variants:
            run = f"{name}-{suffix}"
            args = [kind, f"fixtures/{name}.json", "--seed", *extra]
            out.append((run, name, args + ["--threads", "1", "--output-dir", f"out/{run}"]))
    return out


DURATION = re.compile(rb'("duration_seconds": )[^,\n]*')


def masked_manifest(path: Path) -> bytes:
    """The manifest's bytes with the value of its duration_seconds masked."""
    return DURATION.sub(rb"\1<masked>", path.read_bytes(), count=1)


def differences(parent: tuple, change: tuple) -> list[str]:
    """What differs between two sides' (process, output directory) of one run."""
    (p, p_out), (c, c_out) = parent, change
    found = []
    if p.returncode != c.returncode:
        found.append(f"exit status {p.returncode} vs {c.returncode}")
    found += [stream for stream in ("stdout", "stderr") if getattr(p, stream) != getattr(c, stream)]
    names = {f.name for out in (p_out, c_out) if out.is_dir() for f in out.iterdir()}
    for name in sorted(names):
        a, b = p_out / name, c_out / name
        if not (a.exists() and b.exists()):
            found.append(f"{name} missing at {'parent' if b.exists() else 'change'}")
        elif name == "manifest.json":
            if masked_manifest(a) != masked_manifest(b):
                found.append(name)
        elif a.read_bytes() != b.read_bytes():
            found.append(name)
    return found


def replay_verdict(proc: subprocess.CompletedProcess) -> str | dict:
    """'bitwise' when a replay regenerated every output of its manifest bit for bit."""
    try:
        result = json.loads(proc.stdout)
    except ValueError:  # not JSON, or not UTF-8
        return {"exit_status": proc.returncode, "stderr": proc.stderr[-2000:].decode(errors="replace")}
    if proc.returncode == 0 and all(f["match"] == "bitwise" for f in result["files"]):
        return "bitwise"
    return {"exit_status": proc.returncode, "files": result["files"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shipped = {side: fixture_kinds(checkout) for side, checkout in sides.items()}
    kinds = {**shipped["parent"], **shipped["change"]}
    doc = {"parent": str(sides["parent"]), "change": str(sides["change"]), "command": COMMAND, "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = {side: Path(tmp) / side for side in sides}
        for side, workdir in work.items():
            workdir.mkdir()
            (workdir / "fixtures").symlink_to(sides[side] / "fixtures", target_is_directory=True)
        for run, name, run_args in runs(kinds):
            missing = [side for side in sides if name not in shipped[side]]
            if missing:
                doc["runs"][run] = {"differences": [f"fixtures/{name}.json missing at {missing[0]}"]}
                continue
            done = {
                side: (cli(sides[side], work[side], run_args), work[side] / "out" / run) for side in sides
            }
            entry = {
                "exit_status": done["parent"][0].returncode,
                "differences": differences(done["parent"], done["change"]),
            }
            if (work["parent"] / "out" / run / "manifest.json").exists():
                replays = {
                    side: cli(sides[side], work["parent"], ["replay", f"out/{run}/manifest.json"])
                    for side in sides
                }
                entry["replay"] = replay_verdict(replays["change"])
                if entry["replay"] != "bitwise":
                    entry["differences"].append("replay")
                if replays["parent"].stdout != replays["change"].stdout:
                    entry["differences"].append("replay stdout")
            doc["runs"][run] = entry
    doc["identical"] = not any(entry["differences"] for entry in doc["runs"].values())
    print(json.dumps(doc, indent=1))
    return 0 if doc["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
