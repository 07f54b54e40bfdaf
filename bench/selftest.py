"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one operation of every workload on seed 0 and confirms that each check
accepts the true outputs. Then it feeds each check a deliberately wrong
answer (a perturbed E_hat, a dropped assignment, a p-value off the grid, a
wrong exit status, ...) and confirms the check fails with its own message.
Prints one line per case and exits 1 if any wrong answer got through.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from mechid import AffineMap, ConditionVerdict  # noqa: E402
from mechid.stochastic import AnchorResult  # noqa: E402

failures = []


def case(label: str, check, keyword: str) -> None:
    try:
        check()
    except W.CheckFailed as e:
        ok = keyword in str(e)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {e}")
        if not ok:
            failures.append(label)
        return
    print(f"FAIL {label}: wrong answer accepted")
    failures.append(label)


def accepts(label: str, check) -> None:
    try:
        check()
    except W.CheckFailed as e:
        print(f"FAIL {label}: true output rejected: {e}")
        failures.append(label)
    else:
        print(f"ok   {label}: true output accepted")


def recover_cases() -> None:
    wl = W.make("recover", 0, None)
    inp = wl.inputs[0]
    multi, single, comp = wl.run(0)

    def chk(m=multi, s=single, c=comp, i=inp):
        return lambda: W.check_recover(i, (m, s, c))

    accepts("recover", chk())
    case("recover perturbed E_hat", chk(m=replace(multi, E_hat=multi.E_hat + 1e-3)), "E_hat G - I")
    case("recover extra solution dimension", chk(m=replace(multi, solution_space_dim=1)), "multi-offset solution_space_dim")
    other = replace(multi.conditions, verdict=ConditionVerdict("other", 3))
    case("recover wrong verdict", chk(m=replace(multi, conditions=other)), "offset-only")
    case("recover single-offset dimension off by one", chk(s=replace(single, solution_space_dim=inp.zeroed + 1)), "zeroed count")
    case("recover comparison residual", chk(c=replace(comp, residual=1e-3)), "comparison residual")
    case("recover comparison map", chk(c=replace(comp, L=-comp.L)), "planted P^T")


def identify_cases() -> None:
    wl = W.make("identify", 0, None)
    inp = wl.inputs[0]
    family, commutant, closure, audit = wl.run(0)

    def chk(f=family, c=commutant, cl=closure, a=audit, i=inp):
        return lambda: W.check_identify(i, (f, c, cl, a))

    accepts("identify", chk())
    case("identify nontrivial family", chk(f=SimpleNamespace(dimension=1)), "not trivial")
    fewer = SimpleNamespace(dimension=commutant.dimension - 1, matrices=commutant.matrices[:-1])
    case("identify commutant dimension", chk(c=fewer), "sum m_i^2")
    bent = commutant.matrices.copy()
    bent[0] = bent[0] + 1e-3 * np.eye(bent.shape[1])[::-1]
    case("identify commutant element", chk(c=SimpleNamespace(dimension=commutant.dimension, matrices=bent)), "does not commute")
    case("identify dropped assignment", chk(cl=replace(closure, assignments=closure.assignments[:-1])), "cyclic shifts")
    fam = closure.assignments[1]
    rep = fam.representative

    def with_rep(A, p):
        moved = replace(fam, representative=AffineMap(A, p))
        return replace(closure, assignments=(closure.assignments[0], moved) + closure.assignments[2:])

    case("identify closure map perturbed", chk(cl=with_rep(rep.A + 1e-3, rep.p)), "|A M_i - M_s(i) A|")
    case("identify closure offset perturbed", chk(cl=with_rep(rep.A, rep.p + 1e-3)), "offset equation")
    case("identify closure map not P^k", chk(i=replace(inp, P=-inp.P)), "not P^k")
    flipped = replace(audit.rows[0], equivariance_pass=not audit.rows[0].equivariance_pass)
    case("identify audit row flipped", chk(a=replace(audit, rows=(flipped,) + audit.rows[1:])), "planted members")
    case("identify audit disagreement", chk(a=replace(audit, agreement=False)), "agreement")


def stochastic_cases() -> None:
    wl = W.make("stochastic", 0, None)
    inp = wl.inputs[0]
    null, alt, energy, small, classes = wl.run(0)
    P, PS = wl.ENERGY_PERMUTATIONS, wl.SMALL_PERMUTATIONS

    def chk(n=null, a=alt, e=energy, s=small, c=classes):
        return lambda: W.check_stochastic(inp, (n, a, e, s, c), P, PS)

    accepts("stochastic", chk())
    first = null.anchors[0]
    bad = AnchorResult(first.anchor, replace(first.result, p_value=1.5))
    case("stochastic p-value above 1", chk(n=replace(null, anchors=(bad,) + null.anchors[1:])), "outside [0, 1]")
    case("stochastic p-value off the grid", chk(e=replace(energy, p_value=energy.p_value - 0.5 / (1 + P))), "off the grid")
    case("stochastic negative energy statistic", chk(e=replace(energy, statistic=-1e-3)), "negative")
    case("stochastic energy statistic perturbed", chk(s=replace(small, statistic=small.statistic * (1 + 1e-6))), "V-statistic")
    perm_null, perm_rot, jac_null, jac_rot = classes
    case("stochastic null candidate out of class", chk(c=(replace(perm_null, in_class=False), perm_rot, jac_null, jac_rot)), "not in class")
    case("stochastic rotation in class", chk(c=(perm_null, perm_rot, jac_null, replace(jac_rot, in_class=True))), "rotation classified")

    wl.check(0, (null, alt, energy, small, classes))
    seen = wl.verdicts[0]
    wl.verdicts[0] = (not seen[0],) + seen[1:]
    case("stochastic same seed, other verdict", lambda: wl.check(0, (null, alt, energy, small, classes)), "same seed")

    full = wl.CYCLE
    accepts("stochastic battery", lambda: W.check_battery({k: (True, False, ()) for k in range(full)}, full))
    case("stochastic battery short of a cycle", lambda: W.check_battery({k: (True, False, ()) for k in range(full - 1)}, full), "seed cycle")
    case("stochastic battery null passes", lambda: W.check_battery({k: (k < W.NULL_PASSES_MIN - 1, False, ()) for k in range(full)}, full), "null passes")
    case("stochastic battery rotation rejections", lambda: W.check_battery({k: (True, k >= W.ROTATION_REJECTIONS_MIN - 1, ()) for k in range(full)}, full), "rotation rejections")


def cli_cases() -> None:
    workdir = ROOT / ".bench_out" / "selftest-cli"
    try:
        out = W.make("cli", 0, workdir).run(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    accepts("cli", lambda: W.check_cli(out))

    def edit(name, **change):
        rows = []
        for row in out:
            n, kind, (code, sout, err), again = row
            if n == name:
                code = change.get("code", code)
                err = change.get("err", err)
                again = change.get("again", again)
            rows.append((n, kind, (code, sout, err), again))
        return lambda: W.check_cli(rows)

    case("cli fixture missing", lambda: W.check_cli(out[:-1]), "not every fixture")
    case("cli wrong exit status", edit("verify_planted_claim", code=0), "designed 2")
    case("cli error without field", edit("malformed_missing_matrix", err="error: bad config\n"), "does not name")
    case("cli replay exit status", edit("recover_inverse", again=(2, '{"files": [{"match": "bitwise"}]}', "")), "replay of recover_inverse exited")
    divergent = (0, '{"files": [{"match": "divergent"}]}', "")
    case("cli replay divergent", edit("commutant_shared", again=divergent), "is not bitwise")


if __name__ == "__main__":
    recover_cases()
    identify_cases()
    stochastic_cases()
    cli_cases()
    print(f"{len(failures)} check(s) let a wrong answer through" if failures else "every check rejects its wrong answer")
    sys.exit(1 if failures else 0)
