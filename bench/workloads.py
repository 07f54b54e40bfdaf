"""The benchmark's four workloads: seeded inputs, one operation, output checks.

Every workload builds a short cycle of inputs from the run's seed during
set-up; operation ``i`` uses entry ``i % len(cycle)``, so all operations have
the same composition and sizes. An operation is a fixed sequence of named
steps, one library call each, made through ``step(name, fn, *args)`` so the
worker can time every step on its own. Operations call mechid through module
attributes (``recovery.recover_linear_encoder`` and so on) so that the
tracer's probes see them. Each check compares against an answer known by
construction or recomputed here with plain numpy, and raises ``CheckFailed``
naming the check.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mechid.cli as cli
from mechid import equivariance, imitation, recovery, stochastic, verify
from mechid import (
    AffineMap,
    AffineMechanism,
    DistributionalTestSpec,
    LinearDecoder,
    MechanismClass,
    NoiseSpec,
    RecoveryProblem,
    additive_noise_mechanism,
)

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independently known answer."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def untimed(name: str, fn, *args, **kwargs):
    """The default ``step``: call ``fn`` without timing it."""
    return fn(*args, **kwargs)


class Workload:
    """Inputs built once from the seed; ``run`` is one operation, ``check`` its output checks."""

    def finish(self) -> None:
        """Checks over the whole run, after the timed loop."""


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _orthogonal(g: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    q, r = np.linalg.qr(g.standard_normal((rows, cols or rows)))
    return q * np.sign(np.diag(r))


def _conditioned(g: np.random.Generator, d: int) -> np.ndarray:
    """A generic d x d matrix with singular values in [1, 2]."""
    return _orthogonal(g, d) @ np.diag(g.uniform(1.0, 2.0, d)) @ _orthogonal(g, d)


def _with_spectrum(g: np.random.Generator, eigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """A matrix S diag(eigenvalues) S^-1 with a conditioned S, and S."""
    S = _conditioned(g, len(eigenvalues))
    return S @ np.diag(eigenvalues) @ np.linalg.inv(S), S


# ---------------------------------------------------------------------------
# recover


@dataclass
class RecoverInput:
    multi: RecoveryProblem
    G: np.ndarray
    E_true: np.ndarray
    P: np.ndarray
    single: RecoveryProblem
    zeroed: int


class Recover(Workload):
    """Planted linear-decoder recoveries: many offsets, then one offset with zeroed coordinates."""

    LATENT, OBS = 3, 6
    PAIRS, OFFSETS = 256, 32
    SINGLE_PAIRS = 240
    CYCLE = 8

    def __init__(self, seed: int):
        g = _rng(seed, "recover")
        d, n = self.LATENT, self.OBS
        self.inputs = []
        for k in range(self.CYCLE):
            M, S = _with_spectrum(g, np.array([0.45, 0.8, 1.35]) + g.uniform(-0.05, 0.05, d))
            G = _orthogonal(g, n, d) @ _conditioned(g, d)
            offsets = g.standard_normal((self.OFFSETS, d))
            B = offsets[np.arange(self.PAIRS) % self.OFFSETS]
            Z = g.standard_normal((self.PAIRS, d))
            multi = RecoveryProblem(Z @ G.T, (Z @ M.T + B) @ G.T, M, B)
            P = np.zeros((d, d))
            P[np.arange(d), g.permutation(d)] = g.choice([-1.0, 1.0], d)
            zeroed = 1 + k % 2
            v = g.uniform(0.5, 1.5, d) * g.choice([-1.0, 1.0], d)
            v[g.choice(d, zeroed, replace=False)] = 0.0
            b = S @ v
            Z1 = g.standard_normal((self.SINGLE_PAIRS, d))
            single = RecoveryProblem(
                Z1 @ G.T, (Z1 @ M.T + b) @ G.T, M, np.tile(b, (self.SINGLE_PAIRS, 1))
            )
            self.inputs.append(RecoverInput(multi, G, np.linalg.pinv(G), P, single, zeroed))

    def run(self, i: int, step=untimed):
        inp = self.inputs[i % self.CYCLE]
        multi = step("multi", recovery.recover_linear_encoder, inp.multi)
        single = step("single", recovery.recover_linear_encoder, inp.single)
        comp = step("compare", recovery.compare_up_to_class, multi.E_hat, inp.P @ inp.E_true, "signed-permutation")
        return multi, single, comp

    def check(self, i: int, out) -> None:
        check_recover(self.inputs[i % self.CYCLE], out)


def check_recover(inp: RecoverInput, out) -> None:
    multi, single, comp = out
    d = inp.G.shape[1]
    expect(np.linalg.norm(multi.E_hat @ inp.G - np.eye(d)) <= 1e-8, "recover: |E_hat G - I| is not small")
    expect(multi.solution_space_dim == 0, "recover: multi-offset solution_space_dim is not 0")
    expect(multi.conditions.verdict.kind == "offset-only", "recover: multi-offset verdict is not offset-only")
    expect(single.solution_space_dim == inp.zeroed, "recover: single-offset solution_space_dim != zeroed count")
    # E_hat = L (P E_true) with L = P^T exactly, a signed permutation
    expect(comp.residual <= 1e-8, "recover: comparison residual is not small")
    expect(np.array_equal(comp.L, inp.P.T), "recover: comparison map is not the planted P^T")


# ---------------------------------------------------------------------------
# identify


@dataclass
class IdentifyInput:
    shared: tuple
    commutant_M: np.ndarray
    multiplicities: tuple
    closure_class: MechanismClass
    P: np.ndarray
    decoder: LinearDecoder
    audit_mechanisms: tuple
    candidates: tuple
    members: tuple


class Identify(Workload):
    """Equivariance family, commutant, imitator closure and membership audit."""

    SHARED_DIM = 12
    MULTIPLICITIES = (4, 3, 3, 2, 2, 1, 1)
    AUDIT_DIM, AUDIT_OBS, CANDIDATES = 4, 8, 40
    CYCLE = 8

    def __init__(self, seed: int):
        g = _rng(seed, "identify")
        self.inputs = [self._build(g) for _ in range(self.CYCLE)]

    def _build(self, g: np.random.Generator) -> IdentifyInput:
        d = self.SHARED_DIM
        shared = tuple(
            AffineMechanism(_orthogonal(g, d) @ np.diag(g.uniform(0.5, 1.5, d)) @ _orthogonal(g, d), g.standard_normal(d))
            for _ in range(3)
        )
        levels = 0.5 + 0.35 * np.arange(len(self.MULTIPLICITIES)) + g.uniform(-0.05, 0.05, len(self.MULTIPLICITIES))
        ev = np.repeat(levels, self.MULTIPLICITIES)
        commutant_M, _ = _with_spectrum(g, ev[g.permutation(ev.size)])

        t = 2.0 * np.pi / 3.0
        R = np.eye(3)
        R[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        Q = _orthogonal(g, 3)
        P = Q @ R @ Q.T  # orthogonal, P^3 = I
        M0, _ = _with_spectrum(g, np.array([0.4, 0.9, 1.6]) + g.uniform(-0.05, 0.05, 3))
        b0 = g.standard_normal(3)
        used = tuple(
            AffineMechanism(
                np.linalg.matrix_power(P, k) @ M0 @ np.linalg.matrix_power(P, -k),
                np.linalg.matrix_power(P, k) @ b0,
            )
            for k in range(3)
        )

        a = self.AUDIT_DIM
        M, S = _with_spectrum(g, np.array([0.5, 0.9, 1.4, 2.0]) + g.uniform(-0.05, 0.05, a))
        b = g.standard_normal(a)
        decoder = LinearDecoder(_orthogonal(g, self.AUDIT_OBS, a) @ _conditioned(g, a))
        candidates, members = [], []
        for k in range(self.CANDIDATES):
            if k % 2 == 0:  # family member: commutes with M, offset solves (A - I) b = (M - I) p
                A = S @ np.diag(g.uniform(0.5, 2.0, a) * g.choice([-1.0, 1.0], a)) @ np.linalg.inv(S)
                p = np.linalg.solve(M - np.eye(a), (A - np.eye(a)) @ b)
            else:
                A, p = _conditioned(g, a), g.standard_normal(a)
            candidates.append(AffineMap(A, p))
            members.append(k % 2 == 0)
        return IdentifyInput(
            shared, commutant_M, self.MULTIPLICITIES, MechanismClass(used), P,
            decoder, (AffineMechanism(M, b),), tuple(candidates), tuple(members),
        )

    def run(self, i: int, step=untimed):
        inp = self.inputs[i % self.CYCLE]
        family = step("shared", equivariance.shared_equivariances, inp.shared)
        commutant = step("commutant", equivariance.linear_commutant, inp.commutant_M)
        closure = step("closure", imitation.imitator_closure, inp.closure_class)
        audit = step(
            "audit", verify.membership_equivalence_audit, inp.decoder, inp.audit_mechanisms, inp.candidates, workers=1
        )
        return family, commutant, closure, audit

    def check(self, i: int, out) -> None:
        check_identify(self.inputs[i % self.CYCLE], out)


def check_identify(inp: IdentifyInput, out) -> None:
    family, commutant, closure, audit = out
    expect(family.dimension == 0, "identify: shared family of generic mechanisms is not trivial")

    M = inp.commutant_M
    expect(commutant.dimension == sum(m * m for m in inp.multiplicities), "identify: commutant dimension != sum m_i^2")
    defect = max((np.linalg.norm(A @ M - M @ A) for A in commutant.matrices), default=0.0)
    expect(defect <= 1e-8 * (1.0 + np.linalg.norm(M)), "identify: a commutant basis element does not commute with M")

    used = inp.closure_class.used
    n = len(used)
    shifts = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    expect(sorted(a.assignment for a in closure.assignments) == shifts, "identify: closure assignments are not the cyclic shifts")
    for fam in closure.assignments:
        A, p = fam.representative.A, fam.representative.p
        k = fam.assignment[0]
        for i, j in enumerate(fam.assignment):
            mi, mj = used[i], used[j]
            scale = 1.0 + np.linalg.norm(mj.M)
            expect(np.linalg.norm(A @ mi.M - mj.M @ A) <= 1e-8 * scale, "identify: closure map fails |A M_i - M_s(i) A|")
            expect(np.linalg.norm(A @ mi.b + p - mj.M @ p - mj.b) <= 1e-8 * scale, "identify: closure map fails the offset equation")
        expect(np.linalg.norm(A - np.linalg.matrix_power(inp.P, k)) <= 1e-8, "identify: closure map is not P^k")

    passes = tuple(r.equivariance_pass for r in audit.rows)
    expect(passes == inp.members, "identify: audit equivariance_pass differs from the planted members")
    expect(audit.agreement, "identify: audit agreement is false")


# ---------------------------------------------------------------------------
# stochastic


@dataclass
class StochasticInput:
    seed: int
    candidate: AffineMap
    spec: DistributionalTestSpec
    energy_x: np.ndarray
    energy_y: np.ndarray
    small_x: np.ndarray
    small_y: np.ndarray
    anchors: np.ndarray


# Run-level binomial bounds over one cycle of 16 seeds, fixed from the test
# design before any measurement: a null test passes with probability >= 0.95
# (level 0.05, Bonferroni-conservative), and the rotation is assumed rejected
# with probability >= 0.9 at 3000 samples per anchor. Each bound is missed by
# chance with probability below 1e-5 per run.
NULL_PASSES_MIN = 10
ROTATION_REJECTIONS_MIN = 8


class Stochastic(Workload):
    """KS equivariance tests (null and rotation), energy tests, class tests."""

    SAMPLES = 3000
    ENERGY_POINTS, ENERGY_PERMUTATIONS = 600, 9
    SMALL_POINTS, SMALL_PERMUTATIONS = 200, 19
    CYCLE = 16

    def __init__(self, seed: int):
        g = _rng(seed, "stochastic")
        self.walk = additive_noise_mechanism(NoiseSpec("generalized-laplace", alpha=1.0, dim=2))
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        self.rotation = AffineMap(np.array([[c, -s], [s, c]]), np.zeros(2))
        self.inputs = []
        for _ in range(self.CYCLE):
            run_seed = int(g.integers(0, 2**31))
            P = np.zeros((2, 2))
            P[np.arange(2), g.permutation(2)] = g.choice([-1.0, 1.0], 2)
            self.inputs.append(
                StochasticInput(
                    seed=run_seed,
                    candidate=AffineMap(P, g.standard_normal(2)),
                    spec=DistributionalTestSpec(dim=2, samples_per_anchor=self.SAMPLES, significance=0.05, seed=run_seed),
                    energy_x=g.laplace(size=(self.ENERGY_POINTS, 2)),
                    energy_y=g.laplace(size=(self.ENERGY_POINTS, 2)),
                    small_x=g.laplace(size=(self.SMALL_POINTS, 2)),
                    small_y=g.laplace(size=(self.SMALL_POINTS, 2)),
                    anchors=g.uniform(-2.0, 2.0, (4, 2)),
                )
            )
        self.verdicts: dict[int, tuple] = {}

    def run(self, i: int, step=untimed):
        inp = self.inputs[i % self.CYCLE]
        equivariance_test = stochastic.stochastic_equivariance_test
        null = step("ks_null", equivariance_test, inp.candidate, self.walk, self.walk, inp.spec, workers=1)
        alt = step("ks_rotation", equivariance_test, self.rotation, self.walk, self.walk, inp.spec, workers=1)
        energy = step(
            "energy", stochastic.two_sample_test, inp.energy_x, inp.energy_y,
            method="energy", seed=inp.seed, permutations=self.ENERGY_PERMUTATIONS,
        )
        small = step(
            "energy_small", stochastic.two_sample_test, inp.small_x, inp.small_y,
            method="energy", seed=inp.seed, permutations=self.SMALL_PERMUTATIONS,
        )
        classes = step("classes", lambda: (
            stochastic.signed_perm_offset_test(inp.candidate),
            stochastic.signed_perm_offset_test(self.rotation),
            stochastic.jacobian_identifiability_test(inp.candidate, inp.anchors),
            stochastic.jacobian_identifiability_test(self.rotation, inp.anchors),
        ))
        return null, alt, energy, small, classes

    def check(self, i: int, out) -> None:
        inp = self.inputs[i % self.CYCLE]
        check_stochastic(inp, out, self.ENERGY_PERMUTATIONS, self.SMALL_PERMUTATIONS)
        null, alt = out[0], out[1]
        seen = (null.passed, alt.passed, tuple(a.result.p_value for a in null.anchors + alt.anchors))
        expect(self.verdicts.setdefault(i % self.CYCLE, seen) == seen, "stochastic: same seed gave different p-values")

    def finish(self) -> None:
        check_battery(self.verdicts, self.CYCLE)


def energy_v_statistic(X: np.ndarray, Y: np.ndarray) -> float:
    """Energy distance 2E|X-Y| - E|X-X'| - E|Y-Y'| as a V-statistic, by broadcasting."""

    def mean_dist(A, B):
        return float(np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)).mean())

    return 2.0 * mean_dist(X, Y) - mean_dist(X, X) - mean_dist(Y, Y)


def check_permutation_p(result, permutations: int, what: str) -> None:
    expect(result.statistic >= 0.0, f"stochastic: {what} energy statistic is negative")
    c = result.p_value * (1 + permutations) - 1
    expect(0 <= round(c) <= permutations and abs(c - round(c)) <= 1e-9, f"stochastic: {what} p-value is off the grid (1+c)/(1+P)")


def check_stochastic(inp: StochasticInput, out, energy_permutations: int, small_permutations: int) -> None:
    null, alt, energy, small, classes = out
    pvals = [energy.p_value, small.p_value]
    for report in (null, alt):
        for a in report.anchors:
            pvals.append(a.result.p_value)
            pvals.extend(a.result.coordinate_p_values)
    expect(all(0.0 <= p <= 1.0 for p in pvals), "stochastic: a p-value lies outside [0, 1]")
    check_permutation_p(energy, energy_permutations, "large")
    check_permutation_p(small, small_permutations, "small")
    ref = energy_v_statistic(inp.small_x, inp.small_y)
    expect(abs(small.statistic - ref) <= 1e-9 * abs(ref), "stochastic: energy statistic differs from the numpy V-statistic")
    perm_null, perm_rot, jac_null, jac_rot = classes
    expect(perm_null.in_class and jac_null.in_class, "stochastic: signed permutation + offset not in class")
    expect(not perm_rot.in_class and not jac_rot.in_class, "stochastic: pi/4 rotation classified in class")


def check_battery(verdicts: dict, cycle: int) -> None:
    expect(len(verdicts) == cycle, "stochastic: the run did not cover its seed cycle")
    null_passes = sum(v[0] for v in verdicts.values())
    rejections = sum(not v[1] for v in verdicts.values())
    expect(null_passes >= NULL_PASSES_MIN, f"stochastic: null passes {null_passes}/{cycle} below {NULL_PASSES_MIN}")
    expect(rejections >= ROTATION_REJECTIONS_MIN, f"stochastic: rotation rejections {rejections}/{cycle} below {ROTATION_REJECTIONS_MIN}")


# ---------------------------------------------------------------------------
# cli

# The shipped fixtures and the exit status each was designed to produce.
FIXTURES = {
    "commutant_shared": 0,
    "imitate_swap_pair": 0,
    "malformed_missing_matrix": 1,
    "recover_inverse": 0,
    "simulate_shear": 0,
    "stochastic_swap": 0,
    "verify_planted_claim": 2,
}
MALFORMED_FIELD = "mechanisms[0].M"
# Kinds whose outputs do not depend on the seed flag; they take the run's seed.
DETERMINISTIC_KINDS = ("commutant", "imitate", "recover", "simulate", "verify")


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Cli(Workload):
    """One pass over the shipped fixtures through mechid.cli.main, each followed by replay."""

    def __init__(self, seed: int, workdir: Path):
        self.calls = []
        for name in FIXTURES:
            path = ROOT / "fixtures" / f"{name}.json"
            kind = json.loads(path.read_text())["experiment"]
            argv = [kind, str(path), "--output-dir", str(workdir / name), "--threads", "1"]
            if kind in DETERMINISTIC_KINDS:
                argv += ["--seed", str(seed)]
            replay = ["replay", str(workdir / name / "manifest.json"), "--output-dir", str(workdir / f"{name}.replay")]
            self.calls.append((name, kind, argv, replay))

    def run(self, i: int, step=untimed):
        results = []
        for name, kind, argv, replay in self.calls:
            run = step(name, _call_cli, argv)
            again = step(f"{name}.replay", _call_cli, replay) if FIXTURES[name] != 1 else None
            results.append((name, kind, run, again))
        return results

    def check(self, i: int, out) -> None:
        check_cli(out)


def check_cli(out) -> None:
    expect([r[0] for r in out] == list(FIXTURES), "cli: not every fixture ran")
    for name, kind, (code, _, err), again in out:
        expect(code == FIXTURES[name], f"cli: {name} exited {code}, designed {FIXTURES[name]}")
        if code == 1:
            expect(MALFORMED_FIELD in err, f"cli: {name} error does not name {MALFORMED_FIELD}")
            continue
        rcode, rout, _ = again
        expect(rcode == 0, f"cli: replay of {name} exited {rcode}")
        allowed = ("bitwise", "within-tolerance") if kind == "stochastic-test" else ("bitwise",)
        files = json.loads(rout)["files"]
        expect(files and all(f["match"] in allowed for f in files), f"cli: replay of {name} is not {' or '.join(allowed)}")


def make(name: str, seed: int, workdir: Path):
    if name == "cli":
        return Cli(seed, workdir)
    return {"recover": Recover, "identify": Identify, "stochastic": Stochastic}[name](seed)

