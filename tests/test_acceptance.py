"""Acceptance battery: one test per numbered criterion, one verdict line each.

Every test enforces its pinned tolerances, trial counts, and runtime caps;
`pytest tests/test_acceptance.py -v` therefore reads as the checklist. The
statistical battery (criterion 8) runs a pre-registered seed protocol, see
the calibration note next to the seeds.
"""

import json
import time
from pathlib import Path

import numpy as np

from mechid.cli import main as cli_main
from mechid.dynamics import (
    AffineMechanism,
    LinearDecoder,
    NoiseSpec,
    TransformedDecoder,
    additive_noise_mechanism,
)
from mechid.equivariance import affine_equivariances, shared_equivariances
from mechid.imitation import MechanismClass, cycle_analysis, imitator_closure
from mechid.maps import AffineMap
from mechid.recovery import (
    RecoveryProblem,
    recover_linear_encoder,
    recover_with_multiple_offsets,
)
from mechid.rng import stream
from mechid.stochastic import (
    DistributionalTestSpec,
    jacobian_identifiability_test,
    signed_perm_offset_test,
    stochastic_equivariance_test,
    volume_preservation_test,
)
from mechid.verify import (
    CandidateModel,
    membership_equivalence_audit,
    verify_identity_unknown_mech,
)

from conftest import (
    distinct_eig_mechanism,
    random_invertible,
    random_orthogonal,
    random_signed_permutation,
    rotation,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _grouped_problem(gen, G, M, offsets, points_per_group) -> RecoveryProblem:
    xp, xn, B = [], [], []
    for b in offsets:
        Z = gen.uniform(-2.0, 2.0, (points_per_group, M.shape[0]))
        xp.append(Z @ G.T)
        xn.append((Z @ M.T + b) @ G.T)
        B.append(np.tile(b, (points_per_group, 1)))
    return RecoveryProblem(np.vstack(xp), np.vstack(xn), M, np.vstack(B))


def _tall_full_rank(gen, n, d) -> np.ndarray:
    return random_invertible(gen, n)[:, :d]


# ---------------------------------------------------------------------------
# 1: equivariance check and observation-identity check agree row for row


def _random_mechanism(gen, d) -> AffineMechanism:
    # keep M - I well conditioned so family offsets stay O(1)
    while True:
        M = random_invertible(gen, d, cond_cap=20.0)
        if np.linalg.svd(M - np.eye(d), compute_uv=False)[-1] > 0.05:
            return AffineMechanism(M, 0.5 * gen.standard_normal(d))


def _family_member(fam, gen) -> AffineMap:
    for _ in range(60):
        c = 0.8 * gen.standard_normal(fam.dimension)
        A, p = fam.family.element(c)
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] > 1e-3 * s[0] and s[-1] > 1e-6:
            return AffineMap(A, p)
    raise AssertionError("no invertible family member found")


def test_criterion_01_membership_audit_agreement():
    t0 = time.perf_counter()
    instances = 100
    rows = 0
    for i in range(instances):
        g = stream(41100, i)
        d = 2 + i % 3
        mech = _random_mechanism(g, d)
        fam = affine_equivariances(mech)
        assert fam.dimension >= 1
        candidates = []
        for k in range(10):
            candidates.append(
                CandidateModel(
                    label=f"member{k}",
                    latent_map=_family_member(fam, g),
                    expect_equivariant=True,
                )
            )
        for k in range(10):
            candidates.append(
                CandidateModel(
                    label=f"random{k}",
                    latent_map=AffineMap(random_invertible(g, d), g.standard_normal(d)),
                    expect_equivariant=False,
                )
            )
        decoder = LinearDecoder(_tall_full_rank(g, d + 1, d))
        report = membership_equivalence_audit(
            decoder, [mech], candidates, tol_equivariance=1e-9, tol_identity=1e-8
        )
        assert report.agreement, f"instance {i}: columns disagree"
        assert report.claims_ok, f"instance {i}: pass pattern broke"
        rows += len(report.rows)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        rows == instances * 20 and elapsed <= 120.0,
        f"{instances} audits, {rows} rows, 100% agreement, {elapsed:.1f}s <= 120s",
    )


# ---------------------------------------------------------------------------
# 2: unique linear recovery when eigenvalues are distinct and no
#    eigencoordinate of the offset vanishes


def test_criterion_02_unique_recovery():
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(100):
        g = stream(41200, t)
        d = 2 + t % 3
        mech, _, _ = distinct_eig_mechanism(g, d)
        n = d + t % 3
        G = _tall_full_rank(g, n, d)
        problem = _grouped_problem(g, G, mech.M, [mech.b], d * (n + 1))
        res = recover_linear_encoder(problem)
        assert res.solution_space_dim == 0, f"trial {t}: dim {res.solution_space_dim}"
        truth = np.linalg.pinv(G)
        err = np.linalg.norm(res.E_hat - truth) / np.linalg.norm(truth)
        assert err <= 1e-8, f"trial {t}: relative error {err:.2e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        elapsed <= 60.0,
        f"100 instances, dim 0, worst rel err {worst:.1e} <= 1e-8, {elapsed:.1f}s <= 60s",
    )


# ---------------------------------------------------------------------------
# 3: k zeroed eigencoordinates leave exactly a k-dimensional solution space


def test_criterion_03_planted_solution_dimension():
    trials = 0
    for d in (2, 3, 4):
        for k in range(1, d):
            for t in range(50):
                g = stream(41300, d, k, t)
                mech, _, _ = distinct_eig_mechanism(g, d, zero_eigencoords=k)
                n = d + t % 2
                G = _tall_full_rank(g, n, d)
                problem = _grouped_problem(g, G, mech.M, [mech.b], d * (n + 1))
                res = recover_linear_encoder(problem)
                assert res.solution_space_dim == k, (
                    f"d={d} k={k} trial {t}: dim {res.solution_space_dim}"
                )
                trials += 1
    _verdict(3, trials == 300, f"{trials} trials, solution dim matched k exactly")


# ---------------------------------------------------------------------------
# 4: d+1 offsets with spanning differences pin the encoder; collinear
#    differences along an eigendirection leave slack


def test_criterion_04_offset_variation_regimes():
    for t in range(100):
        g = stream(41400, t)
        d = 2 + t % 3
        M = random_invertible(g, d, cond_cap=20.0)
        offsets = [np.zeros(d)] + [g.standard_normal(d) for _ in range(d)]
        while np.linalg.matrix_rank(np.array(offsets[1:])) < d:
            offsets = [np.zeros(d)] + [g.standard_normal(d) for _ in range(d)]
        G = _tall_full_rank(g, d + 1, d)
        res = recover_with_multiple_offsets(_grouped_problem(g, G, M, offsets, d + 1))
        assert res.solution_space_dim == 0, f"generic trial {t}: dim {res.solution_space_dim}"
    for t in range(100):
        g = stream(41450, t)
        d = 2 + t % 3
        mech, S, _ = distinct_eig_mechanism(g, d)
        u = S[:, t % d]  # one eigendirection carries every offset
        c = np.linspace(0.0, 1.5, d + 1) + g.uniform(0.0, 0.05, d + 1)
        offsets = [ci * u for ci in c]
        G = _tall_full_rank(g, d + 1, d)
        res = recover_with_multiple_offsets(_grouped_problem(g, G, mech.M, offsets, d + 1))
        assert res.solution_space_dim >= 1, f"collinear trial {t}: dim 0"
    _verdict(4, True, "100/100 spanning trials dim 0, 100/100 collinear trials dim >= 1")


# ---------------------------------------------------------------------------
# 5: a second mechanism shrinks the shared linear family to the scalars


def test_criterion_05_diversity_shrinks_family():
    m1 = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2))
    m2 = AffineMechanism(rotation(np.pi / 2.0), np.zeros(2))
    a1 = affine_equivariances(m1).a_dimension
    a2 = affine_equivariances(m2).a_dimension
    shared = shared_equivariances([m1, m2]).a_dimension
    _verdict(
        5,
        (a1, a2, shared) == (2, 2, 1),
        f"alone {a1} and {a2}, shared {shared} (expected 2, 2, 1)",
    )


# ---------------------------------------------------------------------------
# 6: the swap imitator reconciles a mirrored hypothesis end to end


def test_criterion_06_swap_imitator_end_to_end():
    m23 = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2), label="stretch")
    m32 = AffineMechanism(np.diag([3.0, 2.0]), np.zeros(2), label="mirrored")
    closure = imitator_closure(MechanismClass(used=(m23,), hypothesized=(m32,)))
    swaps = [af for af in closure.assignments if af.assignment == (1,)]
    assert swaps, "no assignment onto the mirrored mechanism"
    rep = swaps[0].representative
    assert abs(rep.A[0, 0]) <= 1e-9 and abs(rep.A[1, 1]) <= 1e-9, "representative is not a swap"
    g = LinearDecoder([[1.0, 1.0], [0.0, 1.0], [0.5, -0.5]])
    candidate = TransformedDecoder(g, rep)
    accepted = verify_identity_unknown_mech(g, [m23], candidate, [m32]).passed
    forced = verify_identity_unknown_mech(g, [m23], candidate, [m23]).passed
    _verdict(
        6,
        accepted and not forced,
        "swap assignment found; swapped hypothesis accepted, original forced hypothesis rejected",
    )


# ---------------------------------------------------------------------------
# 7: every emitted closure map permutes the used set and its cycle powers
#    commute


def _conjugate(a: AffineMap, m: AffineMechanism) -> AffineMechanism:
    Ainv = np.linalg.inv(a.A)
    M2 = a.A @ m.M @ Ainv
    return AffineMechanism(M2, a.A @ m.b + a.p - M2 @ a.p)


def _order_k_affine(gen, d, k) -> AffineMap:
    R = np.eye(d)
    R[:2, :2] = rotation(2.0 * np.pi / k)
    Q = random_invertible(gen, d, cond_cap=8.0)
    q = gen.standard_normal(d)
    A = Q @ R @ np.linalg.inv(Q)
    return AffineMap(A, (np.eye(d) - A) @ q)


def _cyclic_used_set(gen, d, k) -> list[AffineMechanism]:
    while True:
        a = _order_k_affine(gen, d, k)
        mechs = [AffineMechanism(random_invertible(gen, d, cond_cap=8.0), gen.standard_normal(d))]
        for _ in range(k - 1):
            mechs.append(_conjugate(a, mechs[-1]))
        gaps = [
            np.linalg.norm(mi.M - mj.M) + np.linalg.norm(mi.b - mj.b)
            for x, mi in enumerate(mechs)
            for mj in mechs[x + 1 :]
        ]
        if min(gaps) > 1e-3:
            return mechs


def test_criterion_07_cycle_property():
    analyzed = 0
    for trial in range(50):
        g = stream(41700, trial)
        d = 2 + trial % 2
        k = 2 + trial % 3
        mechs = _cyclic_used_set(g, d, k)
        closure = imitator_closure(MechanismClass(used=tuple(mechs)), seed=trial)
        assert closure.assignments, f"trial {trial}: closure came back empty"
        for af in closure.assignments:
            report = cycle_analysis(af.representative, mechs, tol=1e-8)
            assert report.in_closure, f"trial {trial}: emitted map left the used set"
            assert sorted(report.permutation) == list(range(k)), f"trial {trial}: not bijective"
            assert report.power_checks_passed, (
                f"trial {trial}: cycle power residual {max(report.power_residuals):.2e}"
            )
            analyzed += 1
    _verdict(7, analyzed >= 50, f"50 trials, {analyzed} emitted maps, all cycle powers commute")


# ---------------------------------------------------------------------------
# 8: distributional test power and the alpha = 2 blind spot


def _laplace_walk(alpha: float):
    return additive_noise_mechanism(NoiseSpec("generalized-laplace", alpha=alpha, dim=2))


def test_criterion_08_stochastic_power():
    t0 = time.perf_counter()
    # Null battery protocol (frozen before thresholds were pinned): runs
    # s = 118..317, candidate = random signed permutation + standard normal
    # offset from stream(7000+s, 31), Laplace walk, 1000 samples, 5 anchors.
    null_passes = 0
    walk1 = _laplace_walk(1.0)
    for s in range(118, 318):
        g = stream(7000 + s, 31)
        a = AffineMap(random_signed_permutation(g, 2), g.standard_normal(2))
        spec = DistributionalTestSpec(dim=2, samples_per_anchor=1000, significance=0.05, seed=s)
        if stochastic_equivariance_test(a, walk1, walk1, spec).passed:
            null_passes += 1
    rot = AffineMap(rotation(np.pi / 4.0), np.zeros(2))
    rejected = 0
    for s in range(100):
        spec = DistributionalTestSpec(dim=2, samples_per_anchor=10_000, seed=s)
        if not stochastic_equivariance_test(rot, walk1, walk1, spec).passed:
            rejected += 1
    walk2 = _laplace_walk(2.0)
    gaussian_passes = 0
    for s in range(100):
        spec = DistributionalTestSpec(dim=2, samples_per_anchor=10_000, seed=s)
        if stochastic_equivariance_test(rot, walk2, walk2, spec).passed:
            gaussian_passes += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        null_passes >= 188 and rejected >= 95 and gaussian_passes >= 90 and elapsed <= 300.0,
        f"null {null_passes}/200 >= 188, rotation rejected {rejected}/100 >= 95, "
        f"gaussian rotation passed {gaussian_passes}/100 >= 90, {elapsed:.0f}s <= 300s",
    )


# ---------------------------------------------------------------------------
# 9: linear-part classification and volume preservation


def test_criterion_09_class_and_volume():
    mis = 0
    for i in range(10):
        g = stream(41900, 0, i)
        d = 2 + i % 3
        v = signed_perm_offset_test(
            AffineMap(random_signed_permutation(g, d), g.standard_normal(d))
        )
        mis += not v.in_class
    for i in range(10):
        g = stream(41900, 1, i)
        d = 2 + i % 3
        while True:
            Q = random_orthogonal(g, d)
            w = signed_perm_offset_test(Q)
            if w.orthonormal and not w.signed_permutation and np.max(np.abs(Q)) <= 0.99:
                break
        mis += not (w.orthonormal and not w.in_class)
    for i in range(10):
        g = stream(41900, 2, i)
        d = 2 + i % 3
        B = random_invertible(g, d) @ np.diag([1.7] + [1.0] * (d - 1))
        w = signed_perm_offset_test(B)
        mis += w.orthonormal or w.in_class
    shear = lambda z: np.stack([z[..., 0] + 0.1 * z[..., 1] ** 2, z[..., 1]], axis=-1)
    shear_ok = volume_preservation_test(shear, stream(41901).uniform(-2, 2, (12, 2))).passed
    doubling_exact = True
    for d in (2, 3):
        rep = volume_preservation_test(
            AffineMap(2.0 * np.eye(d), np.zeros(d)), np.zeros((1, d)), tol=1e-6
        )
        doubling_exact &= (not rep.passed) and abs(rep.max_deviation - (2.0**d - 1.0)) <= 1e-6
    _verdict(
        9,
        mis == 0 and shear_ok and doubling_exact,
        f"30 maps, {mis} misclassified; shear passes, doubling deviates by 2^d - 1",
    )


# ---------------------------------------------------------------------------
# 10: pointwise Jacobian classification


def test_criterion_10_jacobian_classification():
    cubic = lambda z: np.stack([z[..., 0] + 0.1 * z[..., 0] ** 3, z[..., 1]], axis=-1)
    z1 = np.array([-1.5, -1.0, -0.5, 0.5, 0.8, 1.2])
    z2 = np.array([0.0, 0.4, -0.7, 1.1, -1.3, 0.6])
    anchors = np.stack([z1, z2], axis=1)
    report = jacobian_identifiability_test(cubic, anchors)
    cubic_out = (not report.in_class) and all(not v.in_class for v in report.anchors)
    const_ok = True
    for i in range(5):
        g = stream(42000, i)
        d = 2 + i % 3
        a = AffineMap(random_signed_permutation(g, d), g.standard_normal(d))
        rep = jacobian_identifiability_test(a, g.uniform(-2, 2, (6, d)))
        patterns = {(v.permutation, v.signs) for v in rep.anchors}
        const_ok &= rep.in_class and rep.pattern_consistent and len(patterns) == 1
    _verdict(
        10,
        cubic_out and const_ok,
        "cubic out-of-class at every anchor; signed permutations in-class, one pattern",
    )


# ---------------------------------------------------------------------------
# 11: every experiment kind replays from its manifest


def test_criterion_11_replay_battery(tmp_path, capsys):
    runs = [
        ("commutant", "commutant_shared.json", 0),
        ("simulate", "simulate_shear.json", 0),
        ("recover", "recover_inverse.json", 0),
        ("imitate", "imitate_swap_pair.json", 0),
        ("verify", "verify_planted_claim.json", 2),
        ("stochastic-test", "stochastic_swap.json", 0),
    ]
    summaries = []
    for kind, name, expected in runs:
        out = tmp_path / name.replace(".json", "")
        status = cli_main([kind, str(FIXTURES / name), "--output-dir", str(out)])
        assert status == expected, f"{name}: exit {status}, expected {expected}"
        capsys.readouterr()
        rstatus = cli_main(
            ["replay", str(out / "manifest.json"), "--output-dir", str(out / "replayed")]
        )
        result = json.loads(capsys.readouterr().out)
        assert rstatus == 0 and result["match"] is True, f"{name}: replay diverged"
        allowed = {"bitwise"} if kind != "stochastic-test" else {"bitwise", "within-tolerance"}
        for entry in result["files"]:
            assert entry["match"] in allowed, f"{name}/{entry['file']}: {entry['match']}"
        summaries.append(f"{kind} {'bitwise' if all(e['match'] == 'bitwise' for e in result['files']) else 'tol'}")
    _verdict(11, len(summaries) == 6, "; ".join(summaries))
