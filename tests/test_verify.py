"""Observation-identity verification against latent equivariance.

The two routes are independent by construction: the latent route never
touches a decoder, and the observation route only sees decoded points.
"""

import numpy as np
import pytest

from mechid import (
    AffineMechanism,
    CandidateModel,
    GridSpec,
    LinearDecoder,
    ScalarMap,
    StructuredDecoder,
    affine_equivariances,
    membership_equivalence_audit,
)
from mechid.errors import NonFiniteSampleError
from mechid.maps import AffineMap
from mechid.rng import stream
from mechid.verify import _AUDIT_BLOCK, AuditRow, _audit_block

from conftest import (
    SWAP,
    TransformedDecoder,
    _identity_residuals,
    random_invertible,
    verify_observation_identity,
)

DIAG23 = AffineMechanism(np.diag([2.0, 3.0]), np.zeros(2))
DIAG32 = AffineMechanism(np.diag([3.0, 2.0]), np.zeros(2))
G = LinearDecoder(np.array([[1.0, 1.0], [0.0, 1.0], [0.5, -0.5]]))


def test_truth_matches_itself_exactly():
    report = verify_observation_identity(G, DIAG23, G)
    assert report.passed
    assert report.max_residual == 0.0


def test_equivariant_candidate_passes():
    m = AffineMechanism(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    fam = affine_equivariances(m)
    a = fam.family.representative(seed=3)
    cand = TransformedDecoder(G, a)
    assert verify_observation_identity(G, m, cand).passed


def test_random_candidate_fails():
    gen = stream(101)
    a = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    cand = TransformedDecoder(G, a)
    report = verify_observation_identity(G, DIAG23, cand, tol=1e-8)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_unknown_mechanism_swap_hypothesis():
    swap = AffineMap(SWAP, np.zeros(2))
    cand = TransformedDecoder(G, swap)
    ok = verify_observation_identity(G, DIAG23, cand, candidate_mechanism=DIAG32)
    assert ok.passed
    forced = verify_observation_identity(G, DIAG23, cand, tol=1e-8, candidate_mechanism=DIAG23)
    assert not forced.passed


def test_audit_agreement_on_mixed_candidates():
    m = AffineMechanism(np.array([[1.2, 0.4], [0.0, 0.8]]), np.array([0.5, -0.3]))
    fam = affine_equivariances(m)
    gen = stream(103)
    candidates = []
    for k in range(4):
        rep = fam.family.representative(seed=20 + k)
        candidates.append(CandidateModel(label=f"member{k}", latent_map=rep,
                                         expect_equivariant=True))
    for k in range(4):
        a = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
        candidates.append(CandidateModel(label=f"random{k}", latent_map=a,
                                         expect_equivariant=False))
    report = membership_equivalence_audit(G, [m], candidates)
    assert report.agreement
    assert report.claims_ok
    for row in report.rows:
        assert row.equivariance_pass == row.identity_pass
        assert row.coupling_ok
    assert [r.equivariance_pass for r in report.rows] == [True] * 4 + [False] * 4


def test_audit_flags_false_claim():
    gen = stream(107)
    a = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    cand = CandidateModel(label="liar", latent_map=a, expect_equivariant=True)
    report = membership_equivalence_audit(G, [DIAG23], [cand])
    assert report.agreement
    assert not report.claims_ok
    assert report.rows[0].claim_ok is False


def test_candidate_model_requires_latent_map():
    with pytest.raises(TypeError):
        CandidateModel(label="x")


def test_audit_workers_do_not_change_results():
    m = AffineMechanism(np.array([[1.2, 0.4], [0.0, 0.8]]), np.array([0.5, -0.3]))
    gen = stream(109)
    cands = [AffineMap(random_invertible(gen, 2), gen.standard_normal(2)) for _ in range(6)]
    serial = membership_equivalence_audit(G, [m], cands, workers=1)
    threaded = membership_equivalence_audit(G, [m], cands, workers=4)
    assert serial.table() == threaded.table()


def test_audit_through_structured_decoder():
    # nonlinear coordinatewise decoder: the coupling inequality still holds
    gen = stream(113)
    Gs = StructuredDecoder(
        gen.standard_normal((4, 2)),
        (
            ScalarMap("sinh"),
            ScalarMap("identity"),
            ScalarMap("cubic", beta=0.2),
            ScalarMap("asinh"),
        ),
    )
    m = AffineMechanism(np.diag([0.9, 0.7]), np.array([0.1, 0.2]))
    fam = affine_equivariances(m)
    member = fam.family.representative(seed=5)
    outsider = AffineMap(random_invertible(gen, 2), gen.standard_normal(2))
    report = membership_equivalence_audit(
        Gs, [m], [member, outsider], tol_equivariance=1e-8
    )
    assert report.agreement
    assert report.rows[0].equivariance_pass and not report.rows[1].equivariance_pass
    for row in report.rows:
        assert row.coupling_ok


def test_identity_report_counts_grid_points():
    report = verify_observation_identity(G, DIAG23, G, grid=np.zeros((17, 2)))
    assert report.points == 17


# ---------------------------------------------------------------------------
# the blocked audit against the per-candidate loop


def reference_audit_one(truth_decoder, mechanisms, a, Z, X, raw_gaps=False):
    """One candidate at a time: a TransformedDecoder and three solves per mechanism.

    With `raw_gaps`, returns the largest raw commutation and identity gaps instead,
    the two sides of the coupling inequality.
    """
    cand_decoder = TransformedDecoder(truth_decoder, a)
    eq_res = id_res = raw_eq_max = raw_id_max = lip = 0.0
    x_norm = np.linalg.norm(X, axis=-1)
    for m in mechanisms:
        u = a(m(Z))
        v = m(a(Z))
        raw = np.linalg.norm(u - v, axis=-1)
        eq_res = max(eq_res, float(np.max(raw / (1.0 + np.linalg.norm(v, axis=-1)))))
        raw_eq_max = max(raw_eq_max, float(np.max(raw)))
        du = cand_decoder.decode(u)
        dv = cand_decoder.decode(v)
        obs_gap = np.linalg.norm(du - dv, axis=-1)
        sep = raw > 1e-13 * (1.0 + np.linalg.norm(u, axis=-1))
        if np.any(sep):
            lip = max(lip, float(np.max(obs_gap[sep] / raw[sep])))
        res = _identity_residuals(truth_decoder, m, cand_decoder, m, X)
        id_res = max(id_res, float(np.max(res)))
        raw_id_max = max(raw_id_max, float(np.max(res * (1.0 + x_norm))))
    if raw_gaps:
        return raw_eq_max, raw_id_max
    coupling_ok = raw_id_max <= 1.05 * lip * raw_eq_max + 1e-9 * (1.0 + float(np.max(x_norm)))
    return eq_res, id_res, lip, coupling_ok


def reference_audit_rows(truth_decoder, mechanisms, candidates, grid, tol_eq=1e-9):
    tol_id = 10.0 * tol_eq
    Z = grid.points()
    X = truth_decoder.decode(Z)
    rows = []
    for i, cand in enumerate(candidates):
        a, label, claim = cand.latent_map, cand.label, cand.expect_equivariant
        eq_res, id_res, lip, coupling_ok = reference_audit_one(truth_decoder, mechanisms, a, Z, X)
        eq_pass = bool(eq_res <= tol_eq)
        rows.append(
            AuditRow(
                label=label,
                equivariance_pass=eq_pass,
                identity_pass=bool(id_res <= tol_id),
                equivariance_residual=eq_res,
                identity_residual=id_res,
                lipschitz=lip,
                coupling_ok=coupling_ok,
                claim=claim,
                claim_ok=None if claim is None else claim == eq_pass,
            )
        )
    return tuple(rows)


def audit_case(gen, decoder_kind, mechanism_count):
    d = 2
    if decoder_kind == "linear":
        truth = LinearDecoder(gen.standard_normal((3, d)))
    else:
        maps = ("sinh", "identity", "cubic", "asinh")
        truth = StructuredDecoder(gen.standard_normal((4, d)), tuple(ScalarMap(k, beta=0.2) for k in maps))
    mechanisms = []
    for _ in range(mechanism_count):
        S = random_invertible(gen, d)
        M = S @ np.diag(gen.uniform(0.5, 1.5, d)) @ np.linalg.inv(S)
        mechanisms.append(AffineMechanism(M, gen.standard_normal(d)))
    members = affine_equivariances(mechanisms[0]).family
    candidates = []
    for k in range(13):
        if k % 3 == 0 and mechanism_count == 1:
            a = members.representative(seed=k)
        elif k % 3 == 1:
            a = AffineMap(np.eye(d), np.zeros(d))
        else:
            a = AffineMap(random_invertible(gen, d), gen.standard_normal(d))
        claim = [None, True, False][k % 3]
        candidates.append(CandidateModel(latent_map=a, label=f"c{k}", expect_equivariant=claim))
    return truth, mechanisms, candidates


AUDIT_FLAGS = ("label", "equivariance_pass", "identity_pass", "coupling_ok", "claim", "claim_ok")
AUDIT_FLOATS = ("equivariance_residual", "identity_residual", "lipschitz")


def assert_rows_near(got, want, floats=AUDIT_FLOATS):
    """Every flag of each row equal to the oracle's, every float within 1e-12 (1 + |oracle|).

    The audit inverts each candidate once and applies A^{-1} by a product,
    where the oracle solves against A, so their floats part at rounding level.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in AUDIT_FLAGS:
            assert getattr(g, name) == getattr(w, name), (w.label, name)
        for name in floats:
            ref = getattr(w, name)
            assert abs(getattr(g, name) - ref) <= 1e-12 * (1.0 + abs(ref)), (w.label, name)


def audit_one_at_a_time(truth, mechanisms, candidates, grid):
    """The audit called with one candidate at a time, its rows in candidate order."""
    return tuple(
        row for c in candidates for row in membership_equivalence_audit(truth, mechanisms, [c], grid=grid).rows
    )


@pytest.mark.parametrize("decoder_kind", ["linear", "structured"])
@pytest.mark.parametrize("mechanism_count", [1, 3])
def test_blocked_audit_rows_equal_the_per_candidate_loop(decoder_kind, mechanism_count):
    gen = stream(3300, mechanism_count)
    truth, mechanisms, candidates = audit_case(gen, decoder_kind, mechanism_count)
    # 3000 points give blocks of 5 candidates, so 13 candidates cross two boundaries
    grid = GridSpec(dim=2, count=3000, low=-1.0, high=1.0)
    assert 1 < _AUDIT_BLOCK // grid.count < len(candidates)
    single = audit_one_at_a_time(truth, mechanisms, candidates, grid)
    for workers in (1, 2):
        report = membership_equivalence_audit(
            truth, mechanisms, candidates, grid=grid, workers=workers
        )
        assert report.rows == single
    assert_rows_near(single, reference_audit_rows(truth, mechanisms, candidates, grid))
    small = GridSpec(dim=2, count=64)  # one block holds every candidate
    rows = membership_equivalence_audit(truth, mechanisms, candidates, grid=small).rows
    assert rows == audit_one_at_a_time(truth, mechanisms, candidates, small)
    assert_rows_near(rows, reference_audit_rows(truth, mechanisms, candidates, small))


def test_audit_block_raw_gaps_equal_the_loop():
    # the raw gaps reach a report only through the coupling flag, so check them here
    gen = stream(3301)
    truth, mechanisms, candidates = audit_case(gen, "structured", 1)
    Z = GridSpec(dim=2, count=64).points()
    X = truth.decode(Z)
    A = np.stack([c.latent_map.A for c in candidates])
    p = np.stack([c.latent_map.p for c in candidates])
    m = mechanisms[0]
    E = truth.encode(X)
    x_norm = np.linalg.norm(X, axis=-1)
    out = _audit_block(truth, m, A, p, Z, E, truth.decode(m(E)), x_norm)
    raw_eq, raw_id = out[1], out[4]
    for i, c in enumerate(candidates):
        one = _audit_block(truth, m, A[i : i + 1], p[i : i + 1], Z, E, truth.decode(m(E)), x_norm)
        assert (raw_eq[i], raw_id[i]) == (one[1][0], one[4][0])
        want = reference_audit_one(truth, mechanisms, c.latent_map, Z, X, raw_gaps=True)
        for got, ref in zip((raw_eq[i], raw_id[i]), want):
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


def conditioned(gen, d, kappa):
    """A d x d matrix with singular values kappa^(1/2) down to kappa^(-1/2): condition number kappa."""
    U, _ = np.linalg.qr(gen.standard_normal((d, d)))
    V, _ = np.linalg.qr(gen.standard_normal((d, d)))
    return U @ np.diag(np.sqrt(kappa) ** np.linspace(1.0, -1.0, d)) @ V.T


@pytest.mark.parametrize("decoder_kind", ["linear", "structured"])
def test_audit_verdicts_on_ill_conditioned_candidates_equal_the_oracle(decoder_kind):
    # members A = Q diag(c) Q' commute with M = Q diag(l) Q'; (M - I) p = (A - I) b fixes the offset
    gen = stream(3302)
    d = 3
    Q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    M = Q @ np.diag([0.5, 0.9, 1.4]) @ Q.T
    b = gen.standard_normal(d)
    m = AffineMechanism(M, b)
    if decoder_kind == "linear":
        truth = LinearDecoder(gen.standard_normal((5, d)))
    else:
        maps = ("cubic", "identity", "asinh", "identity", "cubic")
        truth = StructuredDecoder(gen.standard_normal((5, d)), tuple(ScalarMap(k, beta=0.2) for k in maps))
    candidates = []
    for kappa in (1e2, 1e4, 1e6):
        for k in range(2):
            c = np.sqrt(kappa) ** np.linspace(1.0, -1.0, d) * gen.choice([-1.0, 1.0], d)
            A = Q @ np.diag(c) @ Q.T
            p = np.linalg.solve(M - np.eye(d), (A - np.eye(d)) @ b)
            assert np.linalg.cond(A) == pytest.approx(kappa, rel=1e-6)
            candidates.append(CandidateModel(AffineMap(A, p), f"member-{kappa:.0e}-{k}", True))
            A = conditioned(gen, d, kappa)
            assert np.linalg.cond(A) == pytest.approx(kappa, rel=1e-6)
            candidates.append(CandidateModel(AffineMap(A, gen.standard_normal(d)), f"outsider-{kappa:.0e}-{k}", False))
    grid = GridSpec(dim=d, count=512, low=-1.0, high=1.0)
    report = membership_equivalence_audit(truth, [m], candidates, grid=grid)
    assert report.agreement and report.claims_ok
    assert [r.equivariance_pass for r in report.rows] == [True, False] * 6
    assert_rows_near(report.rows, reference_audit_rows(truth, [m], candidates, grid), floats=())


def reference_error(truth, mechanisms, candidates, grid):
    with pytest.raises(NonFiniteSampleError) as err:
        reference_audit_rows(truth, mechanisms, candidates, grid)
    return str(err.value)


def test_blocked_audit_names_the_first_nonfinite_point_like_the_loop():
    # exp overflows where a^-1 m a stretches a coordinate by 1e11 or 1e5. `late`
    # fails only at the second mechanism, from the first grid point with
    # z1 > 0 (index 2); `early` fails at the first, from the first with z2 > 0
    # (index 3). The loop reports the first failing candidate in input order.
    truth = StructuredDecoder(np.eye(2), (ScalarMap("exp"), ScalarMap("exp")))
    diagonal = AffineMechanism(np.diag([0.5, 0.8]), np.zeros(2))
    mixing = AffineMechanism(np.array([[0.5, 0.0], [0.5, 0.8]]), np.zeros(2))
    fine = CandidateModel(AffineMap(np.eye(2), np.zeros(2)), "fine")
    late = CandidateModel(AffineMap(np.diag([1e11, 1.0]), np.zeros(2)), "late")
    early = CandidateModel(AffineMap(np.array([[1.0, -1e5], [0.0, 1.0]]), np.zeros(2)), "early")
    grid = GridSpec(dim=2, count=3000, low=-1.0, high=1.0)  # blocks of 5 candidates
    mechanisms = [diagonal, mixing]
    point = "non-finite values produced at observation grid point {}"
    orders = {
        point.format(2): [[fine, late, early], [fine] * 6 + [late, early], [fine] * 4 + [late, early]],
        point.format(3): [[fine, early, late], [fine] * 4 + [early, late]],
    }
    with np.errstate(all="ignore"):
        for message, lists in orders.items():
            for cands in lists:
                assert reference_error(truth, mechanisms, cands, grid) == message
                with pytest.raises(NonFiniteSampleError) as err:
                    membership_equivalence_audit(truth, mechanisms, cands, grid=grid)
                assert str(err.value) == message


def test_audit_rejects_a_latent_map_that_is_not_affine():
    def swap(z):
        return z[..., ::-1]

    ident = AffineMap(np.eye(2), np.zeros(2))
    for bad in (swap, CandidateModel(swap, "swap")):
        with pytest.raises(TypeError, match=r"candidate\[1\].*AffineMap, got function"):
            membership_equivalence_audit(G, [DIAG23], [ident, bad])
