"""Observation-identity verification against latent equivariance.

The two routes are independent by construction: the latent route never
touches a decoder, and the observation route only sees decoded points.
"""

import numpy as np
import pytest

from mechid import (
    AffineMechanism,
    CandidateModel,
    LinearDecoder,
    ScalarMap,
    StructuredDecoder,
    TransformedDecoder,
    affine_equivariances,
    membership_equivalence_audit,
    verify_identity_unknown_mech,
    verify_observation_identity,
)
from mechid.maps import AffineMap
from mechid.rng import stream

from conftest import SWAP, random_invertible

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
    ok = verify_identity_unknown_mech(G, [DIAG23], cand, [DIAG32])
    assert ok.passed
    forced = verify_identity_unknown_mech(G, [DIAG23], cand, [DIAG23], tol=1e-8)
    assert not forced.passed
    assert len(forced.steps) == 1


def test_unknown_mech_schedule_length_guard():
    from mechid.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        verify_identity_unknown_mech(G, [DIAG23, DIAG23], G, [DIAG23])


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
