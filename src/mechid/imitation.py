"""Mechanism imitation: maps that turn one mechanism into another.

a intertwines m1 into m2 when a∘m1 = m2∘a. For affine data this is again a
linear system over (A, p): A M1 = M2 A and A b1 + p = M2 p + b2, built and
read by the same rule as an equivariance family (`equivariance._intertwiner_family`),
so a system the identity solves always keeps it. The imitator closure asks
for one shared map a such that every used mechanism is carried onto *some*
member of the declared class; assignments are enumerated explicitly, pruned
by eigenvalue spectra (conjugation preserves them), and capped by a budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import AffineMechanism
from .equivariance import (
    CLOSURE_TOL_FACTOR,
    EIGENGAP_RTOL,
    AffineMapFamily,
    _as_points,
    _intertwiner_family,
    _intertwiner_system,
    check_equivariance,
    check_imitation,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    ToleranceAmbiguityError,
)
from .linalg import DEFAULT_RTOL, null_space
from .maps import AffineMap, map_power

__all__ = [
    "DEFAULT_ASSIGNMENT_BUDGET",
    "CLOSURE_TOL_FACTOR",
    "MechanismClass",
    "ImitationRecord",
    "AssignmentFamily",
    "ImitatorClosure",
    "CycleReport",
    "find_affine_intertwiners",
    "check_imitation",
    "imitator_closure",
    "cycle_analysis",
]

DEFAULT_ASSIGNMENT_BUDGET = 10_000
# A cycle's k-fold power of the map commutes with each member within this residual.
_CYCLE_POWER_TOL = 1e-7


@dataclass(frozen=True)
class MechanismClass:
    """The mechanisms actually used plus hypothesized alternates.

    Targets for imitation are drawn from used + hypothesized. All members
    must share one latent dimension.
    """

    used: tuple[AffineMechanism, ...]
    hypothesized: tuple[AffineMechanism, ...] = ()

    def __post_init__(self):
        used = tuple(self.used)
        hyp = tuple(self.hypothesized)
        if not used:
            raise ValueError("at least one used mechanism is required")
        d = used[0].dim
        for m in used + hyp:
            if m.dim != d:
                raise DimensionMismatchError("mechanism class mixes latent dimensions")
        object.__setattr__(self, "used", used)
        object.__setattr__(self, "hypothesized", hyp)

    @property
    def members(self) -> tuple[AffineMechanism, ...]:
        return self.used + self.hypothesized

    @property
    def dim(self) -> int:
        return self.used[0].dim

    def label_of(self, index: int) -> str:
        m = self.members[index]
        if m.label:
            return m.label
        return f"used[{index}]" if index < len(self.used) else f"hypothesized[{index - len(self.used)}]"


@dataclass(frozen=True)
class ImitationRecord:
    """One verified source -> target imitation by a shared map."""

    source: str
    target: str
    residual: float
    tol: float

    def __post_init__(self):
        if not self.residual <= self.tol:
            raise ValueError(
                f"imitation record residual {self.residual:.3e} exceeds tolerance {self.tol:.3e}"
            )


def find_affine_intertwiners(
    m1: AffineMechanism, m2: AffineMechanism, rtol: float = DEFAULT_RTOL
) -> AffineMapFamily:
    """The affine solution set of {A M1 = M2 A, A b1 + p = M2 p + b2}.

    The family may be empty (spectra differ), trivial (only singular A), or
    a positive-dimensional affine subspace, cut at `rtol`. Use
    `.representative(seed)` to extract an invertible member when one exists.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatchError("mechanisms have different dimensions")
    C, r = _intertwiner_system(m1.M[None], m1.b[None], m2.M[None], m2.b[None])
    return _intertwiner_family(C, r, null_space(C, rtol, r), m1.dim, rtol)


def _sorted_spectrum(m: AffineMechanism) -> np.ndarray:
    w = np.linalg.eigvals(m.M)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def _spectra_match(w1: np.ndarray, w2: np.ndarray) -> bool:
    scale = max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))), 1e-300)
    return bool(np.max(np.abs(w1 - w2)) <= EIGENGAP_RTOL * scale)


@dataclass(frozen=True)
class AssignmentFamily:
    """Solution family for one assignment of used mechanisms to targets."""

    assignment: tuple[int, ...]
    family: AffineMapFamily
    representative: AffineMap | None
    records: tuple[ImitationRecord, ...]


@dataclass(frozen=True)
class ImitatorClosure:
    """Everything found by enumerating target assignments.

    `assignments` holds only assignments whose system is solvable with an
    invertible representative; counting fields record how much was searched
    and how much the spectrum pruning removed.
    """

    assignments: tuple[AssignmentFamily, ...]
    candidates_total: int
    candidates_after_pruning: int
    solved: int


def imitator_closure(
    cls: MechanismClass,
    rtol: float = DEFAULT_RTOL,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    grid=None,
    check_tol: float | None = None,
    seed: int = 0,
) -> ImitatorClosure:
    """Search for shared affine maps carrying each used mechanism into the class.

    Enumerates assignments sigma: used -> members, pruned by eigenvalue
    multisets (conjugation preserves spectra), solves each stacked
    intertwiner system for one shared (A, p), and keeps assignments with a
    representative invertible at `rtol` whose grid residuals verify within
    `check_tol` (default CLOSURE_TOL_FACTOR * rtol). Raises when the
    post-pruning assignment count exceeds `budget`.
    """
    check_tol = CLOSURE_TOL_FACTOR * rtol if check_tol is None else check_tol
    members = cls.members
    spectra = [_sorted_spectrum(m) for m in members]
    compatible = [
        [j for j in range(len(members)) if _spectra_match(spectra[i], spectra[j])]
        for i in range(len(cls.used))
    ]
    total = len(members) ** len(cls.used)
    after_pruning = math.prod(len(t) for t in compatible)
    if after_pruning > budget:
        raise BudgetExceededError(after_pruning, budget)
    points = _as_points(grid, cls.dim)
    used_M = np.stack([m.M for m in cls.used])
    used_b = np.stack([m.b for m in cls.used])
    member_M = np.stack([m.M for m in members])
    member_b = np.stack([m.b for m in members])
    found: list[AssignmentFamily] = []
    solved = 0
    for k, assignment in enumerate(itertools.product(*compatible)):
        # only this assignment's stacked system is held at a time
        to = list(assignment)
        C, r = _intertwiner_system(used_M, used_b, member_M[to], member_b[to])
        family = _intertwiner_family(C, r, null_space(C, rtol, r), cls.dim, rtol)
        if not family.consistent:
            continue
        rep = family.representative(seed=seed + k)
        if rep is None:
            continue
        solved += 1
        records = []
        for i, j in enumerate(assignment):
            report = check_imitation(rep, cls.used[i], members[j], points, tol=check_tol)
            if not report.passed:
                break
            records.append(
                ImitationRecord(
                    source=cls.label_of(i),
                    target=cls.label_of(j),
                    residual=report.max_residual,
                    tol=check_tol,
                )
            )
        else:  # every used mechanism verified
            found.append(
                AssignmentFamily(
                    assignment=tuple(assignment),
                    family=family,
                    representative=rep,
                    records=tuple(records),
                )
            )
    return ImitatorClosure(
        assignments=tuple(found),
        candidates_total=total,
        candidates_after_pruning=after_pruning,
        solved=solved,
    )


@dataclass(frozen=True)
class CycleReport:
    """How a shared map permutes a finite mechanism set.

    When a belongs to the closure of a finite used set, matching each
    mechanism to its image defines a permutation; on each cycle of length k
    the k-fold composition of a commutes with every member. An unmatched
    mechanism's match residual is None.
    """

    in_closure: bool
    permutation: tuple[int, ...] | None
    cycles: tuple[tuple[int, ...], ...]
    match_residuals: tuple[float | None, ...]
    power_residuals: tuple[float, ...]
    power_checks_passed: bool
    unmatched: tuple[int, ...] = ()


def _permutation_cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def cycle_analysis(
    a,
    mechanisms: Sequence[AffineMechanism],
    grid=None,
    tol: float = 1e-8,
) -> CycleReport:
    """Match each mechanism to its image under conjugation by a.

    Zero matches for some mechanism yields an out-of-closure verdict (not an
    error). Multiple matches, or two mechanisms sharing an image, contradict
    the injectivity of the imitation map for distinct mechanisms and raise a
    tolerance-ambiguity error.
    """
    mechanisms = list(mechanisms)
    if not mechanisms:
        raise ValueError("at least one mechanism is required")
    points = _as_points(grid, mechanisms[0].dim)
    assigned: list[int | None] = []
    residuals: list[float | None] = []
    for i, m in enumerate(mechanisms):
        hits = []
        hit_res = []
        for j, target in enumerate(mechanisms):
            report = check_imitation(a, m, target, points, tol=tol)
            if report.passed:
                hits.append(j)
                hit_res.append(report.max_residual)
        if len(hits) > 1:
            raise ToleranceAmbiguityError(
                f"mechanism {i} matches {len(hits)} targets {hits}; distinct mechanisms "
                f"cannot share an imitator image, so the tolerance is too loose"
            )
        assigned.append(hits[0] if hits else None)
        residuals.append(hit_res[0] if hit_res else None)
    unmatched = tuple(i for i, j in enumerate(assigned) if j is None)
    if unmatched:
        return CycleReport(
            in_closure=False,
            permutation=None,
            cycles=(),
            match_residuals=tuple(residuals),
            power_residuals=(),
            power_checks_passed=False,
            unmatched=unmatched,
        )
    perm = [int(j) for j in assigned]
    if len(set(perm)) != len(perm):
        raise ToleranceAmbiguityError(
            "two mechanisms share one imitator image; inputs contain duplicates "
            "or the tolerance is too loose"
        )
    cycles = _permutation_cycles(perm)
    power_residuals = []
    ok = True
    for cyc in cycles:
        k = len(cyc)
        a_k = map_power(a, k)
        for i in cyc:
            report = check_equivariance(a_k, mechanisms[i], points, tol=_CYCLE_POWER_TOL)
            power_residuals.append(report.max_residual)
            ok = ok and report.passed
    return CycleReport(
        in_closure=True,
        permutation=tuple(perm),
        cycles=cycles,
        match_residuals=tuple(residuals),
        power_residuals=tuple(power_residuals),
        power_checks_passed=bool(ok),
    )
