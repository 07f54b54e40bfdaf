"""Mechanism imitation: maps that turn one mechanism into another.

a intertwines m1 into m2 when a∘m1 = m2∘a. For affine data this is again a
linear system over (A, p): A M1 = M2 A and A b1 + p = M2 p + b2, built and
read by the same rule as an equivariance family (`equivariance._intertwiner_family`),
so a system the identity solves always keeps it. The imitator closure asks
for one shared map a such that every used mechanism is carried onto *some*
member of the declared class. Assignments are pruned by eigenvalue spectra
(conjugation preserves them), capped by a budget and searched depth first
over the used mechanisms: a node appends one used -> target block of rows to
its parent's null basis and particular solution, so each prefix is solved
once for all of its completions, and a prefix with no solution is not
extended.
"""

from __future__ import annotations

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
    _data_scale,
    _intertwiner_family,
    _intertwiner_system,
    _particular,
    _row_blocks,
    check_equivariance,
    check_imitation,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    ToleranceAmbiguityError,
)
from .linalg import DEFAULT_RTOL, _check_count, _min_cost_assignment, null_space
from .maps import AffineMap, map_power

__all__ = [
    "DEFAULT_ASSIGNMENT_BUDGET",
    "CLOSURE_TOL_FACTOR",
    "MechanismClass",
    "ImitationRecord",
    "AssignmentFamily",
    "ImitatorClosure",
    "CycleReport",
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


def _spectra_match(w1: np.ndarray, w2: np.ndarray) -> bool:
    """Do two eigenvalue multisets pair up within EIGENGAP_RTOL of the larger spectral radius?

    An exact perfect-matching test: a pair costs 0 when its gap is within the
    tolerance and 1 otherwise, and the spectra match when the least-cost
    assignment costs 0. No sort order is relied on (rounding can order the
    two copies of a tied complex pair differently in the two spectra), nor
    does a nearest-first pairing reject a cluster that does pair.
    """
    scale = max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))), 1e-300)
    cost = (np.abs(w1[:, None] - w2[None, :]) > EIGENGAP_RTOL * scale).astype(float)
    return not cost[np.arange(len(w1)), _min_cost_assignment(cost.tolist())].any()


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

    Assignments sigma: used -> members are pruned by eigenvalue multisets
    (conjugation preserves spectra) and searched depth first, in the order
    of `itertools.product`. The node for sigma(0), ..., sigma(i) adds the
    rows of used i -> sigma(i) to its parent's solution in `_row_blocks`, one
    `null_space` solve per block, as `_intertwiner_solve` adds a pair, so a
    family is the same bits as `_intertwiner_solve` of its pairs whenever
    both cuts keep the same rank; a node whose stacked system has no
    solution (`_particular`) is not extended. A complete assignment is kept
    when its representative is invertible at `rtol` and its grid residuals
    verify within `check_tol` (default CLOSURE_TOL_FACTOR * rtol). Raises
    when the post-pruning assignment count exceeds `budget`.
    """
    _check_count("budget", budget, 1)
    check_tol = CLOSURE_TOL_FACTOR * rtol if check_tol is None else check_tol
    members = cls.members
    spectra = [np.linalg.eigvals(m.M) for m in members]
    compatible = [
        [j for j in range(len(members)) if _spectra_match(spectra[i], spectra[j])]
        for i in range(len(cls.used))
    ]
    sizes = [len(t) for t in compatible]
    total = len(members) ** len(cls.used)
    after_pruning = math.prod(sizes)
    if after_pruning > budget:
        raise BudgetExceededError(after_pruning, budget)
    points = _as_points(grid, cls.dim)
    d = cls.dim
    M = np.stack([m.M for m in members])
    b = np.stack([m.b for m in members])
    # the rows of every compatible pair used i -> member j, built once; pair
    # first[i] + pos maps used i to compatible[i][pos]
    first = np.cumsum([0] + sizes)
    source = np.repeat(np.arange(len(compatible)), sizes)
    target = np.concatenate(compatible)
    C, r = _intertwiner_system(M[source], b[source], M[target], b[target])
    C = C.reshape(len(target), -1, C.shape[1])
    r = r.reshape(len(target), -1)
    scale = _data_scale(M, b)
    found: list[AssignmentFamily] = []
    solved = 0
    # (used index, position in its compatible list, parent (basis, x), parent pairs, parent rank)
    stack = [(0, pos, None, [], 0) for pos in reversed(range(sizes[0]))]
    while stack:
        i, pos, start, path, index = stack.pop()
        pair = first[i] + pos
        # `_blocked_null_space`'s loop on this module's `null_space`, where tracing counts closure solves
        for block, rhs in _row_blocks(C[pair], r[pair], d * d):
            basis, x, _ = null_space(block, rtol, rhs, scale, start)
            start = basis, x
        path = path + [pair]
        index = index * sizes[i] + pos  # at a leaf, the assignment's rank in product order
        Cs, rs = C[path].reshape(-1, C.shape[2]), r[path].reshape(-1)
        if i + 1 < len(compatible):
            if _particular(Cs, rs, x, d, rtol)[0] is not None:  # else no completion is solved
                stack.extend((i + 1, q, start, path, index) for q in reversed(range(sizes[i + 1])))
            continue
        family = _intertwiner_family(Cs, rs, basis, x, d, rtol)
        if not family.consistent:
            continue
        rep = family.representative(seed=seed + index)
        if rep is None:
            continue
        solved += 1
        assignment = tuple(int(j) for j in target[path])
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
                    assignment=assignment,
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
