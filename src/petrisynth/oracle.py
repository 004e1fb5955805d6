"""Exhaustive region enumeration, for cross-checking and small inputs.

A region is determined by its initial support and its signature, so the
candidate space is (b+1) * |tau events|^|events|.  The oracle walks it in
lexicographic order and decides separation problems by greedy witness
assembly.  Budgets keep runaway inputs from hanging: exceeding one raises,
it never silently degrades into a wrong answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .nettypes import NetType
from .regions import CoverageView, Region, WitnessSet, solves, support_from_signature
from .ts import PROBLEMS, SeparationAtom, TransitionSystem, enumerate_atoms


@dataclass(frozen=True)
class OracleBudget:
    max_candidates: int = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when enumeration runs past the candidate budget.

    checked is the number of candidates consumed; for decision runs,
    remaining carries the atoms still open, so the caller can tell an
    inconclusive run from a negative answer.
    """

    def __init__(self, checked: int, remaining: Optional[list[SeparationAtom]] = None):
        self.checked = checked
        self.remaining = remaining
        detail = f"oracle budget exhausted after {checked} candidates"
        if remaining:
            detail += f"; {len(remaining)} atoms still open"
        super().__init__(detail)


@dataclass
class OracleReport:
    answer: bool
    witness: Optional[WitnessSet]
    failing: Optional[SeparationAtom]
    checked: int


def _candidates(
    ts: TransitionSystem, tau: NetType, budget: OracleBudget
) -> Iterator[tuple[int, Region]]:
    """Regions in (sup_init, signature) lexicographic order, each with the
    number of candidates consumed so far.

    Signature tuples follow the net type's canonical event order, one slot
    per TS event in declared order.  Raises BudgetExceeded before consuming
    a candidate past the budget.
    """
    checked = 0
    for sup_init in range(tau.bound + 1):
        for combo in itertools.product(tau.events, repeat=len(ts.events)):
            if checked == budget.max_candidates:
                raise BudgetExceeded(checked)
            checked += 1
            region = support_from_signature(ts, tau, sup_init, dict(zip(ts.events, combo)))
            if region is not None:
                yield checked, region


def enumerate_regions(
    ts: TransitionSystem, tau: NetType, budget: Optional[OracleBudget] = None
) -> Iterator[Region]:
    """All regions of the TS, in (sup_init, signature) lexicographic order."""
    for _, region in _candidates(ts, tau, budget or OracleBudget()):
        yield region


def oracle_decide(
    ts: TransitionSystem,
    tau: NetType,
    problem: str,
    budget: Optional[OracleBudget] = None,
) -> OracleReport:
    """Decide ssp, essp or solvability by exhausting the region space.

    The witness keeps each candidate that solves a still-open atom, so its
    coverage, first fit over the kept regions, charges every atom to the
    region that closed it.  A False answer means the space was fully
    enumerated and the failing atom has no solving region at all.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem: {problem}")
    unsolved = enumerate_atoms(ts, problem)
    regions: list[Region] = []
    checked = 0
    try:
        if unsolved:
            for checked, region in _candidates(ts, tau, budget or OracleBudget()):
                rest = [a for a in unsolved if not solves(region, tau, a)]
                if len(rest) < len(unsolved):
                    regions.append(region)
                    unsolved = rest
                    if not unsolved:
                        break
    except BudgetExceeded as exc:
        raise BudgetExceeded(exc.checked, unsolved) from None
    if unsolved:
        space = (tau.bound + 1) * len(tau.events) ** len(ts.events)
        return OracleReport(False, None, unsolved[0], space)
    return OracleReport(True, WitnessSet(regions, CoverageView(ts, tau, regions, problem)), None, checked)
