"""Exhaustive region enumeration, for cross-checking and small inputs.

A region is determined by its initial support and its signature, so the
candidate space is (b+1) * |tau events|^|events|.  The oracle walks it in
lexicographic order and decides separation problems by greedy witness
assembly.  The walk assigns signatures one event at a time, tabling a tau
event when it is first assigned, and skips every signature prefix that fails
on an arc, so only regions are built; the order and the candidate counts are
those of the full product.  Budgets keep runaway inputs from hanging:
exceeding one raises, it never silently degrades into a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .nettypes import NetType
from .polysynth import OpenAtoms
from .regions import CoverageView, Region, WitnessSet, propagate_support
from .ts import SeparationAtom, TransitionSystem


@dataclass(frozen=True)
class OracleBudget:
    max_candidates: int = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when enumeration runs past the candidate budget.

    checked is the number of candidates consumed; for decision runs,
    remaining counts the atoms still open, so the caller can tell an
    inconclusive run from a negative answer.
    """

    def __init__(self, checked: int, remaining: Optional[int] = None):
        self.checked = checked
        self.remaining = remaining
        detail = f"oracle budget exhausted after {checked} candidates"
        if remaining:
            detail += f"; {remaining} atoms still open"
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
    per TS event in declared order.  The walk assigns the events depth
    first in that order and propagates supports along the arcs of the
    events assigned so far; a signature prefix that already fails on an
    arc (an undefined step, or two walks that disagree) is skipped with
    every completion, and all of them are counted as consumed.  So the
    regions, their order and the counts are those of the full product; each
    region is read off the walk, its states in propagate_support's order.
    Raises BudgetExceeded before consuming a candidate past the budget.
    """
    limit = budget.max_candidates
    n, k = len(ts.events), len(tau.events)
    index = ts.index
    # arcs as (src, event, dst) positions, listed per event and per source
    out = [[(src, i, dst) for i, dst in arcs] for src, arcs in enumerate(index.out)]
    by_event: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for arcs in out:
        for arc in arcs:
            by_event[arc[1]].append(arc)
    tables: list[Optional[tuple[Optional[int], ...]]] = [None] * k  # per tau event, on first assignment
    order: Optional[list[tuple[str, int]]] = None  # at the first region: an unreachable state raises there
    checked = 0

    def consume(count: int) -> None:
        nonlocal checked
        if checked <= limit < checked + count:
            raise BudgetExceeded(limit)
        checked += count

    for sup_init in range(tau.bound + 1):
        sup: list[Optional[int]] = [None] * len(out)
        sup[index.initial] = sup_init
        fixed: list[int] = []  # states fixed by the assigned events, in order
        marks = [0] * (n + 1)  # len(fixed) on entering each depth
        choice = [-1] * n  # index into tau.events per assigned event
        depth = 0
        while depth >= 0:
            if depth == n:
                consume(1)
                if order is None:
                    order = [(s, index.state[s]) for s in propagate_support(ts, 0, [(0,)] * n)]
                sig = {e: tau.events[c] for e, c in zip(ts.events, choice)}
                yield checked, Region({s: sup[p] for s, p in order}, sig)
                depth -= 1
                continue
            for state in fixed[marks[depth]:]:
                sup[state] = None
            del fixed[marks[depth]:]
            choice[depth] += 1
            if choice[depth] < k and tables[choice[depth]] is None:
                tables[choice[depth]] = tau.step(tau.events[choice[depth]])
            if choice[depth] == k:
                choice[depth] = -1
                depth -= 1
            elif _propagate(sup, fixed, by_event[depth], out, tables, choice, depth):
                depth += 1
                marks[depth] = len(fixed)
            else:
                consume(k ** (n - depth - 1))


def _propagate(
    sup: list[Optional[int]],
    fixed: list[int],
    arcs: list[tuple[int, int, int]],
    out: list[list[tuple[int, int, int]]],
    tables: list[Optional[tuple[Optional[int], ...]]],
    choice: list[int],
    depth: int,
) -> bool:
    """Walk the arcs of the event just assigned (at depth) from the states
    already fixed, then the arcs of events 0..depth out of every state this
    fixes, reading the tables of those events only.  Newly fixed states go
    to sup and fixed.  False on an undefined step or a disagreement."""
    work = list(arcs)
    while work:
        src, i, dst = work.pop()
        tokens = sup[src]
        if tokens is None or i > depth:
            continue
        nxt = tables[choice[i]][tokens]
        if nxt is None:
            return False
        known = sup[dst]
        if known is None:
            sup[dst] = nxt
            fixed.append(dst)
            work.extend(out[dst])
        elif known != nxt:
            return False
    return True


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

    The witness keeps each candidate that closes one of the OpenAtoms, so
    its coverage, first fit over the kept regions, charges every atom to
    the region that closed it.  A False answer means the space was fully
    enumerated and the failing atom has no solving region at all.
    """
    open_atoms = OpenAtoms(ts, tau, problem)
    regions: list[Region] = []
    checked = 0
    try:
        if len(open_atoms):
            for checked, region in _candidates(ts, tau, budget or OracleBudget()):
                if open_atoms.add(region):
                    regions.append(region)
                    if not len(open_atoms):
                        break
    except BudgetExceeded as exc:
        raise BudgetExceeded(exc.checked, len(open_atoms)) from None
    if len(open_atoms):
        space = (tau.bound + 1) * len(tau.events) ** len(ts.events)
        return OracleReport(False, None, open_atoms.first(), space)
    return OracleReport(True, WitnessSet(regions, CoverageView(ts, tau, regions, problem)), None, checked)
