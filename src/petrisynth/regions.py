"""Regions of a TS with respect to a net type.

A region is a pair of maps (sup, sig): sup gives every state a token count
in 0..b, sig gives every event a tau event, and every arc s --e--> s' must
satisfy delta_tau(sup(s), sig(e)) == sup(s').  Regions are the places of a
synthesized net.  A region solves an atom:

  ssa (s, s'):  sup(s) != sup(s')
  essa (e, s):  delta_tau(sup(s), sig(e)) is undefined
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .nets import PetriNet
from .nettypes import NetType, TauEvent, delta_tau
from .ts import PROBLEMS, SeparationAtom, TransitionSystem, enumerate_atoms, iter_atoms


@dataclass
class Region:
    sup: dict[str, int]
    sig: dict[str, TauEvent]


@dataclass
class RegionCheck:
    ok: bool
    arc: Optional[tuple[str, str, str]] = None
    reason: str = ""


@dataclass
class WitnessSet:
    """Regions plus the atom coverage they were assembled for.

    coverage maps each atom to the index (into regions) of the first region
    that solves it.  build_witness, which also charges partial witnesses,
    stores it as a plain dict.  Every complete witness (the polynomial
    deciders, the oracle, ppt_essp_witness) hands out a CoverageView
    instead: a read-only lazy mapping that supports len, iteration and
    lookup but not item assignment, so nothing is stored per atom.
    """

    regions: list[Region] = field(default_factory=list)
    coverage: Mapping[SeparationAtom, int] = field(default_factory=dict)


class CoverageView(Mapping):
    """First-fit coverage of a complete witness, computed on lookup.

    Iterates the atoms of the problem in enumerate_atoms order and maps
    each to the index of the first of the regions that solves it, as
    build_witness would, without storing anything per atom.  Looking up
    anything that is not an atom of the problem (a reversed ssa pair, an
    enabled (e, s), an unknown name) raises KeyError, as does an atom that
    no region solves.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        tau: NetType,
        regions: Sequence[Region],
        problem: str,
    ):
        if problem not in PROBLEMS:
            raise ValueError(f"unknown problem: {problem}")
        self._ts = ts
        self._tau = tau
        self._regions = tuple(regions)
        self._problem = problem
        self._position = ts.index.state
        # per event, the regions whose signature of it can be undefined:
        # only those can solve its essa atoms; filled on first lookup
        self._partial: dict[str, Optional[list[int]]] = dict.fromkeys(ts.events)

    def __len__(self) -> int:
        n = len(self._ts.states)
        count = 0
        if self._problem != "essp":
            count += n * (n - 1) // 2
        if self._problem != "ssp":
            count += len(self._ts.events) * n - len(self._ts.arcs())
        return count

    def __iter__(self) -> Iterator[SeparationAtom]:
        return iter_atoms(self._ts, self._problem)

    def __getitem__(self, atom: SeparationAtom) -> int:
        if not self._is_atom(atom):
            raise KeyError(atom)
        if atom.kind == "ssa":
            candidates: Iterable[int] = range(len(self._regions))
        else:
            candidates = self._partial_on(atom.left)
        for i in candidates:
            if solves(self._regions[i], self._tau, atom):
                return i
        raise KeyError(atom)

    def _is_atom(self, atom: object) -> bool:
        if not isinstance(atom, SeparationAtom) or atom.right not in self._position:
            return False
        if atom.kind == "ssa":
            return (
                self._problem != "essp"
                and atom.left in self._position
                and self._position[atom.left] < self._position[atom.right]
            )
        return (
            atom.kind == "essa"
            and self._problem != "ssp"
            and atom.left in self._partial
            and not self._ts.has_arc(atom.right, atom.left)
        )

    def _partial_on(self, event: str) -> list[int]:
        found = self._partial[event]
        if found is None:
            found = self._partial[event] = [
                i for i, r in enumerate(self._regions) if None in self._tau.step(r.sig[event])
            ]
        return found


@dataclass
class WitnessReport:
    ok: bool
    missing: list[SeparationAtom]
    coverage: dict[SeparationAtom, int]


def validate_region(ts: TransitionSystem, tau: NetType, region: Region) -> RegionCheck:
    """Check the region condition on every arc; report the first failure.

    Support or signature maps that do not cover exactly the states and
    events of the TS raise ValueError.
    """
    if set(region.sup) != set(ts.states):
        raise ValueError("support map does not match the state set")
    if set(region.sig) != set(ts.events):
        raise ValueError("signature map does not match the event set")
    for s, v in region.sup.items():
        if not 0 <= v <= tau.bound:
            return RegionCheck(False, None, f"support out of range at {s}: {v}")
    for e, ev in region.sig.items():
        if not tau.is_event(ev):
            return RegionCheck(False, None, f"signature event outside {tau}: {e} -> {ev}")
    for src, event, dst in ts.arcs():
        got = delta_tau(tau, region.sup[src], region.sig[event])
        if got != region.sup[dst]:
            return RegionCheck(
                False,
                (src, event, dst),
                f"delta({region.sup[src]}, {region.sig[event]}) = {got}, "
                f"expected {region.sup[dst]}",
            )
    return RegionCheck(True)


def support_from_signature(
    ts: TransitionSystem, tau: NetType, sup_init: int, sig: dict[str, TauEvent]
) -> Optional[Region]:
    """Propagate an initial token count through a signature, if possible.

    The support of a region is determined by sup(initial) and sig: walking
    any arc fixes the target's support.  Returns None when propagation hits
    an undefined step or two walks disagree.
    """
    if set(sig) != set(ts.events):
        raise ValueError("signature map does not match the event set")
    if not 0 <= sup_init <= tau.bound:
        raise ValueError(f"initial support out of range: {sup_init}")
    sup = propagate_support(ts, sup_init, [tau.step(sig[e]) for e in ts.events])
    return None if sup is None else Region(sup, dict(sig))


def propagate_support(
    ts: TransitionSystem, sup_init: int, steps: Sequence[tuple[Optional[int], ...]]
) -> Optional[dict[str, int]]:
    """The support fixed by sup_init and one step table per TS event
    position, or None on an undefined step or two walks that disagree.

    Walks the arcs of ts.index depth first from the initial state; the
    support lists the states in the order the walk first reaches them.
    Raises ValueError if a state is unreachable.
    """
    index = ts.index
    out = index.out
    sup: list[Optional[int]] = [None] * len(out)
    sup[index.initial] = sup_init
    order = [index.initial]
    stack = [index.initial]
    while stack:
        state = stack.pop()
        tokens = sup[state]
        for event, dst in out[state]:
            nxt = steps[event][tokens]
            if nxt is None:
                return None
            known = sup[dst]
            if known is None:
                sup[dst] = nxt
                order.append(dst)
                stack.append(dst)
            elif known != nxt:
                return None
    if len(order) != len(out):
        raise ValueError("TS has unreachable states")
    states = ts.states
    return {states[p]: sup[p] for p in order}


def solves(region: Region, tau: NetType, atom: SeparationAtom) -> bool:
    """Whether the region solves the atom.  Raises ValueError for an essa
    atom whose state's support lies outside 0..b."""
    if atom.kind == "ssa":
        return region.sup[atom.left] != region.sup[atom.right]
    tokens = region.sup[atom.right]
    if not 0 <= tokens <= tau.bound:
        raise ValueError(f"support out of range at {atom.right}: {tokens}")
    return tau.step(region.sig[atom.left])[tokens] is None


def build_witness(
    ts: TransitionSystem,
    tau: NetType,
    regions: Sequence[Region],
    problem: str = "solvability",
) -> tuple[WitnessSet, list[SeparationAtom]]:
    """Greedy witness assembly: each atom is charged to the first region
    that solves it.  Returns the witness and the uncovered atoms."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem: {problem}")
    witness = WitnessSet(list(regions), {})
    missing = []
    for atom in enumerate_atoms(ts, problem):
        for i, region in enumerate(witness.regions):
            if solves(region, tau, atom):
                witness.coverage[atom] = i
                break
        else:
            missing.append(atom)
    return witness, missing


def check_witness(
    ts: TransitionSystem, tau: NetType, witness: WitnessSet, problem: str
) -> WitnessReport:
    """Whether the witness covers every atom of the problem."""
    rebuilt, missing = build_witness(ts, tau, witness.regions, problem)
    return WitnessReport(not missing, missing, rebuilt.coverage)


def synthesized_net(
    ts: TransitionSystem,
    tau: NetType,
    regions: Iterable[Region],
    name: Optional[str] = None,
) -> PetriNet:
    """Net whose places are the given regions, in order, named p0, p1, ...

    Each place pi starts at region i's support of the initial state; the
    flow of (pi, e) is region i's signature of e.
    """
    regions = list(regions)
    places = [(f"p{i}", r.sup[ts.initial]) for i, r in enumerate(regions)]
    flow = {}
    for i, r in enumerate(regions):
        for e in ts.events:
            flow[(f"p{i}", e)] = r.sig[e]
    return PetriNet(
        name=name or f"{ts.name}.net",
        net_type=tau,
        places=places,
        transitions=ts.events,
        flow=flow,
    )
