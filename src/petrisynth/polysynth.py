"""Polynomial-time separation deciders for the modulo net-type families.

The key observation: over zpt/zppt/rzpt, a region whose signature uses only
group events is determined modulo b+1 by linear data.  Fix a spanning tree
of the TS and let psi(s) be the per-event occurrence counts (mod b+1) along
the tree path to s.  An assignment abs of group values to events extends to
a region iff every chord's fundamental cycle count vector is orthogonal to
abs; the support is then sup(s) = sup_init + psi(s).abs.  That turns state
separation into small linear systems over Z_{b+1}, and for rzpt the same
trick settles event/state separation, because an rzpt pair (m,n) constrains
all sources of its event to one support value -- again linear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from . import modsolve
from .nets import DEFAULT_CAP, PetriNet, reachability_graph
from .nettypes import Group, NetType, Pair, TauEvent, absval, make_type, minus, plus
from .regions import (
    CoverageView,
    Region,
    WitnessSet,
    solves,
    support_from_signature,
    synthesized_net,
)
from .ts import SeparationAtom, TransitionSystem, deterministic_isomorphism

Z_DECIDABLE_SSP = ("zpt", "zppt", "rzpt")


@dataclass
class SpanningData:
    """Spanning tree of a TS plus path count vectors modulo bound+1.

    parent maps every non-initial state to its tree arc (src, event, dst);
    chords are the non-tree arcs in input arc order; psi[s] counts, per
    event in declared order, the occurrences along the tree path from the
    initial state to s.
    """

    ts: TransitionSystem
    bound: int
    parent: dict[str, tuple[str, str, str]]
    chords: tuple[tuple[str, str, str], ...]
    psi: dict[str, tuple[int, ...]]

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """The nonzero fundamental cycle rows, in chord order."""
        return tuple(
            row for chord in self.chords if any(row := fundamental_cycle(self, chord))
        )

    @cached_property
    def reduced_cycles(self) -> tuple[tuple[int, ...], ...]:
        """The base system's rows in reduced form, shared by every ssa probe."""
        base = base_system(self)
        return modsolve.reduce_rows(base.modulus, base.rows, base.cols)


@dataclass(frozen=True)
class AbstractRegion:
    """Group-only region in vector form: abs aligned to the event order."""

    sup_init: int
    abs: tuple[int, ...]


@dataclass
class DecisionReport:
    holds: bool
    witness: Optional[WitnessSet]
    failing: Optional[SeparationAtom]


@dataclass
class SynthesisReport:
    net: Optional[PetriNet]
    failing: Optional[SeparationAtom]
    witness: Optional[WitnessSet]
    isomorphism: Optional[dict[str, str]]


def build_spanning(ts: TransitionSystem, bound: int, order: str = "bfs") -> SpanningData:
    """Spanning tree in input arc order, breadth-first by default.

    order "dfs" flips the traversal; any spanning tree gives the same
    decision procedures, which tests exploit.
    """
    if order not in ("bfs", "dfs"):
        raise ValueError(f"unknown traversal order: {order}")
    modulus = bound + 1
    index = {e: i for i, e in enumerate(ts.events)}
    zero = (0,) * len(ts.events)
    parent: dict[str, tuple[str, str, str]] = {}
    psi = {ts.initial: zero}
    frontier = [ts.initial]
    tree: set[tuple[str, str, str]] = set()
    while frontier:
        state = frontier.pop(0 if order == "bfs" else -1)
        for event, dst in ts.out_edges(state):
            if dst in psi:
                continue
            arc = (state, event, dst)
            parent[dst] = arc
            tree.add(arc)
            vec = list(psi[state])
            vec[index[event]] = (vec[index[event]] + 1) % modulus
            psi[dst] = tuple(vec)
            frontier.append(dst)
    if len(psi) != len(ts.states):
        raise ValueError("TS has unreachable states")
    chords = tuple(arc for arc in ts.arcs() if arc not in tree)
    return SpanningData(ts, bound, parent, chords, psi)


def fundamental_cycle(sd: SpanningData, chord: tuple[str, str, str]) -> tuple[int, ...]:
    """Occurrence count vector of the chord's fundamental cycle, mod b+1.

    For a chord s --e--> s', the cycle runs the tree path to s, the chord,
    and the tree path from s' backwards: psi(s) - psi(s') + unit(e).
    """
    src, event, dst = chord
    if sd.ts.delta(src, event) != dst or sd.parent.get(dst) == (src, event, dst):
        raise ValueError(f"not a chord: {chord}")
    modulus = sd.bound + 1
    unit = sd.ts.events.index(event)
    vec = [
        (a - b_) % modulus for a, b_ in zip(sd.psi[src], sd.psi[dst])
    ]
    vec[unit] = (vec[unit] + 1) % modulus
    return tuple(vec)


def _difference(u: tuple[int, ...], v: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    return tuple((a - b_) % modulus for a, b_ in zip(u, v))


def base_system(sd: SpanningData) -> modsolve.ModSystem:
    """Homogeneous system cutting out the abstract regions of the TS.

    One row per chord whose fundamental cycle is nonzero; a group value
    assignment abs satisfies it iff (sup_init, abs) is an abstract region
    for every sup_init.
    """
    rows = sd.cycles
    return modsolve.ModSystem(sd.bound + 1, len(sd.ts.events), rows, (0,) * len(rows))


def _derived_region(
    sd: SpanningData, tau: NetType, atom: SeparationAtom, sup_init: int, sig: dict[str, TauEvent]
) -> Region:
    """The region fixed by sup_init and a solved signature, self-checked.

    Propagating the signature along the arcs both derives the support and
    checks the region condition on every arc.
    """
    region = support_from_signature(sd.ts, tau, sup_init, sig)
    if region is None:
        raise AssertionError("derived region fails validation")
    if not solves(region, tau, atom):
        raise AssertionError(f"derived region misses its atom: {atom}")
    return region


def decide_ssa(
    ts: TransitionSystem,
    tau: NetType,
    atom: SeparationAtom,
    sd: Optional[SpanningData] = None,
) -> Optional[Region]:
    """Group-only region separating two states, or None.

    Solves base system + (psi(s') - psi(s)).abs = q for q = 1..b; the first
    solvable q yields the region with sup_init = 0.
    """
    if tau.family not in Z_DECIDABLE_SSP:
        raise ValueError(f"no polynomial ssa decision for family {tau.family}")
    if atom.kind != "ssa":
        raise ValueError(f"not an ssa atom: {atom}")
    sd = sd or build_spanning(ts, tau.bound)
    base_rows = sd.reduced_cycles
    diff = _difference(sd.psi[atom.right], sd.psi[atom.left], tau.bound + 1)
    for q in range(1, tau.bound + 1):
        system = modsolve.ModSystem(
            tau.bound + 1,
            len(ts.events),
            base_rows + (diff,),
            (0,) * len(base_rows) + (q,),
        )
        x = modsolve.solve(system)
        if x is not None:
            return _derived_region(sd, tau, atom, 0, {e: Group(v) for e, v in zip(ts.events, x)})
    return None


def decide_ssp(ts: TransitionSystem, tau: NetType) -> DecisionReport:
    """State separation over zpt/zppt/rzpt, with greedy region reuse.

    Visits the atoms in ssa_atoms order and searches a region only for an
    atom no earlier region solves; short-circuits on the first unsolvable
    one.  The states are kept in classes of equal support under the
    regions found so far, so the next such atom is read off the classes
    instead of probing every region for every atom.
    """
    sd = build_spanning(ts, tau.bound)
    states = ts.states
    regions: list[Region] = []
    classes = [list(range(len(states)))] if len(states) > 1 else []
    while (pair := _cover(classes)) is not None:
        atom = SeparationAtom.ssa(states[pair[0]], states[pair[1]])
        region = decide_ssa(ts, tau, atom, sd=sd)
        if region is None:
            return DecisionReport(False, None, atom)
        regions.append(region)
        refined = []
        for members in classes:
            parts: dict[int, list[int]] = {}
            for i in members:
                parts.setdefault(region.sup[states[i]], []).append(i)
            refined.extend(part for part in parts.values() if len(part) > 1)
        classes = refined
    return DecisionReport(True, WitnessSet(regions, CoverageView(ts, tau, regions, "ssp")), None)


def _cover(classes: list[list[int]]) -> Optional[tuple[int, int]]:
    """First atom, as state positions, that no region found so far solves.

    classes holds the states the regions cannot tell apart, in declared
    order, one list per support tuple with at least two members; the pairs
    inside a class are exactly the unsolved atoms.
    """
    return min(((c[0], c[1]) for c in classes), default=None)


# an event's first source and the shared rows of its essa systems
_EssaShared = tuple[str, tuple[tuple[int, ...], ...]]


def _sources(ts: TransitionSystem, event: str) -> list[str]:
    sources = [s for s in ts.states if ts.has_arc(s, event)]
    if not sources:
        raise ValueError(f"event never occurs: {event}")
    return sources


def _essa_shared_rows(sd: SpanningData, event: str) -> _EssaShared:
    """The event's first source, and pre-reduced homogeneous rows valid for
    every (m,n,sup_init,q) probe: the base system plus the equal-support
    rows of the event's sources."""
    modulus = sd.bound + 1
    first, *others = _sources(sd.ts, event)
    rows = sd.cycles + tuple(_difference(sd.psi[first], sd.psi[o], modulus) for o in others)
    return first, modsolve.reduce_rows(modulus, rows, len(sd.ts.events))


def _essa_layout(
    sd: SpanningData, atom: SeparationAtom, shared: Optional[_EssaShared] = None
) -> Callable[[int, int, int, int], modsolve.ModSystem]:
    """The rzpt essa systems of atom = (e, s), by probe (m, n, sup_init, q).

    The rows are laid out once per atom; only the right-hand side depends
    on the probe.  See essa_system for the row order.
    """
    if atom.kind != "essa":
        raise ValueError(f"not an essa atom: {atom}")
    modulus = sd.bound + 1
    event, state = atom.left, atom.right
    first, shared_rows = shared or _essa_shared_rows(sd, event)
    rows = shared_rows + (
        tuple(int(e == event) for e in sd.ts.events),
        sd.psi[first],
        _difference(sd.psi[first], sd.psi[state], modulus),
    )
    zeros = (0,) * len(shared_rows)

    def system(m: int, n: int, sup_init: int, q: int) -> modsolve.ModSystem:
        rhs = zeros + ((n - m) % modulus, (m - sup_init) % modulus, q % modulus)
        return modsolve.ModSystem(modulus, len(sd.ts.events), rows, rhs)

    return system


def essa_system(
    ts: TransitionSystem,
    bound: int,
    atom: SeparationAtom,
    m: int,
    n: int,
    sup_init: int,
    q: int,
    sd: Optional[SpanningData] = None,
) -> modsolve.ModSystem:
    """The rzpt event/state separation system for one parameter choice.

    Unknowns: one group value per event.  Rows, in order: the Howell-reduced
    block of the fundamental cycle rows and the equal-support rows
    (psi(s1) - psi(si)).abs = 0 for the later sources si of the event; the
    pin abs(e) = n - m; the source support row psi(s1).abs = m - sup_init;
    the separation row (psi(s1) - psi(s)).abs = q.  decide_essa_rzpt solves
    exactly these systems.
    """
    sd = sd or build_spanning(ts, bound)
    return _essa_layout(sd, atom)(m, n, sup_init, q)


def decide_essa_rzpt(
    ts: TransitionSystem,
    bound: int,
    atom: SeparationAtom,
    sd: Optional[SpanningData] = None,
    shared: Optional[_EssaShared] = None,
) -> Optional[Region]:
    """rzpt region disabling an event at a state, or None.

    Iterates pairs (m,n) lexicographically over the rzpt pairs (so (0,0) is
    skipped), then sup_init 0..b, then q 1..b.  The first solvable system
    is concretized: the event gets the pair signature, every other event
    its solved group value.
    """
    sd = sd or build_spanning(ts, bound)
    system = _essa_layout(sd, atom, shared)
    tau = make_type("rzpt", bound)
    values = range(bound + 1)
    for m, n, sup_init, q in itertools.product(values, values, values, range(1, bound + 1)):
        if m == 0 and n == 0:
            continue
        x = modsolve.solve(system(m, n, sup_init, q))
        if x is not None:
            sig = {e: Pair(m, n) if e == atom.left else Group(v) for e, v in zip(ts.events, x)}
            return _derived_region(sd, tau, atom, sup_init, sig)
    return None


def decide_essp_rzpt(ts: TransitionSystem, bound: int) -> DecisionReport:
    """Event/state separation over rzpt, greedy reuse, short-circuiting.

    Visits the atoms in essa_atoms order like decide_ssp.  A region found
    for event e carries a pair (m,n) on e and groups, which fire
    everywhere, on the other events: it solves exactly the atoms (e, s)
    with sup(s) != m, so each event keeps its own list of open states.
    """
    sd = build_spanning(ts, bound)
    tau = make_type("rzpt", bound)
    regions: list[Region] = []
    for event in ts.events:
        open_states = [s for s in ts.states if not ts.has_arc(s, event)]
        if not open_states:
            continue
        shared = _essa_shared_rows(sd, event)
        while open_states:
            atom = SeparationAtom.essa(event, open_states[0])
            region = decide_essa_rzpt(ts, bound, atom, sd=sd, shared=shared)
            if region is None:
                return DecisionReport(False, None, atom)
            regions.append(region)
            m = region.sig[event].m
            open_states = [s for s in open_states if region.sup[s] == m]
    return DecisionReport(True, WitnessSet(regions, CoverageView(ts, tau, regions, "essp")), None)


def synthesize_rzpt(
    ts: TransitionSystem,
    bound: int,
    cap: int = DEFAULT_CAP,
    name: Optional[str] = None,
) -> SynthesisReport:
    """Synthesize an rzpt net whose reachability graph is isomorphic to ts.

    Decides ssp and essp; on success the union of both witnesses becomes
    the net and the isomorphism back to ts is computed and asserted.  The
    union is the ssp regions followed by the essp regions: the ssp regions
    are group-only, so none of them solves an essa atom, and the regions of
    each witness are pairwise distinct.
    """
    tau = make_type("rzpt", bound)
    ssp = decide_ssp(ts, tau)
    if not ssp.holds:
        return SynthesisReport(None, ssp.failing, None, None)
    essp = decide_essp_rzpt(ts, bound)
    if not essp.holds:
        return SynthesisReport(None, essp.failing, None, None)
    assert ssp.witness is not None and essp.witness is not None
    regions = ssp.witness.regions + essp.witness.regions
    merged = WitnessSet(regions, CoverageView(ts, tau, regions, "solvability"))
    net = synthesized_net(ts, tau, regions, name=name or f"{ts.name}.synth")
    graph = reachability_graph(net, cap)
    iso = deterministic_isomorphism(graph, ts)
    if iso is None:
        raise AssertionError("synthesized net's reachability graph is not isomorphic")
    return SynthesisReport(net, None, merged, dict(iso))


def concrete_to_abstract(
    ts: TransitionSystem, region: Region, bound: int
) -> AbstractRegion:
    """Forget pair structure: each event keeps only its modular effect.

    A pair (m,n) moves any support it is defined on by n - m mod b+1, a
    group k by k; the support function carries over unchanged.
    """
    modulus = bound + 1
    abs_vec = tuple(
        (plus(region.sig[e]) - minus(region.sig[e]) + absval(region.sig[e])) % modulus
        for e in ts.events
    )
    return AbstractRegion(region.sup[ts.initial], abs_vec)
