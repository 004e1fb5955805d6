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

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import modsolve
from .nets import DEFAULT_CAP, CapExceeded, PetriNet, reachability_graph
from .nettypes import Group, NetType, Pair, TauEvent, absval, make_type, minus, plus
from .regions import (
    CoverageView,
    Region,
    WitnessSet,
    propagate_support,
    solves,
    synthesized_net,
)
from .ts import PROBLEMS, SeparationAtom, TransitionSystem, deterministic_isomorphism

# the paper's polynomial cases: the problems each family decides by
# decide; every other (family, problem) pair is NP-complete
POLYNOMIAL = {"zpt": ("ssp",), "zppt": ("ssp",), "rzpt": PROBLEMS}
Rows = tuple[tuple[int, ...], ...]


@dataclass
class SpanningData:
    """Spanning tree of a TS in state positions, plus path count vectors
    modulo bound+1.

    tree_psi[i] counts, per event position, the occurrences along the tree
    path from the initial state to the state at position i; tree_arc[i] is
    the (source position, event position) of that state's tree arc, None
    for the initial state.  Every other arc is a chord.  psi, parent and
    chords are the same data by name, built on first use: parent maps every
    non-initial state to its tree arc (src, event, dst), and chords are the
    non-tree arcs in input arc order.  _essa_rows keeps, per event and from
    its first use, the position of the event's first source and its essa
    systems' reduced shared rows.
    """

    ts: TransitionSystem
    bound: int
    tree_psi: list[tuple[int, ...]]
    tree_arc: list[Optional[tuple[int, int]]]
    _essa_rows: dict[str, tuple[int, Rows]] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def psi(self) -> dict[str, tuple[int, ...]]:
        return dict(zip(self.ts.states, self.tree_psi))

    @cached_property
    def parent(self) -> dict[str, tuple[str, str, str]]:
        states, events = self.ts.states, self.ts.events
        return {
            states[dst]: (states[arc[0]], events[arc[1]], states[dst])
            for dst, arc in enumerate(self.tree_arc)
            if arc is not None
        }

    @cached_property
    def chords(self) -> tuple[tuple[str, str, str], ...]:
        state, event, tree = self.ts.index.state, self.ts.index.event, self.tree_arc
        return tuple(arc for arc in self.ts.arcs() if tree[state[arc[2]]] != (state[arc[0]], event[arc[1]]))

    @cached_property
    def cycles(self) -> Rows:
        """The distinct nonzero fundamental cycle rows, in the order their
        first chords appear in the index's out-arcs."""
        tree, rows = self.tree_arc, {}
        for src, arcs in enumerate(self.ts.index.out):
            for event, dst in arcs:
                if tree[dst] != (src, event):
                    rows[_cycle_row(self, src, event, dst)] = None
        rows.pop((0,) * len(self.ts.events), None)
        return tuple(rows)

    @cached_property
    def reduced_cycles(self) -> Rows:
        """The base system's rows in reduced form, shared by every ssa atom."""
        return modsolve.reduce_rows(self.bound + 1, self.cycles, len(self.ts.events))


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
    index = ts.index
    psi: list[Optional[tuple[int, ...]]] = [None] * len(ts.states)
    tree: list[Optional[tuple[int, int]]] = [None] * len(ts.states)
    psi[index.initial] = (0,) * len(ts.events)
    frontier = deque([index.initial])
    while frontier:
        src = frontier.popleft() if order == "bfs" else frontier.pop()
        for event, dst in index.out[src]:
            if psi[dst] is None:
                tree[dst] = (src, event)
                vec = list(psi[src])
                vec[event] = (vec[event] + 1) % modulus
                psi[dst] = tuple(vec)
                frontier.append(dst)
    if None in psi:
        raise ValueError("TS has unreachable states")
    return SpanningData(ts, bound, psi, tree)


def _cycle_row(sd: SpanningData, src: int, event: int, dst: int) -> tuple[int, ...]:
    """psi(src) - psi(dst) + unit(event) mod b+1, in positions: the count
    vector of the cycle that the arc src --event--> dst closes."""
    modulus = sd.bound + 1
    vec = [(a - b_) % modulus for a, b_ in zip(sd.tree_psi[src], sd.tree_psi[dst])]
    vec[event] = (vec[event] + 1) % modulus
    return tuple(vec)


def fundamental_cycle(sd: SpanningData, chord: tuple[str, str, str]) -> tuple[int, ...]:
    """Occurrence count vector of the chord's fundamental cycle, mod b+1.

    For a chord s --e--> s', the cycle runs the tree path to s, the chord,
    and the tree path from s' backwards: psi(s) - psi(s') + unit(e).
    """
    src, event, dst = chord
    index = sd.ts.index
    if sd.ts.delta(src, event) != dst or sd.tree_arc[index.state[dst]] == (index.state[src], index.event[event]):
        raise ValueError(f"not a chord: {chord}")
    return _cycle_row(sd, index.state[src], index.event[event], index.state[dst])


def _difference(u: tuple[int, ...], v: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    return tuple((a - b_) % modulus for a, b_ in zip(u, v))


def _checked_spanning(ts: TransitionSystem, bound: int, sd: Optional[SpanningData]) -> SpanningData:
    if sd is None:
        return build_spanning(ts, bound)
    if sd.ts is not ts or sd.bound != bound:
        raise ValueError("spanning data belongs to another TS or bound")
    return sd


def base_system(sd: SpanningData) -> modsolve.ModSystem:
    """Homogeneous system cutting out the abstract regions of the TS.

    One row per distinct nonzero fundamental cycle row; a group value
    assignment abs satisfies it iff (sup_init, abs) is an abstract region
    for every sup_init.
    """
    rows = sd.cycles
    return modsolve.ModSystem(sd.bound + 1, len(sd.ts.events), rows, (0,) * len(rows))


def _check_atom(ts: TransitionSystem, atom: SeparationAtom) -> None:
    index, left, right = ts.index, atom.left, atom.right
    known = left in (index.state if atom.kind == "ssa" else index.event) and right in index.state
    if not known or (ts.has_arc(right, left) if atom.kind == "essa" else left == right):
        raise ValueError(f"not an atom of {ts.name}: {atom}")


def _derived_region(
    sd: SpanningData,
    tau: NetType,
    atom: SeparationAtom,
    sup_init: int,
    x: tuple[int, ...],
    pair: Optional[Pair] = None,
) -> Region:
    """The region fixed by sup_init and a solved signature, self-checked.

    Every event gets the group of its solved value in x, except the atom's
    event when a pair is given.  Propagating the signature's step tables
    along the arcs both derives the support and checks the region
    condition on every arc.  Only the groups whose values x uses get a
    table, so a region costs at most |E| + 1 tables of b+1 entries.
    """
    groups = {v: Group(v) for v in set(x)}
    tables = {v: tau.step(g) for v, g in groups.items()}
    sig: dict[str, TauEvent] = dict(zip(sd.ts.events, [groups[v] for v in x]))
    steps = [tables[v] for v in x]
    if pair is not None:
        sig[atom.left] = pair
        steps[sd.ts.index.event[atom.left]] = tau.step(pair)
    sup = propagate_support(sd.ts, sup_init, steps)
    if sup is None:
        raise AssertionError("derived region fails validation")
    region = Region(sup, sig)
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

    Solves base system + (psi(s') - psi(s)).abs = q for q = 1..b; the least
    solvable q yields the region with sup_init = 0.  One reduction of
    [reduced cycles | 0; psi(s') - psi(s) | 1] (modsolve.first_solvable),
    continued from the reduced cycle rows with the one new row, is one
    block in q: the atom is unsolvable iff the reduction holds a row
    (0 .. 0 | unit), and otherwise its least q and solution are read off
    the same basis.
    """
    if "ssp" not in POLYNOMIAL.get(tau.family, ()):
        raise ValueError(f"no polynomial ssa decision for family {tau.family}")
    if atom.kind != "ssa":
        raise ValueError(f"not an ssa atom: {atom}")
    _check_atom(ts, atom)
    sd = _checked_spanning(ts, tau.bound, sd)
    modulus = tau.bound + 1
    psi, state = sd.tree_psi, ts.index.state
    row = _difference(psi[state[atom.right]], psi[state[atom.left]], modulus)
    found = modsolve.first_solvable(modulus, len(ts.events), (row,), ((1,),), (((None, ()),),), sd.reduced_cycles)
    if found is None:
        return None
    return _derived_region(sd, tau, atom, 0, found[2])


def decide(ts: TransitionSystem, tau: NetType, problem: str) -> DecisionReport:
    """A polynomial case of POLYNOMIAL: one first_fit over one spanning
    tree, with decide_ssa or decide_essa_rzpt as the search by atom kind,
    so both kinds share the tree, its cycle rows and their reductions."""
    if problem not in POLYNOMIAL.get(tau.family, ()):
        raise ValueError(f"no polynomial decider for {problem} over {tau.family}")
    sd = build_spanning(ts, tau.bound)
    return first_fit(ts, tau, problem, lambda atom: (
        decide_ssa(ts, tau, atom, sd=sd) if atom.kind == "ssa" else decide_essa_rzpt(ts, tau.bound, atom, sd=sd)
    ))


def decide_ssp(ts: TransitionSystem, tau: NetType) -> DecisionReport:
    """State separation over zpt/zppt/rzpt."""
    return decide(ts, tau, "ssp")


def first_fit(
    ts: TransitionSystem,
    tau: NetType,
    problem: str,
    search: Callable[[SeparationAtom], Optional[Region]],
    regions: Sequence[Region] = (),
) -> DecisionReport:
    """Greedy witness assembly from the given regions: calls search for
    the first of the OpenAtoms, the first atom in iter_atoms order that no
    region so far solves, and fails at the first atom it returns None for."""
    open_atoms, regions, last = OpenAtoms(ts, tau, problem), list(regions), None
    for region in regions:
        open_atoms.add(region)
    while (atom := open_atoms.first()) is not None:
        # a region that solves its atom moves the walk past it
        if atom == last:
            raise AssertionError(f"search left its atom open: {atom}")
        if (region := search(atom)) is None:
            return DecisionReport(False, None, atom)
        regions.append(region)
        open_atoms.add(region)
        last = atom
    return DecisionReport(True, WitnessSet(regions, CoverageView(ts, tau, regions, problem)), None)


class OpenAtoms:
    """The atoms of a problem that no region added so far solves, kept
    without listing them: the ssa atoms are the pairs inside classes of
    states of equal support, and each event keeps its open states, listed
    when first needed and filtered only by the regions whose step table of
    it has a None."""

    def __init__(self, ts: TransitionSystem, tau: NetType, problem: str):
        if problem not in PROBLEMS:
            raise ValueError(f"unknown problem: {problem}")
        self._ts, self._tau, n, k = ts, tau, len(ts.states), len(ts.events)
        self._classes = [list(range(n))] if problem != "essp" and n > 1 else []
        self._open: list[Optional[list[str]]] = [None] * k  # per event position
        self._live = list(range(k)) if problem != "ssp" else []
        self._essa = n * k - sum(map(len, ts.index.out)) if self._live else 0

    def __len__(self) -> int:
        return self._essa + sum(len(c) * (len(c) - 1) // 2 for c in self._classes)

    def add(self, region: Region) -> bool:
        """Close the atoms the region solves; whether it closed any."""
        sup, sig, states, events, essa = region.sup, region.sig, self._ts.states, self._ts.events, self._essa
        parts: dict[tuple[int, int], list[int]] = {}
        for c, members in enumerate(self._classes):
            for i in members:
                parts.setdefault((c, sup[states[i]]), []).append(i)
        split = len(parts) > len(self._classes)
        self._classes = [part for part in parts.values() if len(part) > 1]
        step, emptied = self._tau.step, False
        for e in self._live:
            if None in (table := step(sig[events[e]])):
                found = self._open_on(e)
                kept = self._open[e] = [s for s in found if table[sup[s]] is not None]
                self._essa -= len(found) - len(kept)
                emptied = emptied or not kept
        if emptied:
            self._live = [e for e in self._live if self._open[e] != []]
        return split or self._essa < essa

    def first(self) -> Optional[SeparationAtom]:
        """The first open atom in iter_atoms order, or None."""
        if (pair := _cover(self._classes)) is not None:
            return SeparationAtom.ssa(self._ts.states[pair[0]], self._ts.states[pair[1]])
        while self._live:
            if found := self._open_on(self._live[0]):
                return SeparationAtom.essa(self._ts.events[self._live[0]], found[0])
            del self._live[0]
        return None

    def _open_on(self, e: int) -> list[str]:
        if (found := self._open[e]) is None:
            event, has_arc = self._ts.events[e], self._ts.has_arc
            found = self._open[e] = [s for s in self._ts.states if not has_arc(s, event)]
        return found


def _cover(classes: list[list[int]]) -> Optional[tuple[int, int]]:
    """First open ssa atom, as state positions: classes holds the states no
    region tells apart, in declared order, one list per support tuple with
    at least two members, so the pairs inside a class are the open atoms."""
    return min(((c[0], c[1]) for c in classes), default=None)


def _sources(ts: TransitionSystem, event: str) -> list[int]:
    """Positions of the states where the event occurs."""
    has_arc = ts.has_arc
    sources = [i for i, s in enumerate(ts.states) if has_arc(s, event)]
    if not sources:
        raise ValueError(f"event never occurs: {event}")
    return sources


def _essa_layout(sd: SpanningData, atom: SeparationAtom) -> tuple[Rows, Rows, Rows]:
    """The rzpt essa systems of atom = (e, s) as (shared, rows, tails):
    probe (m, n, sup_init, q) solves A x = E r with r = (n-m, m-sup_init, q),
    where A is the shared block above rows, and E is zero beside the shared
    block and tails beside rows.

    The shared block is reduced once per event, from its distinct nonzero
    rows; rows are the pin, source and separation rows, and tails their
    unit vectors.  See essa_system for the row order.
    """
    if atom.kind != "essa":
        raise ValueError(f"not an essa atom: {atom}")
    _check_atom(sd.ts, atom)
    modulus, psi = sd.bound + 1, sd.tree_psi
    event, state = atom.left, sd.ts.index.state[atom.right]
    if event not in sd._essa_rows:
        first, *others = _sources(sd.ts, event)
        # distinct source vectors give distinct rows, and one equal to the
        # first source's a zero row
        vectors = dict.fromkeys(psi[o] for o in others)
        vectors.pop(psi[first], None)
        rows = dict.fromkeys((*sd.cycles, *(_difference(psi[first], v, modulus) for v in vectors)))
        sd._essa_rows[event] = first, modsolve.reduce_rows(modulus, tuple(rows), len(sd.ts.events))
    first, shared = sd._essa_rows[event]
    rows = (
        tuple(int(e == event) for e in sd.ts.events),
        psi[first],
        _difference(psi[first], psi[state], modulus),
    )
    return shared, rows, ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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
    block of the distinct nonzero fundamental cycle rows and equal-support
    rows (psi(s1) - psi(si)).abs = 0 for the later sources si of the event; the
    pin abs(e) = n - m; the source support row psi(s1).abs = m - sup_init;
    the separation row (psi(s1) - psi(s)).abs = q.  decide_essa_rzpt solves
    exactly these systems.
    """
    shared, rows, tails = _essa_layout(_checked_spanning(ts, bound, sd), atom)
    r = (n - m, m - sup_init, q)
    rhs = (0,) * len(shared) + tuple(sum(c * v for c, v in zip(e, r)) for e in tails)
    return modsolve.ModSystem(bound + 1, len(ts.events), shared + rows, rhs)


def decide_essa_rzpt(
    ts: TransitionSystem,
    bound: int,
    atom: SeparationAtom,
    sd: Optional[SpanningData] = None,
) -> Optional[Region]:
    """rzpt region disabling an event at a state, or None.

    The first solvable essa_system probe (m,n,sup_init,q), in lexicographic
    order over the rzpt pairs, sup_init 0..b and q 1..b, is concretized:
    the event gets the pair signature, every other event its solved group
    value.  A probe only sets the right-hand side (n-m, m-sup_init, q) mod
    b+1, so the pairs (0,1)..(0,b), (1,1) alone meet each distinct system
    once, where that order first meets it, and together they meet every
    right-hand side with q != 0.  The atom costs one reduction
    (modsolve.first_solvable), continued from the event's shared block
    with the three new rows.  Off its basis, an unsolvable atom is told in
    O(1), a pair none of whose probes passes is skipped with one test, and
    each (pair, sup_init) block yields its least passing q by one solve:
    at most b+1 pair tests and b+2 block solves per atom, never one test
    per q.
    """
    sd = _checked_spanning(ts, bound, sd)
    tau = make_type("rzpt", bound)
    # (1,0) and (1,n>=2) repeat (0, n-1 mod b+1) at sup_init-1, and every
    # pair with m >= 2 repeats one with m = 1
    pairs = [(0, n) for n in range(1, bound + 1)] + [(1, 1)]
    groups = ((((m, n, sup_init), (n - m, m - sup_init)) for sup_init in range(bound + 1)) for m, n in pairs)
    shared, rows, tails = _essa_layout(sd, atom)
    found = modsolve.first_solvable(bound + 1, len(ts.events), rows, tails, groups, shared)
    if found is None:
        return None
    (m, n, sup_init), _, x = found
    return _derived_region(sd, tau, atom, sup_init, x, Pair(m, n))


def decide_essp_rzpt(ts: TransitionSystem, bound: int) -> DecisionReport:
    """Event/state separation over rzpt."""
    return decide(ts, make_type("rzpt", bound), "essp")


def synthesize_rzpt(
    ts: TransitionSystem,
    bound: int,
    cap: int = DEFAULT_CAP,
    name: Optional[str] = None,
) -> SynthesisReport:
    """Synthesize an rzpt net whose reachability graph is isomorphic to ts.

    A TS of more than cap states raises CapExceeded before deciding, as the
    net's reachability graph would.  Decides solvability with decide; on
    success the witness's regions become the net and the isomorphism back
    to ts is computed and asserted.
    """
    tau = make_type("rzpt", bound)
    name = name or f"{ts.name}.synth"
    if len(ts.states) > cap:
        raise CapExceeded(f"cap exceeded: more than {cap} reachable markings in {name}")
    report = decide(ts, tau, "solvability")
    if report.witness is None:
        return SynthesisReport(None, report.failing, None, None)
    net = synthesized_net(ts, tau, report.witness.regions, name=name)
    iso = deterministic_isomorphism(reachability_graph(net, cap), ts)
    if iso is None:
        raise AssertionError("synthesized net's reachability graph is not isomorphic")
    return SynthesisReport(net, None, report.witness, iso)


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
