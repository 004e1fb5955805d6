"""Hardness gadgetry: separation instances from one-in-three satisfiability.

The source problem is cubic monotone one-in-three 3-SAT: m clauses over m
variables, every clause three distinct positive variables in increasing
order, every variable in exactly three clauses.  A formula is translated to
a union of small transition systems sharing events, arranged so that one
distinguished separation atom (alpha) is solvable iff the formula has a
one-in-three model.  Four variants target different separation problems
and net-type families; the unions get glued into a single TS by a linear
joining (chains) or a fan-out joining (general members).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .nettypes import Group, NetType, Pair, TauEvent, make_type
from .polysynth import first_fit
from .regions import (
    Region,
    WitnessSet,
    solves,
    support_from_signature,
    validate_region,
)
from .ts import SeparationAtom, TransitionSystem, _linear_walk

VARIANTS = ("ppt-essp", "pt-essp", "ssp", "z-essp")

BRUTE_MODEL_LIMIT = 25


@dataclass(frozen=True)
class Cm1in3Formula:
    """Clauses as strictly increasing triples of variable indices.

    With m clauses the variables are exactly 0..m-1, each occurring three
    times; the constructor rejects anything else.
    """

    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        counts = [0] * self.m
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause is not a triple: {clause}")
            i0, i1, i2 = clause
            if i0 == i1 or i1 == i2 or i0 == i2:
                raise ValueError(f"duplicate variable in clause: {clause}")
            if not i0 < i1 < i2:
                raise ValueError(f"unordered triple: {clause}")
            for v in clause:
                if not 0 <= v < self.m:
                    raise ValueError(f"variable index out of range: X{v}")
                counts[v] += 1
        for v, count in enumerate(counts):
            if count != 3:
                raise ValueError(f"occurrence count of X{v} is {count}, not 3")

    @property
    def m(self) -> int:
        return len(self.clauses)


def is_model(phi: Cm1in3Formula, assignment: frozenset[int]) -> bool:
    """Whether the variable set hits every clause exactly once."""
    return all(sum(v in assignment for v in clause) == 1 for clause in phi.clauses)


def brute_model(phi: Cm1in3Formula) -> Optional[frozenset[int]]:
    """First one-in-three model in subset order (variable i = bit i)."""
    if phi.m > BRUTE_MODEL_LIMIT:
        raise ValueError(f"formula too large for brute force: m = {phi.m}")
    for mask in range(1 << phi.m):
        assignment = frozenset(v for v in range(phi.m) if mask >> v & 1)
        if is_model(phi, assignment):
            return assignment
    return None


@dataclass
class GadgetUnion:
    """State-disjoint member TS sharing events, plus the target atom.

    Derived data is computed once, on first use: the union as one TS, and,
    for unions of linear members, each member's path, the runs of its
    events along it and the run length common to each event.
    """

    variant: str
    bound: int
    formula: Cm1in3Formula
    members: tuple[TransitionSystem, ...]
    alpha: SeparationAtom
    events: tuple[str, ...]

    @cached_property
    def ts(self) -> TransitionSystem:
        """The disjoint union of the members: their states in member order,
        the union's events and every member arc.  It is not connected; the
        first member's initial state stands in as its initial state."""
        return TransitionSystem(
            f"{self.variant}.u.b{self.bound}",
            [s for member in self.members for s in member.states],
            self.events,
            [arc for member in self.members for arc in member.arcs()],
            self.members[0].initial,
        )

    def member_of(self, state: str) -> TransitionSystem:
        for member in self.members:
            if state in member.states:
                return member
        raise ValueError(f"state not in the union: {state}")

    @cached_property
    def _paths(self) -> dict[str, list[str]]:
        """Each member's states along its path, by member name."""
        paths = {}
        for member in self.members:
            walk = _linear_walk(member)
            if walk is None:
                raise ValueError(f"non-linear member: {member.name}")
            paths[member.name] = walk
        return paths

    @cached_property
    def _runs(self) -> dict[str, dict[str, list[tuple[int, int]]]]:
        """Each member's maximal runs per event as (first edge index, length)."""
        runs = {}
        for member in self.members:
            labels = [member.out_edges(s)[0][0] for s in self._paths[member.name][:-1]]
            per_event: dict[str, list[tuple[int, int]]] = {}
            start = 0
            for event, run in itertools.groupby(labels):
                length = len(list(run))
                per_event.setdefault(event, []).append((start, length))
                start += length
            runs[member.name] = per_event
        return runs

    @cached_property
    def _consistency(self) -> dict[str, int]:
        """Common run length per event, which must be 1 or the bound."""
        lengths: dict[str, set[int]] = {}
        for runs in self._runs.values():
            for event, event_runs in runs.items():
                lengths.setdefault(event, set()).update(length for _, length in event_runs)
        consistent = {}
        for event in self.events:
            seen = lengths.get(event, set())
            if len(seen) != 1 or next(iter(seen)) not in (1, self.bound):
                raise ValueError(f"event neither 1- nor {self.bound}-consistent: {event}")
            consistent[event] = next(iter(seen))
        return consistent


def _chain(name: str, labels: Sequence[str]) -> TransitionSystem:
    states = [f"{name}_{i}" for i in range(len(labels) + 1)]
    events = list(dict.fromkeys(labels))
    arcs = [(states[i], label, states[i + 1]) for i, label in enumerate(labels)]
    return TransitionSystem(name, states, events, arcs, states[0])


def _two_row(name: str, bound: int, down: str, closing: str) -> TransitionSystem:
    """Shape shared by the z-essp head and variable gadgets: a full k-run on
    the top row, a one-shorter k-run on the bottom row reached by `down`
    from the top-left corner, closed into the top-right corner by `closing`.
    """
    top = [f"{name}_0_{i}" for i in range(bound + 1)]
    bottom = [f"{name}_1_{i}" for i in range(bound)]
    arcs = [(top[i], "k", top[i + 1]) for i in range(bound)]
    arcs.append((top[0], down, bottom[0]))
    arcs.extend((bottom[i], "k", bottom[i + 1]) for i in range(bound - 1))
    arcs.append((bottom[-1], closing, top[-1]))
    return TransitionSystem(name, top + bottom, ["k", down, closing], arcs, top[0])


def build_union(phi: Cm1in3Formula, variant: str, bound: int) -> GadgetUnion:
    """Gadget union of a formula for one reduction variant at bound b."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    make_type(VARIANT_FAMILY[variant], bound)  # 1 <= bound <= MAX_BOUND
    if variant == "z-essp" and bound < 2:
        raise ValueError("z-essp reduction needs bound >= 2")
    b = bound
    m = phi.m
    members: list[TransitionSystem] = []
    if variant == "z-essp":
        members.append(_two_row("h3", b, "u", "z"))
        for j in range(m):
            members.append(_two_row(f"f{j}", b, f"v{j}", f"X{j}"))
            members.append(_chain(f"g{j}", ["k"] * b + [f"X{j}"]))
        for i, clause in enumerate(phi.clauses):
            labels = ["k"] * b + [f"X{v}" for v in clause] + ["z"] + ["k"] * b
            members.append(_chain(f"t{i}", labels))
        alpha = SeparationAtom.essa("k", f"h3_1_{b - 1}")
    else:
        if variant == "ppt-essp":
            head = _chain(
                "h1", ["k"] * b + ["y0", "o0"] + ["k"] * b + ["y1", "y0", "o1"] + ["k"] * b
            )
            alpha = SeparationAtom.essa("k", f"h1_{2 * b + 4}")
        elif variant == "pt-essp":
            head = _chain(
                "h0", ["k"] * b + ["z"] * b + ["o0"] + ["k"] * b + ["z"] * b + ["o1"] * b + ["k"] * b
            )
            alpha = SeparationAtom.essa("k", f"h0_{4 * b + 1}")
        else:
            head = _chain("h2", ["k"] * b + ["o0"] + ["k"] * b + ["o2"] + ["k"] * b)
            alpha = SeparationAtom.ssa("h2_0", f"h2_{b}")
        members.append(head)
        for j in range(4):
            if variant == "pt-essp":
                members.append(_chain(f"c{j}", ["o0", f"k{j}"] + ["o1"] * b))
            else:
                members.append(_chain(f"d{j}", ["o0", f"k{j}", "o1"]))
        for j in range(2 * m):
            members.append(_chain(f"f{j}", ["k0", f"z{j}"]))
        for j in range(2 * m):
            members.append(_chain(f"g{j}", [f"z{j}", "o0"]))
        for i in range(m):
            members.append(_chain(f"m{i}", ["k1"] + [f"X{i}"] * b))
        for i, (v0, v1, v2) in enumerate(phi.clauses):
            labels = (
                ["k2"]
                + [f"X{v0}"] * b
                + [f"z{2 * i}"]
                + [f"X{v1}"] * b
                + [f"z{2 * i + 1}"]
                + [f"X{v2}"] * b
                + ["k3"]
            )
            members.append(_chain(f"t{i}", labels))
    events = list(dict.fromkeys(e for member in members for e in member.events))
    all_states = [s for member in members for s in member.states]
    if len(set(all_states)) != len(all_states):
        raise AssertionError("gadget state names collide across members")
    union = GadgetUnion(variant, bound, phi, tuple(members), alpha, tuple(events))
    if variant != "ssp":
        ts = union.ts
        for e in events:
            if all(ts.has_arc(s, e) for s in ts.states):
                raise AssertionError(f"event with no separation obligation: {e}")
    return union


def _fresh(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "."
    if name != base:
        warnings.warn(f"connector name collides, renamed: {base} -> {name}")
    used.add(name)
    return name


def linear_joining(union: GadgetUnion) -> TransitionSystem:
    """Chain the members into one linear TS.

    Fresh connectors lead from each member's terminal over a w event into a
    waypoint state q, and from q over a y event into the next member's
    initial state.  A single member is returned as is.
    """
    paths = union._paths
    if len(union.members) == 1:
        return union.members[0]
    used = set(union.ts.states) | set(union.events)
    first = union.members[0]
    states = list(first.states)
    events = list(union.events)
    arcs = list(first.arcs())
    terminal = paths[first.name][-1]
    for i, member in enumerate(union.members[1:], start=1):
        q = _fresh(f"q{i}", used)
        w = _fresh(f"w{i}", used)
        y = _fresh(f"y{i}", used)
        arcs.append((terminal, w, q))
        arcs.append((q, y, member.initial))
        states.append(q)
        states.extend(member.states)
        events.extend([w, y])
        arcs.extend(member.arcs())
        terminal = paths[member.name][-1]
    return TransitionSystem(
        f"{union.variant}.lj.b{union.bound}",
        states,
        events,
        arcs,
        first.initial,
    )


def joining(union: GadgetUnion) -> TransitionSystem:
    """Glue the members onto a fresh backbone path.

    Backbone states q0 .. qn are chained by w events; each qi branches over
    a y event into member i's initial state.  Works for non-linear members;
    the result's initial state is q0.
    """
    used = set(union.ts.states) | set(union.events)
    n = len(union.members) - 1
    backbone = [_fresh(f"q{i}", used) for i in range(n + 1)]
    ws = [_fresh(f"w{i}", used) for i in range(1, n + 1)]
    ys = [_fresh(f"y{i}", used) for i in range(n + 1)]
    states = list(backbone)
    events = list(union.events) + ws + ys
    arcs = [(backbone[i], ws[i], backbone[i + 1]) for i in range(n)]
    for i, member in enumerate(union.members):
        arcs.append((backbone[i], ys[i], member.initial))
    for member in union.members:
        states.extend(member.states)
        arcs.extend(member.arcs())
    return TransitionSystem(
        f"{union.variant}.j.b{union.bound}",
        states,
        events,
        arcs,
        backbone[0],
    )


def join_union(union: GadgetUnion) -> TransitionSystem:
    """The variant's joined TS: the backbone joining for z-essp, else linear."""
    return joining(union) if union.variant == "z-essp" else linear_joining(union)


VARIANT_FAMILY = {
    "ppt-essp": "ppt",
    "pt-essp": "pt",
    "ssp": "ppt",
    "z-essp": "zppt",
}


@dataclass
class AlphaWitness:
    """The distinguished atom's solving region, at union and joined level."""

    union: GadgetUnion
    union_region: Region
    joined: TransitionSystem
    region: Region
    atom: SeparationAtom


def _propagate(
    union: GadgetUnion,
    tau: NetType,
    inits: dict[str, int],
    overrides: dict[str, TauEvent],
) -> Region:
    """Union region from per-member initial supports and a signature.

    Events outside overrides get tau's do-nothing event.  Raises
    when a member's support cannot be propagated; templates are never
    silently repaired.  Propagation walks every member arc, so a returned
    region satisfies the region condition on the whole union.
    """
    sig = {e: overrides.get(e, tau.neutral) for e in union.events}
    sup: dict[str, int] = {}
    for member in union.members:
        part = support_from_signature(
            member, tau, inits[member.name], {e: sig[e] for e in member.events}
        )
        if part is None:
            raise ValueError(f"template support fails on member {member.name}")
        sup.update(part.sup)
    return Region(sup, sig)


def _inits(union: GadgetUnion, **per_class: int) -> dict[str, int]:
    """Initial supports by gadget class: per_class maps the first letter of
    a member's name to its initial support, 0 for the classes left out."""
    return {member.name: per_class.get(member.name[0], 0) for member in union.members}


def _alpha_template(
    union: GadgetUnion, model: frozenset[int]
) -> tuple[dict[str, int], dict[str, TauEvent]]:
    b = union.bound
    variant = union.variant
    if variant == "z-essp":
        sig: dict[str, TauEvent] = {"k": Pair(0, 1), "u": Group(1), "z": Group(0)}
        for j in range(union.formula.m):
            sig[f"v{j}"] = Group(0) if j in model else Group(1)
            sig[f"X{j}"] = Group(1) if j in model else Group(0)
        return _inits(union), sig
    sig = {"k": Pair(0, 1), "o0": Pair(b, 0)}
    for j in range(4):
        sig[f"k{j}"] = Pair(0, b)
    for v in model:
        sig[f"X{v}"] = Pair(1, 0)
    if variant == "ppt-essp":
        sig["o1"] = Pair(b, 0)
        return _inits(union, d=b, g=b), sig
    if variant == "pt-essp":
        sig["z"] = Pair(b, b)
        sig["o1"] = Pair(1, 0)
        return _inits(union, c=b, g=b), sig
    sig["o1"] = Pair(b, 0)
    sig["o2"] = Pair(b, 0)
    return _inits(union, d=b, g=b), sig


def alpha_witness_region(
    phi: Cm1in3Formula,
    model: frozenset[int],
    variant: str,
    bound: int,
    union: Optional[GadgetUnion] = None,
) -> AlphaWitness:
    """Solving region for the distinguished atom, from a one-in-three model.

    union, when given, is build_union(phi, variant, bound) built by the
    caller, and is not built again.  The region is built over it from the
    variant's template, then
    extended over the joined TS: waypoint states inherit the atom state's
    support and connector events get the signature moving between the
    supports they bridge (pure pairs, or groups for the modulo variant).
    Both levels are validated: the union level by the propagation that
    builds it, the joined level, with its connector arcs, afterwards.
    """
    if not is_model(phi, model):
        raise ValueError("assignment is not a one-in-three model")
    if union is None:
        union = build_union(phi, variant, bound)
    elif (union.formula, union.variant, union.bound) != (phi, variant, bound):
        raise ValueError("union belongs to another formula, variant or bound")
    tau = make_type(VARIANT_FAMILY[variant], bound)
    inits, overrides = _alpha_template(union, model)
    union_region = _propagate(union, tau, inits, overrides)
    if not solves(union_region, tau, union.alpha):
        raise ValueError(f"alpha template does not solve {union.alpha}")
    joined = join_union(union)
    region = _extend_to_joined(union, joined, union_region)
    check = validate_region(joined, tau, region)
    if not check.ok:
        raise AssertionError(f"joined alpha region fails validation: {check.reason}")
    if not solves(region, tau, union.alpha):
        raise AssertionError(f"joined alpha region does not solve {union.alpha}")
    return AlphaWitness(union, union_region, joined, region, union.alpha)


def _extend_to_joined(
    union: GadgetUnion, joined: TransitionSystem, union_region: Region
) -> Region:
    anchor = union.alpha.right if union.alpha.kind == "essa" else union.alpha.left
    c = union_region.sup[anchor]
    b = union.bound
    sup = dict(union_region.sup)
    sig = dict(union_region.sig)
    connector_events = set(joined.events) - set(union.events)
    connector_arcs = [arc for arc in joined.arcs() if arc[1] in connector_events]
    for src, _, dst in connector_arcs:
        sup.setdefault(src, c)
        sup.setdefault(dst, c)
    for src, event, dst in connector_arcs:
        lo, hi = sup[src], sup[dst]
        if union.variant == "z-essp":
            sig[event] = Group((hi - lo) % (b + 1))
        elif lo >= hi:
            sig[event] = Pair(lo - hi, 0)
        else:
            sig[event] = Pair(0, hi - lo)
    return Region(sup, sig)


def lemma6_case(union: GadgetUnion, atom: SeparationAtom) -> tuple[int, Optional[str]]:
    """Which generic-region case applies to the atom, with its helper event.

    Case 1 covers states in members without the event, or after its run;
    case 2 covers states before the run and names the event that enters it.
    """
    if atom.kind != "essa":
        raise ValueError(f"not an essa atom: {atom}")
    paths = union._paths
    member = union.member_of(atom.right)
    path = paths[member.name]
    if atom.left not in member.events:
        return 1, None
    start, length = union._runs[member.name][atom.left][0]
    q_index = path.index(atom.right)
    if q_index >= start + length:
        return 1, None
    if q_index < start:
        if start == 0:
            raise ValueError("run starts at the member's initial state; no helper")
        helper = member.out_edges(path[start - 1])[0][0]
        return 2, helper
    raise ValueError(f"event is enabled at the state, not an atom: {atom}")


def lemma6_region(
    union: GadgetUnion,
    atom: SeparationAtom,
    case: int,
    helper: Optional[str] = None,
) -> Region:
    """Generic solving region for an atom of a union of linear members.

    Requires every event to occur in uniform runs of length 1 or bound, and
    the atom's event to have a single run per member.  Case 1 disables the
    event wherever its member keeps the support high; case 2 additionally
    uses the helper event entering the run to lower the support first.  All
    side conditions are checked and violations raise; the region is
    validated and must solve the atom.
    """
    consistent = union._consistency
    b = union.bound
    event = atom.left
    runs_by_member = union._runs
    for member in union.members:
        if event in member.events and len(runs_by_member[member.name][event]) != 1:
            raise ValueError(f"event not thinly distributed: {event}")
    derived_case, derived_helper = lemma6_case(union, atom)
    if case != derived_case:
        raise ValueError(f"atom requires case {derived_case}, not {case}")
    if helper is not None and helper != derived_helper:
        raise ValueError(f"helper must be the run's predecessor: {derived_helper}")
    helper = derived_helper
    sig_event: TauEvent = Pair(0, 1) if consistent[event] == b else Pair(0, b)
    overrides: dict[str, TauEvent] = {event: sig_event}
    if case == 1:
        inits = {
            member.name: 0 if event in member.events else b
            for member in union.members
        }
    else:
        assert helper is not None
        for member in union.members:
            if event in member.events and helper in member.events:
                helper_runs = runs_by_member[member.name][helper]
                if len(helper_runs) != 1:
                    raise ValueError(f"helper not thinly distributed: {helper}")
                run_start, _ = runs_by_member[member.name][event][0]
                h_start, h_len = helper_runs[0]
                if h_start + h_len > run_start + 1:
                    raise ValueError(
                        f"helper occurs after the event in {member.name}"
                    )
        if consistent[event] == b and b > 1 and consistent[helper] != 1:
            raise ValueError("helper must be 1-consistent for a b-consistent event")
        overrides[helper] = Pair(1, 0) if consistent[helper] == b else Pair(b, 0)
        inits = {
            member.name: 0
            if event in member.events and helper not in member.events
            else b
            for member in union.members
        }
    tau = make_type("ppt", b)
    region = _propagate(union, tau, inits, overrides)
    if not solves(region, tau, atom):
        raise ValueError(f"generic region does not solve {atom}")
    return region


def _ppt_library(
    union: GadgetUnion, tau: NetType, model: frozenset[int]
) -> list[Region]:
    """Hand-built regions covering the head's awkward atoms.

    The head chain h1 repeats k and y0, so the generic construction cannot
    touch atoms whose event or entering helper lies in h1.  Eight regions
    (nine at bound 1, where the single o1 profile does not exist) close
    that gap; everything else falls to lemma6_region.
    """
    b = union.bound
    plans = [_alpha_template(union, model)]
    plans.append(
        (_inits(union, d=b, f=b, g=b, m=b, t=b), {"k": Pair(0, 1), "y0": Pair(b, 0)})
    )
    plans.append((_inits(union, h=1), {"y0": Pair(1, 0), "o0": Pair(0, b)}))
    if b >= 2:
        plans.append(
            (
                {**_inits(union), "d3": b},
                {
                    "y0": Pair(0, 1),
                    "y1": Pair(0, b - 2),
                    "o1": Pair(b, 0),
                    "k0": Pair(0, b),
                    "k1": Pair(0, b),
                    "k2": Pair(0, b),
                },
            )
        )
    else:
        plans.append(
            (
                {**_inits(union), "d3": 1},
                {
                    "y1": Pair(0, 1),
                    "o1": Pair(1, 0),
                    "k0": Pair(0, 1),
                    "k1": Pair(0, 1),
                    "k2": Pair(0, 1),
                },
            )
        )
        plans.append(
            (_inits(union, h=1), {"y0": Pair(1, 0), "y1": Pair(0, 1), "o1": Pair(0, 1)})
        )
    plans.append(
        (
            _inits(union, d=b - 1, g=b - 1),
            {"y0": Pair(0, b), "o0": Pair(b - 1, 0), "y1": Pair(1, 0)},
        )
    )
    plans.append((_inits(union), {"k": Pair(0, 1), "y0": Pair(b, 0)}))
    plans.append(
        (_inits(union, d=b, g=b), {"k": Pair(0, 1), "o0": Pair(b, 0), "y1": Pair(b, 0)})
    )
    plans.append((_inits(union), {"o0": Pair(0, b), "y1": Pair(b, 0)}))
    return [_propagate(union, tau, inits, overrides) for inits, overrides in plans]


def ppt_essp_witness(
    phi: Cm1in3Formula, model: frozenset[int], bound: int
) -> tuple[GadgetUnion, WitnessSet]:
    """Full event-state witness for the pure reduction union of a satisfiable
    formula: polysynth.first_fit over the hand-built library, searching a
    generic region for each atom that no region so far solves.
    """
    if not is_model(phi, model):
        raise ValueError("assignment is not a one-in-three model")
    union = build_union(phi, "ppt-essp", bound)
    tau = make_type("ppt", bound)

    def search(atom: SeparationAtom) -> Region:
        return lemma6_region(union, atom, lemma6_case(union, atom)[0])

    report = first_fit(union.ts, tau, "essp", search, _ppt_library(union, tau, model))
    return union, report.witness
