"""Petri nets of a fixed net type, and their reachability graphs.

A place holds 0..b tokens.  The flow function assigns every
(place, transition) pair a tau event of the net type; firing a transition
applies each place's event to that place's token count and is defined only
if every single application is.  The reachability graph is a deterministic
TS over canonical marking names.
"""

from __future__ import annotations

import warnings
from operator import getitem
from typing import Iterable, Mapping, Optional

from .nettypes import NetType, TauEvent
from .ts import TransitionSystem

Marking = tuple[int, ...]

DEFAULT_CAP = 10**6


class CapExceeded(RuntimeError):
    """Raised when a reachability graph grows past the state cap."""


class PetriNet:
    """Net with named places (and their initial marking) and transitions,
    treated as immutable once built: fire reads the steps tabled here."""

    def __init__(
        self,
        name: str,
        net_type: NetType,
        places: Iterable[tuple[str, int]],
        transitions: Iterable[str],
        flow: Mapping[tuple[str, str], TauEvent],
    ):
        self.name = name
        self.net_type = net_type
        self.places = tuple((p, int(m0)) for p, m0 in places)
        self.transitions = tuple(transitions)
        self.flow = dict(flow)
        b = net_type.bound
        names = [p for p, _ in self.places]
        if len(set(names)) != len(names):
            raise ValueError("duplicate place name")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transition name")
        for p, m0 in self.places:
            if not 0 <= m0 <= b:
                raise ValueError(f"initial marking out of range at {p}: {m0}")
        place_set = set(names)
        transition_set = set(self.transitions)
        for (p, t), e in self.flow.items():
            if p not in place_set:
                raise ValueError(f"flow references unknown place: {p}")
            if t not in transition_set:
                raise ValueError(f"flow references unknown transition: {t}")
            if not net_type.is_event(e):
                raise ValueError(f"flow event outside {net_type}: {e}")
        self._steps: dict[str, list] = {t: [] for t in self.transitions}
        for p in names:
            for t in self.transitions:
                if (p, t) not in self.flow:
                    raise ValueError(f"flow is partial: missing ({p}, {t})")
                self._steps[t].append(net_type.step(self.flow[(p, t)]))

    def initial_marking(self) -> Marking:
        return tuple(m0 for _, m0 in self.places)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (
            self.name == other.name
            and self.net_type == other.net_type
            and self.places == other.places
            and self.transitions == other.transitions
            and self.flow == other.flow
        )

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, {self.net_type}, "
            f"{len(self.places)} places, {len(self.transitions)} transitions)"
        )


def fire(net: PetriNet, marking: Marking, transition: str) -> Optional[Marking]:
    """Marking after firing the transition, or None when disabled.

    Raises ValueError for a transition the net does not have, and for a
    marking that is not one token count in 0..b per place.
    """
    steps = net._steps.get(transition)
    if steps is None:
        raise ValueError(f"unknown transition: {transition}")
    if len(marking) != len(net.places) or not all(0 <= v <= net.net_type.bound for v in marking):
        raise ValueError(f"not a marking of {net.name}: {marking}")
    return _fire(steps, marking)


def _fire(steps: list, marking: Marking) -> Optional[Marking]:
    after = tuple(map(getitem, steps, marking))
    return None if None in after else after


def marking_name(marking: Marking, bound: int) -> str:
    """Canonical state name of a marking: digit string, dot-separated when
    token counts can exceed one digit, "-" for the empty marking."""
    if not marking:
        return "-"
    if bound <= 9:
        return "".join(map(str, marking))
    return ".".join(map(str, marking))


def reachability_graph(net: PetriNet, cap: int = DEFAULT_CAP) -> TransitionSystem:
    """BFS over reachable markings, as a TS named after the net.

    Each marking is named once, when it is first reached.  Raises
    CapExceeded past cap states.  Transitions that never fire are not part
    of the result's event set; each one is warned about.
    """
    b = net.net_type.bound
    start = net.initial_marking()
    names = {start: marking_name(start, b)}
    order = [start]
    arcs: list[tuple[str, str, str]] = []
    fired: set[str] = set()
    steps = [(t, net._steps[t]) for t in net.transitions]
    for marking in order:
        src = names[marking]
        for t, table in steps:
            after = _fire(table, marking)
            if after is None:
                continue
            fired.add(t)
            dst = names.get(after)
            if dst is None:
                if len(names) >= cap:
                    raise CapExceeded(
                        f"cap exceeded: more than {cap} reachable markings in {net.name}"
                    )
                dst = names[after] = marking_name(after, b)
                order.append(after)
            arcs.append((src, t, dst))
    for t in net.transitions:
        if t not in fired:
            warnings.warn(f"transition never fires, dropped from graph: {t}")
    return TransitionSystem(
        name=f"{net.name}.rg",
        states=names.values(),
        events=[t for t in net.transitions if t in fired],
        arcs=arcs,
        initial=names[start],
    )
