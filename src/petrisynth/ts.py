"""Deterministic initialized labeled transition systems.

States and events are plain strings drawn from a restricted identifier
charset.  A transition system (TS) is finite, has one initial state and a
partial deterministic transition function: at most one arc s --e--> s' for
every state s and event e.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

IDENTIFIER = re.compile(r"[A-Za-z0-9_.+-]+\Z")

PROBLEMS = ("ssp", "essp", "solvability")


@dataclass(frozen=True)
class SeparationAtom:
    """A single separation obligation.

    kind "ssa": left and right are two distinct states to tell apart.
    kind "essa": left is an event, right a state where it must be disabled.
    """

    kind: str
    left: str
    right: str

    @staticmethod
    def ssa(s: str, t: str) -> "SeparationAtom":
        return SeparationAtom("ssa", s, t)

    @staticmethod
    def essa(e: str, s: str) -> "SeparationAtom":
        return SeparationAtom("essa", e, s)

    def __str__(self) -> str:
        return f"{self.kind}({self.left},{self.right})"


@dataclass(frozen=True)
class TSIndex:
    """A TS in positions: state and event maps to their declared positions,
    the initial state's position, and per state position its out-arcs as
    (event position, target position) in insertion order."""

    state: dict[str, int]
    event: dict[str, int]
    initial: int
    out: tuple[tuple[tuple[int, int], ...], ...]


class TransitionSystem:
    """Finite deterministic TS with ordered states and events.

    The declared order of states and events is significant: atom
    enumeration, spanning trees and serialization all follow it.  Arcs keep
    their insertion order.  Instances are treated as immutable once built.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[str],
        events: Iterable[str],
        arcs: Iterable[tuple[str, str, str]],
        initial: str,
    ):
        self.name = name
        self.states = tuple(states)
        self.events = tuple(events)
        self.initial = initial
        self._delta: dict[tuple[str, str], str] = {}
        for src, event, dst in arcs:
            key = (src, event)
            if key in self._delta:
                raise ValueError(f"nondeterministic arc: {src} {event}")
            self._delta[key] = dst

    def delta(self, state: str, event: str) -> Optional[str]:
        """Successor of state under event, or None if undefined."""
        return self._delta.get((state, event))

    def has_arc(self, state: str, event: str) -> bool:
        return (state, event) in self._delta

    def out_edges(self, state: str) -> list[tuple[str, str]]:
        """Outgoing (event, target) pairs of state, in insertion order; none
        for a name that is not a state.  Reads the index, so raises its
        ValueError on a malformed TS."""
        index = self.index
        position = index.state.get(state)
        if position is None:
            return []
        return [(self.events[e], self.states[dst]) for e, dst in index.out[position]]

    def arcs(self) -> tuple[tuple[str, str, str], ...]:
        """All arcs (src, event, dst) in insertion order."""
        return tuple((s, e, t) for (s, e), t in self._delta.items())

    @cached_property
    def index(self) -> TSIndex:
        """The TS in positions, built on first use.

        Raises ValueError naming the first duplicate state or event, an
        unknown initial state, or an arc on an undeclared event or state.
        """
        index, violations = _structure(self)
        if index is None:
            raise ValueError(violations[0])
        return index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (
            self.name == other.name
            and self.states == other.states
            and self.events == other.events
            and self.initial == other.initial
            and self._delta == other._delta
        )

    def __repr__(self) -> str:
        return (
            f"TransitionSystem({self.name!r}, {len(self.states)} states, "
            f"{len(self.events)} events, {len(self._delta)} arcs)"
        )


def _positions(label: str, names: tuple[str, ...], violations: list[str]) -> dict[str, int]:
    position: dict[str, int] = {}
    for name in names:
        if name in position:
            violations.append(f"duplicate {label}: {name}")
        else:
            position[name] = len(position)
    return position


def _structure(ts: TransitionSystem) -> tuple[Optional[TSIndex], list[str]]:
    """One structural walk: the TS in positions, or None and every
    violation, in the order the walk meets them: duplicate states,
    duplicate events, an unknown initial state, then one line per bad arc
    in insertion order."""
    violations: list[str] = []
    state = _positions("state", ts.states, violations)
    event = _positions("event", ts.events, violations)
    if ts.initial not in state:
        violations.append(f"unknown initial state: {ts.initial}")
    out: list[list[tuple[int, int]]] = [[] for _ in state]
    for (src, e), dst in ts._delta.items():
        if e not in event:
            violations.append(f"arc event not declared: {src} {e} {dst}")
        elif src not in state or dst not in state:
            violations.append(f"arc endpoint not a state: {src} {e} {dst}")
        else:
            out[state[src]].append((event[e], state[dst]))
    if violations:
        return None, violations
    return TSIndex(state, event, state[ts.initial], tuple(map(tuple, out))), violations


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def validate(ts: TransitionSystem) -> ValidationReport:
    """Check well-formedness and return every violation found.

    Violations name their offender, e.g. "unreachable: u".  A TS with an
    empty report is safe input for every other operation in the package.
    """
    violations: list[str] = []
    for label, value in [("name", ts.name)] + [("state", s) for s in ts.states] + [
        ("event", e) for e in ts.events
    ]:
        if not IDENTIFIER.match(value):
            violations.append(f"bad {label} identifier: {value!r}")
    try:
        index = ts.index
    except ValueError:
        violations.extend(_structure(ts)[1])
    if violations:
        return ValidationReport(False, violations)

    reached = [False] * len(ts.states)
    reached[index.initial] = True
    frontier = [index.initial]
    while frontier:
        for _, dst in index.out[frontier.pop()]:
            if not reached[dst]:
                reached[dst] = True
                frontier.append(dst)
    for s, seen in zip(ts.states, reached):
        if not seen:
            violations.append(f"unreachable: {s}")
    used = {event for (_, event) in ts._delta}
    for e in ts.events:
        if e not in used:
            violations.append(f"unused event: {e}")
    return ValidationReport(not violations, violations)


def grade(ts: TransitionSystem) -> int:
    """Least g such that every state sees at most g distinct incoming and
    at most g distinct outgoing events."""
    incoming: dict[str, set[str]] = {s: set() for s in ts.states}
    best = 0
    for (src, event), dst in ts._delta.items():
        incoming[dst].add(event)
    for s in ts.states:
        out = len(ts.out_edges(s))
        best = max(best, out, len(incoming[s]))
    return best


def is_linear(ts: TransitionSystem) -> bool:
    """True iff the TS is a single simple path from the initial state."""
    return _linear_walk(ts) is not None


def linear_terminal(ts: TransitionSystem) -> str:
    """Terminal state of a linear TS.  Raises ValueError if not linear."""
    walk = _linear_walk(ts)
    if walk is None:
        raise ValueError(f"not linear: {ts.name}")
    return walk[-1]


def _linear_walk(ts: TransitionSystem) -> Optional[list[str]]:
    path = [ts.initial]
    visited = {ts.initial}
    state = ts.initial
    while True:
        out = ts.out_edges(state)
        if len(out) > 1:
            return None
        if not out:
            break
        state = out[0][1]
        if state in visited:
            return None
        visited.add(state)
        path.append(state)
    if len(path) != len(ts.states):
        return None
    return path


def iter_atoms(ts: TransitionSystem, problem: str = "solvability") -> Iterator[SeparationAtom]:
    """The atoms of enumerate_atoms, in the same order, one at a time."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem: {problem}")
    if problem != "essp":
        for i, s in enumerate(ts.states):
            for t in ts.states[i + 1 :]:
                yield SeparationAtom.ssa(s, t)
    if problem != "ssp":
        for e in ts.events:
            for s in ts.states:
                if not ts.has_arc(s, e):
                    yield SeparationAtom.essa(e, s)


def ssa_atoms(ts: TransitionSystem) -> list[SeparationAtom]:
    """All unordered state pairs, once each, in declared state order."""
    return list(iter_atoms(ts, "ssp"))


def essa_atoms(ts: TransitionSystem) -> list[SeparationAtom]:
    """All (event, state) pairs with the event undefined at the state."""
    return list(iter_atoms(ts, "essp"))


def enumerate_atoms(ts: TransitionSystem, problem: str = "solvability") -> list[SeparationAtom]:
    """Separation atoms for a decision problem: ssp, essp or solvability."""
    return list(iter_atoms(ts, problem))


def deterministic_isomorphism(
    a: TransitionSystem, b: TransitionSystem
) -> Optional[Mapping[str, str]]:
    """Initial-state-preserving label-preserving bijection, if one exists.

    Determinism makes the candidate unique: the image of the initial state
    is forced, and every arc propagates the mapping.  The walk runs on the
    two indexes, with b's event positions renumbered to a's by name.
    Returns the state map a -> b, in the order the walk reaches a's
    states, or None.
    """
    if set(a.events) != set(b.events):
        return None
    if len(a.states) != len(b.states):
        return None
    ia, ib = a.index, b.index
    to_a = [ia.event[e] for e in b.events]
    image = [-1] * len(a.states)
    taken = [False] * len(b.states)
    image[ia.initial] = ib.initial
    taken[ib.initial] = True
    order = [ia.initial]
    for x in order:
        out_y = ib.out[image[x]]
        out_x = ia.out[x]
        if len(out_x) != len(out_y):
            return None
        succ = {to_a[e]: y2 for e, y2 in out_y}
        for e, x2 in out_x:
            y2 = succ.get(e)
            if y2 is None:
                return None
            if image[x2] >= 0:
                if image[x2] != y2:
                    return None
            elif taken[y2]:
                return None
            else:
                image[x2] = y2
                taken[y2] = True
                order.append(x2)
    if len(order) != len(a.states):
        # some a-state unreachable; bijectivity cannot be certified
        return None
    return {a.states[x]: b.states[image[x]] for x in order}
