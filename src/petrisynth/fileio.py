"""Line-oriented text formats for transition systems, nets, and formulas.

All three grammars share the same shape: whitespace-separated tokens,
`#` starting a comment anywhere on a line, blank lines ignored, and a
type-naming directive on the first effective line.  Serializers emit a
canonical order so equal objects give byte-identical files.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .nets import PetriNet
from .nettypes import FAMILIES, format_event, make_type, parse_event
from .reduction import Cm1in3Formula
from .ts import TransitionSystem, validate


class ParseError(ValueError):
    """Malformed document; carries the 1-based source line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((number, body.split()))
    return out


def _expect_header(
    lines: list[tuple[int, list[str]]], directive: str
) -> tuple[int, list[str]]:
    if not lines:
        raise ParseError(1, "empty document")
    number, tokens = lines[0]
    if tokens[0] != directive:
        raise ParseError(number, f"expected {directive}, got {tokens[0]}")
    return number, tokens


def _one_arg(number: int, tokens: list[str]) -> str:
    if len(tokens) != 2:
        raise ParseError(number, f"{tokens[0]} takes one argument")
    return tokens[1]


def parse_ts(text: str) -> TransitionSystem:
    """TS document: .ts, optional .state/.event declarations, .initial, .arc.

    Without declarations the state and event lists are inferred from the
    initial state and the arcs in encounter order.  With any declaration
    present, every identifier must be declared.
    """
    lines = _lines(text)
    number, tokens = _expect_header(lines, ".ts")
    name = _one_arg(number, tokens)
    states: list[str] = []
    events: list[str] = []
    arcs: list[tuple[int, tuple[str, str, str]]] = []
    initial: Optional[str] = None
    for number, tokens in lines[1:]:
        directive = tokens[0]
        if directive == ".state":
            states.append(_one_arg(number, tokens))
        elif directive == ".event":
            events.append(_one_arg(number, tokens))
        elif directive == ".initial":
            if initial is not None:
                raise ParseError(number, "duplicate .initial")
            initial = _one_arg(number, tokens)
        elif directive == ".arc":
            if len(tokens) != 4:
                raise ParseError(number, ".arc takes source, event, target")
            arcs.append((number, (tokens[1], tokens[2], tokens[3])))
        elif directive == ".ts":
            raise ParseError(number, "duplicate .ts header")
        else:
            raise ParseError(number, f"unknown directive: {directive}")
    if initial is None:
        raise ParseError(lines[-1][0], "missing .initial")
    declared = bool(states or events)
    if declared:
        known_states = set(states)
        known_events = set(events)
        for number, (src, event, dst) in arcs:
            for s in (src, dst):
                if s not in known_states:
                    raise ParseError(number, f"undeclared state: {s}")
            if event not in known_events:
                raise ParseError(number, f"undeclared event: {event}")
        if initial not in known_states:
            raise ParseError(lines[-1][0], f"undeclared state: {initial}")
    else:
        seen = dict.fromkeys([initial])
        seen_events: dict[str, None] = {}
        for _, (src, event, dst) in arcs:
            seen.setdefault(src)
            seen.setdefault(dst)
            seen_events.setdefault(event)
        states = list(seen)
        events = list(seen_events)
    try:
        ts = TransitionSystem(name, states, events, [a for _, a in arcs], initial)
    except ValueError as exc:  # a nondeterministic arc, at its second line
        raise ParseError(_repeat((n, (s, e)) for n, (s, e, _) in arcs), str(exc)) from exc
    report = validate(ts)
    if not report.ok:
        # a first violation "duplicate state: x" is at the second ".state x"
        kind = report.violations[0].split(":")[0]
        line = _repeat((n, tuple(t)) for n, t in lines if kind == f"duplicate {t[0][1:]}")
        raise ParseError(line or lines[0][0], "; ".join(report.violations))
    return ts


def _repeat(keyed: Iterable[tuple[int, object]]) -> Optional[int]:
    """The first line whose key an earlier line already had, or None."""
    first: dict[object, int] = {}
    return next((number for number, key in keyed if first.setdefault(key, number) != number), None)


def serialize_ts(ts: TransitionSystem) -> str:
    out = [f".ts {ts.name}"]
    out.extend(f".state {s}" for s in ts.states)
    out.extend(f".event {e}" for e in ts.events)
    out.append(f".initial {ts.initial}")
    out.extend(f".arc {src} {event} {dst}" for src, event, dst in ts.arcs())
    return "\n".join(out) + "\n"


def parse_net(text: str) -> PetriNet:
    """Net document: .net, .family, .bound, .place, .transition, .flow.

    Flow entries absent from the file default to the family's do-nothing
    event: 0,0 for the pair families, g:0 for the group families.
    """
    lines = _lines(text)
    number, tokens = _expect_header(lines, ".net")
    name = _one_arg(number, tokens)
    family: Optional[str] = None
    bound: Optional[int] = None
    places: list[tuple[str, int]] = []
    transitions: list[str] = []
    flow_lines: list[tuple[int, str, str, str]] = []
    for number, tokens in lines[1:]:
        directive = tokens[0]
        if directive == ".family":
            family = _one_arg(number, tokens)
            if family not in FAMILIES:
                raise ParseError(number, f"unknown family: {family}")
        elif directive == ".bound":
            raw = _one_arg(number, tokens)
            try:
                bound = int(raw)
            except ValueError:
                raise ParseError(number, "bound must be an integer") from None
        elif directive == ".place":
            if len(tokens) != 3:
                raise ParseError(number, ".place takes name and initial marking")
            try:
                marking = int(tokens[2])
            except ValueError:
                raise ParseError(number, "marking must be an integer") from None
            places.append((tokens[1], marking))
        elif directive == ".transition":
            transitions.append(_one_arg(number, tokens))
        elif directive == ".flow":
            if len(tokens) != 4:
                raise ParseError(number, ".flow takes place, transition, event")
            flow_lines.append((number, tokens[1], tokens[2], tokens[3]))
        elif directive == ".net":
            raise ParseError(number, "duplicate .net header")
        else:
            raise ParseError(number, f"unknown directive: {directive}")
    if family is None:
        raise ParseError(lines[-1][0], "missing .family")
    if bound is None:
        raise ParseError(lines[-1][0], "missing .bound")
    try:
        net_type = make_type(family, bound)
    except ValueError as exc:
        raise ParseError(lines[0][0], str(exc)) from exc
    flow = {}
    place_names = [p for p, _ in places]
    for number, place, transition, spec in flow_lines:
        if place not in place_names:
            raise ParseError(number, f"undeclared place: {place}")
        if transition not in transitions:
            raise ParseError(number, f"undeclared transition: {transition}")
        if (place, transition) in flow:
            raise ParseError(number, f"duplicate flow for ({place}, {transition})")
        try:
            event = parse_event(spec)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
        if not net_type.is_event(event):
            raise ParseError(
                number, f"event {spec} is foreign to {family} at bound {bound}"
            )
        flow[(place, transition)] = event
    for place in place_names:
        for transition in transitions:
            flow.setdefault((place, transition), net_type.neutral)
    try:
        return PetriNet(name, net_type, places, transitions, flow)
    except ValueError as exc:
        raise ParseError(lines[0][0], str(exc)) from exc


def serialize_net(net: PetriNet) -> str:
    family = net.net_type.family
    out = [
        f".net {net.name}",
        f".family {family}",
        f".bound {net.net_type.bound}",
    ]
    out.extend(f".place {p} {m0}" for p, m0 in net.places)
    out.extend(f".transition {t}" for t in net.transitions)
    for p, _ in net.places:
        for t in net.transitions:
            event = net.flow[(p, t)]
            if event != net.net_type.neutral:
                out.append(f".flow {p} {t} {format_event(event)}")
    return "\n".join(out) + "\n"


def parse_formula(text: str) -> Cm1in3Formula:
    """Formula document: .cnf3 with the clause count, then .clause triples."""
    lines = _lines(text)
    number, tokens = _expect_header(lines, ".cnf3")
    raw = _one_arg(number, tokens)
    try:
        count = int(raw)
    except ValueError:
        raise ParseError(number, "clause count must be an integer") from None
    clauses = []
    for number, tokens in lines[1:]:
        if tokens[0] != ".clause":
            raise ParseError(number, f"unknown directive: {tokens[0]}")
        if len(tokens) != 4:
            raise ParseError(number, ".clause takes three variable indices")
        try:
            clauses.append(tuple(int(t) for t in tokens[1:]))
        except ValueError:
            raise ParseError(number, "variable indices must be integers") from None
    if len(clauses) != count:
        raise ParseError(
            lines[-1][0], f"declared {count} clauses, found {len(clauses)}"
        )
    try:
        return Cm1in3Formula(tuple(clauses))
    except ValueError as exc:
        raise ParseError(lines[0][0], str(exc)) from exc


def serialize_formula(phi: Cm1in3Formula) -> str:
    out = [f".cnf3 {phi.m}"]
    out.extend(".clause %d %d %d" % clause for clause in phi.clauses)
    return "\n".join(out) + "\n"
