"""Line-oriented text formats for transition systems, nets, and formulas.

All three grammars share the same shape: whitespace-separated tokens,
`#` starting a comment anywhere on a line, blank lines ignored, and a
type-naming directive on the first effective line.  Serializers emit a
canonical order so equal objects give byte-identical files.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Optional

from .nets import PetriNet
from .nettypes import FAMILIES, format_event, make_type, parse_event
from .reduction import Cm1in3Formula
from .ts import TransitionSystem, TSIndex, validate


class ParseError(ValueError):
    """Malformed document; carries the 1-based source line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


_COMMENT = re.compile("#.*")


def _body_lines(text: str) -> list[str]:
    """The lines of text with their comments cut.  Lines break at \\n, \\r\\n
    and \\r only, as universal newlines read them; the other breaks that
    str.splitlines knows (\\f, \\x85, U+2028, ...) stay inside a line, as
    whitespace or as comment text."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "#" in text:
        text = _COMMENT.sub("", text)
    return text.split("\n")


def _lines(text: str) -> list[tuple[int, list[str]]]:
    numbered = enumerate(_body_lines(text), start=1)
    return [(number, tokens) for number, raw in numbered if (tokens := raw.split())]


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

    One read of the text gives the names; the positions and out-arcs
    follow from them and reach the TS as its index.  Lines are numbered
    again only to report an error.
    """
    rows = enumerate(_body_lines(text), start=1)
    for header, raw in rows:
        tokens = raw.split()
        if tokens:
            break
    else:
        raise ParseError(1, "empty document")
    if tokens[0] != ".ts":
        raise ParseError(header, f"expected .ts, got {tokens[0]}")
    name = _one_arg(header, tokens)
    states: list[str] = []
    events: list[str] = []
    arcs: list[str] = []  # four tokens per arc
    initial: Optional[str] = None
    for number, raw in rows:
        tokens = raw.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == ".arc":
            if len(tokens) != 4:
                raise ParseError(number, ".arc takes source, event, target")
            arcs += tokens
        elif directive == ".state":
            states.append(_one_arg(number, tokens))
        elif directive == ".event":
            events.append(_one_arg(number, tokens))
        elif directive == ".initial":
            if initial is not None:
                raise ParseError(number, "duplicate .initial")
            initial = _one_arg(number, tokens)
        elif directive == ".ts":
            raise ParseError(number, "duplicate .ts header")
        else:
            raise ParseError(number, f"unknown directive: {directive}")
    if initial is None:
        raise ParseError(_lines(text)[-1][0], "missing .initial")
    srcs, labels, dsts = arcs[1::4], arcs[2::4], arcs[3::4]
    if not (states or events):
        states = list(dict.fromkeys(chain([initial], chain.from_iterable(zip(srcs, dsts)))))
        events = list(dict.fromkeys(labels))
    state = dict(zip(states, range(len(states))))
    event = dict(zip(events, range(len(events))))
    try:
        src_at, dst_at = list(map(state.__getitem__, srcs)), list(map(state.__getitem__, dsts))
        label_at = list(map(event.__getitem__, labels))
        initial_at = state[initial]
    except KeyError:
        raise _undeclared(text, state, event, zip(srcs, labels, dsts), initial) from None
    delta = dict(zip(zip(srcs, labels), dsts))
    if len(delta) != len(srcs):
        k = _repeat(enumerate(zip(srcs, labels)))
        raise ParseError(_arc_lines(text)[k], f"nondeterministic arc: {srcs[k]} {labels[k]}")
    # with a duplicate name the TS gets no index, and validate lists the
    # duplicates as the index's own check words them
    index = None
    if len(state) == len(states) and len(event) == len(events):
        out: list[list[tuple[int, int]]] = [[] for _ in states]
        for at, arc in zip(src_at, zip(label_at, dst_at)):
            out[at].append(arc)
        index = TSIndex(state, event, initial_at, tuple(map(tuple, out)))
    ts = TransitionSystem._indexed(name, states, events, initial, delta, index)
    report = validate(ts)
    if not report.ok:
        # a first violation "duplicate state: x" is at the second ".state x"
        kind = report.violations[0].split(":")[0]
        line = _repeat((n, tuple(t)) for n, t in _lines(text) if kind == f"duplicate {t[0][1:]}")
        raise ParseError(line or header, "; ".join(report.violations))
    return ts


def _arc_lines(text: str) -> list[int]:
    return [number for number, tokens in _lines(text) if tokens[0] == ".arc"]


def _undeclared(
    text: str,
    state: dict[str, int],
    event: dict[str, int],
    arcs: Iterable[tuple[str, str, str]],
    initial: str,
) -> ParseError:
    """The first name a declared document leaves undeclared: in the arcs in
    order, source, target, then event; then the initial state."""
    for number, (src, label, dst) in zip(_arc_lines(text), arcs):
        for s in (src, dst):
            if s not in state:
                return ParseError(number, f"undeclared state: {s}")
        if label not in event:
            return ParseError(number, f"undeclared event: {label}")
    return ParseError(_lines(text)[-1][0], f"undeclared state: {initial}")


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
