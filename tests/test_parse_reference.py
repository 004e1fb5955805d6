"""The one-read `.ts` parser against a reference: the earlier parser that
tokenized every line, built the by-name arcs and then the index.

Both must accept the same documents with equal TSs in the same arc order,
and reject the rest with the same ParseError text and line.  The reference
splits lines with str.splitlines, so the documents here use ASCII line
breaks only, where the two agree.
"""

import random
from typing import Iterable, Optional

from hypothesis import given, settings, strategies as st

from petrisynth.fileio import ParseError, parse_ts, serialize_ts
from petrisynth.ts import TransitionSystem, _structure, validate

from conftest import random_ts


def _lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((number, body.split()))
    return out


def _expect_header(lines, directive):
    if not lines:
        raise ParseError(1, "empty document")
    number, tokens = lines[0]
    if tokens[0] != directive:
        raise ParseError(number, f"expected {directive}, got {tokens[0]}")
    return number, tokens


def _one_arg(number, tokens):
    if len(tokens) != 2:
        raise ParseError(number, f"{tokens[0]} takes one argument")
    return tokens[1]


def _repeat(keyed: Iterable[tuple[int, object]]) -> Optional[int]:
    first: dict[object, int] = {}
    return next((number for number, key in keyed if first.setdefault(key, number) != number), None)


def reference_parse_ts(text: str) -> TransitionSystem:
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
    except ValueError as exc:
        raise ParseError(_repeat((n, (s, e)) for n, (s, e, _) in arcs), str(exc)) from exc
    report = validate(ts)
    if not report.ok:
        kind = report.violations[0].split(":")[0]
        line = _repeat((n, tuple(t)) for n, t in lines if kind == f"duplicate {t[0][1:]}")
        raise ParseError(line or lines[0][0], "; ".join(report.violations))
    return ts


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc


def _document(rng: random.Random) -> list[str]:
    """A serialized random TS as lines, declared or inferred, with some
    comments, blank lines and indentation."""
    ts = random_ts(rng, max_states=6, max_events=3)
    lines = serialize_ts(ts).splitlines()
    if rng.random() < 0.5:
        lines = [l for l in lines if not l.startswith((".state", ".event"))]
    if rng.random() < 0.3:
        body = lines[1:]
        rng.shuffle(body)
        lines[1:] = body
    out = []
    for line in lines:
        if rng.random() < 0.15:
            out.append(rng.choice(["", "   ", "# a comment", "\t# .arc x y z"]))
        if rng.random() < 0.2:
            line = rng.choice(["  ", "\t", " \t "]) + line
        if rng.random() < 0.2:
            line += rng.choice(["  # trailing", "#", "\t"])
        out.append(line.replace(" ", rng.choice([" ", "  ", "\t"])))
    return out


NAMES = ["s0", "s1", "s2", "s9", "a", "b", "z", "x:y", "é", "", "s0#"]


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    kind = rng.randrange(10)
    i = rng.randrange(len(lines)) if lines else 0
    if kind == 0 and lines:
        del lines[i]
    elif kind == 1 and lines:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 2 and len(lines) > 1:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        lines.insert(i, f".arc {rng.choice(NAMES)} {rng.choice(NAMES)} {rng.choice(NAMES)}")
    elif kind == 4:
        lines.insert(i, f".{rng.choice(['state', 'event'])} {rng.choice(NAMES)}")
    elif kind == 5:
        lines.insert(i, rng.choice([".initial s1", ".initial", ".ts t", ".ts", ".arc s0 a", ".arrow x"]))
    elif kind == 6:
        lines = [l for l in lines if ".initial" not in l or rng.random() < 0.5]
    elif kind == 7:
        lines.append(f".state u{i}")  # unreachable, if declarations are on
    elif kind == 8:
        lines.append(f".event e{i}")  # unused, if declarations are on
    else:
        src = rng.choice(["s0", "s1"])
        lines.insert(i, f".arc {src} a s{rng.randrange(4)}")
        lines.insert(rng.randrange(len(lines) + 1), f".arc {src} a s{rng.randrange(4)}")
    return lines


def _compare(seed: int, mutations: int) -> str:
    """Parse one generated document with both parsers, check they agree,
    and return the outcome's kind: "ok" or the error reason up to its first
    colon or comma."""
    rng = random.Random(seed)
    lines = _document(rng)
    for _ in range(mutations):
        lines = _mutate(rng, lines)
    text = rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["", "\n"])
    got, want = _outcome(parse_ts, text), _outcome(reference_parse_ts, text)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), text
        assert (got.line, str(got)) == (want.line, str(want)), text
        return want.reason.split(":")[0].split(",")[0]
    assert isinstance(got, TransitionSystem), (text, got)
    assert got == want
    assert got.arcs() == want.arcs()
    index, violations = _structure(got)
    assert not violations and got.index == index
    return "ok"


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), mutations=st.integers(min_value=0, max_value=3))
def test_parse_ts_matches_the_reference(seed, mutations):
    _compare(seed, mutations)


def test_the_comparison_reaches_every_error_kind():
    kinds = {_compare(seed, seed % 4) for seed in range(600)}
    assert kinds >= {
        "ok",
        "expected .ts",
        ".ts takes one argument",
        "duplicate .ts header",
        "duplicate .initial",
        ".initial takes one argument",
        ".arc takes source",
        "unknown directive",
        "missing .initial",
        "undeclared state",
        "undeclared event",
        "nondeterministic arc",
        "duplicate state",
        "duplicate event",
        "bad state identifier",
        "unreachable",
        "unused event",
    }
