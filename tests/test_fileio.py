import random

import pytest
from hypothesis import given, settings, strategies as st

from petrisynth.fileio import (
    ParseError,
    parse_formula,
    parse_net,
    parse_ts,
    serialize_formula,
    serialize_net,
    serialize_ts,
)
from petrisynth.nets import PetriNet
from petrisynth.nettypes import Group, Pair, make_type
from petrisynth.reduction import Cm1in3Formula

from conftest import random_ts


def test_parse_ts_inferred():
    ts = parse_ts(
        """
        # a diamond
        .ts a1
        .initial s0
        .arc s0 a s1   # comments reach here too
        .arc s0 b s2
        .arc s1 b s3
        .arc s2 a s3
        """
    )
    assert ts.name == "a1"
    assert ts.states == ("s0", "s1", "s2", "s3")
    assert ts.events == ("a", "b")
    assert ts.initial == "s0"


def test_parse_ts_declared():
    text = ".ts t\n.state x\n.state y\n.event e\n.initial x\n.arc x e y\n.arc y e y\n"
    ts = parse_ts(text)
    assert ts.states == ("x", "y")
    # the serializer always writes full declarations, so this one round-trips
    # byte for byte
    assert serialize_ts(ts) == text


def test_ts_round_trip(a1, a2, demo8):
    for ts in (a1, a2, demo8):
        assert parse_ts(serialize_ts(ts)) == ts


def test_parse_ts_errors():
    with pytest.raises(ParseError, match="line 1: empty document"):
        parse_ts("# nothing\n")
    with pytest.raises(ParseError, match=r"line 1: expected \.ts, got \.net"):
        parse_ts(".net n\n")
    with pytest.raises(ParseError, match=r"line 1: \.ts takes one argument"):
        parse_ts(".ts a b\n")
    with pytest.raises(ParseError, match="line 3: duplicate .ts header"):
        parse_ts(".ts a\n.initial s\n.ts b\n")
    with pytest.raises(ParseError, match="line 3: duplicate .initial"):
        parse_ts(".ts a\n.initial s\n.initial t\n")
    with pytest.raises(ParseError, match="line 2: unknown directive: .arrow"):
        parse_ts(".ts a\n.arrow x\n")
    with pytest.raises(ParseError, match=r"line 2: \.arc takes source, event, target"):
        parse_ts(".ts a\n.arc x y\n")
    with pytest.raises(ParseError, match="line 2: missing .initial"):
        parse_ts(".ts a\n.arc x e y\n")
    with pytest.raises(ParseError, match="line 4: undeclared state: z"):
        parse_ts(".ts a\n.state x\n.initial x\n.arc x e z\n")
    with pytest.raises(ParseError, match="line 4: undeclared event: f"):
        parse_ts(".ts a\n.state x\n.initial x\n.arc x f x\n")
    with pytest.raises(ParseError, match="line 5: undeclared state: q"):
        parse_ts(".ts a\n.state x\n.event e\n.initial q\n.arc x e x\n")
    err = None
    try:
        parse_ts(".ts a\n.initial s0\n.arc s0 e s1\n.arc s0 e s2\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 4
    assert "nondeterministic arc: s0 e" in err.reason
    with pytest.raises(ParseError, match="line 3: duplicate state: x$"):
        parse_ts(".ts a\n.state x\n.state x\n.event e\n.initial x\n.arc x e x\n")
    with pytest.raises(ParseError, match="line 5: duplicate event: e; duplicate event: e$"):
        parse_ts(".ts a\n.state x\n.event e\n.event f\n.event e\n.event e\n.initial x\n.arc x e x\n.arc x f x\n")
    with pytest.raises(ParseError, match="unreachable: u"):
        parse_ts(".ts a\n.state u\n.state x\n.event e\n.initial x\n.arc x e x\n")


def test_parse_net_and_round_trip():
    text = (
        ".net n\n"
        ".family rzpt\n"
        ".bound 2\n"
        ".place p0 1\n"
        ".place p1 0\n"
        ".transition a\n"
        ".transition b\n"
        ".flow p0 a 1,1\n"
        ".flow p1 b g:2\n"
    )
    net = parse_net(text)
    assert net.net_type == make_type("rzpt", 2)
    assert net.flow[("p0", "a")] == Pair(1, 1)
    assert net.flow[("p0", "b")] == Group(0)
    assert serialize_net(net) == text
    assert parse_net(serialize_net(net)) == net


def test_net_default_flow_is_family_dependent():
    pure = parse_net(".net n\n.family ppt\n.bound 1\n.place p 0\n.transition t\n")
    assert pure.flow[("p", "t")] == Pair(0, 0)
    modulo = parse_net(".net n\n.family zppt\n.bound 1\n.place p 0\n.transition t\n")
    assert modulo.flow[("p", "t")] == Group(0)
    # defaults are omitted on the way out
    assert ".flow" not in serialize_net(pure)


def test_parse_net_errors():
    head = ".net n\n.family ppt\n.bound 1\n"
    with pytest.raises(ParseError, match="line 2: unknown family: petri"):
        parse_net(".net n\n.family petri\n")
    with pytest.raises(ParseError, match="line 3: bound must be an integer"):
        parse_net(".net n\n.family ppt\n.bound two\n")
    with pytest.raises(ParseError, match=r"line 3: \.bound takes one argument"):
        parse_net(".net n\n.family ppt\n.bound 2 3\n")
    with pytest.raises(ParseError, match=r"line 3: \.bound takes one argument"):
        parse_net(".net n\n.family ppt\n.bound\n")
    with pytest.raises(ParseError, match="line 2: missing .family"):
        parse_net(".net n\n.bound 1\n")
    with pytest.raises(ParseError, match="line 2: missing .bound"):
        parse_net(".net n\n.family ppt\n")
    with pytest.raises(ParseError, match="line 1: bound must be >= 1"):
        parse_net(".net n\n.family ppt\n.bound 0\n")
    with pytest.raises(ParseError, match=r"line 4: \.place takes name and initial marking"):
        parse_net(head + ".place p\n")
    with pytest.raises(ParseError, match="line 4: marking must be an integer"):
        parse_net(head + ".place p one\n")
    with pytest.raises(ParseError, match="line 5: undeclared place: q"):
        parse_net(head + ".place p 0\n.flow q t 0,0\n")
    with pytest.raises(ParseError, match="line 6: undeclared transition: u"):
        parse_net(head + ".place p 0\n.transition t\n.flow p u 0,0\n")
    with pytest.raises(ParseError, match=r"line 7: duplicate flow for \(p, t\)"):
        parse_net(head + ".place p 0\n.transition t\n.flow p t 0,1\n.flow p t 1,0\n")
    with pytest.raises(ParseError, match="line 6: malformed tau event: 'x'"):
        parse_net(head + ".place p 0\n.transition t\n.flow p t x\n")
    with pytest.raises(ParseError, match="line 6: event g:1 is foreign to ppt at bound 1"):
        parse_net(head + ".place p 0\n.transition t\n.flow p t g:1\n")
    with pytest.raises(ParseError, match="line 1: initial marking out of range at p: 9"):
        parse_net(head + ".place p 9\n")


def test_formula_round_trip(example_formula):
    text = serialize_formula(example_formula)
    assert text.startswith(".cnf3 6\n.clause 0 1 2\n")
    assert parse_formula(text) == example_formula


def test_parse_formula_errors():
    with pytest.raises(ParseError, match="line 1: clause count must be an integer"):
        parse_formula(".cnf3 six\n")
    with pytest.raises(ParseError, match=r"line 1: \.cnf3 takes one argument"):
        parse_formula(".cnf3 1 2\n")
    with pytest.raises(ParseError, match=r"line 1: \.cnf3 takes one argument"):
        parse_formula(".cnf3\n")
    with pytest.raises(ParseError, match="line 2: unknown directive: .c"):
        parse_formula(".cnf3 1\n.c 0 1 2\n")
    with pytest.raises(ParseError, match=r"line 2: \.clause takes three variable indices"):
        parse_formula(".cnf3 1\n.clause 0 1\n")
    with pytest.raises(ParseError, match="line 2: variable indices must be integers"):
        parse_formula(".cnf3 1\n.clause a b c\n")
    with pytest.raises(ParseError, match="line 2: declared 2 clauses, found 1"):
        parse_formula(".cnf3 2\n.clause 0 1 2\n")
    with pytest.raises(ParseError, match="line 1: unordered triple"):
        parse_formula(".cnf3 3\n.clause 0 1 2\n.clause 2 1 0\n.clause 0 1 2\n")


def test_parse_error_carries_fields():
    try:
        parse_ts(".ts a\n.arrow\n")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.reason == "unknown directive: .arrow"
        assert isinstance(exc, ValueError)
    else:
        raise AssertionError("no error raised")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_ts_round_trip_property(seed):
    ts = random_ts(random.Random(seed), max_states=6, max_events=3)
    assert parse_ts(serialize_ts(ts)) == ts


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(["pt", "ppt", "zpt", "zppt", "rzpt"]),
    bound=st.integers(min_value=1, max_value=3),
)
def test_net_round_trip_property(data, family, bound):
    tau = make_type(family, bound)
    n_places = data.draw(st.integers(min_value=0, max_value=3))
    n_transitions = data.draw(st.integers(min_value=0, max_value=3))
    places = [
        (f"p{i}", data.draw(st.integers(min_value=0, max_value=bound)))
        for i in range(n_places)
    ]
    transitions = [f"t{j}" for j in range(n_transitions)]
    flow = {
        (p, t): data.draw(st.sampled_from(tau.events))
        for p, _ in places
        for t in transitions
    }
    net = PetriNet("n", tau, places, transitions, flow)
    assert parse_net(serialize_net(net)) == net


def test_parse_net_rejects_a_bound_past_the_cap():
    with pytest.raises(ParseError, match="line 1: bound must be <= 1000, got 1001"):
        parse_net(".net n\n.family pt\n.bound 1001\n.place p 0\n.transition t\n.flow p t 0,1\n")
    with pytest.raises(ParseError, match="got 99999999999"):
        parse_net(".net n\n.family zpt\n.bound 99999999999\n.place p 0\n.transition t\n")


VOCABULARY = (
    ".ts", ".state", ".event", ".initial", ".arc", ".net", ".family", ".bound",
    ".place", ".transition", ".flow", ".cnf3", ".clause", "pt", "ppt", "zpt",
    "zppt", "rzpt", "s0", "s1", "a", "p", "t", "0", "1", "2", "3", "-1", "1001",
    "99999999999", "9" * 40, "0,0", "1,0", "0,1", "2,2", "g:0", "g:1", "g:7",
    "1,", ",", "g:", "x", "#",
)


@settings(max_examples=300)
@given(
    st.lists(
        st.lists(st.sampled_from(VOCABULARY) | st.text(max_size=4), min_size=1, max_size=5),
        max_size=12,
    )
)
def test_token_soup_raises_only_parse_error(soup):
    text = "\n".join(" ".join(line) for line in soup)
    for header, parse in ((".ts x", parse_ts), (".net x", parse_net), (".cnf3 2", parse_formula)):
        for document in (text, f"{header}\n{text}"):
            try:
                parse(document)
            except ParseError:
                pass
