import random

import pytest
from hypothesis import given, settings, strategies as st

from petrisynth.ts import (
    SeparationAtom,
    TransitionSystem,
    deterministic_isomorphism,
    enumerate_atoms,
    essa_atoms,
    grade,
    is_linear,
    linear_terminal,
    ssa_atoms,
    validate,
)

from conftest import random_ts


def test_construction_and_lookup(a1):
    assert a1.delta("s0", "a") == "s1"
    assert a1.delta("s3", "a") is None
    assert a1.has_arc("s2", "a")
    assert not a1.has_arc("s1", "a")
    assert a1.out_edges("s0") == [("a", "s1"), ("b", "s2")]
    assert a1.arcs()[0] == ("s0", "a", "s1")


def test_index_positions(a1):
    index = a1.index
    assert index.state == {"s0": 0, "s1": 1, "s2": 2, "s3": 3}
    assert index.event == {"a": 0, "b": 1}
    assert index.initial == 0
    assert index.out == (((0, 1), (1, 2)), ((1, 3),), ((0, 3),), ())
    assert a1.index is index


def test_index_rejects_malformed_ts():
    cases = [
        (["s0", "s0"], ["a"], [("s0", "a", "s0")], "s0", "duplicate state: s0"),
        (["s0"], ["a", "a"], [("s0", "a", "s0")], "s0", "duplicate event: a"),
        (["s0"], ["a"], [("s0", "a", "s0")], "s9", "unknown initial state: s9"),
        (["s0"], ["a"], [("s0", "b", "s0")], "s0", "arc event not declared: s0 b s0"),
        (["s0"], ["a"], [("s9", "a", "s0")], "s0", "arc endpoint not a state: s9 a s0"),
    ]
    for states, events, arcs, initial, message in cases:
        with pytest.raises(ValueError, match=message):
            TransitionSystem("bad", states, events, arcs, initial).index


NAMES = ("s0", "s1", "s2", "a", "b")


@settings(max_examples=150, deadline=None)
@given(
    states=st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
    events=st.lists(st.sampled_from(NAMES), max_size=3),
    initial=st.sampled_from(NAMES),
    arcs=st.lists(st.tuples(*[st.sampled_from(NAMES)] * 3), max_size=5),
)
def test_validate_reports_what_index_rejects(states, events, initial, arcs):
    # one arc per (state, event) keeps the TS deterministic; the names
    # overlap, so duplicates, unknown initial states and undeclared arc
    # events and endpoints all occur
    unique = list({(src, e): (src, e, dst) for src, e, dst in arcs}.values())
    ts = TransitionSystem("m", states, events, unique, initial)
    report = validate(ts)
    try:
        ts.index
    except ValueError as exc:
        assert not report.ok
        # every name is a good identifier, so the index's message leads
        assert report.violations[0] == str(exc)
    else:
        assert all(v.startswith(("unreachable", "unused")) for v in report.violations)


def test_nondeterminism_rejected():
    with pytest.raises(ValueError, match="nondeterministic arc: s0 a"):
        TransitionSystem(
            "bad", ["s0", "s1", "s2"], ["a"],
            [("s0", "a", "s1"), ("s0", "a", "s2")], "s0",
        )


def test_validate_clean(a1, a2, demo8):
    for ts in (a1, a2, demo8):
        report = validate(ts)
        assert report.ok
        assert report.violations == []


def test_validate_unreachable_and_unused():
    ts = TransitionSystem(
        "frag", ["s0", "s1", "u"], ["a", "e"], [("s0", "a", "s1")], "s0"
    )
    report = validate(ts)
    assert not report.ok
    assert "unreachable: u" in report.violations
    assert "unused event: e" in report.violations


def test_validate_identifiers_and_duplicates():
    ts = TransitionSystem("x", ["s0", "s 1", "s0"], ["a"], [], "s0")
    report = validate(ts)
    assert any(v.startswith("bad state identifier") for v in report.violations)
    assert "duplicate state: s0" in report.violations
    ts2 = TransitionSystem("x", ["s0"], ["a"], [], "nope")
    assert "unknown initial state: nope" in validate(ts2).violations


def test_grade(a1, a2, demo8):
    assert grade(a1) == 2
    assert grade(a2) == 1
    assert grade(demo8) == 2


def test_linearity(a1, a2):
    chain = TransitionSystem(
        "c", ["s0", "s1", "s2"], ["a"], [("s0", "a", "s1"), ("s1", "a", "s2")], "s0"
    )
    assert is_linear(chain)
    assert linear_terminal(chain) == "s2"
    assert not is_linear(a1)
    assert not is_linear(a2)  # cycle revisits the initial state
    with pytest.raises(ValueError, match="not linear"):
        linear_terminal(a1)


def test_atom_enumeration(a2):
    assert [str(x) for x in ssa_atoms(a2)] == [
        "ssa(s0,s1)", "ssa(s0,s2)", "ssa(s1,s2)"
    ]
    assert essa_atoms(a2) == []  # a is enabled everywhere on the cycle
    assert enumerate_atoms(a2, "solvability") == ssa_atoms(a2)
    with pytest.raises(ValueError, match="unknown problem"):
        enumerate_atoms(a2, "both")


def test_essa_atoms_order(a1):
    atoms = essa_atoms(a1)
    assert atoms[0] == SeparationAtom.essa("a", "s1")
    assert len(atoms) == 4


def test_isomorphism_direct(a1):
    relabeled = TransitionSystem(
        "other", ["t3", "t1", "t2", "t0"], ["a", "b"],
        [("t0", "a", "t1"), ("t0", "b", "t2"), ("t1", "b", "t3"), ("t2", "a", "t3")],
        "t0",
    )
    mapping = deterministic_isomorphism(a1, relabeled)
    assert mapping == {"s0": "t0", "s1": "t1", "s2": "t2", "s3": "t3"}


def test_isomorphism_rejects_mismatch(a1, a2):
    assert deterministic_isomorphism(a1, a2) is None
    # same sizes and events, different shape
    bent = TransitionSystem(
        "bent", ["s0", "s1", "s2", "s3"], ["a", "b"],
        [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s0")],
        "s0",
    )
    assert deterministic_isomorphism(a1, bent) is None


def test_isomorphism_matches_events_by_name(a1):
    # b declares the events in the opposite order, so their positions differ
    reordered = TransitionSystem(
        "reordered", ["t0", "t1", "t2", "t3"], ["b", "a"],
        [("t0", "b", "t2"), ("t0", "a", "t1"), ("t1", "b", "t3"), ("t2", "a", "t3")],
        "t0",
    )
    forward = deterministic_isomorphism(a1, reordered)
    assert list(forward.items()) == [("s0", "t0"), ("s1", "t1"), ("s2", "t2"), ("s3", "t3")]
    backward = deterministic_isomorphism(reordered, a1)
    assert list(backward.items()) == [("t0", "s0"), ("t2", "s2"), ("t1", "s1"), ("t3", "s3")]
    swapped = TransitionSystem(
        "swapped", reordered.states, ["b", "a"],
        [("t0", "a", "t2"), ("t0", "b", "t1"), ("t1", "a", "t3"), ("t2", "b", "t3")],
        "t0",
    )
    assert list(deterministic_isomorphism(a1, swapped).items()) == [
        ("s0", "t0"), ("s1", "t2"), ("s2", "t1"), ("s3", "t3"),
    ]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_isomorphism_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    ts = random_ts(rng)
    order = list(range(len(ts.states)))
    rng.shuffle(order)
    names = {s: f"t{order[i]}" for i, s in enumerate(ts.states)}
    other = TransitionSystem(
        "shuffled",
        [names[s] for s in ts.states],
        ts.events,
        [(names[a], e, names[b]) for a, e, b in ts.arcs()],
        names[ts.initial],
    )
    mapping = deterministic_isomorphism(ts, other)
    assert mapping == names
    # and the inverse direction also exists
    assert deterministic_isomorphism(other, ts) == {v: k for k, v in names.items()}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_ts_generator_is_valid(seed):
    ts = random_ts(random.Random(seed))
    assert validate(ts).ok
