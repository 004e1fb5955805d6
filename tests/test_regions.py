import random

import pytest
from hypothesis import given, settings, strategies as st

from petrisynth.nets import reachability_graph
from petrisynth.nettypes import FAMILIES, Z_FAMILIES, Group, Pair, make_type
from petrisynth.polysynth import build_spanning, decide_essa_rzpt, decide_ssa
from petrisynth.regions import (
    Region,
    WitnessSet,
    check_witness,
    propagate_support,
    solves,
    support_from_signature,
    synthesized_net,
    validate_region,
)
from petrisynth.ts import (
    SeparationAtom,
    TransitionSystem,
    deterministic_isomorphism,
    essa_atoms,
    ssa_atoms,
)

from conftest import random_ts

PPT1 = make_type("ppt", 1)
ZPPT2 = make_type("zppt", 2)


def diamond_regions(a1):
    # one region drains on a, the other on b; together they separate the
    # diamond completely
    r1 = support_from_signature(a1, PPT1, 1, {"a": Pair(1, 0), "b": Pair(0, 0)})
    r2 = support_from_signature(a1, PPT1, 1, {"a": Pair(0, 0), "b": Pair(1, 0)})
    return r1, r2


def test_support_from_signature_diamond(a1):
    r1, r2 = diamond_regions(a1)
    assert r1.sup == {"s0": 1, "s1": 0, "s2": 1, "s3": 0}
    assert r2.sup == {"s0": 1, "s1": 1, "s2": 0, "s3": 0}
    assert validate_region(a1, PPT1, r1).ok
    assert validate_region(a1, PPT1, r2).ok


def test_support_from_signature_conflict(a1):
    # draining on both events makes the two walks to s3 disagree
    assert support_from_signature(a1, PPT1, 1, {"a": Pair(1, 0), "b": Pair(1, 0)}) is None
    # and an undefined first step kills the propagation outright
    assert support_from_signature(a1, PPT1, 0, {"a": Pair(1, 0), "b": Pair(0, 0)}) is None


def test_support_from_signature_validation(a1):
    with pytest.raises(ValueError, match="signature map does not match"):
        support_from_signature(a1, PPT1, 1, {"a": Pair(0, 0)})
    with pytest.raises(ValueError, match="initial support out of range: 2"):
        support_from_signature(a1, PPT1, 2, {"a": Pair(0, 0), "b": Pair(0, 0)})


def test_support_from_signature_rejects_arcs_off_the_states():
    # an arc into an undeclared state used to hand back a region whose
    # support held the stray target and lacked the declared state b
    ts = TransitionSystem("x", ["a", "b"], ["e"], [("a", "e", "zz")], "a")
    with pytest.raises(ValueError, match="arc endpoint not a state: a e zz"):
        support_from_signature(ts, PPT1, 0, {"e": Pair(0, 1)})


def test_support_from_signature_rejects_undeclared_events():
    ts = TransitionSystem("x", ["a", "b"], ["e"], [("a", "e", "b"), ("b", "f", "a")], "a")
    with pytest.raises(ValueError, match="arc event not declared: b f a"):
        support_from_signature(ts, PPT1, 0, {"e": Pair(0, 1)})


def test_support_from_signature_rejects_unknown_initial_state():
    ts = TransitionSystem("x", ["a", "b"], ["e"], [("a", "e", "b")], "z")
    with pytest.raises(ValueError, match="unknown initial state: z"):
        support_from_signature(ts, PPT1, 0, {"e": Pair(0, 1)})


def support_reference(ts, tau, sup_init, sig):
    """The walk support_from_signature ran before the TS index: adjacency
    and supports keyed by state name, one step-table lookup per arc."""
    out = {}
    for src, event, dst in ts.arcs():
        out.setdefault(src, []).append((event, dst))
    sup = {ts.initial: sup_init}
    queue = [ts.initial]
    while queue:
        state = queue.pop()
        for event, dst in out.get(state, ()):
            nxt = tau.step(sig[event])[sup[state]]
            if nxt is None:
                return None
            if dst in sup:
                if sup[dst] != nxt:
                    return None
            else:
                sup[dst] = nxt
                queue.append(dst)
    if len(sup) != len(ts.states):
        raise ValueError("TS has unreachable states")
    return Region(sup, dict(sig))


def same_region(got, want):
    """Equal regions, with sup and sig keys in the same order."""
    if got is None or want is None:
        return got is want
    return list(got.sup.items()) == list(want.sup.items()) and list(got.sig.items()) == list(want.sig.items())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    family=st.sampled_from(FAMILIES),
    bound=st.sampled_from([1, 2, 3]),
)
def test_walk_matches_the_dict_walk(seed, family, bound):
    # random signatures, half of their events the do-nothing event so
    # that many of them are regions
    rng = random.Random(seed)
    ts = random_ts(rng, max_states=7, max_events=4)
    tau = make_type(family, bound)
    for _ in range(20):
        sig = {e: rng.choice(tau.events) if rng.random() < 0.5 else tau.neutral for e in ts.events}
        sup_init = rng.randrange(bound + 1)
        want = support_reference(ts, tau, sup_init, sig)
        assert same_region(support_from_signature(ts, tau, sup_init, sig), want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    family=st.sampled_from(Z_FAMILIES),
    bound=st.sampled_from([1, 2, 3]),
)
def test_derived_regions_match_support_from_signature(seed, family, bound):
    # the deciders hand the walk their own step tables; each region they
    # return is the one support_from_signature derives from its signature
    ts = random_ts(random.Random(seed), max_states=6, max_events=3)
    tau = make_type(family, bound)
    sd = build_spanning(ts, bound)
    found = [decide_ssa(ts, tau, atom, sd=sd) for atom in ssa_atoms(ts)]
    if family == "rzpt":
        found += [decide_essa_rzpt(ts, bound, atom, sd=sd) for atom in essa_atoms(ts)]
    for region in filter(None, found):
        assert list(region.sig) == list(ts.events)
        again = support_from_signature(ts, tau, region.sup[ts.initial], region.sig)
        assert same_region(region, again)


def two_components():
    # a0 -e-> a1 -f-> a2 and b0 -e-> b1, states declared out of walk order;
    # e takes a token (0 -> 1), f gives one back (1 -> 0)
    ts = TransitionSystem(
        "two",
        ["b0", "a0", "b1", "a1", "a2"],
        ["e", "f"],
        [("a0", "e", "a1"), ("a1", "f", "a2"), ("b0", "e", "b1")],
        "a0",
    )
    return ts, ts.index.state, [PPT1.step(Pair(0, 1)), PPT1.step(Pair(1, 0))]


def test_roots_walk_component_by_component():
    ts, at, steps = two_components()
    got = propagate_support(ts, [(at["a0"], 0), (at["b0"], 0)], steps)
    assert list(got.items()) == [("a0", 0), ("a1", 1), ("a2", 0), ("b0", 0), ("b1", 1)]
    got = propagate_support(ts, [(at["b0"], 0), (at["a0"], 0)], steps)
    assert list(got.items()) == [("b0", 0), ("b1", 1), ("a0", 0), ("a1", 1), ("a2", 0)]
    # a root inside a component walks on from there; a later root that
    # reaches back into it must agree
    got = propagate_support(ts, [(at["a1"], 1), (at["a0"], 0), (at["b0"], 0)], steps)
    assert list(got.items()) == [("a1", 1), ("a2", 0), ("a0", 0), ("b0", 0), ("b1", 1)]
    assert propagate_support(ts, [(at["a2"], 1), (at["a0"], 0), (at["b0"], 0)], steps) is None


def test_roots_already_reached_must_agree():
    ts, at, steps = two_components()
    roots = [(at["a0"], 0), (at["b0"], 0)]
    want = list(propagate_support(ts, roots, steps).items())
    for extra in [(at["a0"], 0), (at["a2"], 0), (at["b1"], 1)]:
        assert list(propagate_support(ts, roots + [extra], steps).items()) == want
    for extra in [(at["a0"], 1), (at["a1"], 0), (at["b1"], 0)]:
        assert propagate_support(ts, roots + [extra], steps) is None


def test_roots_must_reach_every_state():
    ts, at, steps = two_components()
    for roots in ([], [(at["a0"], 0)], [(at["b0"], 0), (at["a1"], 1)]):
        with pytest.raises(ValueError, match="TS has unreachable states"):
            propagate_support(ts, roots, steps)


def test_validate_region_errors(a1):
    r1, _ = diamond_regions(a1)
    with pytest.raises(ValueError, match="support map does not match the state set"):
        validate_region(a1, PPT1, Region({"s0": 1}, r1.sig))
    with pytest.raises(ValueError, match="signature map does not match the event set"):
        validate_region(a1, PPT1, Region(r1.sup, {"a": Pair(0, 0)}))
    bad_sup = dict(r1.sup, s2=2)
    check = validate_region(a1, PPT1, Region(bad_sup, r1.sig))
    assert not check.ok
    assert check.reason == "support out of range at s2: 2"
    bad_sig = dict(r1.sig, b=Group(1))
    check = validate_region(a1, PPT1, Region(r1.sup, bad_sig))
    assert not check.ok
    assert "signature event outside" in check.reason
    broken = Region(dict(r1.sup, s1=1), r1.sig)
    check = validate_region(a1, PPT1, broken)
    assert not check.ok
    assert check.arc == ("s0", "a", "s1")
    assert check.reason == "delta(1, 1,0) = 0, expected 1"


def test_solves(a1):
    r1, r2 = diamond_regions(a1)
    assert solves(r1, PPT1, SeparationAtom.ssa("s0", "s1"))
    assert not solves(r1, PPT1, SeparationAtom.ssa("s0", "s2"))
    # a is disabled on r1 wherever its support is 0
    assert solves(r1, PPT1, SeparationAtom.essa("a", "s1"))
    assert not solves(r1, PPT1, SeparationAtom.essa("b", "s1"))


def test_solves_rejects_support_out_of_range():
    # t = 1,0 at b=2: a support of -1 would read the step table's last
    # entry and 3 would run past it; both are rejected, as fire does
    pt2 = make_type("pt", 2)
    atom = SeparationAtom.essa("t", "s")
    for tokens in (-1, 3):
        region = Region({"s": tokens}, {"t": Pair(1, 0)})
        with pytest.raises(ValueError, match=f"support out of range at s: {tokens}"):
            solves(region, pt2, atom)
    assert solves(Region({"s": 0}, {"t": Pair(1, 0)}), pt2, atom)
    assert not solves(Region({"s": 2}, {"t": Pair(1, 0)}), pt2, atom)


def test_check_witness_diamond(a1):
    r1, r2 = diamond_regions(a1)
    report = check_witness(a1, PPT1, WitnessSet([r1, r2]), "solvability")
    assert report.missing == []
    # every atom is charged to the first region that solves it
    assert report.coverage[SeparationAtom.ssa("s0", "s1")] == 0
    assert report.coverage[SeparationAtom.ssa("s0", "s2")] == 1
    assert report.coverage[SeparationAtom.essa("a", "s1")] == 0
    assert report.ok and not report.missing

    partial = check_witness(a1, PPT1, WitnessSet([r1]), "ssp")
    assert SeparationAtom.ssa("s0", "s2") in partial.missing
    assert not partial.ok


def test_check_witness_rejects_unknown_problem(a1):
    with pytest.raises(ValueError, match="unknown problem: esp"):
        check_witness(a1, PPT1, WitnessSet([]), "esp")


def test_synthesized_net_diamond(a1):
    r1, r2 = diamond_regions(a1)
    net = synthesized_net(a1, PPT1, [r1, r2])
    assert net.name == "a1.net"
    assert net.places == (("p0", 1), ("p1", 1))
    assert net.flow[("p0", "a")] == Pair(1, 0)
    assert net.flow[("p1", "a")] == Pair(0, 0)
    graph = reachability_graph(net)
    assert deterministic_isomorphism(a1, graph) == {
        "s0": "11",
        "s1": "01",
        "s2": "10",
        "s3": "00",
    }


def test_synthesized_net_cycle(a2):
    region = support_from_signature(a2, ZPPT2, 0, {"a": Group(1)})
    assert region.sup == {"s0": 0, "s1": 1, "s2": 2}
    net = synthesized_net(a2, ZPPT2, [region], name="loop")
    assert net.name == "loop"
    graph = reachability_graph(net)
    assert deterministic_isomorphism(a2, graph) == {"s0": "0", "s1": "1", "s2": "2"}
