import random
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

from petrisynth.fileio import serialize_ts  # noqa: E402
from petrisynth.nets import (  # noqa: E402
    CapExceeded,
    PetriNet,
    fire,
    marking_name,
    reachability_graph,
)
from petrisynth.nettypes import Group, Pair, delta_tau, make_type  # noqa: E402
from petrisynth.ts import TransitionSystem, deterministic_isomorphism, validate  # noqa: E402

PPT1 = make_type("ppt", 1)
RZPT2 = make_type("rzpt", 2)


def diamond_net():
    # two pure places over {a, b}; each place blocks one event once drained
    return PetriNet(
        "a1net",
        PPT1,
        places=[("p0", 1), ("p1", 1)],
        transitions=["a", "b"],
        flow={
            ("p0", "a"): Pair(1, 0),
            ("p0", "b"): Pair(0, 0),
            ("p1", "a"): Pair(0, 0),
            ("p1", "b"): Pair(1, 0),
        },
    )


def cycle_net():
    return PetriNet(
        "a2net",
        RZPT2,
        places=[("p0", 0)],
        transitions=["a"],
        flow={("p0", "a"): Group(1)},
    )


def test_construction_validation():
    with pytest.raises(ValueError, match="duplicate place name"):
        PetriNet("n", PPT1, [("p", 0), ("p", 1)], [], {})
    with pytest.raises(ValueError, match="duplicate transition name"):
        PetriNet("n", PPT1, [], ["t", "t"], {})
    with pytest.raises(ValueError, match="initial marking out of range at p: 3"):
        PetriNet("n", PPT1, [("p", 3)], [], {})
    with pytest.raises(ValueError, match="flow references unknown place: q"):
        PetriNet("n", PPT1, [("p", 0)], ["t"], {("q", "t"): Pair(0, 0), ("p", "t"): Pair(0, 0)})
    with pytest.raises(ValueError, match="flow references unknown transition: u"):
        PetriNet("n", PPT1, [("p", 0)], ["t"], {("p", "u"): Pair(0, 0), ("p", "t"): Pair(0, 0)})
    with pytest.raises(ValueError, match="flow event outside"):
        PetriNet("n", PPT1, [("p", 0)], ["t"], {("p", "t"): Group(1)})
    with pytest.raises(ValueError, match=r"flow is partial: missing \(p, u\)"):
        PetriNet("n", PPT1, [("p", 0)], ["t", "u"], {("p", "t"): Pair(0, 0)})


def test_equality():
    assert diamond_net() == diamond_net()
    other = diamond_net()
    other.flow[("p0", "b")] = Pair(0, 1)
    assert diamond_net() != other
    assert diamond_net() != "a1net"


def test_fire_pair_semantics():
    net = diamond_net()
    assert fire(net, (1, 1), "a") == (0, 1)
    assert fire(net, (1, 1), "b") == (1, 0)
    # a needs a token on p0
    assert fire(net, (0, 1), "a") is None
    with pytest.raises(ValueError, match="unknown transition: c"):
        fire(net, (1, 1), "c")


def test_fire_rzpt_pair_only_at_exact_state():
    net = PetriNet(
        "strict",
        RZPT2,
        places=[("p", 1)],
        transitions=["t"],
        flow={("p", "t"): Pair(1, 0)},
    )
    assert fire(net, (1,), "t") == (0,)
    # enough tokens is not enough: the pair fires at state 1 only
    assert fire(net, (2,), "t") is None
    assert fire(net, (0,), "t") is None


def test_fire_rejects_foreign_markings():
    # a negative count would wrap to the top of the step table, a count
    # above b would index past it, and zip would drop or ignore places
    net = PetriNet("one", make_type("pt", 2), [("p", 1)], ["t"], {("p", "t"): Pair(1, 0)})
    assert fire(net, (1,), "t") == (0,)
    for marking in ((-1,), (3,), (1, 5), ()):
        with pytest.raises(ValueError, match="not a marking of one"):
            fire(net, marking, "t")


def test_fire_group_semantics():
    net = cycle_net()
    assert fire(net, (0,), "a") == (1,)
    assert fire(net, (1,), "a") == (2,)
    assert fire(net, (2,), "a") == (0,)


def test_marking_name():
    assert marking_name((), 1) == "-"
    assert marking_name((1, 0, 2), 2) == "102"
    assert marking_name((10, 3), 12) == "10.3"


def test_reachability_graph_diamond(a1):
    graph = reachability_graph(diamond_net())
    assert graph.name == "a1net.rg"
    assert graph.initial == "11"
    assert set(graph.states) == {"11", "01", "10", "00"}
    assert graph.arcs() == (
        ("11", "a", "01"),
        ("11", "b", "10"),
        ("01", "b", "00"),
        ("10", "a", "00"),
    )
    assert validate(graph).ok
    assert deterministic_isomorphism(a1, graph) == {
        "s0": "11",
        "s1": "01",
        "s2": "10",
        "s3": "00",
    }


def test_reachability_graph_cycle(a2):
    graph = reachability_graph(cycle_net())
    assert graph.states == ("0", "1", "2")
    assert graph.arcs() == (("0", "a", "1"), ("1", "a", "2"), ("2", "a", "0"))
    assert deterministic_isomorphism(a2, graph) == {"s0": "0", "s1": "1", "s2": "2"}


def test_reachability_graph_drops_dead_transition():
    net = PetriNet(
        "dead",
        PPT1,
        places=[("p", 0)],
        transitions=["t", "u"],
        flow={("p", "t"): Pair(0, 0), ("p", "u"): Pair(1, 0)},
    )
    with pytest.warns(UserWarning, match="transition never fires, dropped from graph: u"):
        graph = reachability_graph(net)
    assert graph.events == ("t",)
    assert graph.states == ("0",)
    assert validate(graph).ok


def test_reachability_graph_cap():
    with pytest.raises(CapExceeded, match="more than 2 reachable markings in a1net"):
        reachability_graph(diamond_net(), cap=2)


@st.composite
def small_nets(draw):
    family = draw(st.sampled_from(["pt", "ppt", "zpt", "zppt"]))
    bound = draw(st.integers(min_value=1, max_value=2))
    tau = make_type(family, bound)
    n_places = draw(st.integers(min_value=1, max_value=2))
    n_transitions = draw(st.integers(min_value=1, max_value=3))
    places = [
        (f"p{i}", draw(st.integers(min_value=0, max_value=bound)))
        for i in range(n_places)
    ]
    transitions = [f"t{j}" for j in range(n_transitions)]
    flow = {
        (p, t): draw(st.sampled_from(tau.events))
        for p, _ in places
        for t in transitions
    }
    return PetriNet("rand", tau, places, transitions, flow)


@settings(max_examples=100, deadline=None)
@given(net=small_nets())
def test_reachability_graph_is_valid_and_deterministic(net):
    bound = net.net_type.bound
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graph = reachability_graph(net)
    assert validate(graph).ok
    assert len(graph.states) <= (bound + 1) ** len(net.places)
    # replaying any arc from the marking it names must agree with the graph
    for src, event, dst in graph.arcs():
        split = src.split(".") if bound > 9 else list(src)
        marking = tuple(int(v) for v in split)
        assert marking_name(fire(net, marking, event), bound) == dst
    assert serialize_ts(graph) == serialize_ts(quiet(naive_graph, net))


def test_firing_leaves_the_event_list_unbuilt():
    tau = make_type("pt", 1000)
    net = PetriNet("count", tau, [("p", 0)], ["up", "down"], {("p", "up"): Pair(0, 1), ("p", "down"): Pair(1, 0)})
    graph = reachability_graph(net)
    assert len(graph.states) == 1001 and len(graph.arcs()) == 2000
    assert "events" not in vars(tau)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), family=st.sampled_from(["pt", "ppt", "zpt", "zppt", "rzpt"]), bound=st.integers(1, 3))
def test_fire_applies_delta_tau_place_wise(data, family, bound):
    tau = make_type(family, bound)
    places = [(f"p{i}", 0) for i in range(data.draw(st.integers(1, 3)))]
    transitions = ["t0", "t1"]
    flow = {(p, t): data.draw(st.sampled_from(tau.events)) for p, _ in places for t in transitions}
    net = PetriNet("rand", tau, places, transitions, flow)
    marking = tuple(data.draw(st.integers(0, bound)) for _ in places)
    for t in transitions:
        after = [delta_tau(tau, v, flow[(p, t)]) for (p, _), v in zip(places, marking)]
        assert fire(net, marking, t) == (None if None in after else tuple(after))
    with pytest.raises(ValueError, match="unknown transition: t2"):
        fire(net, marking, "t2")


def naive_graph(net):
    """Reference reachability graph: a list-scanning BFS over fire, naming
    each marking afresh at every arc."""
    bound = net.net_type.bound

    def name(marking):
        return ("." if bound > 9 else "").join(str(v) for v in marking) or "-"

    order, arcs = [net.initial_marking()], []
    for marking in order:
        for t in net.transitions:
            after = fire(net, marking, t)
            if after is not None:
                if after not in order:
                    order.append(after)
                arcs.append((name(marking), t, name(after)))
    fired = [t for t in net.transitions if any(e == t for _, e, _ in arcs)]
    return TransitionSystem(f"{net.name}.rg", map(name, order), fired, arcs, name(order[0]))


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


@st.composite
def rzpt_nets(draw, bounds=(1, 2, 3)):
    """An rzpt net from the benchmark's generator: every marking reachable,
    every transition fired."""
    bound = draw(st.sampled_from(bounds))
    places = draw(st.integers(1, 2 if bound > 2 else 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    marking, transitions, flow, _ = gen.rzpt_net(rng, places, bound, 0.15)
    events = {k: Group(v[1]) if v[0] == "g" else Pair(v[1], v[2]) for k, v in flow.items()}
    return PetriNet(f"g{bound}x{places}", make_type("rzpt", bound), marking, transitions, events)


def relabeled(graph, rng):
    """The graph with shuffled state names and events declared in shuffled
    order, and the renaming."""
    order = list(range(len(graph.states)))
    rng.shuffle(order)
    names = {s: f"s{order[i]}" for i, s in enumerate(graph.states)}
    events = list(graph.events)
    rng.shuffle(events)
    arcs = [(names[s], e, names[t]) for s, e, t in graph.arcs()]
    ts = TransitionSystem("target", [names[s] for s in graph.states], events, arcs, names[graph.initial])
    return ts, names


@settings(max_examples=150, deadline=None)
@given(data=st.data(), net=rzpt_nets())
def test_isomorphism_finds_the_relabeling(data, net):
    graph = reachability_graph(net)
    ts, names = relabeled(graph, random.Random(data.draw(st.integers(0, 2**32))))
    # the walk reaches the graph's states in the order the graph found them
    assert list(deterministic_isomorphism(graph, ts).items()) == list(names.items())
    assert deterministic_isomorphism(ts, graph) == {v: k for k, v in names.items()}
    arcs = list(ts.arcs())
    if data.draw(st.booleans()):
        del arcs[data.draw(st.integers(0, len(arcs) - 1))]
    else:
        free = [(s, e) for s in ts.states for e in ts.events if not ts.has_arc(s, e)]
        if not free:
            return
        src, event = data.draw(st.sampled_from(free))
        arcs.append((src, event, data.draw(st.sampled_from(ts.states))))
    changed = TransitionSystem(ts.name, ts.states, ts.events, arcs, ts.initial)
    assert deterministic_isomorphism(graph, changed) is None
    assert deterministic_isomorphism(changed, graph) is None


@settings(max_examples=60, deadline=None)
@given(net=rzpt_nets(bounds=(1, 2, 3, 10)))
def test_reachability_graph_equals_the_naive_bfs(net):
    assert serialize_ts(reachability_graph(net)) == serialize_ts(naive_graph(net))


@settings(max_examples=40, deadline=None)
@given(net=rzpt_nets())
def test_cap_boundary(net):
    graph = reachability_graph(net)
    count = len(graph.states)
    assert reachability_graph(net, cap=count) == graph
    with pytest.raises(CapExceeded) as raised:
        reachability_graph(net, cap=count - 1)
    assert str(raised.value) == f"cap exceeded: more than {count - 1} reachable markings in {net.name}"
