"""Metamorphic round trips on generated rzpt nets: the reachability graph
of an rzpt net synthesizes back, and the decisions on it do not depend on
the names of states and events or on the spanning tree."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

from petrisynth import polysynth  # noqa: E402
from petrisynth.nettypes import make_type  # noqa: E402
from petrisynth.polysynth import decide_essp_rzpt, decide_ssp, synthesize_rzpt  # noqa: E402
from petrisynth.ts import SeparationAtom, TransitionSystem  # noqa: E402

PAIR_FRAC = 0.15  # as in the benchmark's roundtrip workload


def generated_graphs():
    """(bound, reachability graph) of five seeded nets per place count and
    bound; at the other bound the same graph is decided too, which makes
    ssp and essp fail on a definite atom."""
    for places in (2, 3):
        for bound in (1, 2):
            for i in range(5):
                rng = random.Random(f"roundtrip/{places}/{bound}/{i}")
                _, events, _, (states, initial, arcs) = gen.rzpt_net(rng, places, bound, PAIR_FRAC)
                yield bound, TransitionSystem(f"rg{places}{bound}{i}", states, events, arcs, initial)


def summary(ts, bound, rename=None):
    """Verdict, failing atom (renamed back) and region count of ssp and
    essp over rzpt."""
    back = {new: old for old, new in (rename or {}).items()}
    out = []
    for report in (decide_ssp(ts, make_type("rzpt", bound)), decide_essp_rzpt(ts, bound)):
        failing = report.failing
        if failing is not None and back:
            failing = SeparationAtom(failing.kind, back[failing.left], back[failing.right])
        out.append((report.holds, failing, len(report.witness.regions) if report.holds else None))
    return out


def renamed(ts):
    """The TS with every state and event renamed, declared order kept; the
    new names sort in the opposite order."""
    rename = {s: f"z{len(ts.states) - i:03d}" for i, s in enumerate(ts.states)}
    rename.update({e: f"y{len(ts.events) - i:03d}" for i, e in enumerate(ts.events)})
    arcs = [(rename[s], rename[e], rename[t]) for s, e, t in ts.arcs()]
    states = [rename[s] for s in ts.states]
    return TransitionSystem(ts.name, states, [rename[e] for e in ts.events], arcs, rename[ts.initial]), rename


def test_generated_nets_round_trip(monkeypatch):
    graphs = list(generated_graphs())
    want = {}
    for bound, ts in graphs:
        report = synthesize_rzpt(ts, bound)
        assert report.net is not None and report.failing is None, ts.name
        for b in (1, 2):
            want[ts.name, b] = summary(ts, b)
            other, rename = renamed(ts)
            assert summary(other, b, rename) == want[ts.name, b], (ts.name, b)
    assert any(not holds for s in want.values() for holds, _, _ in s)
    build_spanning = polysynth.build_spanning
    monkeypatch.setattr(polysynth, "build_spanning", lambda ts, bound: build_spanning(ts, bound, order="dfs"))
    for _, ts in graphs:
        for b in (1, 2):
            assert summary(ts, b) == want[ts.name, b], (ts.name, b, "dfs")
