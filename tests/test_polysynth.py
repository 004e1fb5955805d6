import random

import pytest
from hypothesis import given, settings, strategies as st

from petrisynth import modsolve, polysynth
from petrisynth.nets import PetriNet, reachability_graph
from petrisynth.nettypes import Group, Pair, make_type
from petrisynth.oracle import oracle_decide
from petrisynth.polysynth import (
    AbstractRegion,
    base_system,
    build_spanning,
    concrete_to_abstract,
    decide_essa_rzpt,
    decide_essp_rzpt,
    decide_ssa,
    decide_ssp,
    essa_system,
    fundamental_cycle,
    synthesize_rzpt,
)
from petrisynth.regions import build_witness, solves, support_from_signature
from petrisynth.ts import SeparationAtom, TransitionSystem, essa_atoms, ssa_atoms

from conftest import random_ts


def cycle_ts(n):
    states = [f"s{i}" for i in range(n)]
    arcs = [(states[i], "a", states[(i + 1) % n]) for i in range(n)]
    return TransitionSystem(f"cyc{n}", states, ["a"], arcs, "s0")


def test_build_spanning_demo8(demo8):
    sd = build_spanning(demo8, 2)
    assert sd.chords == (("4", "c", "2"), ("6", "c", "0"), ("7", "d", "4"))
    assert sd.psi["0"] == (0, 0, 0, 0)
    assert sd.psi["4"] == (1, 1, 2, 0)
    assert sd.psi["7"] == (1, 0, 2, 0)
    assert sd.parent["1"] == ("0", "a", "1")
    assert sd.parent["4"] == ("3", "c", "4")
    with pytest.raises(ValueError, match="unknown traversal order: random"):
        build_spanning(demo8, 2, order="random")


def test_build_spanning_rejects_unreachable():
    ts = TransitionSystem("u", ["s0", "s1", "s2"], ["a"], [("s0", "a", "s1"), ("s2", "a", "s2")], "s0")
    with pytest.raises(ValueError, match="TS has unreachable states"):
        build_spanning(ts, 1)


def test_fundamental_cycles_demo8(demo8):
    sd = build_spanning(demo8, 2)
    # the two c-loops have length 3 and vanish mod 3; only the d-chord counts
    assert fundamental_cycle(sd, ("4", "c", "2")) == (0, 0, 0, 0)
    assert fundamental_cycle(sd, ("6", "c", "0")) == (0, 0, 0, 0)
    assert fundamental_cycle(sd, ("7", "d", "4")) == (0, 2, 0, 1)
    with pytest.raises(ValueError, match="not a chord"):
        fundamental_cycle(sd, ("0", "a", "1"))
    base = base_system(sd)
    assert base.rows == ((0, 2, 0, 1),)
    assert base.rhs == (0,)


def test_essa_system_demo8(demo8):
    sd = build_spanning(demo8, 2)
    atom = SeparationAtom.essa("c", "1")
    system = essa_system(demo8, 2, atom, m=2, n=2, sup_init=2, q=2, sd=sd)
    x = modsolve.solve(system)
    assert x == (1, 2, 0, 2)
    assert modsolve.verify(system, x)
    with pytest.raises(ValueError, match="not an essa atom"):
        essa_system(demo8, 2, SeparationAtom.ssa("0", "1"), 0, 1, 0, 1)


def test_essa_system_rejects_missing_event():
    ts = TransitionSystem("m", ["s0", "s1"], ["a", "b"], [("s0", "a", "s1")], "s0")
    with pytest.raises(ValueError, match="event never occurs: b"):
        essa_system(ts, 1, SeparationAtom.essa("b", "s0"), 0, 1, 0, 1)
    with pytest.raises(ValueError, match="event never occurs: b"):
        decide_essp_rzpt(ts, 1)


def test_derived_region_self_check(demo8, monkeypatch):
    # a solution breaking demo8's cycle row (0, 2, 0, 1) mod 3 cannot
    # propagate along the arcs, so the derived region must not come back
    monkeypatch.setattr(modsolve, "solve", lambda system: (0, 1, 0, 0))
    with pytest.raises(AssertionError, match="derived region fails validation"):
        decide_ssa(demo8, make_type("zppt", 2), SeparationAtom.ssa("0", "1"))
    with pytest.raises(AssertionError, match="derived region fails validation"):
        decide_essa_rzpt(demo8, 2, SeparationAtom.essa("c", "1"))


def test_decide_essa_rzpt_demo8(demo8):
    region = decide_essa_rzpt(demo8, 2, SeparationAtom.essa("c", "1"))
    assert region.sig == {
        "a": Group(2),
        "b": Group(1),
        "c": Pair(1, 1),
        "d": Group(1),
    }
    assert tuple(region.sup[str(i)] for i in range(8)) == (1, 0, 1, 1, 1, 1, 1, 0)
    with pytest.raises(ValueError, match="not an essa atom"):
        decide_essa_rzpt(demo8, 2, SeparationAtom.ssa("0", "1"))


def test_decide_essp_rzpt_demo8(demo8):
    # (c, 1) is solvable on its own, but the full problem dies at (a, 5);
    # the oracle agrees after exhausting the candidate space
    report = decide_essp_rzpt(demo8, 2)
    assert not report.holds
    assert report.failing == SeparationAtom.essa("a", "5")
    assert decide_essa_rzpt(demo8, 2, SeparationAtom.essa("a", "5")) is None


def test_decide_ssa_family_guard(a2):
    with pytest.raises(ValueError, match="no polynomial ssa decision for family pt"):
        decide_ssa(a2, make_type("pt", 1), SeparationAtom.ssa("s0", "s1"))
    with pytest.raises(ValueError, match="not an ssa atom"):
        decide_ssa(a2, make_type("zppt", 2), SeparationAtom.essa("a", "s0"))


def test_decide_ssp_cycle(a2):
    tau = make_type("zppt", 2)
    report = decide_ssp(a2, tau)
    assert report.holds
    # one counter region covers all three atoms
    assert len(report.witness.regions) == 1
    assert report.witness.regions[0].sig == {"a": Group(1)}
    assert report.witness.regions[0].sup == {"s0": 0, "s1": 1, "s2": 2}
    assert len(report.witness.coverage) == 3


def test_decide_ssp_cycle_fails_at_low_bound(a2):
    report = decide_ssp(a2, make_type("zppt", 1))
    assert not report.holds
    assert report.failing == SeparationAtom.ssa("s0", "s1")
    assert report.witness is None


def test_synthesize_cycles():
    # an n-cycle needs b = n - 1; one less bound breaks state separation
    for n in (3, 4):
        good = synthesize_rzpt(cycle_ts(n), n - 1)
        assert good.net is not None
        assert good.failing is None
        assert len(good.isomorphism) == n
        bad = synthesize_rzpt(cycle_ts(n), n - 2)
        assert bad.net is None
        assert bad.failing.kind == "ssa"


def test_synthesize_demo8_blocked_by_essp(demo8):
    report = synthesize_rzpt(demo8, 2)
    assert report.net is None
    assert report.failing == SeparationAtom.essa("a", "5")


def test_synthesize_names_the_net(a2):
    report = synthesize_rzpt(a2, 2)
    assert report.net is not None
    assert report.net.name == "a2.synth"
    assert synthesize_rzpt(a2, 2, name="custom").net.name == "custom"


def test_spanning_order_does_not_change_decisions(demo8):
    for ts in (demo8, cycle_ts(4)):
        for bound in (1, 2):
            tau = make_type("zppt", bound)
            bfs = build_spanning(ts, bound, order="bfs")
            dfs = build_spanning(ts, bound, order="dfs")
            for atom in [SeparationAtom.ssa(ts.states[0], s) for s in ts.states[1:]]:
                got_bfs = decide_ssa(ts, tau, atom, sd=bfs)
                got_dfs = decide_ssa(ts, tau, atom, sd=dfs)
                assert (got_bfs is None) == (got_dfs is None)


def test_concrete_to_abstract(demo8):
    region = decide_essa_rzpt(demo8, 2, SeparationAtom.essa("c", "1"))
    abstract = concrete_to_abstract(demo8, region, 2)
    # Pair(1,1) moves by 0; groups keep their value
    assert abstract == AbstractRegion(1, (2, 1, 0, 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), bound=st.integers(min_value=1, max_value=2))
def test_cycle_orthogonality_characterizes_regions(seed, bound):
    # an abstract region propagates consistently iff it kills every
    # fundamental cycle; checked against direct group-signature propagation
    rng = random.Random(seed)
    ts = random_ts(rng, max_states=5, max_events=3)
    tau = make_type("zpt", bound)
    sd = build_spanning(ts, bound)
    base = base_system(sd)
    modulus = bound + 1
    rng2 = random.Random(seed + 1)
    for _ in range(10):
        abs_vec = tuple(rng2.randrange(modulus) for _ in ts.events)
        sig = {e: Group(v) for e, v in zip(ts.events, abs_vec)}
        region = support_from_signature(ts, tau, 0, sig)
        assert modsolve.verify(base, abs_vec) == (region is not None)
        if region is not None:
            assert region.sup == {
                s: sum(p * a for p, a in zip(vec, abs_vec)) % modulus
                for s, vec in sd.psi.items()
            }


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), bound=st.integers(min_value=1, max_value=2))
def test_ssp_matches_oracle(seed, bound):
    rng = random.Random(seed)
    ts = random_ts(rng, max_states=4, max_events=2)
    for family in ("zpt", "zppt", "rzpt"):
        tau = make_type(family, bound)
        fast = decide_ssp(ts, tau)
        slow = oracle_decide(ts, tau, "ssp")
        assert fast.holds == slow.answer, (family, ts.name)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), bound=st.integers(min_value=1, max_value=2))
def test_essp_rzpt_matches_oracle(seed, bound):
    rng = random.Random(seed)
    ts = random_ts(rng, max_states=4, max_events=2)
    fast = decide_essp_rzpt(ts, bound)
    slow = oracle_decide(ts, make_type("rzpt", bound), "essp")
    assert fast.holds == slow.answer


def greedy_reference(tau, atoms, search):
    """The per-atom first-fit loop the deciders replace: probe every region
    found so far, search a new one for an atom none of them solves."""
    regions, coverage = [], {}
    for atom in atoms:
        for i, region in enumerate(regions):
            if solves(region, tau, atom):
                coverage[atom] = i
                break
        else:
            region = search(atom)
            if region is None:
                return False, atom, None, None
            regions.append(region)
            coverage[atom] = len(regions) - 1
    return True, None, regions, coverage


def assert_matches_reference(ts, tau, report, reference, problem):
    holds, failing, regions, coverage = reference
    assert report.holds == holds
    assert report.failing == failing
    if not holds:
        assert report.witness is None
        return
    assert report.witness.regions == regions
    view = report.witness.coverage
    assert len(view) == len(coverage)
    assert list(view.items()) == list(coverage.items())
    rebuilt = build_witness(ts, tau, regions, problem)[0].coverage
    assert dict(view) == rebuilt
    assert list(dict(view)) == list(rebuilt)


def assert_rejects_non_atoms(ts, view, ssp, essp):
    bad = [SeparationAtom.ssa("nowhere", ts.states[0]), SeparationAtom.essa("nothing", ts.states[0])]
    if len(ts.states) > 1:
        bad.append(SeparationAtom.ssa(ts.states[1], ts.states[0]))
        if not ssp:
            bad.append(SeparationAtom.ssa(ts.states[0], ts.states[1]))
    src, event, _ = ts.arcs()[0]
    bad.append(SeparationAtom.essa(event, src))
    if not essp:
        bad.extend(SeparationAtom.essa(e, s) for e in ts.events for s in ts.states if not ts.has_arc(s, e))
    for atom in bad:
        with pytest.raises(KeyError):
            view[atom]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), bound=st.sampled_from([1, 2, 3, 5]))
def test_deciders_match_greedy_reference(seed, bound):
    rng = random.Random(seed)
    ts = random_ts(rng, max_states=7, max_events=3)
    for family in ("zpt", "zppt", "rzpt"):
        tau = make_type(family, bound)
        report = decide_ssp(ts, tau)
        reference = greedy_reference(tau, ssa_atoms(ts), lambda a: decide_ssa(ts, tau, a))
        assert_matches_reference(ts, tau, report, reference, "ssp")
        if report.holds:
            assert_rejects_non_atoms(ts, report.witness.coverage, True, False)
    rzpt = make_type("rzpt", bound)
    report = decide_essp_rzpt(ts, bound)
    reference = greedy_reference(rzpt, essa_atoms(ts), lambda a: decide_essa_rzpt(ts, bound, a))
    assert_matches_reference(ts, rzpt, report, reference, "essp")
    if report.holds:
        assert_rejects_non_atoms(ts, report.witness.coverage, False, True)
    synth = synthesize_rzpt(ts, bound)
    if synth.witness is not None:
        # the merged coverage is first fit over the ssp then the essp regions
        regions = synth.witness.regions
        first_fit, missing = build_witness(ts, rzpt, regions, "solvability")
        assert not missing
        assert list(synth.witness.coverage.items()) == list(first_fit.coverage.items())
        assert_rejects_non_atoms(ts, synth.witness.coverage, True, True)


def group_heavy_net():
    """Five places at b=2 whose flows are groups except one pair on t5.
    The group steps of t0..t4 form a unitriangular matrix, so they alone
    reach all 243 markings."""
    places = [f"p{i}" for i in range(5)]
    transitions = [f"t{i}" for i in range(6)]
    flow = {}
    for i, p in enumerate(places):
        for j, t in enumerate(transitions):
            flow[(p, t)] = Group(1 if i == j else 0 if j < i else (i + j) % 3)
    flow[("p2", "t5")] = Pair(1, 2)
    return PetriNet("heavy", make_type("rzpt", 2), [(p, 0) for p in places], transitions, flow)


def test_synthesis_probes_each_region_once(monkeypatch):
    # guards against the O(|S|^2 * regions) first-fit scan coming back: the
    # only solves calls left are the self-check on each derived region
    ts = reachability_graph(group_heavy_net())
    assert len(ts.states) == 243
    calls = []

    def counted(region, tau, atom):
        calls.append(atom)
        return solves(region, tau, atom)

    def forbidden(ts):
        raise AssertionError("deciders must not enumerate the atoms")

    monkeypatch.setattr(polysynth, "solves", counted)
    monkeypatch.setattr(polysynth, "ssa_atoms", forbidden, raising=False)
    monkeypatch.setattr(polysynth, "essa_atoms", forbidden, raising=False)
    report = synthesize_rzpt(ts, 2)
    assert report.net is not None
    assert 0 < len(calls) <= len(report.witness.regions)


def test_essp_scans_sources_once_per_event(monkeypatch):
    # the first source of an event is found with its shared rows, not
    # again for every atom
    ts = reachability_graph(group_heavy_net())
    calls = []
    original = polysynth._sources

    def counting(ts, event):
        calls.append(event)
        return original(ts, event)

    monkeypatch.setattr(polysynth, "_sources", counting)
    report = decide_essp_rzpt(ts, 2)
    assert report.holds
    assert calls == [e for e in ts.events if any(not ts.has_arc(s, e) for s in ts.states)]
