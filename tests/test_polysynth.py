import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from petrisynth import modsolve, nettypes, polysynth
from petrisynth.nets import PetriNet, reachability_graph
from petrisynth.nettypes import MAX_BOUND, Z_FAMILIES, Group, NetType, Pair, make_type
from petrisynth.oracle import enumerate_regions, oracle_decide
from petrisynth.polysynth import (
    POLYNOMIAL,
    AbstractRegion,
    base_system,
    build_spanning,
    concrete_to_abstract,
    decide,
    decide_essa_rzpt,
    decide_essp_rzpt,
    decide_ssa,
    decide_ssp,
    essa_system,
    first_fit,
    fundamental_cycle,
    synthesize_rzpt,
)
from petrisynth.regions import Region, WitnessSet, check_witness, solves, support_from_signature
from petrisynth.ts import SeparationAtom, TransitionSystem, enumerate_atoms, essa_atoms, ssa_atoms

from conftest import random_ts


def cycle_ts(n):
    states = [f"s{i}" for i in range(n)]
    arcs = [(states[i], "a", states[(i + 1) % n]) for i in range(n)]
    return TransitionSystem(f"cyc{n}", states, ["a"], arcs, "s0")


def torus_ts(k):
    """k x k torus of two events: a steps the row, b the column."""
    def name(i, j):
        return f"s{i % k}_{j % k}"

    states = [name(i, j) for i in range(k) for j in range(k)]
    arcs = [(name(i, j), e, name(i + di, j + dj))
            for i in range(k) for j in range(k) for e, di, dj in (("a", 1, 0), ("b", 0, 1))]
    return TransitionSystem(f"torus{k}", states, ["a", "b"], arcs, name(0, 0))


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
    # the solver hands the first block's key and q = 1 back with a wrong
    # solution
    def wrong(modulus, cols, rows, tails, groups, reduced):
        return next(iter(next(iter(groups))))[0], 1, (0, 1, 0, 0)

    monkeypatch.setattr(modsolve, "first_solvable", wrong)
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


def essa_reference(ts, bound, atom):
    """The probe loop decide_essa_rzpt replaces: every rzpt pair (m,n),
    then sup_init 0..b, then q 1..b, one essa_system solve each."""
    sd = build_spanning(ts, bound)
    tau = make_type("rzpt", bound)
    values = range(bound + 1)
    for m, n, sup_init, q in itertools.product(values, values, values, range(1, bound + 1)):
        if m == 0 and n == 0:
            continue
        x = modsolve.solve(essa_system(ts, bound, atom, m, n, sup_init, q, sd=sd))
        if x is not None:
            sig = {e: Pair(m, n) if e == atom.left else Group(v) for e, v in zip(ts.events, x)}
            return support_from_signature(ts, tau, sup_init, sig)
    return None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), bound=st.sampled_from([1, 2, 3, 5]))
def test_essa_probes_match_full_product(seed, bound):
    ts = random_ts(random.Random(seed), max_states=6, max_events=3)
    sd = build_spanning(ts, bound)
    for atom in essa_atoms(ts):
        assert decide_essa_rzpt(ts, bound, atom, sd=sd) == essa_reference(ts, bound, atom), atom


def count_calls(monkeypatch, name):
    """Patch modsolve.<name> to record each call's system or block width."""
    calls = []
    original = getattr(modsolve, name)

    def counting(*args):
        calls.append(args[0].rhs if name == "solve" else args[2])
        return original(*args)

    monkeypatch.setattr(modsolve, name, counting)
    return calls


def test_torus_cycle_rows_are_distinct(monkeypatch):
    # a 10 x 10 torus has 101 chords, 20 of them with a nonzero row, but
    # over two events the rows mod b+1 take at most (b+1)^2 = 9 values:
    # no call of reduce_rows gets more rows than that
    ts = torus_ts(10)
    rows = []
    original = modsolve.reduce_rows

    def counting(*args):
        rows.append(len(args[1]))
        return original(*args)

    monkeypatch.setattr(modsolve, "reduce_rows", counting)
    report = decide(ts, make_type("rzpt", 2), "ssp")
    assert not report.holds
    assert rows and max(rows) <= 9


def test_unsolvable_essa_solves_each_system_once(demo8, monkeypatch):
    # one reduction of the atom's [A | E] block, beside the event's shared
    # block (4 columns, then 4 + 3), tells every probe unsolvable: its
    # last row is (0 | 0 0 unit), so nothing is solved
    solved = count_calls(monkeypatch, "solve")
    reduced = count_calls(monkeypatch, "reduce_rows")
    assert decide_essa_rzpt(demo8, 2, SeparationAtom.essa("a", "5")) is None
    assert solved == []
    assert reduced == [4, 7]


def test_decided_atoms_solve_at_most_once(demo8, a2, monkeypatch):
    # a decided atom reads its solution off the reduction that tested its
    # probes: no second reduction, no modsolve.solve, even for (c,1), which
    # only the last pair (1,1) solves, after the dead pairs were skipped
    solved = count_calls(monkeypatch, "solve")
    reduced = count_calls(monkeypatch, "reduce_rows")
    assert decide_essa_rzpt(demo8, 2, SeparationAtom.essa("c", "1")) is not None
    assert solved == []
    assert reduced == [4, 7]
    # a 3-cycle of one event cannot tell its states apart mod 2
    assert decide_ssa(a2, make_type("zppt", 1), SeparationAtom.ssa("s0", "s1")) is None
    assert solved == []


def test_essa_work_does_not_grow_with_the_bound_per_q(monkeypatch):
    # at b = MAX_BOUND, essa(b,s0) on late is answered by pair (1,1) alone
    # (b's self-loop pins n - m to 0), after at most b+1 pair tests and b+1
    # block solves, each a congruence solve of a few dot products, none
    # per q; on dup, essa(b,s1) is unsolvable (2 a = 0 forces q = 0 when
    # b+1 is odd) and is told off the basis with no solve at all
    bound = MAX_BOUND
    late = TransitionSystem("late", ["s0", "s1"], ["a", "b"], [("s0", "a", "s1"), ("s1", "b", "s1")], "s0")
    dup = TransitionSystem(
        "dup", ["s0", "s1"], ["a", "b"], [("s0", "a", "s1"), ("s1", "a", "s0"), ("s0", "b", "s0")], "s0"
    )
    solved, dots = [], []
    least_q, dot = modsolve._least_q, modsolve._dot

    def counting_least_q(modulus, rows, fixed):
        # a block solve fixes (n - m, m - sup_init), a pair test n - m
        solved.append("block" if len(fixed) == 2 else "pair")
        return least_q(modulus, rows, fixed)

    def counting_dot(u, v):
        dots.append(1)
        return dot(u, v)

    monkeypatch.setattr(modsolve, "_least_q", counting_least_q)
    monkeypatch.setattr(modsolve, "_dot", counting_dot)
    region = decide_essa_rzpt(late, bound, SeparationAtom.essa("b", "s0"))
    assert region is not None and region.sig["b"] == Pair(1, 1)
    assert solved.count("pair") <= bound + 1 and solved.count("block") <= bound + 1
    assert len(dots) <= 10 * (bound + 1)  # a test per q would take b(b+1)
    solved.clear()
    assert decide_essa_rzpt(dup, bound, SeparationAtom.essa("b", "s1")) is None
    assert solved == []


def test_derived_region_builds_only_the_tables_it_uses(monkeypatch):
    # at b = MAX_BOUND a region tables the groups its solution uses, not
    # all b+1 of them: a fresh net type, so no table is cached, counts at
    # most (|E| + 1)(b+1) delta_tau calls for ssa(s0,s1) on a 2-event TS
    calls = []
    original = nettypes.delta_tau

    def counting(tau, state, e):
        calls.append(1)
        return original(tau, state, e)

    monkeypatch.setattr(nettypes, "delta_tau", counting)
    ts = TransitionSystem("late", ["s0", "s1"], ["a", "b"], [("s0", "a", "s1"), ("s1", "b", "s1")], "s0")
    tau = NetType("zppt", MAX_BOUND)
    atom = SeparationAtom.ssa("s0", "s1")
    region = decide_ssa(ts, tau, atom)
    assert region is not None and solves(region, tau, atom)
    assert len(calls) <= (len(ts.events) + 1) * (MAX_BOUND + 1)


def test_deciders_reject_foreign_spanning_data(demo8, a2):
    # spanning data of another TS, or of the same TS at another bound,
    # would give rows that describe neither; the deciders refuse it
    for sd in (build_spanning(a2, 2), build_spanning(demo8, 1)):
        with pytest.raises(ValueError, match="spanning data belongs to another TS or bound"):
            decide_ssa(demo8, make_type("zppt", 2), SeparationAtom.ssa("0", "1"), sd=sd)
        with pytest.raises(ValueError, match="spanning data belongs to another TS or bound"):
            decide_essa_rzpt(demo8, 2, SeparationAtom.essa("c", "1"), sd=sd)
        with pytest.raises(ValueError, match="spanning data belongs to another TS or bound"):
            essa_system(demo8, 2, SeparationAtom.essa("c", "1"), 0, 1, 0, 1, sd=sd)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    bound=st.sampled_from([1, 2, 3, 5]),
    family=st.sampled_from(Z_FAMILIES),
)
def test_spanning_order_does_not_change_atom_decisions(seed, bound, family):
    # a dfs tree gives other psi vectors, so other [A | E] blocks to reduce
    ts = random_ts(random.Random(seed), max_states=7, max_events=3)
    tau = make_type(family, bound)
    bfs, dfs = build_spanning(ts, bound), build_spanning(ts, bound, order="dfs")
    for atom in ssa_atoms(ts):
        got = [decide_ssa(ts, tau, atom, sd=sd) is None for sd in (bfs, dfs)]
        assert got[0] == got[1], atom
    for atom in essa_atoms(ts):
        got = [decide_essa_rzpt(ts, bound, atom, sd=sd) is None for sd in (bfs, dfs)]
        assert got[0] == got[1], atom


def test_decide_ssa_family_guard(a2):
    with pytest.raises(ValueError, match="no polynomial ssa decision for family pt"):
        decide_ssa(a2, make_type("pt", 1), SeparationAtom.ssa("s0", "s1"))
    with pytest.raises(ValueError, match="not an ssa atom"):
        decide_ssa(a2, make_type("zppt", 2), SeparationAtom.essa("a", "s0"))


@pytest.mark.parametrize("family, problem", [("zpt", "essp"), ("zppt", "solvability"), ("pt", "ssp")])
def test_decide_refuses_np_complete_cases(a2, family, problem):
    with pytest.raises(ValueError, match=f"no polynomial decider for {problem} over {family}"):
        decide(a2, make_type(family, 2), problem)


def test_decide_ssp_refuses_pure_families_on_any_ts():
    # a 1-state TS has no ssa atom, so the refusal cannot wait for one
    single = TransitionSystem("one", ["s0"], ["a"], [("s0", "a", "s0")], "s0")
    for family in ("pt", "ppt"):
        with pytest.raises(ValueError, match=f"no polynomial decider for ssp over {family}"):
            decide_ssp(single, make_type(family, 1))


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


def greedy_reference(tau, atoms, search, seeds=()):
    """The per-atom first-fit loop the deciders replace: probe every region
    found so far, starting from the seeds, and search a new one for an atom
    none of them solves."""
    regions, coverage = list(seeds), {}
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
    rebuilt = check_witness(ts, tau, WitnessSet(regions), problem).coverage
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
        first_fit = check_witness(ts, rzpt, WitnessSet(regions), "solvability")
        assert not first_fit.missing
        assert list(synth.witness.coverage.items()) == list(first_fit.coverage.items())
        assert_rejects_non_atoms(ts, synth.witness.coverage, True, True)


def test_decisions_match_the_frozen_digest():
    # answers, failing atoms and witness regions of every polynomial
    # decider over 200 seeded TSs and six bounds, hashed in order: a change
    # that moves any of them changes the digest
    digest, count, yes = hashlib.sha256(), 0, 0
    for seed in range(200):
        ts = random_ts(random.Random(seed), 12, 4)
        for bound in (1, 2, 3, 5, 7, 11):
            for family, problems in POLYNOMIAL.items():
                for problem in problems:
                    report = decide(ts, make_type(family, bound), problem)
                    regions = report.witness.regions if report.witness is not None else []
                    summary = [(list(r.sup.items()), list(r.sig.items())) for r in regions]
                    digest.update(repr((report.holds, str(report.failing), summary)).encode())
                    count, yes = count + 1, yes + report.holds
    assert (count, yes) == (6000, 1301)
    assert digest.hexdigest() == "ba9fe8b73d6cbe728495e2b26c31dd35d728f78714951efe5dc2484820f18245"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    bound=st.integers(min_value=1, max_value=2),
    family=st.sampled_from(["pt", "ppt", "zpt", "zppt", "rzpt"]),
    problem=st.sampled_from(["ssp", "essp", "solvability"]),
    k=st.integers(min_value=0, max_value=3),
)
def test_first_fit_matches_greedy_reference(seed, bound, family, problem, k):
    # any search and any seed regions: first_fit's class and open-state
    # bookkeeping must give the probing loop's witness, atom for atom
    ts = random_ts(random.Random(seed), max_states=5, max_events=3)
    tau = make_type(family, bound)
    space = list(enumerate_regions(ts, tau))

    def search(atom):
        return next((r for r in space if solves(r, tau, atom)), None)

    seeds = space[:k]
    report = first_fit(ts, tau, problem, search, seeds)
    reference = greedy_reference(tau, enumerate_atoms(ts, problem), search, seeds)
    assert_matches_reference(ts, tau, report, reference, problem)


def test_first_fit_rejects_a_region_that_misses_its_atom(a1):
    # the search's region would leave its atom open, so the walk would
    # offer the same atom forever
    tau = make_type("pt", 1)
    idle = Region(dict.fromkeys(a1.states, 0), dict.fromkeys(a1.events, Pair(0, 0)))
    for problem, first in (("ssp", "ssa(s0,s1)"), ("essp", "essa(a,s1)")):
        calls = []

        def search(atom):
            calls.append(atom)
            if len(calls) > 1:
                raise RuntimeError(f"searched {atom} again")
            return idle

        with pytest.raises(AssertionError, match=re.escape(f"search left its atom open: {first}")):
            first_fit(a1, tau, problem, search)
    with pytest.raises(ValueError, match="unknown problem: sep"):
        first_fit(a1, tau, "sep", lambda atom: idle)


def test_deciders_reject_non_atoms(a1):
    # an enabled event, a state paired with itself and an unknown name are
    # not atoms: the deciders must not answer "unsolvable" or a KeyError
    tau = make_type("zppt", 2)
    for atom in (SeparationAtom.ssa("s0", "s0"), SeparationAtom.ssa("s0", "s9")):
        with pytest.raises(ValueError, match=re.escape(f"not an atom of a1: {atom}")):
            decide_ssa(a1, tau, atom)
    for atom in (
        SeparationAtom.essa("a", "s0"),
        SeparationAtom.essa("a", "s9"),
        SeparationAtom.essa("z", "s3"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"not an atom of a1: {atom}")):
            decide_essa_rzpt(a1, 2, atom)
    assert decide_essa_rzpt(a1, 2, SeparationAtom.essa("a", "s1")) is not None


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


def test_synthesis_builds_one_spanning_tree(monkeypatch):
    # ssp and essp share the tree, its cycle rows and their reductions:
    # each chord's row is computed once
    ts = reachability_graph(group_heavy_net())
    trees, cycles = [], []
    build, cycle_row = polysynth.build_spanning, polysynth._cycle_row

    def counting_build(*args, **kwargs):
        trees.append(build(*args, **kwargs))
        return trees[-1]

    def counting_row(sd, src, event, dst):
        cycles.append((sd.ts.states[src], sd.ts.events[event], sd.ts.states[dst]))
        return cycle_row(sd, src, event, dst)

    monkeypatch.setattr(polysynth, "build_spanning", counting_build)
    monkeypatch.setattr(polysynth, "_cycle_row", counting_row)
    report = synthesize_rzpt(ts, 2)
    assert report.net is not None
    # both kinds of atom were searched on that one tree
    assert any(isinstance(r.sig["t5"], Pair) for r in report.witness.regions)
    assert len(trees) == 1
    assert sorted(cycles) == sorted(trees[0].chords)
