import itertools
import random
from unittest import mock

import pytest
from conftest import random_ts
from hypothesis import given, settings, strategies as st

from petrisynth import oracle
from petrisynth.nettypes import FAMILIES, make_type
from petrisynth.oracle import BudgetExceeded, OracleBudget, OracleReport, enumerate_regions, oracle_decide
from petrisynth.regions import CoverageView, WitnessSet, check_witness, solves, support_from_signature, validate_region
from petrisynth.ts import PROBLEMS, SeparationAtom, TransitionSystem, enumerate_atoms

PPT1 = make_type("ppt", 1)
PT1 = make_type("pt", 1)
ZPPT2 = make_type("zppt", 2)


def test_oracle_solves_diamond(a1):
    report = oracle_decide(a1, PPT1, "solvability")
    assert report.answer
    assert report.failing is None
    assert report.checked > 0
    assert check_witness(a1, PPT1, report.witness, "solvability").ok
    for region in report.witness.regions:
        assert validate_region(a1, PPT1, region).ok


def test_oracle_negative_reports_first_failure(a2):
    # an event cycling three states has no pt1 region separating them:
    # the full space is 2 sup_init choices * 4 pair signatures
    report = oracle_decide(a2, PT1, "ssp")
    assert not report.answer
    assert report.failing == SeparationAtom.ssa("s0", "s1")
    assert report.witness is None
    assert report.checked == 8


def test_oracle_trivial_when_no_atoms():
    from petrisynth.ts import TransitionSystem

    single = TransitionSystem("one", ["s0"], ["a"], [("s0", "a", "s0")], "s0")
    report = oracle_decide(single, PPT1, "ssp")
    assert report.answer
    assert report.checked == 0
    assert report.witness.regions == []


def test_oracle_budget(a1):
    with pytest.raises(BudgetExceeded) as info:
        oracle_decide(a1, ZPPT2, "solvability", budget=OracleBudget(max_candidates=3))
    assert info.value.checked == 3
    assert info.value.remaining
    assert "oracle budget exhausted after 3 candidates" in str(info.value)
    assert "atoms still open" in str(info.value)


def test_oracle_rejects_unknown_problem(a1):
    with pytest.raises(ValueError, match="unknown problem: all"):
        oracle_decide(a1, PPT1, "all")


def test_enumerate_regions_order_and_budget(a2):
    regions = list(enumerate_regions(a2, ZPPT2))
    # a group-only signature propagates from each of the three sup_init
    # choices; the first region is the all-zero one
    assert regions[0].sup == {"s0": 0, "s1": 0, "s2": 0}
    sigs = {str(r.sig["a"]) for r in regions}
    assert sigs == {"g:0", "g:1", "g:2"}
    assert len(regions) == 9
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_regions(a2, ZPPT2, budget=OracleBudget(max_candidates=2)))
    assert info.value.checked == 2
    assert info.value.remaining is None


def test_oracle_coverage_is_first_fit(a1, a2):
    from petrisynth.ts import TransitionSystem

    chain = TransitionSystem("chain", ["s0", "s1", "s2"], ["a", "b"], [("s0", "a", "s1"), ("s1", "b", "s2")], "s0")
    for ts in (a1, a2, chain):
        for tau in (PPT1, PT1, ZPPT2):
            for problem in ("ssp", "essp", "solvability"):
                report = oracle_decide(ts, tau, problem)
                if not report.answer:
                    continue
                first_fit = check_witness(ts, tau, WitnessSet(report.witness.regions), problem)
                assert first_fit.missing == []
                assert list(report.witness.coverage.items()) == list(first_fit.coverage.items())


def _product_candidates(ts, tau, budget):
    # the reference the pruned walk replaces: every signature of the full
    # product, each propagated on its own
    checked = 0
    for sup_init in range(tau.bound + 1):
        for combo in itertools.product(tau.events, repeat=len(ts.events)):
            if checked == budget.max_candidates:
                raise BudgetExceeded(checked)
            checked += 1
            region = support_from_signature(ts, tau, sup_init, dict(zip(ts.events, combo)))
            if region is not None:
                yield checked, region


def _stream(candidates):
    return [(checked, list(r.sup.items()), r.sig) for checked, r in candidates]


def _listing_decide(ts, tau, problem, budget=None):
    # the reference the open-atom tracker replaces: every atom listed up
    # front, and the open list refiltered with solves for every candidate
    unsolved = enumerate_atoms(ts, problem)
    regions = []
    checked = 0
    try:
        if unsolved:
            for checked, region in oracle._candidates(ts, tau, budget or OracleBudget()):
                rest = [a for a in unsolved if not solves(region, tau, a)]
                if len(rest) < len(unsolved):
                    regions.append(region)
                    unsolved = rest
                    if not unsolved:
                        break
    except BudgetExceeded as exc:
        raise BudgetExceeded(exc.checked, len(unsolved)) from None
    if unsolved:
        space = (tau.bound + 1) * len(tau.events) ** len(ts.events)
        return OracleReport(False, None, unsolved[0], space)
    return OracleReport(True, WitnessSet(regions, CoverageView(ts, tau, regions, problem)), None, checked)


def _outcome(ts, tau, problem, budget, decide=oracle_decide):
    try:
        report = decide(ts, tau, problem, budget)
    except BudgetExceeded as exc:
        return "budget", exc.checked, exc.remaining, str(exc)
    regions = None if report.witness is None else [(list(r.sup.items()), r.sig) for r in report.witness.regions]
    return report.answer, report.failing, report.checked, regions


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    family=st.sampled_from(FAMILIES),
    bound=st.integers(min_value=1, max_value=2),
)
def test_walk_matches_product_loop(seed, family, bound):
    ts = random_ts(random.Random(seed), max_states=6, max_events=4)
    tau = make_type(family, bound)
    walked = _stream(oracle._candidates(ts, tau, OracleBudget()))
    assert walked == _stream(_product_candidates(ts, tau, OracleBudget()))
    for problem in PROBLEMS:
        for max_candidates in (1, 2, 7, 10**7):
            budget = OracleBudget(max_candidates)
            got = _outcome(ts, tau, problem, budget)
            with mock.patch.object(oracle, "_candidates", _product_candidates):
                assert got == _outcome(ts, tau, problem, budget)


def test_walk_builds_only_regions(monkeypatch):
    # a 3-cycle on a keeps every pt support constant, so ssp is a "no"
    # over the full space of 3 * 9^4 candidates; self-loops add events
    ts = TransitionSystem(
        "cycle",
        ["s0", "s1", "s2"],
        ["a", "b", "c", "d"],
        [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s0"), ("s0", "b", "s0"), ("s1", "c", "s1"), ("s2", "d", "s2")],
        "s0",
    )
    pt2 = make_type("pt", 2)
    regions = len(list(enumerate_regions(ts, pt2)))
    calls = []

    def counted(*args):
        calls.append(args)
        return support_from_signature(*args)

    monkeypatch.setattr(oracle, "support_from_signature", counted)
    report = oracle_decide(ts, pt2, "ssp")
    assert not report.answer
    assert report.checked == 3 * 9**4
    assert len(calls) == regions


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    family=st.sampled_from(FAMILIES),
    bound=st.integers(min_value=1, max_value=2),
)
def test_decide_matches_listing_loop(seed, family, bound):
    ts = random_ts(random.Random(seed), max_states=6, max_events=4)
    tau = make_type(family, bound)
    for problem in PROBLEMS:
        for max_candidates in (1, 2, 7, 10**7):
            budget = OracleBudget(max_candidates)
            assert _outcome(ts, tau, problem, budget) == _outcome(ts, tau, problem, budget, _listing_decide)


def _chain(n):
    states = [f"s{i}" for i in range(n + 1)]
    events = [f"e{i}" for i in range(n)]
    return TransitionSystem("chain", states, events, [(states[i], events[i], states[i + 1]) for i in range(n)], "s0")


def test_walk_runs_into_the_budget_on_long_chains():
    # the walk keeps its own stack: 2000 events deep is no recursion
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_regions(_chain(2000), PT1, budget=OracleBudget(5)))
    assert info.value.checked == 5


def test_decision_runs_into_the_budget_without_listing_atoms(monkeypatch):
    # 2001 states: (n+1)n/2 ssa atoms and n^2 essa atoms, of which the
    # first five candidates close 2n-1 ssa atoms and 3 essa atoms; the
    # open ones are counted, never built
    made = []
    for kind in ("ssa", "essa"):
        build = getattr(SeparationAtom, kind)
        monkeypatch.setattr(SeparationAtom, kind, staticmethod(lambda s, t, build=build: made.append(s) or build(s, t)))
    with pytest.raises(BudgetExceeded) as info:
        oracle_decide(_chain(2000), PT1, "solvability", OracleBudget(5))
    assert info.value.checked == 5
    assert info.value.remaining == 5_996_998
    assert str(info.value) == "oracle budget exhausted after 5 candidates; 5996998 atoms still open"
    assert made == []
