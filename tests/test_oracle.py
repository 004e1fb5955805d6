import pytest

from petrisynth.nettypes import make_type
from petrisynth.oracle import BudgetExceeded, OracleBudget, enumerate_regions, oracle_decide
from petrisynth.regions import build_witness, check_witness, validate_region
from petrisynth.ts import SeparationAtom

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
                first_fit, missing = build_witness(ts, tau, report.witness.regions, problem)
                assert missing == []
                assert list(report.witness.coverage.items()) == list(first_fit.coverage.items())
