import pytest
from hypothesis import given, strategies as st

from petrisynth.nettypes import (
    FAMILIES,
    MAX_BOUND,
    Group,
    Pair,
    absval,
    delta_tau,
    format_event,
    legal,
    make_type,
    minus,
    parse_event,
    plus,
)


def test_event_counts_at_b2():
    # (b+1)^2 pairs, minus exclusions, plus b+1 groups for the Z families
    assert len(make_type("pt", 2).events) == 9
    assert len(make_type("ppt", 2).events) == 5  # 9 - 4 impure
    assert len(make_type("zpt", 2).events) == 11  # 8 pairs + 3 groups
    assert len(make_type("zppt", 2).events) == 7  # 4 pure nonzero + 3 groups
    assert len(make_type("rzpt", 2).events) == 11


def test_canonical_event_order():
    tau = make_type("zppt", 1)
    assert tau.events == (Pair(0, 1), Pair(1, 0), Group(0), Group(1))


def test_make_type_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown family"):
        make_type("petri", 2)
    with pytest.raises(ValueError, match="bound must be >= 1"):
        make_type("pt", 0)


def test_legal():
    assert legal("pt", 2, Pair(1, 2))
    assert not legal("ppt", 2, Pair(1, 2))  # impure
    assert legal("ppt", 2, Pair(0, 0))
    assert not legal("zpt", 2, Pair(0, 0))
    assert not legal("pt", 2, Group(1))
    assert legal("rzpt", 2, Group(2))
    assert not legal("zpt", 2, Group(3))  # k out of range
    assert not legal("pt", 2, Pair(3, 0))


def test_delta_tau_pair_semantics():
    tau = make_type("pt", 2)
    assert delta_tau(tau, 2, Pair(1, 0)) == 1
    assert delta_tau(tau, 0, Pair(1, 0)) is None  # not enough tokens
    assert delta_tau(tau, 2, Pair(0, 1)) is None  # overflow past the bound
    assert delta_tau(tau, 1, Pair(1, 2)) == 2


def test_delta_tau_group_wraps():
    tau = make_type("zpt", 2)
    assert delta_tau(tau, 2, Group(1)) == 0
    assert delta_tau(tau, 1, Group(2)) == 0
    assert delta_tau(tau, 0, Group(0)) == 0


def test_delta_tau_rzpt_pairs_fire_only_at_their_source():
    tau = make_type("rzpt", 2)
    assert delta_tau(tau, 1, Pair(1, 2)) == 2
    assert delta_tau(tau, 2, Pair(1, 2)) is None  # would be legal in zpt
    assert delta_tau(tau, 0, Group(2)) == 2


def test_delta_tau_foreign_event():
    tau = make_type("ppt", 1)
    with pytest.raises(ValueError, match="foreign event"):
        delta_tau(tau, 0, Group(1))
    with pytest.raises(ValueError, match="foreign event"):
        delta_tau(tau, 0, Pair(1, 1))


def test_event_algebra():
    assert (minus(Pair(2, 1)), plus(Pair(2, 1)), absval(Pair(2, 1))) == (2, 1, 0)
    assert (minus(Group(2)), plus(Group(2)), absval(Group(2))) == (0, 0, 2)


def test_format_parse_explicit():
    assert format_event(Pair(2, 0)) == "2,0"
    assert format_event(Group(1)) == "g:1"
    assert parse_event("2,0") == Pair(2, 0)
    assert parse_event("g:1") == Group(1)
    for bad in ("", "g:", "g:x", "1", "1,", ",1", "1,2,3", "-1,0"):
        with pytest.raises(ValueError, match="malformed tau event"):
            parse_event(bad)


@given(st.integers(0, 9), st.integers(0, 9))
def test_pair_round_trip(m, n):
    assert parse_event(format_event(Pair(m, n))) == Pair(m, n)


@given(st.integers(0, 9))
def test_group_round_trip(k):
    assert parse_event(format_event(Group(k))) == Group(k)


@given(st.sampled_from(FAMILIES), st.integers(1, 3))
def test_every_declared_event_fires_somewhere(family, bound):
    tau = make_type(family, bound)
    for event in tau.events:
        assert legal(family, bound, event)
        assert any(
            delta_tau(tau, s, event) is not None for s in range(bound + 1)
        )


@given(st.sampled_from(FAMILIES), st.sampled_from([1, 2, 3, 5]))
def test_step_tables_match_delta_tau(family, bound):
    tau = make_type(family, bound)
    for event in tau.events:
        assert tau.step(event) == tuple(delta_tau(tau, v, event) for v in range(bound + 1))
    foreign = Group(0) if family in ("pt", "ppt") else Pair(0, 0)
    for event in (foreign, Pair(bound + 1, 0), Group(bound + 1)):
        with pytest.raises(ValueError, match="foreign event"):
            tau.step(event)


def test_one_type_per_family_and_bound():
    for family in FAMILIES:
        assert make_type(family, 2) is make_type(family, 2)
        assert make_type(family, 2) is not make_type(family, 3)


def test_bound_is_capped():
    assert make_type("pt", MAX_BOUND).bound == MAX_BOUND
    with pytest.raises(ValueError, match=f"bound must be <= {MAX_BOUND}, got {MAX_BOUND + 1}"):
        make_type("zpt", MAX_BOUND + 1)


def test_neutral_event_does_nothing():
    for family in FAMILIES:
        tau = make_type(family, 3)
        assert tau.neutral == (Group(0) if family in ("zpt", "zppt", "rzpt") else Pair(0, 0))
        assert tau.step(tau.neutral) == (0, 1, 2, 3)
