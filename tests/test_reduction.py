import pytest

from petrisynth import reduction
from petrisynth import ts as ts_module
from petrisynth.nettypes import Pair, make_type
from petrisynth.reduction import (
    AlphaWitness,
    Cm1in3Formula,
    GadgetUnion,
    VARIANT_FAMILY,
    alpha_witness_region,
    brute_model,
    build_union,
    is_model,
    joining,
    lemma6_case,
    lemma6_region,
    linear_joining,
    ppt_essp_witness,
)
from petrisynth.regions import Region, WitnessSet, check_witness, solves, validate_region
from petrisynth.ts import SeparationAtom, essa_atoms, grade, is_linear, validate


def cyclic_formula(m):
    return Cm1in3Formula(tuple(tuple(sorted((i, (i + 1) % m, (i + 2) % m))) for i in range(m)))


UNSAT = Cm1in3Formula(((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def test_formula_validation():
    with pytest.raises(ValueError, match="clause is not a triple"):
        Cm1in3Formula(((0, 1),))
    with pytest.raises(ValueError, match="duplicate variable in clause"):
        Cm1in3Formula(((0, 0, 1),))
    with pytest.raises(ValueError, match="unordered triple"):
        Cm1in3Formula(((2, 1, 0),))
    with pytest.raises(ValueError, match="variable index out of range: X7"):
        Cm1in3Formula(((0, 1, 7), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError, match="occurrence count of X0 is 4, not 3"):
        Cm1in3Formula(((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3)))


def test_is_model_and_brute_model(example_formula):
    assert is_model(example_formula, frozenset({0, 4}))
    assert not is_model(example_formula, frozenset({0, 1}))
    assert not is_model(example_formula, frozenset())
    assert brute_model(example_formula) == frozenset({0, 4})
    assert brute_model(UNSAT) is None
    with pytest.raises(ValueError, match="formula too large for brute force: m = 26"):
        brute_model(cyclic_formula(26))


def test_build_union_validation(example_formula):
    with pytest.raises(ValueError, match="unknown variant: esp"):
        build_union(example_formula, "esp", 1)
    with pytest.raises(ValueError, match="bound must be >= 1, got 0"):
        build_union(example_formula, "ppt-essp", 0)
    with pytest.raises(ValueError, match="z-essp reduction needs bound >= 2"):
        build_union(example_formula, "z-essp", 1)


def test_union_shapes_ppt(example_formula):
    union = build_union(example_formula, "ppt-essp", 2)
    assert len(union.members) == 41
    assert union.alpha == SeparationAtom.essa("k", "h1_8")
    head = union.members[0]
    assert head.name == "h1"
    assert len(head.states) == 12
    assert [e for _, e, _ in head.arcs()] == [
        "k", "k", "y0", "o0", "k", "k", "y1", "y0", "o1", "k", "k",
    ]
    d0 = union.member_of("d0_0")
    assert [e for _, e, _ in d0.arcs()] == ["o0", "k0", "o1"]
    t0 = union.member_of("t0_0")
    assert [e for _, e, _ in t0.arcs()] == [
        "k2", "X0", "X0", "z0", "X1", "X1", "z1", "X2", "X2", "k3",
    ]
    for member in union.members:
        assert validate(member).ok
        assert is_linear(member)
    with pytest.raises(ValueError, match="state not in the union: nope"):
        union.member_of("nope")


def test_union_shapes_other_variants(example_formula):
    pt = build_union(example_formula, "pt-essp", 1)
    assert pt.alpha == SeparationAtom.essa("k", "h0_5")
    assert [e for _, e, _ in pt.members[0].arcs()] == ["k", "z", "o0", "k", "z", "o1", "k"]
    assert [e for _, e, _ in pt.member_of("c0_0").arcs()] == ["o0", "k0", "o1"]

    ssp = build_union(example_formula, "ssp", 2)
    assert ssp.alpha == SeparationAtom.ssa("h2_0", "h2_2")
    assert [e for _, e, _ in ssp.members[0].arcs()] == [
        "k", "k", "o0", "k", "k", "o2", "k", "k",
    ]

    z = build_union(example_formula, "z-essp", 2)
    assert len(z.members) == 19
    assert z.alpha == SeparationAtom.essa("k", "h3_1_1")
    h3 = z.members[0]
    # two k-runs stacked: b+1 states on top, b below, joined by u down and
    # z closing back up
    assert len(h3.states) == 5
    assert h3.has_arc("h3_0_0", "u")
    assert h3.has_arc("h3_1_1", "z")
    assert not is_linear(h3)


def test_union_essa_atoms(example_formula):
    union = build_union(example_formula, "ppt-essp", 2)
    atoms = essa_atoms(union.ts)
    assert len(atoms) == 4981
    assert union.alpha in atoms
    assert all(a.kind == "essa" for a in atoms)


def test_linear_joining(example_formula):
    for variant, bound, want in [
        ("ppt-essp", 1, 203),
        ("ppt-essp", 2, 230),
        ("pt-essp", 1, 202),
        ("pt-essp", 2, 236),
        ("ssp", 1, 200),
        ("ssp", 2, 227),
    ]:
        union = build_union(example_formula, variant, bound)
        if variant == "ppt-essp":
            # the fresh y1 connector collides with the gadget event y1
            with pytest.warns(UserWarning, match="connector name collides, renamed: y1 -> y1."):
                joined = linear_joining(union)
        else:
            joined = linear_joining(union)
        assert joined.name == f"{variant}.lj.b{bound}"
        assert len(joined.states) == want
        assert validate(joined).ok
        assert is_linear(joined)


def test_joining(example_formula):
    union = build_union(example_formula, "z-essp", 2)
    joined = joining(union)
    assert joined.name == "z-essp.j.b2"
    assert joined.initial == "q0"
    assert len(joined.states) == 132
    assert validate(joined).ok
    assert grade(joined) == 2
    incoming = {dst for _, _, dst in joined.arcs()}
    assert joined.initial not in incoming


@pytest.mark.filterwarnings("ignore:connector name collides")
def test_alpha_witness_all_variants(example_formula):
    model = frozenset({0, 4})
    for variant, bound in [
        ("ppt-essp", 1),
        ("ppt-essp", 2),
        ("pt-essp", 1),
        ("pt-essp", 2),
        ("ssp", 1),
        ("ssp", 2),
        ("z-essp", 2),
        ("z-essp", 3),
    ]:
        tau = make_type(VARIANT_FAMILY[variant], bound)
        witness = alpha_witness_region(example_formula, model, variant, bound)
        assert witness.atom == witness.union.alpha
        assert validate_region(witness.union.ts, tau, witness.union_region).ok
        assert validate_region(witness.joined, tau, witness.region).ok
        assert solves(witness.region, tau, witness.atom)


@pytest.mark.filterwarnings("ignore:connector name collides")
def test_alpha_witness_frozen_profile(example_formula):
    witness = alpha_witness_region(example_formula, frozenset({0, 4}), "ppt-essp", 2)
    sup = witness.union_region.sup
    assert [sup[f"h1_{i}"] for i in range(12)] == [0, 1, 2, 2, 0, 1, 2, 2, 2, 0, 1, 2]
    assert witness.union_region.sig["k"] == Pair(0, 1)
    assert witness.union_region.sig["o0"] == Pair(2, 0)


def test_alpha_witness_rejects_non_model(example_formula):
    with pytest.raises(ValueError, match="assignment is not a one-in-three model"):
        alpha_witness_region(example_formula, frozenset({0, 1}), "ppt-essp", 1)


def test_alpha_witness_takes_its_union(example_formula):
    # a union built by the caller gives the region built without it, and
    # one of another variant or bound is refused
    model = frozenset({0, 4})
    union = build_union(example_formula, "ssp", 2)
    given = alpha_witness_region(example_formula, model, "ssp", 2, union)
    assert given.union is union
    assert given.region == alpha_witness_region(example_formula, model, "ssp", 2).region
    for variant, bound in (("ssp", 1), ("z-essp", 2)):
        with pytest.raises(ValueError, match="union belongs to another formula, variant or bound"):
            alpha_witness_region(example_formula, model, variant, bound, union)


def test_validate_union_region_errors(example_formula):
    union = build_union(example_formula, "ssp", 1)
    tau = make_type("ppt", 1)
    with pytest.raises(ValueError, match="support map does not match the state set"):
        validate_region(union.ts, tau, Region({"h2_0": 0}, {}))
    sup = {s: 0 for s in union.ts.states}
    with pytest.raises(ValueError, match="signature map does not match the event set"):
        validate_region(union.ts, tau, Region(sup, {"k": Pair(0, 0)}))
    sig = {e: Pair(0, 0) for e in union.events}
    assert validate_region(union.ts, tau, Region(sup, sig)).ok


def test_lemma6_case(example_formula):
    union = build_union(example_formula, "ppt-essp", 2)
    # k never occurs in d0: any d0 state is case 1 without a helper
    assert lemma6_case(union, SeparationAtom.essa("k", "d0_0")) == (1, None)
    # o0 sits after its run at the end of d0, before it at the start; the
    # helper entering o0's run in t-gadgets is the preceding X event
    assert lemma6_case(union, SeparationAtom.essa("o0", "d0_3")) == (1, None)
    assert lemma6_case(union, SeparationAtom.essa("k0", "d0_0")) == (2, "o0")
    assert lemma6_case(union, SeparationAtom.essa("z0", "t0_0")) == (2, "X0")
    with pytest.raises(ValueError, match="not an essa atom"):
        lemma6_case(union, SeparationAtom.ssa("d0_0", "d0_1"))
    with pytest.raises(ValueError, match="event is enabled at the state"):
        lemma6_case(union, SeparationAtom.essa("o0", "d0_0"))


def test_lemma6_region(example_formula):
    union = build_union(example_formula, "ppt-essp", 2)
    tau = make_type("ppt", 2)
    atom = SeparationAtom.essa("k0", "d0_0")
    case, helper = lemma6_case(union, atom)
    assert (case, helper) == (2, "o0")
    region = lemma6_region(union, atom, case, helper)
    assert validate_region(union.ts, tau, region).ok
    assert solves(region, tau, atom)
    with pytest.raises(ValueError, match="atom requires case 2, not 1"):
        lemma6_region(union, atom, 1)
    with pytest.raises(ValueError, match="helper must be the run's predecessor: o0"):
        lemma6_region(union, atom, 2, helper="k")
    # k runs three times in h1, so the generic construction refuses it
    with pytest.raises(ValueError, match="event not thinly distributed: k"):
        lemma6_region(union, SeparationAtom.essa("k", "d0_0"), 1)


def test_ppt_essp_witness_full_coverage(example_formula):
    model = frozenset({0, 4})
    for bound, library_size, total in [(1, 9, 92), (2, 8, 90)]:
        union, witness = ppt_essp_witness(example_formula, model, bound)
        tau = make_type("ppt", bound)
        atoms = essa_atoms(union.ts)
        assert set(witness.coverage) == set(atoms)
        for atom, i in witness.coverage.items():
            assert solves(witness.regions[i], tau, atom)
        assert len(witness.regions) == total
        # the distinguished atom is covered by the template region alone
        assert witness.coverage[union.alpha] == 0
        assert sum(solves(r, tau, union.alpha) for r in witness.regions) == 1
        # regions past the library all come from the generic construction
        assert len([r for r in witness.regions[:library_size]]) == library_size


def test_ppt_essp_witness_rejects_non_model(example_formula):
    with pytest.raises(ValueError, match="assignment is not a one-in-three model"):
        ppt_essp_witness(example_formula, frozenset(), 1)


def test_union_ts_is_the_disjoint_union(example_formula):
    union = build_union(example_formula, "ppt-essp", 2)
    ts = union.ts
    assert ts is union.ts
    assert list(ts.states) == [s for member in union.members for s in member.states]
    assert ts.events == union.events
    assert ts.arcs() == tuple(arc for member in union.members for arc in member.arcs())
    assert ts.initial == union.members[0].initial


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_ppt_essp_witness_is_first_fit(example_formula, bound):
    # the independent checker charges every atom, and to the same region
    union, witness = ppt_essp_witness(example_formula, frozenset({0, 4}), bound)
    tau = make_type("ppt", bound)
    rebuilt = check_witness(union.ts, tau, WitnessSet(witness.regions), "essp")
    assert rebuilt.missing == []
    assert list(rebuilt.coverage.items()) == list(witness.coverage.items())


def test_ppt_essp_witness_walks_each_member_once(example_formula, monkeypatch):
    calls = []
    original = ts_module._linear_walk

    def counting(member):
        calls.append(member.name)
        return original(member)

    monkeypatch.setattr(ts_module, "_linear_walk", counting)
    monkeypatch.setattr(reduction, "_linear_walk", counting, raising=False)
    union, _ = ppt_essp_witness(example_formula, frozenset({0, 4}), 2)
    assert sorted(calls) == sorted(member.name for member in union.members)


@pytest.mark.filterwarnings("ignore:connector name collides")
def test_broken_template_raises(example_formula, monkeypatch):
    # k takes a token nobody has placed: the head h1 cannot fire its
    # first arc, so propagation refuses the template
    monkeypatch.setattr(
        reduction, "_alpha_template", lambda union, model: (reduction._inits(union), {"k": Pair(1, 0)})
    )
    model = frozenset({0, 4})
    with pytest.raises(ValueError, match="template support fails on member h1"):
        alpha_witness_region(example_formula, model, "ppt-essp", 2)
    with pytest.raises(ValueError, match="template support fails on member h1"):
        ppt_essp_witness(example_formula, model, 2)
