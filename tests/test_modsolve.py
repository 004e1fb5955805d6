import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from petrisynth import modsolve
from petrisynth.modsolve import ModSystem, first_solvable, make_system, reduce_rows, solve, verify


def brute_solve(system):
    m = system.modulus
    for x in itertools.product(range(m), repeat=system.cols):
        if verify(system, x):
            return x
    return None


def check_probes(modulus, rows, tails, rng, cols):
    """first_solvable against brute force on a few random one-block
    groups (fixed): the least q in 1..modulus-1 for which brute force
    solves rows.x = tails.(*fixed, q) is the q handed back, and the x
    handed back satisfies that system."""
    image = {
        tuple(sum(a * v for a, v in zip(row, x)) % modulus for row in rows)
        for x in itertools.product(range(modulus), repeat=cols)
    }

    def rhs(fixed, q):
        return [sum(c * v for c, v in zip(t, (*fixed, q))) % modulus for t in tails]

    for _ in range(4):
        fixed = tuple(rng.randrange(modulus) for _ in range(len(tails[0]) - 1))
        want = next((q for q in range(1, modulus) if tuple(rhs(fixed, q)) in image), None)
        found = first_solvable(modulus, cols, rows, tails, [[("r", fixed)]])
        assert (None if found is None else found[1]) == want, (rows, tails, fixed)
        if found is not None:
            system = make_system(modulus, rows, rhs(fixed, want), cols)
            assert found[0] == "r" and verify(system, found[2]), (rows, tails, fixed)


def test_make_system_validation():
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        make_system(1, [[1]], [0])
    with pytest.raises(ValueError, match="row/rhs count mismatch"):
        ModSystem(3, 1, ((1,),), (0, 0))
    with pytest.raises(ValueError, match="row width mismatch"):
        ModSystem(3, 2, ((1,),), (0,))
    with pytest.raises(ValueError, match="cols required"):
        make_system(3, [], [])
    sys0 = make_system(3, [], [], cols=2)
    assert solve(sys0) == (0, 0)


def test_entries_reduced():
    system = make_system(4, [[6, -1]], [7])
    assert system.rows == ((2, 3),)
    assert system.rhs == (3,)


def test_zero_divisor_pivot_with_free_column():
    # 2x + y = 1 (mod 4): naive elimination with y treated as a free 0
    # would leave 2x = 1, which has no solution; the basis must shift the
    # burden onto y
    system = make_system(4, [[2, 1]], [1])
    x = solve(system)
    assert x is not None
    assert verify(system, x)


def test_zero_divisor_interaction_between_rows():
    # 2a + c = 1, 2b + 2c = 2 (mod 4); solvable (a,b,c) = (0,0,1)
    system = make_system(4, [[2, 0, 1], [0, 2, 2]], [1, 2])
    x = solve(system)
    assert x is not None
    assert verify(system, x)


def test_unsolvable_parity():
    assert solve(make_system(4, [[2]], [1])) is None
    assert solve(make_system(2, [[1], [1]], [0, 1])) is None


def test_solution_values_frozen():
    # full check against brute force on a composite modulus
    system = make_system(6, [[2, 3], [3, 3]], [1, 0])
    got = solve(system)
    assert got is not None and verify(system, got)
    assert brute_solve(system) is not None


def test_exhaustive_single_row_m4():
    # every 1x2 system over Z_4: agreement with brute force, and the same
    # row under a 3-column E with random probes
    rng = random.Random(4)
    for a, b, r in itertools.product(range(4), repeat=3):
        system = make_system(4, [[a, b]], [r])
        got = solve(system)
        want = brute_solve(system)
        assert (got is None) == (want is None), (a, b, r)
        if got is not None:
            assert verify(system, got), (a, b, r)
        check_probes(4, ((a, b),), ((r, rng.randrange(4), rng.randrange(4)),), rng, 2)


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.sampled_from([2, 3, 4, 6, 8, 12]),
    seed=st.integers(0, 10**9),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
)
def test_random_agreement_with_brute_force(modulus, seed, n, k):
    rng = random.Random(seed)
    rows = [[rng.randrange(modulus) for _ in range(n)] for _ in range(k)]
    rhs = [rng.randrange(modulus) for _ in range(k)]
    system = make_system(modulus, rows, rhs)
    got = solve(system)
    want = brute_solve(system)
    assert (got is None) == (want is None)
    if got is not None:
        assert verify(system, got)
    tails = tuple(tuple(rng.randrange(modulus) for _ in range(3)) for _ in range(k))
    check_probes(modulus, tuple(map(tuple, rows)), tails, rng, n)


def test_reduce_rows_drops_redundancy():
    rows = [(1, 0), (2, 0), (1, 0)]
    reduced = reduce_rows(5, rows, 2)
    assert reduced == ((1, 0),)
    # annihilator closure keeps the extra 2-row information mod 4
    reduced4 = reduce_rows(4, [(2, 1)], 2)
    assert (2, 1) in reduced4 and len(reduced4) == 2


def test_reduce_rows_reduces_its_input():
    # the solver core takes reduced rows; reduce_rows reduces callers' rows
    assert reduce_rows(4, [(6, -1)], 2) == reduce_rows(4, [(2, 3)], 2)


def brute_span(modulus, rows, width):
    """Every Z_modulus combination of rows."""
    span = {(0,) * width}
    for row in rows:
        span = {tuple((v + c * e) % modulus for v, e in zip(s, row)) for s in span for c in range(modulus)}
    return span


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.integers(2, 12),
    seed=st.integers(0, 10**9),
    width=st.integers(1, 3),
    k=st.integers(0, 8),
    units_first=st.booleans(),
    split=st.booleans(),
)
def test_reduce_rows_is_a_howell_basis_of_the_span(modulus, seed, width, k, units_first, split):
    # the basis spans the input rows' span, and for every j its rows that
    # are zero in the first j columns span every span vector that is;
    # with units_first a full basis is reached mid-list and the rest of
    # the rows are dropped, and with split the reduction is continued
    # from the basis of a first part of the rows
    rng = random.Random(seed)
    units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]
    rows = [tuple(rng.randrange(modulus) for _ in range(width)) for _ in range(k)]
    if units_first:
        head = [
            tuple(0 if j < i else rng.choice(units) if j == i else rng.randrange(modulus) for j in range(width))
            for i in range(width)
        ]
        rows = head + rows
    cut = rng.randint(0, len(rows)) if split else len(rows)
    basis = reduce_rows(modulus, rows[cut:], width, reduce_rows(modulus, rows[:cut], width))
    span = brute_span(modulus, rows, width)
    for j in range(width + 1):
        tail = [row for row in basis if not any(row[:j])]
        assert brute_span(modulus, tail, width) == {v for v in span if not any(v[:j])}, (rows, j)


def count_leading(monkeypatch):
    """The values modsolve._leading returns, in call order."""
    seen, leading = [], modsolve._leading

    def counted(row, width):
        seen.append(leading(row, width))
        return seen[-1]

    monkeypatch.setattr(modsolve, "_leading", counted)
    return seen


def test_a_full_basis_ends_the_reduction(monkeypatch):
    # three unit rows span Z_4^3, so the 200 rows after them go unread
    seen = count_leading(monkeypatch)
    rng = random.Random(0)
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [tuple(rng.randrange(4) for _ in range(3)) for _ in range(200)]
    assert reduce_rows(4, rows, 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(seen) == 3


def test_a_unit_pivot_pushes_no_annihilator(monkeypatch):
    # over Z_5 every pivot is a unit, whose annihilator row is zero
    seen = count_leading(monkeypatch)
    assert len(reduce_rows(5, [(1, 2, 3), (2, 0, 1), (1, 1, 1)], 3)) == 3
    assert None not in seen


def test_solve_honors_rhs_only_in_reduced_space():
    # x + y = 1, x + y = 3 (mod 4) is contradictory
    system = make_system(4, [[1, 1], [1, 1]], [1, 3])
    assert solve(system) is None


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
    seed=st.integers(0, 10**9),
    k=st.integers(0, 6),
    n=st.integers(1, 5),
    width=st.sampled_from([1, 3]),
)
def test_kept_rows_decide_solvability(modulus, seed, k, n, width):
    # A x = E r is solvable iff r is orthogonal to every kept row of the
    # reduced [A | E]: a one-block group's least q is the least q for which
    # solve finds a solution of A x = E (*fixed, q), and the solution
    # handed back is that one and checks out
    rng = random.Random(seed)
    a = tuple(tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(k))
    e = tuple(tuple(rng.randrange(modulus) for _ in range(width)) for _ in range(k))
    for _ in range(6):
        fixed = tuple(rng.randrange(modulus) for _ in range(width - 1))
        want = None
        for q in range(1, modulus):
            r = (*fixed, q)
            system = ModSystem(modulus, n, a, tuple(sum(c * v for c, v in zip(t, r)) for t in e))
            if (x := solve(system)) is not None:
                assert verify(system, x)
                want = ("r", q, x)
                break
        assert first_solvable(modulus, n, a, e, [[("r", fixed)]]) == want, fixed


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.integers(2, 12),
    seed=st.integers(0, 10**9),
    k=st.integers(0, 6),
    n=st.integers(1, 4),
    width=st.sampled_from([1, 3]),
)
def test_first_solvable_depends_only_on_the_row_span(modulus, seed, k, n, width):
    # the first passing block, its q and its x are fixed by the row span
    # of [A | E]: a homogeneous block with repeated rows beside new rows,
    # the same rows deduplicated and shuffled, and the block's reduction
    # continued with the new rows alone all give the same (key, q, x)
    rng = random.Random(seed)
    block = [tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(k)]
    block += [rng.choice(block) for _ in block]
    rows = [tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    tails = [tuple(rng.randrange(modulus) for _ in range(width)) for _ in rows]
    groups = [[(0, ())]] if width == 1 else [
        [((i, j), (head, rng.randrange(modulus))) for j in range(3)]
        for i, head in enumerate(rng.randrange(modulus) for _ in range(3))
    ]
    zero = (0,) * width
    raw = first_solvable(modulus, n, block + rows, [zero] * len(block) + tails, groups)
    pairs = list(dict.fromkeys([(row, zero) for row in block] + list(zip(rows, tails))))
    rng.shuffle(pairs)
    shuffled = first_solvable(modulus, n, [a for a, _ in pairs], [e for _, e in pairs], groups)
    continued = first_solvable(modulus, n, rows, tails, groups, reduce_rows(modulus, block, n))
    assert raw == shuffled == continued


def probe_walk(modulus, cols, rows, tails, groups, reduced):
    """The walk first_solvable replaces: every block of every group, then
    q = 1..modulus-1, each probe (*fixed, q) decided by brute force, with
    the colex-least solution x (the least last entry first)."""
    width = len(tails[0])
    a = [*reduced, *rows]
    e = [(0,) * width] * len(reduced) + list(tails)
    least = {}
    for t in itertools.product(range(modulus), repeat=cols):
        x = t[::-1]
        least.setdefault(tuple(sum(c * v for c, v in zip(row, x)) % modulus for row in a), x)
    for group in groups:
        for key, fixed in group:
            for q in range(1, modulus):
                r = (*fixed, q)
                x = least.get(tuple(sum(c * v for c, v in zip(t, r)) % modulus for t in e))
                if x is not None:
                    return key, q, x
    return None


def rzpt_groups(modulus):
    """decide_essa_rzpt's groups: the pairs (0,1)..(0,b), (1,1), each with
    its blocks sup_init 0..b, where b = modulus - 1."""
    pairs = [(0, n) for n in range(1, modulus)] + [(1, 1)]
    return [[((m, n, s), (n - m, m - s)) for s in range(modulus)] for m, n in pairs]


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.integers(2, 12),
    seed=st.integers(0, 10**9),
    k=st.integers(1, 4),
    n=st.integers(1, 3),
    width=st.sampled_from([1, 3]),
    with_block=st.booleans(),
    last_only=st.booleans(),
)
def test_block_search_matches_the_probe_walk(modulus, seed, k, n, width, with_block, last_only):
    # the first passing block, its least q and its x are those of the
    # probe-by-probe walk; with last_only the row (0 | 1 0 0) pins
    # n - m to 0, which only the last pair (1,1) meets, so every group but
    # the last is dead and skipped
    rng = random.Random(seed)
    rows = [tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(k)]
    tails = [tuple(rng.randrange(modulus) for _ in range(width)) for _ in rows]
    if width == 3 and last_only:
        rows.append((0,) * n)
        tails.append((1, 0, 0))
    block = [tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    reduced = reduce_rows(modulus, block, n) if with_block else ()
    groups = rzpt_groups(modulus) if width == 3 else [[(None, ())]]
    found = first_solvable(modulus, n, rows, tails, groups, reduced)
    assert found == probe_walk(modulus, n, rows, tails, groups, reduced)
    if width == 3 and last_only and found is not None:
        assert found[0][:2] == (1, 1)
