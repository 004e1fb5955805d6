import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from petrisynth.modsolve import ModSystem, first_solvable, make_system, reduce_rows, solve, verify


def brute_solve(system):
    m = system.modulus
    for x in itertools.product(range(m), repeat=system.cols):
        if verify(system, x):
            return x
    return None


def check_probes(modulus, rows, tails, rng, cols):
    """first_solvable against brute force on each of a few random probes
    r: a probe passes iff brute force solves rows.x = tails.r, and the x
    handed back satisfies that system."""
    for _ in range(4):
        r = tuple(rng.randrange(modulus) for _ in range(len(tails[0])))
        system = make_system(modulus, rows, [sum(c * v for c, v in zip(t, r)) for t in tails], cols)
        found = first_solvable(modulus, cols, rows, tails, [("r", r)])
        assert (found is None) == (brute_solve(system) is None), (rows, tails, r)
        if found is not None:
            assert found[0] == "r" and verify(system, found[1]), (rows, tails, r)


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
    # reduced [A | E]: the probe passes exactly when solve finds a solution
    # of A x = E r, and the solution handed back is that one and checks out
    rng = random.Random(seed)
    a = tuple(tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(k))
    e = tuple(tuple(rng.randrange(modulus) for _ in range(width)) for _ in range(k))
    for _ in range(6):
        r = tuple(rng.randrange(modulus) for _ in range(width))
        system = ModSystem(modulus, n, a, tuple(sum(c * v for c, v in zip(t, r)) for t in e))
        x = solve(system)
        found = first_solvable(modulus, n, a, e, [("r", r)])
        assert found == (None if x is None else ("r", x)), r
        if x is not None:
            assert verify(system, x)


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.integers(2, 12),
    seed=st.integers(0, 10**9),
    k=st.integers(0, 6),
    n=st.integers(1, 4),
    width=st.sampled_from([1, 3]),
)
def test_first_solvable_depends_only_on_the_row_span(modulus, seed, k, n, width):
    # the first passing probe and its x are fixed by the row span of
    # [A | E]: a homogeneous block with repeated rows beside new rows, the
    # same rows deduplicated and shuffled, and the block's reduction
    # continued with the new rows alone all give the same (key, x)
    rng = random.Random(seed)
    block = [tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(k)]
    block += [rng.choice(block) for _ in block]
    rows = [tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    tails = [tuple(rng.randrange(modulus) for _ in range(width)) for _ in rows]
    probes = [(i, tuple(rng.randrange(modulus) for _ in range(width))) for i in range(6)]
    zero = (0,) * width
    raw = first_solvable(modulus, n, block + rows, [zero] * len(block) + tails, probes)
    pairs = list(dict.fromkeys([(row, zero) for row in block] + list(zip(rows, tails))))
    rng.shuffle(pairs)
    shuffled = first_solvable(modulus, n, [a for a, _ in pairs], [e for _, e in pairs], probes)
    continued = first_solvable(modulus, n, rows, tails, probes, reduce_rows(modulus, block, n))
    assert raw == shuffled == continued
