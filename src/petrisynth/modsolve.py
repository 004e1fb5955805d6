"""Linear equation systems over Z_m, m composite allowed.

Solving over a residue ring needs more than Gaussian elimination: a pivot
like 2 mod 4 is a zero divisor, and naively zeroing it out loses solutions.
The row reduction here keeps the basis closed under annihilator rows
((m/gcd(pivot,m)) times the row), which is what makes back-substitution
with free variables fixed to 0 complete: if no reduced row reads 0 = c
with c != 0, the straightforward bottom-up substitution always succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Any, Iterable, Optional, Sequence

Rows = Sequence[Sequence[int]]


@dataclass(frozen=True)
class ModSystem:
    """k equations in n unknowns over Z_modulus, entries kept reduced."""

    modulus: int
    cols: int
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        for row in self.rows:
            if len(row) != self.cols:
                raise ValueError("row width mismatch")
        m = self.modulus
        object.__setattr__(
            self, "rows", tuple(tuple(v % m for v in row) for row in self.rows)
        )
        object.__setattr__(self, "rhs", tuple(v % m for v in self.rhs))


def make_system(
    modulus: int,
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    cols: Optional[int] = None,
) -> ModSystem:
    """Build a ModSystem, inferring the width from the first row."""
    if cols is None:
        if not rows:
            raise ValueError("cols required for an empty system")
        cols = len(rows[0])
    return ModSystem(modulus, cols, tuple(tuple(r) for r in rows), tuple(rhs))


def verify(system: ModSystem, x: Sequence[int]) -> bool:
    """Whether x satisfies every equation of the system."""
    m = system.modulus
    return len(x) == system.cols and all(
        _dot(row, x) % m == want for row, want in zip(system.rows, system.rhs)
    )


def solve(system: ModSystem) -> Optional[tuple[int, ...]]:
    """One solution with free variables fixed to 0, or None.

    The one-block case of first_solvable: E is the rhs column, and q = 1
    is the least candidate, so the system is solvable iff the least
    passing q is 1.
    """
    tails = tuple((b,) for b in system.rhs)
    found = first_solvable(system.modulus, system.cols, system.rows, tails, (((None, ()),),))
    return found[2] if found is not None and found[1] == 1 else None


def first_solvable(
    modulus: int,
    cols: int,
    rows: Rows,
    tails: Rows,
    groups: Iterable[Iterable[tuple[Any, Sequence[int]]]],
    reduced: Rows = (),
) -> Optional[tuple[Any, int, tuple[int, ...]]]:
    """The first block (key, fixed) of groups with A x = E r solvable for
    some r = (*fixed, q), 0 < q < modulus, as (key, q, x) with the least
    such q, or None.  [A | E] = [reduced | 0; rows | tails], and reduced
    is a homogeneous block in Howell form of width cols, such as a
    reduce_rows result.  The blocks of one group share all but the last
    entry of fixed, and a group's blocks are drawn only while none passed
    and the group is alive.

    One reduction of [A | E], continued from reduced, serves every block.
    By Howell's span property the E-parts C of its basis rows with a zero
    A-part span {yE : yA = 0}, and Z_modulus is self-injective, so
    A x = E r is solvable iff c.r = 0 for every c in C.  Hence:

    - no r with q != 0 passes iff the unit vector of q lies in the span of
      C, which in Howell form means that C's last row is zero but for a
      unit in the last column;
    - a block's passing q are the solutions of one congruence u q = v per
      row of C, a coset of a divisor of modulus (_least_q);
    - a group passes iff the rows of C's span with a zero entry in the
      column of fixed's last entry admit some q != 0 for the group's
      shared entries, as the double annihilator property of Z_modulus
      makes the group's r, projected away from that column, exactly the
      vectors those rows annihilate.  They come from a Howell reduction of
      C with that column first (_drop_column), built once a first block
      has failed, so an atom decided by its first block pays nothing for
      it.

    x, free variables fixed to 0, is back-substituted over the basis's
    rows with a pivot in the A-part, each with right-hand side (its
    E-part).r: their row operations depend only on A, so a reduction of
    [A | E r] reaches them.  Taking, from the last column to the first,
    the least value in [0, modulus/pivot gcd) makes x the colex-least
    solution, so the answer depends only on the row span of [A | E],
    never on the order or repetition of its rows.
    """
    width = cols + max(map(len, tails), default=0)
    pad = (0,) * (width - cols)
    basis = reduce_rows(
        modulus, [[*a, *e] for a, e in zip(rows, tails)], width, [(*row, *pad) for row in reduced]
    )
    # rows with a zero A-part have their pivots in E, so they end the basis
    split = len(basis)
    while split and not any(basis[split - 1][:cols]):
        split -= 1
    kept = [row[cols:] for row in basis[split:]]
    if kept and gcd(kept[-1][-1], modulus) == 1 and not any(kept[-1][:-1]):
        return None
    projected = None
    for group in groups:
        tested = False
        for key, fixed in group:
            if projected is not None and not tested:
                if _least_q(modulus, projected, fixed[:-1]) is None:
                    break
                tested = True
            if (q := _least_q(modulus, kept, fixed)) is not None:
                return key, q, _back_substitute(modulus, cols, basis[:split], (*fixed, q))
            if projected is None and fixed:
                projected = _drop_column(modulus, kept, len(fixed) - 1)
    return None


def _least_q(modulus: int, rows: Rows, fixed: Sequence[int]) -> Optional[int]:
    """The least q in 1..modulus-1 with c.(*fixed, q) = 0 for every row c,
    or None.

    Each row is a congruence u q = v whose solutions, if any, are a coset
    of a divisor of modulus; the Chinese remainder theorem intersects them
    into one such coset q = a (mod n), whose least nonzero member is a, or
    n when a = 0.
    """
    a, n = 0, 1
    for c in rows:
        u, v = c[-1], -_dot(c, fixed) % modulus
        d = gcd(u, modulus)
        if v % d:
            return None
        step = modulus // d
        t = v // d * pow(u // d, -1, step) % step
        g = gcd(n, step)
        if (t - a) % g:
            return None
        a += n * ((t - a) // g * pow(n // g, -1, step // g) % (step // g))
        n = n // g * step
    q = a or n
    return q if q < modulus else None


def _drop_column(modulus: int, rows: Rows, col: int) -> list[tuple[int, ...]]:
    """Rows spanning the members of rows' span that are zero in column
    col, with that column dropped: the Howell basis of rows with col moved
    first, less the row with its pivot there."""
    width = len(rows[0])
    order = [col, *(j for j in range(width) if j != col)]
    basis = _howell(modulus, [[row[j] for j in order] for row in rows], width, {})
    return [tuple(row[1:]) for j, row in basis.items() if j]


def _back_substitute(modulus: int, cols: int, pivots: Rows, r: Sequence[int]) -> tuple[int, ...]:
    """The colex-least x of A x = E r over the Howell basis rows with a
    pivot in the A-part, given that r passes."""
    x, nonzero = [0] * cols, []
    for row in reversed(pivots):
        j = _leading(row, cols)
        # x is 0 but at the entries set so far, all right of j
        acc = (_dot(row[cols:], r) - sum(row[k] * v for k, v in nonzero)) % modulus
        d = gcd(row[j], modulus)
        if acc % d:
            raise AssertionError("back-substitution hit an unsolvable pivot")
        mm = modulus // d
        x[j] = acc // d * pow(row[j] // d, -1, mm) % mm
        if x[j]:
            nonzero.append((j, x[j]))
    return tuple(x)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def reduce_rows(modulus: int, rows: Rows, cols: int, reduced: Rows = ()) -> tuple[tuple[int, ...], ...]:
    """Basis rows spanning the Z_modulus row module of rows and reduced.

    reduced is a basis already in Howell form, of width cols, such as an
    earlier reduce_rows result: the reduction starts from it and pushes
    only rows.  The basis is in Howell form: for every k, the basis rows
    that are zero in the first k columns span every combination of the
    input rows that is.  Entries of rows may lie outside 0..modulus-1.
    """
    start = {_leading(row, cols): row for row in reduced}
    basis = _howell(modulus, [[v % modulus for v in r] for r in rows], cols, start)
    return tuple(tuple(basis[j]) for j in sorted(basis))


def _howell(
    m: int, pending: list[Sequence[int]], width: int, basis: dict[int, Sequence[int]]
) -> dict[int, Sequence[int]]:
    """Echelon basis keyed by pivot column, closed under annihilators.

    The state is (basis, pending rows), and every reduction ends with no
    pending rows, so a Howell basis is a state to start from with new
    rows pending.  A pivot that is not a unit pushes its annihilator row
    ((m/gcd(pivot, m)) times the row); a unit's annihilator is zero, so
    it pushes none.  Once every one of the width columns holds a unit
    pivot the basis spans Z_m^width and has the Howell property, so the
    rows still pending are dropped unread.  Takes rows already reduced
    into 0..m-1, consumes the list and updates the dict, never the rows.
    """
    # unit pivots: a 2x2 step's pivot divides the held one, so a unit stays
    # one, and a held unit (3 meeting 2 mod 4) takes the step uncounted
    units = sum(gcd(row[j], m) == 1 for j, row in basis.items())
    while pending and units < width:
        row = pending.pop(0)
        col = _leading(row, width)
        while col is not None:
            if col not in basis:
                basis[col] = row
                d = gcd(row[col], m)
                if d == 1:
                    units += 1
                else:
                    pending.append([(m // d) * e % m for e in row])
                break
            held = basis[col]
            g, c = held[col], row[col]
            if c % g == 0:
                t = c // g
                row = [(rv - t * hv) % m for rv, hv in zip(row, held)]
            else:
                # unimodular 2x2 combination; the held pivot drops to gcd(g, c)
                d, u, v = _egcd(g, c)
                new_held = [(u * hv + v * rv) % m for hv, rv in zip(held, row)]
                row = [((g // d) * rv - (c // d) * hv) % m for hv, rv in zip(held, row)]
                basis[col] = new_held
                dd = gcd(d, m)
                if dd != 1:
                    pending.append([(m // dd) * e % m for e in new_held])
                elif gcd(g, m) != 1:
                    units += 1
            col = _leading(row, width)
    pending.clear()
    return basis


def _leading(row: Sequence[int], width: int) -> Optional[int]:
    for j in range(width):
        if row[j]:
            return j
    return None


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g == gcd(a, b), for a, b >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v
