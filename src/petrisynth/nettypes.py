"""Families of b-bounded net types and their state machines.

A net type is a TS over the states {0..b} whose events describe what a
transition may do to a single place: a pair (m,n) consumes m tokens and
produces n, a group k (Z families only) adds k modulo b+1.  Five families:

  pt    all pairs (m,n) with 0 <= m,n <= b
  ppt   pt without impure pairs (m >= 1 and n >= 1 with (m,n) != (0,0))
  zpt   all pairs except (0,0), plus all groups 0..b
  zppt  pure pairs except (0,0), plus all groups
  rzpt  events of zpt, but a pair (m,n) fires only at state m

In rzpt each event occurs exactly once: pairs at their unique source state,
groups everywhere (each state has a unique group successor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional

FAMILIES = ("pt", "ppt", "zpt", "zppt", "rzpt")
Z_FAMILIES = ("zpt", "zppt", "rzpt")
MAX_BOUND = 1000


@dataclass(frozen=True)
class Pair:
    """Consume m, produce n."""

    m: int
    n: int

    def __str__(self) -> str:
        return f"{self.m},{self.n}"


@dataclass(frozen=True)
class Group:
    """Add k modulo b+1."""

    k: int

    def __str__(self) -> str:
        return f"g:{self.k}"


TauEvent = Pair | Group


def minus(e: TauEvent) -> int:
    """Tokens consumed (0 for groups)."""
    return e.m if isinstance(e, Pair) else 0


def plus(e: TauEvent) -> int:
    """Tokens produced (0 for groups)."""
    return e.n if isinstance(e, Pair) else 0


def absval(e: TauEvent) -> int:
    """Group step (0 for pairs)."""
    return e.k if isinstance(e, Group) else 0


@dataclass(frozen=True)
class NetType:
    family: str
    bound: int
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def events(self) -> tuple[TauEvent, ...]:
        """Canonical order: pairs lexicographically by (m,n), then groups by k."""
        pairs = [Pair(m, n) for m in range(self.bound + 1) for n in range(self.bound + 1)]
        groups = [Group(k) for k in range(self.bound + 1)]
        return tuple(e for e in pairs + groups if self.is_event(e))

    @cached_property
    def neutral(self) -> TauEvent:
        """The do-nothing event: g:0 in the Z families, 0,0 otherwise."""
        return Group(0) if self.family in Z_FAMILIES else Pair(0, 0)

    def is_event(self, e: TauEvent) -> bool:
        return legal(self.family, self.bound, e)

    def step(self, e: TauEvent) -> tuple[Optional[int], ...]:
        """delta_tau(self, v, e) for v in 0..b, tabled on first use."""
        table = self._steps.get(e)
        if table is None:
            table = self._steps[e] = tuple(delta_tau(self, v, e) for v in range(self.bound + 1))
        return table

    def __str__(self) -> str:
        return f"{self.family}^{self.bound}"


@cache
def make_type(family: str, bound: int) -> NetType:
    """The net type of a family at bound 1 <= b <= MAX_BOUND."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > MAX_BOUND:
        raise ValueError(f"bound must be <= {MAX_BOUND}, got {bound}")
    return NetType(family, bound)


def legal(family: str, bound: int, e: TauEvent) -> bool:
    """Whether a single event belongs to the family at this bound."""
    if isinstance(e, Group):
        return family in Z_FAMILIES and 0 <= e.k <= bound
    if not (0 <= e.m <= bound and 0 <= e.n <= bound):
        return False
    if family in ("ppt", "zppt") and e.m >= 1 and e.n >= 1:
        return False
    if family in Z_FAMILIES and e.m == 0 and e.n == 0:
        return False
    return True


def delta_tau(tau: NetType, state: int, e: TauEvent) -> Optional[int]:
    """Successor of a token count under a tau event, or None.

    Raises ValueError for events outside the type ("foreign event").
    """
    if not tau.is_event(e):
        raise ValueError(f"foreign event for {tau}: {e}")
    b = tau.bound
    if isinstance(e, Group):
        return (state + e.k) % (b + 1)
    if tau.family == "rzpt":
        return e.n if state == e.m else None
    after = state - e.m + e.n
    if state >= e.m and 0 <= after <= b:
        return after
    return None


def format_event(e: TauEvent) -> str:
    """Serialized spelling: "m,n" for pairs, "g:k" for groups."""
    return str(e)


def parse_event(text: str) -> TauEvent:
    """Inverse of format_event.  Raises ValueError on malformed input."""
    if text.startswith("g:"):
        return Group(_int(text[2:], text))
    if "," in text:
        left, _, right = text.partition(",")
        return Pair(_int(left, text), _int(right, text))
    raise ValueError(f"malformed tau event: {text!r}")


def _int(chunk: str, whole: str) -> int:
    if not chunk.isdigit():
        raise ValueError(f"malformed tau event: {whole!r}")
    return int(chunk)
