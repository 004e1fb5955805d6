"""The four workloads: their inputs, the measured call and the output check.

Each workload builds its fixed instance set from the seed in __init__
(set-up), runs one instance in run() (timed) and checks one output in
verify() (not timed).  Calls into petrisynth go through module
attributes, so the tracer's wrappers are seen.

zcheck, oracle and hardness draw their inputs from a committed pool:
slot i of the instance set takes one of a few generated copies, chosen by
the seed.  Every pool entry has its expected verdicts in expected/, which
is how a "no" is checked; a "yes" is checked through its witness.
"""

from __future__ import annotations

import hashlib
import io
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import gen
from petrisynth import cli, oracle, polysynth, reduction, regions
from petrisynth.nettypes import make_type
from petrisynth.reduction import Cm1in3Formula
from petrisynth.ts import SeparationAtom, TransitionSystem

EXPECTED = Path(__file__).resolve().with_name("expected")


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def load_expected(name: str) -> dict[str, tuple[str, list[str]]]:
    """Pool key -> (input digest, verdicts) from expected/<name>.txt."""
    table = {}
    for line in (EXPECTED / f"{name}.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, sha, *verdicts = line.split()
            table[key] = (sha, verdicts)
    return table


def verdict(holds: bool, failing) -> str:
    return "yes" if holds else str(failing)


def shape(states, events, arcs) -> tuple[int, int, int, int]:
    """(states, events, arcs, atoms): ssa plus essa atoms of a TS."""
    enabled = Counter(event for _, event, _ in arcs)
    n = len(states)
    atoms = n * (n - 1) // 2 + sum(n - enabled[e] for e in events)
    return n, len(events), len(arcs), atoms


def witness_ok(ts, tau, witness, problem) -> bool:
    """check_witness covers every atom and every region validates."""
    return regions.check_witness(ts, tau, witness, problem).ok and all(
        regions.validate_region(ts, tau, r).ok for r in witness.regions
    )


def coverage_ok(ts, tau, witness, atoms) -> bool:
    """The witness charges exactly these atoms, each to a region that
    solves it, and every region validates.  Linear in the atoms, unlike
    check_witness, whose first-fit scan costs as much as the measured
    decider on the hardness TSs."""
    return (
        set(witness.coverage) == set(atoms)
        and all(regions.solves(witness.regions[i], tau, a) for a, i in witness.coverage.items())
        and all(regions.validate_region(ts, tau, r).ok for r in witness.regions)
    )


class Roundtrip:
    """README flow synthesize -> reachability -> iso through cli.main, on
    reachability graphs of group-heavy rzpt nets.  Every answer is yes."""

    name = "roundtrip"
    # (bound, places): 81, 243 and 729 states at b=2, 64 and 256 at b=3
    SCHEDULE = [(2, 4)] * 6 + [(2, 5)] * 3 + [(2, 6)] + [(3, 3)] * 6 + [(3, 4)] * 3
    PAIR_FRAC = 0.15

    def __init__(self, seed: int, tmp: Path, schedule=None):
        rng = random.Random(f"roundtrip/{seed}")
        self.instances = []
        self.shapes = []
        for i, (bound, places) in enumerate(schedule or self.SCHEDULE):
            _, transitions, _, graph = gen.rzpt_net(rng, places, bound, self.PAIR_FRAC)
            states, initial, arcs = graph
            path = tmp / f"rt{i}.ts"
            path.write_text(gen.ts_text(f"rt{i}", states, transitions, arcs, initial), encoding="utf-8")
            self.instances.append((bound, str(path), graph))
            self.shapes.append(shape(states, transitions, arcs))

    @staticmethod
    def run(instance):
        bound, path, _ = instance
        net, rg = path[:-3] + ".net", path[:-3] + ".rg.ts"
        with redirect_stdout(io.StringIO()):
            return (
                cli.main(["synthesize", "--b", str(bound), "-o", net, path]),
                cli.main(["reachability", "-o", rg, net]),
                cli.main(["iso", rg, path]),
            )

    @staticmethod
    def verify(instance, codes) -> bool:
        _, path, graph = instance
        net = Path(path[:-3] + ".net").read_text(encoding="utf-8")
        return codes == (0, 0, 0) and checks.net_matches(net, graph)


@dataclass
class Decision:
    ts: TransitionSystem
    family: str
    bound: int
    problem: str
    expected: str


def zcheck_item(slot: int, copy: int):
    """Pool entry: (key, bound, (states, events, arcs, initial)).

    Sizes follow the slot, 4 to 40 states and 1 to 6 events, so every
    instance set has the same size profile; b alternates between 3 and 5,
    whose moduli 4 and 6 have zero divisors.
    """
    rng = random.Random(f"zcheck/{slot}/{copy}")
    states = 4 + 36 * slot // (Zcheck.SLOTS - 1)
    events = 1 + slot % 6
    bound = (3, 5)[slot // 6 % 2]
    return f"{slot}.{copy}", bound, gen.random_ts(rng, states, events)


class Zcheck:
    """ssp over zpt, zppt and rzpt plus rzpt essp on random reachable TSs:
    mostly "no" answers, found by the modular (Howell) solver."""

    name = "zcheck"
    SLOTS, COPIES = 100, 4
    DECISIONS = (("zpt", "ssp"), ("zppt", "ssp"), ("rzpt", "ssp"), ("rzpt", "essp"))

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(f"zcheck/{seed}")
        table = load_expected(self.name)
        self.instances = []
        self.shapes = []
        for slot in range(self.SLOTS):
            key, bound, t = zcheck_item(slot, rng.randrange(self.COPIES))
            ts = checked_ts(table, key, t)
            for (family, problem), expected in zip(self.DECISIONS, table[key][1]):
                self.instances.append(Decision(ts, family, bound, problem, expected))
            self.shapes.append(shape(t[0], t[1], t[2]))

    @staticmethod
    def run(d: Decision):
        if d.problem == "ssp":
            return polysynth.decide_ssp(d.ts, make_type(d.family, d.bound))
        return polysynth.decide_essp_rzpt(d.ts, d.bound)

    @staticmethod
    def verify(d: Decision, report) -> bool:
        if verdict(report.holds, report.failing) != d.expected:
            return False
        return not report.holds or witness_ok(d.ts, make_type(d.family, d.bound), report.witness, d.problem)


def checked_ts(table, key: str, t) -> TransitionSystem:
    """The pool TS, after checking it is the one the verdicts were made for."""
    if table[key][0] != digest(gen.ts_text(key, *t)):
        raise ValueError(f"pool entry {key} differs from expected/; regenerate it")
    return TransitionSystem(key, *t)


def oracle_item(slot: int, copy: int):
    """Pool entry: (key, (states, events, arcs, initial)), 2-7 states and
    1-4 events, so each of the four net types stays below 20k candidates."""
    rng = random.Random(f"oracle/{slot}/{copy}")
    return f"{slot}.{copy}", gen.random_ts(rng, 2 + slot % 6, 1 + slot // 6 % 4)


class Oracle:
    """Exhaustive oracle_decide solvability on tiny TSs over pt (b=1, 2),
    ppt (b=2) and zppt (b=1)."""

    name = "oracle"
    SLOTS, COPIES = 60, 4
    TYPES = (("pt", 1), ("pt", 2), ("ppt", 2), ("zppt", 1))

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(f"oracle/{seed}")
        table = load_expected(self.name)
        self.instances = []
        self.shapes = []
        for slot in range(self.SLOTS):
            key, t = oracle_item(slot, rng.randrange(self.COPIES))
            ts = checked_ts(table, key, t)
            for (family, bound), expected in zip(self.TYPES, table[key][1]):
                self.instances.append(Decision(ts, family, bound, "solvability", expected))
            self.shapes.append(shape(t[0], t[1], t[2]))

    @staticmethod
    def run(d: Decision):
        return oracle.oracle_decide(d.ts, make_type(d.family, d.bound), d.problem)

    @staticmethod
    def verify(d: Decision, report) -> bool:
        if verdict(report.answer, report.failing) != d.expected:
            return False
        return not report.answer or witness_ok(d.ts, make_type(d.family, d.bound), report.witness, d.problem)


def hardness_formulas(copy: int):
    """The only cubic 3-clause formula and a planted 6-clause one, with models."""
    three = gen.planted_formula(random.Random("hardness/m3"), 3)
    six = gen.planted_formula(random.Random(f"hardness/m6/{copy}"), 6)
    return [("m3", *three), (f"m6.{copy}", *six)]


@dataclass
class Reduction:
    key: str
    phi: Cm1in3Formula
    model: frozenset
    variant: str
    bound: int
    expected: list[str]


class Hardness:
    """reduction outputs of one-in-three formulas for every variant at
    b in {1, 2}; zppt ssp and rzpt essp decided on the joined TSs."""

    name = "hardness"
    COPIES = 8
    CASES = (("ppt-essp", 1), ("ppt-essp", 2), ("pt-essp", 1), ("pt-essp", 2), ("ssp", 1), ("ssp", 2), ("z-essp", 2))

    def __init__(self, seed: int, tmp: Path):
        table = load_expected(self.name)
        copy = random.Random(f"hardness/{seed}").randrange(self.COPIES)
        self.instances = []
        self.shapes = []
        for fkey, clauses, model in hardness_formulas(copy):
            phi = Cm1in3Formula(clauses)
            for variant, bound in self.CASES:
                key = f"{fkey}/{variant}/{bound}"
                if table[key][0] != digest(repr(clauses)):
                    raise ValueError(f"pool entry {key} differs from expected/; regenerate it")
                self.instances.append(Reduction(key, phi, model, variant, bound, table[key][1]))
                joined = self.join(reduction.build_union(phi, variant, bound))
                self.shapes.append(shape(joined.states, joined.events, joined.arcs()))

    # Passes are kept short: zppt ssp takes about 0.3 s on each 6-clause
    # TS, so it runs there at b=2 only, and rzpt essp at b=1 (a yes with
    # hundreds of regions, 1.5-3 s) runs on one 3-clause variant only.
    @staticmethod
    def decides_ssp(r: Reduction) -> bool:
        return r.bound == 2 or r.key.startswith("m3/")

    @staticmethod
    def decides_essp(r: Reduction) -> bool:
        return r.bound == 2 or r.key == "m3/ssp/1"

    @staticmethod
    def join(union):
        return reduction.joining(union) if union.variant == "z-essp" else reduction.linear_joining(union)

    @staticmethod
    def run(r: Reduction):
        union = reduction.build_union(r.phi, r.variant, r.bound)
        joined = Hardness.join(union)
        alpha = reduction.alpha_witness_region(r.phi, r.model, r.variant, r.bound)
        ppt = reduction.ppt_essp_witness(r.phi, r.model, r.bound) if r.variant == "ppt-essp" else None
        ssp = polysynth.decide_ssp(joined, make_type("zppt", r.bound)) if Hardness.decides_ssp(r) else None
        essp = polysynth.decide_essp_rzpt(joined, r.bound) if Hardness.decides_essp(r) else None
        return union, joined, alpha, ppt, ssp, essp

    @staticmethod
    def verify(r: Reduction, out) -> bool:
        union, joined, alpha, ppt, ssp, essp = out
        tau = make_type(reduction.VARIANT_FAMILY[r.variant], r.bound)
        if alpha.joined != joined or alpha.atom != union.alpha:
            return False
        if not (regions.validate_region(joined, tau, alpha.region).ok and regions.solves(alpha.region, tau, alpha.atom)):
            return False
        if ppt is not None:
            members = [(m.states, m.arcs()) for m in ppt[0].members]
            plain = [(w.sup, {e: (p.m, p.n) for e, p in w.sig.items()}) for w in ppt[1].regions]
            if not checks.ppt_witness_covers(members, r.bound, plain):
                return False
        got = [verdict(x.holds, x.failing) if x else "-" for x in (ssp, essp)]
        if got != r.expected:
            return False
        zppt, rzpt = make_type("zppt", r.bound), make_type("rzpt", r.bound)
        if ssp and ssp.holds and not coverage_ok(joined, zppt, ssp.witness, ssa(joined)):
            return False
        return not (essp and essp.holds) or coverage_ok(joined, rzpt, essp.witness, essa(joined))


def ssa(ts) -> list:
    return [SeparationAtom.ssa(s, t) for i, s in enumerate(ts.states) for t in ts.states[i + 1 :]]


def essa(ts) -> list:
    enabled = {(s, e) for s, e, _ in ts.arcs()}
    return [SeparationAtom.essa(e, s) for e in ts.events for s in ts.states if (s, e) not in enabled]


WORKLOADS = {w.name: w for w in (Roundtrip, Zcheck, Oracle, Hardness)}
