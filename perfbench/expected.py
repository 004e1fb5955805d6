"""Expected verdicts of the pooled workloads, kept in expected/.

    python3 perfbench/expected.py           # check expected/ against the package
    python3 perfbench/expected.py --write   # rewrite expected/ from the package

The check recomputes every pool entry's verdicts, and cross-checks the
polynomial z-family deciders against oracle_decide on a down-scaled run of
the zcheck generator (2 to 6 states, 1 or 2 events), where exhaustive
enumeration is affordable.  A "no" from the deciders carries no
certificate, so this file is how the benchmark checks one.
"""

from __future__ import annotations

import argparse
import random
import sys
import warnings

import checkout

checkout.use_source()

import gen  # noqa: E402
import workloads as w  # noqa: E402
from petrisynth.nettypes import make_type  # noqa: E402
from petrisynth.oracle import oracle_decide  # noqa: E402
from petrisynth.reduction import Cm1in3Formula  # noqa: E402
from petrisynth.ts import TransitionSystem  # noqa: E402


def zcheck_lines():
    for slot in range(w.Zcheck.SLOTS):
        for copy in range(w.Zcheck.COPIES):
            key, bound, t = w.zcheck_item(slot, copy)
            ts = TransitionSystem(key, *t)
            got = [
                _decide(ts, family, bound, problem)
                for family, problem in w.Zcheck.DECISIONS
            ]
            yield key, w.digest(gen.ts_text(key, *t)), got


def _decide(ts, family, bound, problem) -> str:
    report = w.Zcheck.run(w.Decision(ts, family, bound, problem, ""))
    return w.verdict(report.holds, report.failing)


def oracle_lines():
    for slot in range(w.Oracle.SLOTS):
        for copy in range(w.Oracle.COPIES):
            key, t = w.oracle_item(slot, copy)
            ts = TransitionSystem(key, *t)
            got = []
            for family, bound in w.Oracle.TYPES:
                report = w.Oracle.run(w.Decision(ts, family, bound, "solvability", ""))
                got.append(w.verdict(report.answer, report.failing))
            yield key, w.digest(gen.ts_text(key, *t)), got


def hardness_lines():
    seen = set()
    for copy in range(w.Hardness.COPIES):
        for fkey, clauses, model in w.hardness_formulas(copy):
            if fkey in seen:
                continue
            seen.add(fkey)
            for variant, bound in w.Hardness.CASES:
                key = f"{fkey}/{variant}/{bound}"
                r = w.Reduction(key, Cm1in3Formula(clauses), model, variant, bound, [])
                *_, ssp, essp = w.Hardness.run(r)
                got = [w.verdict(x.holds, x.failing) if x else "-" for x in (ssp, essp)]
                yield key, w.digest(repr(clauses)), got


SOURCES = {"zcheck": zcheck_lines, "oracle": oracle_lines, "hardness": hardness_lines}


def cross_check() -> int:
    """Disagreements between the z deciders and the oracle on small TSs."""
    bad = 0
    for i in range(40):
        rng = random.Random(f"zcheck-small/{i}")
        bound = (3, 5)[i % 2]
        t = gen.random_ts(rng, 2 + i % 5, 1 + i // 5 % 2)
        ts = TransitionSystem(f"small{i}", *t)
        for family, problem in w.Zcheck.DECISIONS:
            fast = _decide(ts, family, bound, problem)
            report = oracle_decide(ts, make_type(family, bound), problem)
            slow = w.verdict(report.answer, report.failing)
            if fast != slow:
                print(f"small{i} {family} b={bound} {problem}: decider {fast}, oracle {slow}")
                bad += 1
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite expected/")
    args = parser.parse_args()
    warnings.filterwarnings("ignore", message="connector name collides")
    bad = 0
    for name, lines in SOURCES.items():
        rows = [f"{key} {sha} {' '.join(got)}" for key, sha, got in lines()]
        path = w.EXPECTED / f"{name}.txt"
        if args.write:
            header = f"# {name}: pool key, input digest, verdicts (yes or the failing atom)\n"
            path.write_text(header + "\n".join(rows) + "\n", encoding="utf-8")
            print(f"wrote {path} ({len(rows)} entries)")
            continue
        table = w.load_expected(name)
        for row in rows:
            key, sha, *got = row.split()
            if table.get(key) != (sha, got):
                print(f"{name} {key}: expected {table.get(key)}, got {(sha, got)}")
                bad += 1
        print(f"{name}: {len(rows)} entries checked")
    bad += cross_check()
    print("ok" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
