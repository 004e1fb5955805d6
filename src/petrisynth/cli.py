"""Command-line front end.

Exit codes: 0 for a yes answer or successful artifact, 1 for a justified
no, 2 for errors and inconclusive runs (bad input, exhausted budgets,
family/problem combinations with no decider).  `--json` swaps the human
lines for a single JSON object on stdout; warnings still go to stderr.
The rules applied come from the package: `check` refuses the families
`polysynth.POLYNOMIAL` does not list, and `reduce` joins the gadget union
with `reduction.join_union`.  The parser is built once per process, on
the first `main` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Optional

from .fileio import (
    parse_formula,
    parse_net,
    parse_ts,
    serialize_net,
    serialize_ts,
)
from .nets import CapExceeded, DEFAULT_CAP, reachability_graph
from .nettypes import FAMILIES, format_event, make_type
from .oracle import BudgetExceeded, OracleBudget, oracle_decide
from .polysynth import POLYNOMIAL, decide, synthesize_rzpt
from .reduction import (
    VARIANTS,
    alpha_witness_region,
    brute_model,
    build_union,
    join_union,
)
from .regions import Region
from .ts import PROBLEMS, deterministic_isomorphism

BUDGET_ENV = "PETRISYNTH_BUDGET"


def _positive(name: str, raw) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _budget(flag: Optional[int]) -> OracleBudget:
    """The --budget flag, else the PETRISYNTH_BUDGET variable, else the default."""
    if flag is not None:
        return OracleBudget(_positive("--budget", flag))
    raw = os.environ.get(BUDGET_ENV)
    return OracleBudget() if raw is None else OracleBudget(_positive(BUDGET_ENV, raw))


class _Output:
    """Collects the report; prints once, as text lines or one JSON object."""

    def __init__(self, as_json: bool, command: str):
        self.as_json = as_json
        self.report: dict = {"command": command}
        self.lines: list[str] = []

    def say(self, line: str, **fields) -> None:
        self.lines.append(line)
        self.report.update(fields)

    def flush(self, code: int) -> int:
        self.report["exit"] = code
        if self.as_json:
            print(json.dumps(self.report, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
        return code


def _read_ts(path: str):
    return parse_ts(Path(path).read_text(encoding="utf-8"))


def _answer_fields(answer: Optional[bool], failing) -> dict:
    return {
        "answer": answer,
        "failing": str(failing) if failing is not None else None,
    }


def _question(args: argparse.Namespace, out: _Output):
    """The fields check and oracle report, and the TS and type they decide."""
    out.report.update(
        {"family": args.family, "bound": args.b, "problem": args.problem,
         "input": args.input}
    )
    return _read_ts(args.input), make_type(args.family, args.b)


def _oracle(args: argparse.Namespace, ts, tau):
    """The exhaustive decision; main reports an exhausted budget."""
    return oracle_decide(ts, tau, args.problem, _budget(args.budget))


def _verdict(out: _Output, args: argparse.Namespace, answer: bool, failing,
             suffix: str = "", **fields) -> int:
    verdict = "yes" if answer else "no"
    detail = f" (unsolvable: {failing})" if failing is not None else ""
    out.say(
        f"{args.problem} over {args.family} at b={args.b}: {verdict}{detail}{suffix}",
        **fields, **_answer_fields(answer, failing),
    )
    return out.flush(0 if answer else 1)


def _cmd_check(args: argparse.Namespace, out: _Output) -> int:
    ts, tau = _question(args, out)
    if args.family not in POLYNOMIAL:
        out.say(
            f"no polynomial decider for {args.problem} over {args.family}; "
            "use the oracle subcommand for an exhaustive answer",
            answer=None, failing=None, method=None,
        )
        return out.flush(2)
    if args.problem in POLYNOMIAL[args.family]:
        # the decision synthesize_rzpt makes, so both name the same failing atom
        rep = decide(ts, tau, args.problem)
        return _verdict(out, args, rep.holds, rep.failing, method="polynomial")
    warnings.warn(
        f"{args.problem} over {args.family} has no polynomial decider; "
        "falling back to the exhaustive oracle"
    )
    out.report["method"] = "oracle"  # an inconclusive run reports it too
    rep = _oracle(args, ts, tau)
    return _verdict(out, args, rep.answer, rep.failing)


def _cmd_oracle(args: argparse.Namespace, out: _Output) -> int:
    rep = _oracle(args, *_question(args, out))
    return _verdict(out, args, rep.answer, rep.failing,
                    f" [{rep.checked} candidates]", checked=rep.checked)


def _cmd_synthesize(args: argparse.Namespace, out: _Output) -> int:
    out.report.update({"bound": args.b, "input": args.input})
    cap = _positive("--cap", args.cap)
    ts = _read_ts(args.input)
    rep = synthesize_rzpt(ts, args.b, cap=cap)
    if rep.net is None:
        out.say(
            f"not rzpt-synthesizable at b={args.b} (unsolvable: {rep.failing})",
            output=None, isomorphism=None, **_answer_fields(False, rep.failing),
        )
        return out.flush(1)
    target = Path(args.output) if args.output else Path(args.input).with_suffix(".net")
    target.write_text(serialize_net(rep.net), encoding="utf-8")
    out.say(
        f"wrote {target} ({len(rep.net.places)} places); "
        "reachability graph isomorphic to the input",
        output=str(target), isomorphism=rep.isomorphism,
        **_answer_fields(True, None),
    )
    return out.flush(0)


def _cmd_reachability(args: argparse.Namespace, out: _Output) -> int:
    out.report.update({"input": args.input})
    cap = _positive("--cap", args.cap)
    net = parse_net(Path(args.input).read_text(encoding="utf-8"))
    graph = reachability_graph(net, cap=cap)
    target = (
        Path(args.output)
        if args.output
        else Path(args.input).with_suffix(".rg.ts")
    )
    target.write_text(serialize_ts(graph), encoding="utf-8")
    out.say(
        f"wrote {target} ({len(graph.states)} markings, "
        f"{len(graph.events)} transitions)",
        output=str(target), states=len(graph.states), events=len(graph.events),
        answer=True,
    )
    return out.flush(0)


def _cmd_iso(args: argparse.Namespace, out: _Output) -> int:
    out.report.update({"a": args.a, "b": args.b})
    left = _read_ts(args.a)
    right = _read_ts(args.b)
    mapping = deterministic_isomorphism(left, right)
    if mapping is None:
        out.say("not isomorphic", answer=False, isomorphism=None)
        return out.flush(1)
    out.say("isomorphic", answer=True, isomorphism=dict(mapping))
    for src in left.states:
        out.lines.append(f"  {src} -> {mapping[src]}")
    return out.flush(0)


def _witness_text(joined_name: str, atom, regions: list[Region]) -> str:
    lines = [f"# witness regions for {joined_name}"]
    lines.append(f".atom {atom.kind} {atom.left} {atom.right}")
    for i, region in enumerate(regions):
        lines.append(f".region r{i}")
        lines.extend(f".sup {s} {v}" for s, v in region.sup.items())
        lines.extend(
            f".sig {e} {format_event(v)}" for e, v in region.sig.items()
        )
    return "\n".join(lines) + "\n"


def _cmd_reduce(args: argparse.Namespace, out: _Output) -> int:
    out.report.update(
        {"variant": args.variant, "bound": args.b, "input": args.input}
    )
    phi = parse_formula(Path(args.input).read_text(encoding="utf-8"))
    union = build_union(phi, args.variant, args.b)
    # the model and its region (or the brute-force limit) before any write
    model = brute_model(phi) if args.emit_witness else None
    aw = None if model is None else alpha_witness_region(phi, model, args.variant, args.b, union)
    joined = join_union(union) if aw is None else aw.joined
    target = Path(args.output) if args.output else Path(args.input).with_suffix(".ts")
    target.write_text(serialize_ts(joined), encoding="utf-8")
    out.say(
        f"wrote {target} ({len(joined.states)} states, "
        f"{len(joined.events)} events); distinguished atom {union.alpha}",
        output=str(target), states=len(joined.states),
        events=len(joined.events), atom=str(union.alpha), answer=True,
    )
    witness_path = None
    if args.emit_witness:
        witness_path = Path(str(target) + ".witness")
        if aw is None:
            witness_path.write_text(
                "# formula has no one-in-three model; "
                "the distinguished atom is unsolvable\n",
                encoding="utf-8",
            )
            out.say(f"no model; wrote stub {witness_path}")
        else:
            witness_path.write_text(
                _witness_text(joined.name, aw.atom, [aw.region]),
                encoding="utf-8",
            )
            out.say(f"wrote witness {witness_path} (model {sorted(model)})")
    out.report.update(
        {
            "witness": str(witness_path) if witness_path else None,
            "model": None if model is None else sorted(model),
        }
    )
    return out.flush(0)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrisynth",
        description="Bounded Petri net synthesis from transition systems.",
    )
    parser.add_argument("--json", action="store_true", help="JSON report on stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # check and oracle decide the same question; only oracle takes --budget
    decision = argparse.ArgumentParser(add_help=False)
    decision.add_argument("--family", required=True, choices=FAMILIES)
    decision.add_argument("--b", required=True, type=int)
    decision.add_argument("--problem", required=True, choices=PROBLEMS)
    decision.add_argument("input")
    decision.set_defaults(budget=None)

    check = sub.add_parser("check", parents=[decision], help="decide a separation problem")
    check.set_defaults(handler=_cmd_check)

    synth = sub.add_parser("synthesize", help="rzpt net synthesis")
    synth.add_argument("--b", required=True, type=int)
    synth.add_argument("-o", "--output")
    synth.add_argument("--cap", type=int, default=DEFAULT_CAP)
    synth.add_argument("input")
    synth.set_defaults(handler=_cmd_synthesize)

    reach = sub.add_parser("reachability", help="net reachability graph")
    reach.add_argument("-o", "--output")
    reach.add_argument("--cap", type=int, default=DEFAULT_CAP)
    reach.add_argument("input")
    reach.set_defaults(handler=_cmd_reachability)

    iso = sub.add_parser("iso", help="deterministic TS isomorphism")
    iso.add_argument("a")
    iso.add_argument("b")
    iso.set_defaults(handler=_cmd_iso)

    oracle = sub.add_parser("oracle", parents=[decision], help="exhaustive decision")
    oracle.add_argument("--budget", type=int)
    oracle.set_defaults(handler=_cmd_oracle)

    reduce_ = sub.add_parser("reduce", help="hardness instance generation")
    reduce_.add_argument("--variant", required=True, choices=VARIANTS)
    reduce_.add_argument("--b", required=True, type=int)
    reduce_.add_argument("-o", "--output")
    reduce_.add_argument("--emit-witness", action="store_true")
    reduce_.add_argument("input")
    reduce_.set_defaults(handler=_cmd_reduce)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    out = _Output(args.json, args.subcommand)
    try:
        return args.handler(args, out)
    except BudgetExceeded as exc:
        out.say(f"inconclusive: {exc}", answer=None, failing=None,
                checked=exc.checked)
        return out.flush(2)
    except (ValueError, CapExceeded, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed self-check or a bug must not exit 1, the justified no
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
