"""Command-line front end.

Exit codes: 0 for a yes answer or successful artifact, 1 for a justified
no, 2 for errors and inconclusive runs (bad input, exhausted budgets,
family/problem combinations with no decider).  `--json` swaps the human
lines for a single JSON object on stdout; warnings still go to stderr.
"""

from __future__ import annotations

import argparse
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
from .polysynth import decide_essp_rzpt, decide_ssp, synthesize_rzpt
from .reduction import (
    VARIANTS,
    alpha_witness_region,
    brute_model,
    build_union,
    joining,
    linear_joining,
)
from .regions import Region
from .ts import PROBLEMS, deterministic_isomorphism

BUDGET_ENV = "PETRISYNTH_BUDGET"


def _env_budget() -> Optional[int]:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


def _oracle_budget(flag: Optional[int] = None) -> OracleBudget:
    if flag is not None:
        if flag < 1:
            raise ValueError(f"--budget must be positive, got {flag}")
        return OracleBudget(flag)
    from_env = _env_budget()
    if from_env is not None:
        return OracleBudget(from_env)
    return OracleBudget()


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


def _cmd_check(args: argparse.Namespace) -> int:
    out = _Output(args.json, "check")
    out.report.update(
        {"family": args.family, "bound": args.b, "problem": args.problem,
         "input": args.input}
    )
    ts = _read_ts(args.input)
    tau = make_type(args.family, args.b)
    if args.family in ("pt", "ppt"):
        out.say(
            f"no polynomial decider for {args.problem} over {args.family}; "
            "use the oracle subcommand for an exhaustive answer",
            answer=None, failing=None, method=None,
        )
        return out.flush(2)
    if args.problem == "ssp":
        rep = decide_ssp(ts, tau)
        answer, failing, method = rep.holds, rep.failing, "polynomial"
    elif args.family == "rzpt":
        essp = decide_essp_rzpt(ts, args.b)
        if args.problem == "essp":
            answer, failing = essp.holds, essp.failing
        else:
            ssp = decide_ssp(ts, tau) if essp.holds else essp
            answer = essp.holds and ssp.holds
            failing = essp.failing if not essp.holds else ssp.failing
        method = "polynomial"
    else:
        warnings.warn(
            f"{args.problem} over {args.family} has no polynomial decider; "
            "falling back to the exhaustive oracle"
        )
        try:
            rep = oracle_decide(ts, tau, args.problem, _oracle_budget())
        except BudgetExceeded as exc:
            out.say(f"inconclusive: {exc}", answer=None, failing=None,
                    method="oracle", checked=exc.checked)
            return out.flush(2)
        answer, failing, method = rep.answer, rep.failing, "oracle"
    verdict = "yes" if answer else "no"
    detail = f" (unsolvable: {failing})" if failing is not None else ""
    out.say(
        f"{args.problem} over {args.family} at b={args.b}: {verdict}{detail}",
        method=method, **_answer_fields(answer, failing),
    )
    return out.flush(0 if answer else 1)


def _cmd_synthesize(args: argparse.Namespace) -> int:
    out = _Output(args.json, "synthesize")
    out.report.update({"bound": args.b, "input": args.input})
    ts = _read_ts(args.input)
    rep = synthesize_rzpt(ts, args.b, cap=args.cap)
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


def _cmd_reachability(args: argparse.Namespace) -> int:
    out = _Output(args.json, "reachability")
    out.report.update({"input": args.input})
    net = parse_net(Path(args.input).read_text(encoding="utf-8"))
    graph = reachability_graph(net, cap=args.cap)
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


def _cmd_iso(args: argparse.Namespace) -> int:
    out = _Output(args.json, "iso")
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


def _cmd_oracle(args: argparse.Namespace) -> int:
    out = _Output(args.json, "oracle")
    out.report.update(
        {"family": args.family, "bound": args.b, "problem": args.problem,
         "input": args.input}
    )
    ts = _read_ts(args.input)
    tau = make_type(args.family, args.b)
    try:
        rep = oracle_decide(ts, tau, args.problem, _oracle_budget(args.budget))
    except BudgetExceeded as exc:
        out.say(f"inconclusive: {exc}", answer=None, failing=None,
                checked=exc.checked)
        return out.flush(2)
    verdict = "yes" if rep.answer else "no"
    detail = f" (unsolvable: {rep.failing})" if rep.failing is not None else ""
    out.say(
        f"{args.problem} over {args.family} at b={args.b}: {verdict}{detail} "
        f"[{rep.checked} candidates]",
        checked=rep.checked, **_answer_fields(rep.answer, rep.failing),
    )
    return out.flush(0 if rep.answer else 1)


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


def _cmd_reduce(args: argparse.Namespace) -> int:
    out = _Output(args.json, "reduce")
    out.report.update(
        {"variant": args.variant, "bound": args.b, "input": args.input}
    )
    phi = parse_formula(Path(args.input).read_text(encoding="utf-8"))
    union = build_union(phi, args.variant, args.b)
    joined = (
        joining(union) if args.variant == "z-essp" else linear_joining(union)
    )
    target = Path(args.output) if args.output else Path(args.input).with_suffix(".ts")
    target.write_text(serialize_ts(joined), encoding="utf-8")
    out.say(
        f"wrote {target} ({len(joined.states)} states, "
        f"{len(joined.events)} events); distinguished atom {union.alpha}",
        output=str(target), states=len(joined.states),
        events=len(joined.events), atom=str(union.alpha), answer=True,
    )
    witness_path = None
    model = None
    if args.emit_witness:
        model = brute_model(phi)
        witness_path = Path(str(target) + ".witness")
        if model is None:
            witness_path.write_text(
                "# formula has no one-in-three model; "
                "the distinguished atom is unsolvable\n",
                encoding="utf-8",
            )
            out.say(f"no model; wrote stub {witness_path}")
        else:
            aw = alpha_witness_region(phi, model, args.variant, args.b)
            witness_path.write_text(
                _witness_text(joined.name, aw.atom, [aw.region]),
                encoding="utf-8",
            )
            out.say(f"wrote witness {witness_path} (model {sorted(model)})")
    out.report.update(
        {
            "witness": str(witness_path) if witness_path else None,
            "model": sorted(model) if model else None,
        }
    )
    return out.flush(0)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrisynth",
        description="Bounded Petri net synthesis from transition systems.",
    )
    parser.add_argument("--json", action="store_true", help="JSON report on stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    check = sub.add_parser("check", help="decide a separation problem")
    check.add_argument("--family", required=True, choices=FAMILIES)
    check.add_argument("--b", required=True, type=int)
    check.add_argument("--problem", required=True, choices=PROBLEMS)
    check.add_argument("input")
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

    oracle = sub.add_parser("oracle", help="exhaustive decision")
    oracle.add_argument("--family", required=True, choices=FAMILIES)
    oracle.add_argument("--b", required=True, type=int)
    oracle.add_argument("--problem", required=True, choices=PROBLEMS)
    oracle.add_argument("--budget", type=int)
    oracle.add_argument("input")
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
    try:
        return args.handler(args)
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
