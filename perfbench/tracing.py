"""Span tracing of petrisynth from outside the package.

install() replaces the public functions of each module with wrappers,
in every petrisynth module that binds them, so callers pick the wrapper
up wherever they look the name up.  A wrapper records one span (name,
start, end, parent span, instance id) in flat arrays kept in memory.
Hot leaf functions are only counted: `solves` once per calling module,
and polysynth's private `_cover` loop, whose calls are the atoms visited.
A span per call there would cost more than the call itself.

A layer's self time is the duration of its spans minus the time covered
by their direct child spans, so the self times of all spans, including
the benchmark's own pass and instance spans, add up to the pass time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "fileio", "polysynth", "modsolve", "regions", "oracle", "ts", "nets", "reduction")

SPANNED = {
    "cli": ("main",),
    "fileio": ("parse_ts", "parse_net", "parse_formula", "serialize_ts", "serialize_net"),
    "polysynth": (
        "build_spanning",
        "fundamental_cycle",
        "base_system",
        "decide_ssa",
        "decide_ssp",
        "decide_essa_rzpt",
        "decide_essp_rzpt",
        "synthesize_rzpt",
    ),
    "modsolve": ("solve", "reduce_rows"),
    "regions": ("validate_region", "support_from_signature", "synthesized_net"),
    "oracle": ("oracle_decide",),
    "ts": ("ssa_atoms", "essa_atoms", "enumerate_atoms", "deterministic_isomorphism"),
    "nets": ("reachability_graph",),
    "reduction": ("build_union", "joining", "linear_joining", "alpha_witness_region", "ppt_essp_witness"),
}


def _add(key, amount):
    return lambda counts, result: counts.update({key: amount(result)})


# Counts taken from return values, keyed by span name.
RESULT_COUNTS = {
    "modsolve.solve": _add("modsolve.solve_hits", lambda r: r is not None),
    "regions.support_from_signature": _add("regions.support_hits", lambda r: r is not None),
    "oracle.oracle_decide": _add("oracle.candidates", lambda r: r.checked),
    "ts.ssa_atoms": _add("ts.atoms", len),
    "ts.essa_atoms": _add("ts.atoms", len),
    "nets.reachability_graph": _add("nets.markings", lambda r: len(r.states)),
    "polysynth.decide_ssp": _add("polysynth.regions", lambda r: len(r.witness.regions) if r.holds else 0),
    "polysynth.decide_essp_rzpt": _add("polysynth.regions", lambda r: len(r.witness.regions) if r.holds else 0),
    "reduction.alpha_witness_region": _add("reduction.regions", lambda r: 1),
    "reduction.ppt_essp_witness": _add("reduction.regions", lambda r: len(r[1].regions)),
}


class Tracer:
    """Spans and counts of traced passes; install() before, uninstall() after."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.instance = -1
        self._useful_region = None
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for column in (self.span_name, self.span_parent, self.span_instance, self.span_start, self.span_end):
            del column[:]
        self.counts.clear()
        self.instance = -1
        self._useful_region = None

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"petrisynth.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "petrisynth"]
        for layer, attrs in SPANNED.items():
            module = layers[layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                self._patch(modules, getattr(module, attr), lambda ns, fn, name=name: self._spanned(name, fn))
        self._patch(modules, layers["regions"].solves, self._counted_solves)
        polysynth = layers["polysynth"]
        self._patch([polysynth], polysynth._cover, lambda ns, fn: self._counted("polysynth.atoms_visited", fn))
        system = layers["modsolve"].ModSystem
        self._patches.append((system, "__post_init__", system.__post_init__))
        system.__post_init__ = self._spanned("modsolve.build", system.__post_init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, modules, original, make) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, make(module.__name__.split(".")[-1], original))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _spanned(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, instances = self.span_name, self.span_parent, self.span_instance
        starts, ends, stack, counts = self.span_start, self.span_end, self.stack, self.counts
        clock = time.perf_counter
        hook = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            instances.append(self.instance)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_solves(self, namespace: str, fn):
        if namespace != "oracle":
            return self._counted(f"solves@{namespace}", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(region, tau, atom):
            counts["solves@oracle"] += 1
            hit = fn(region, tau, atom)
            # the oracle tests one candidate against all open atoms in a
            # row, so a new solving region is one the witness takes
            if hit and region is not self._useful_region:
                self._useful_region = region
                counts["oracle.useful"] += 1
            return hit

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Span around benchmark code, e.g. a pass or one instance."""
        nid = self._name_id(name)
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[i] = time.perf_counter()
            self.stack.pop()

    def times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self time, total time and span count per span name."""
        own = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        for i, (start, end) in enumerate(zip(self.span_start, self.span_end)):
            duration = end - start
            nid = names[i]
            own[nid] += duration
            total[nid] += duration
            calls[nid] += 1
            if parents[i] >= 0:
                own[names[parents[i]]] -= duration
        return (
            dict(zip(self.names, own)),
            dict(zip(self.names, total)),
            dict(zip(self.names, calls)),
        )

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\tinstance\n")
            for i, (start, end) in enumerate(zip(self.span_start, self.span_end)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{start:.9f}\t{end:.9f}\t"
                    f"{self.span_parent[i]}\t{self.span_instance[i]}\n"
                )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, pass_name: str) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the consistency errors found.

    pass_name is the benchmark's root span; every other span nests in it.
    """
    own, total, calls = tracer.times()
    counts = tracer.counts
    errors = []
    if tracer.stack != [-1] or calls.get(pass_name) != 1:
        errors.append("spans not nested in a single pass span")
    if min(own.values(), default=0.0) < -1e-9:
        errors.append("a span's children cover more than the span")
    wall = total.get(pass_name, 0.0)

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    fresh = n("polysynth.decide_ssa", "polysynth.decide_essa_rzpt")
    visited = counts["polysynth.atoms_visited"]
    metrics = {
        "polysynth.cover_probes": counts["solves@polysynth"],
        "polysynth.ssp_s": s("polysynth.decide_ssp"),
        "polysynth.essp_s": s("polysynth.decide_essp_rzpt"),
        "polysynth.cycle_calls": n("polysynth.fundamental_cycle"),
        "polysynth.cycle_s": s("polysynth.fundamental_cycle"),
        "polysynth.merge_s": s("polysynth.synthesize_rzpt"),
        "polysynth.spanning_s": s("polysynth.build_spanning"),
        "polysynth.fresh_searches": fresh,
        "polysynth.atoms_visited": visited,
        "polysynth.reuse_ratio": 1.0 - fresh / visited if visited else 0.0,
        "polysynth.regions": counts["polysynth.regions"],
        "modsolve.solve_calls": n("modsolve.solve"),
        "modsolve.solve_s": s("modsolve.solve"),
        "modsolve.solve_hit_ratio": _ratio(counts["modsolve.solve_hits"], n("modsolve.solve")),
        "modsolve.reduce_calls": n("modsolve.reduce_rows"),
        "modsolve.reduce_s": s("modsolve.reduce_rows"),
        "modsolve.build_s": s("modsolve.build"),
        "regions.solves_calls": sum(v for k, v in counts.items() if k.startswith("solves@")),
        "regions.validate_calls": n("regions.validate_region"),
        "regions.validate_s": s("regions.validate_region"),
        "regions.net_s": s("regions.synthesized_net"),
        "regions.support_calls": n("regions.support_from_signature"),
        "regions.support_s": s("regions.support_from_signature"),
        "regions.support_hit_ratio": _ratio(
            counts["regions.support_hits"], n("regions.support_from_signature")
        ),
        "oracle.candidates": counts["oracle.candidates"],
        "oracle.candidates_per_s": _ratio(counts["oracle.candidates"], total.get("oracle.oracle_decide", 0.0)),
        "oracle.useful_ratio": _ratio(counts["oracle.useful"], counts["oracle.candidates"]),
        "ts.atoms": counts["ts.atoms"],
        "ts.atoms_s": s("ts.ssa_atoms", "ts.essa_atoms", "ts.enumerate_atoms"),
        "ts.iso_s": s("ts.deterministic_isomorphism"),
        "nets.rg_s": s("nets.reachability_graph"),
        "nets.markings": counts["nets.markings"],
        "fileio.parse_s": s("fileio.parse_ts", "fileio.parse_net", "fileio.parse_formula"),
        "fileio.serialize_s": s("fileio.serialize_ts", "fileio.serialize_net"),
        "cli.self_s": s("cli.main"),
        "reduction.union_s": s("reduction.build_union", "reduction.joining", "reduction.linear_joining"),
        "reduction.alpha_s": s("reduction.alpha_witness_region"),
        "reduction.ppt_witness_s": s("reduction.ppt_essp_witness"),
        "reduction.regions": counts["reduction.regions"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    uncovered = sum(v for k, v in own.items() if k.split(".")[0] not in LAYERS)
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_s"] = uncovered
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + uncovered
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        errors.append(f"self times add up to {accounted:.6f} s, pass took {wall:.6f} s")
    return metrics, errors
