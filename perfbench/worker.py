"""One workload in a fresh process: set up, measure, check the outputs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this script; its last stdout line is one JSON object for
run.py to read.  Set-up time runs from the top of this file (before the
package is imported) until the instance set and its temp files exist,
scaled like the instance times (see REF_S).

A pass runs every instance of the workload's fixed set once.  Passes
repeat until the next one would end past --seconds, with at least
MIN_PASSES.  Outputs are checked after each pass, outside its timing.
wall_s, the time of one pass, is the sum over instances of each
instance's median (scaled, see REF_S) time across the passes, and
instance_p50_ms the median of these per-instance medians.
With --trace 1, untraced and traced passes alternate; the traced ones
give the per-layer metrics and the untraced ones the tracing overhead.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = {False: 3, True: 2}
# The machine's speed swings by up to 1.7x for tens of seconds on a
# shared VM, whole runs included.  Untraced instance times and set-up
# times are therefore scaled to a fixed speed: multiplied by REF_S over
# the time a reference slice takes around them.  REF_S is the slice time in
# a quiet spell of the 2-vCPU VM the bounds were measured on.
REF_LOOPS = 20_000
REF_S = 0.006
CALIBRATE_EVERY_S = 0.1
TAIL_LADDER = (99.9, 99, 98, 95, 90, 80, 75, 50)
FAILED = object()


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of `samples` beyond it.

    Fixed per workload (samples = instances x the minimum pass count), so
    the metric means the same thing however many passes a run makes.
    """
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= 10:
            return p
    return TAIL_LADDER[-1]


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def reference_slice() -> float:
    """Seconds for a fixed piece of dict, tuple and integer work, the kind
    of work petrisynth does.  Taken between instances, it tracks how fast
    the machine runs at the moment."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(REF_LOOPS):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + 1
        acc = (i * 7 + acc) % 11
    return time.perf_counter() - start


def one_pass(workload, tracer=None, calibrate=False):
    """(per-instance seconds, outputs, per-instance reference seconds) of
    one pass.  With calibrate, a reference slice runs before the first
    instance, after the last and between instances every CALIBRATE_EVERY_S;
    an instance's reference time is the mean of the slices around it.
    Without, the reference times are None.
    """
    span = tracer.span if tracer else lambda name: nullcontext()
    times, outputs, marks = [], [], []
    last = -math.inf
    with span("bench.pass"):
        for i, instance in enumerate(workload.instances):
            if calibrate and time.perf_counter() - last >= CALIBRATE_EVERY_S:
                marks.append((i, reference_slice()))
                last = time.perf_counter()
            if tracer:
                tracer.instance = i
            with span("bench.instance"):
                t = time.perf_counter()
                try:
                    out = workload.run(instance)
                except Exception:
                    traceback.print_exc()
                    out = FAILED
                times.append(time.perf_counter() - t)
            outputs.append(out)
    if not calibrate:
        return times, outputs, [None] * len(times)
    marks.append((len(times), reference_slice()))
    refs, k = [], 0
    for i in range(len(times)):
        while marks[k + 1][0] <= i:
            k += 1
        refs.append((marks[k][1] + marks[k + 1][1]) / 2)
    return times, outputs, refs


def failures(workload, outputs) -> int:
    bad = 0
    for instance, out in zip(workload.instances, outputs):
        try:
            ok = out is not FAILED and workload.verify(instance, out)
        except Exception:
            traceback.print_exc()
            ok = False
        bad += not ok
    return bad


def measure(workload, seconds: float, traced: bool, trace_path: Path) -> dict:
    tracer = tracing.Tracer() if traced else None
    modes = (False, True) if traced else (False,)
    walls = {mode: [] for mode in modes}
    per_instance = [[] for _ in workload.instances]
    layers, errors = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        mode = modes[sum(map(len, walls.values())) % len(modes)]
        cycle = time.perf_counter()
        if mode:
            tracer.reset()
            tracer.install()
        try:
            times, outputs, refs = one_pass(workload, tracer if mode else None, calibrate=not mode)
        finally:
            if mode:
                tracer.uninstall()
        walls[mode].append(sum(times))
        if mode:
            metrics, errs = tracing.layer_metrics(tracer, "bench.pass")
            layers.append(metrics)
            errors.extend(errs)
        else:
            for column, t, ref in zip(per_instance, times, refs):
                column.append(t * REF_S / ref)
        attempted += len(outputs)
        failed += failures(workload, outputs)
        cycle = time.perf_counter() - cycle
        done = all(len(walls[m]) >= MIN_PASSES[traced] for m in modes)
        if done and time.perf_counter() + cycle > deadline:
            break
    result = {"attempted": attempted, "failed": failed, "errors": errors}
    if traced:
        for key, value in layers[0].items():
            if isinstance(value, int) and any(m[key] != value for m in layers):
                errors.append(f"count {key} differs between traced passes")
        metrics = {
            key: value if isinstance(value, int) else statistics.median(m[key] for m in layers)
            for key, value in layers[0].items()
        }
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        tracer.write(trace_path)
        result["info"] = f"{len(walls[True])} traced and {len(walls[False])} untraced passes; spans of the last traced pass in {trace_path}"
    else:
        pct = tail_percentile(len(workload.instances) * MIN_PASSES[False])
        samples = [t for column in per_instance for t in column]
        # each instance's median over the passes filters out a pass that a
        # slow spell of the machine hit; the median over instances of these
        # does not flip between the two instances around the middle
        typical = [statistics.median(column) for column in per_instance]
        metrics = {
            "wall_s": sum(typical),
            "instance_p50_ms": 1000 * statistics.median(typical),
            "instance_tail_ms": 1000 * percentile(samples, pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["info"] = (
            f"{len(walls[False])} passes, unscaled median pass {statistics.median(walls[False]):.4f} s; "
            f"instance_tail_ms is p{pct:g} of {len(samples)} "
            f"instance samples; failed_frac {failed / attempted:g} of {attempted} attempted"
        )
    result["metrics"] = metrics
    return result


def shape_summary(shapes) -> str:
    parts = []
    for label, column in zip(("states", "events", "arcs", "atoms"), zip(*shapes)):
        parts.append(f"{label} {min(column)}..{max(column)} (sum {sum(column)})")
    return f"{len(shapes)} inputs; " + ", ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    checkout.use_source()
    import petrisynth
    import workloads

    if not Path(petrisynth.__file__).resolve().is_relative_to(checkout.ROOT / "src"):
        raise SystemExit(f"error: petrisynth imported from {petrisynth.__file__}")
    warnings.filterwarnings("ignore", message="connector name collides", category=UserWarning)
    tmp = checkout.SCRATCH / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        setup_s = time.perf_counter() - START
        # scaled like the instance times, by slices right after set-up
        setup_s *= REF_S / statistics.mean(reference_slice() for _ in range(2))
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            print(f"{args.workload} seed {args.seed}: {shape_summary(workload.shapes)}, {len(workload.instances)} instances a pass")
            trace_path = checkout.SCRATCH / f"trace-{args.workload}.tsv"
            result = measure(workload, args.seconds, bool(args.trace), trace_path)
            result["setup_s"] = setup_s
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
