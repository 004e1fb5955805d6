"""Scale reference: one traced round trip of a 2187-state input.

    python3 perfbench/scale.py [--seed N]

The input is the reachability graph of a 7-place group-heavy rzpt net at
b=2, taken through the roundtrip workload's synthesize -> reachability ->
iso flow once, traced.  Prints the per-layer split as one JSON object.
It takes about a minute and is not one of the gated workloads; its
output is kept in reference.json as the scale row.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import checkout  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description="traced 2187-state round trip")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    checkout.use_source()
    import tracing
    import worker
    import workloads

    warnings.filterwarnings("ignore", message="connector name collides", category=UserWarning)
    tmp = checkout.SCRATCH / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        bench = workloads.Roundtrip(args.seed, tmp, schedule=[(2, 7)])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, outputs, _ = worker.one_pass(bench, tracer)
        finally:
            tracer.uninstall()
        metrics, errors = tracing.layer_metrics(tracer, "bench.pass")
        correct = worker.failures(bench, outputs) == 0 and not errors
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    states, events, arcs, atoms = bench.shapes[0]
    print(json.dumps({
        "input": {"places": 7, "bound": 2, "seed": args.seed, "states": states, "events": events, "arcs": arcs, "atoms": atoms},
        "correct": correct,
        "errors": errors,
        "metrics": {k: v for k, v in metrics.items() if v},
    }, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
