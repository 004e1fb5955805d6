"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

Runs every workload traced twice with the same seed and checks that both
runs are correct (which includes that each traced pass's self times plus
its uncovered time add up to its wall time) and that every count metric
is identical between the two runs.  Prints each layer's share of the
traced pass time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import checkout
from run import WORKLOADS
from tracing import LAYERS

RUN = Path(__file__).resolve().with_name("run.py")


def traced(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=checkout.ROOT, check=True, timeout=180)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="traced-run self-test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    bad = 0
    for workload in WORKLOADS:
        first, second = (traced(workload, args.seed, args.seconds) for _ in range(2))
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
        again = {k: second["metrics"][k]["value"] for k in counts}
        problems = [k for k in counts if counts[k] != again[k]]
        if not (first["correct"] and second["correct"]):
            problems.append("a traced run is not correct")
        print(f"{workload}: {len(counts)} counts {'identical' if not problems else 'FAILED ' + ', '.join(problems)}")
        wall = first["metrics"]["trace.wall_s"]["value"]
        shares = {layer: first["metrics"][f"{layer}.self_s"]["value"] / wall for layer in LAYERS}
        print("  share of traced pass: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.001))
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
