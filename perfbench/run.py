"""Benchmark of petrisynth: four seeded workloads, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is roundtrip, zcheck, oracle or hardness, or `all` for each of them
one after another, untraced and traced.  With --trace 0 the run reports
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  Every metric is printed by name and unit; the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.

Set-up time is the median over SETUP_REPS fresh processes: the measuring
one and SETUP_REPS - 1 that only set up.  Outputs that fail their check
count in `failed`, and any failure makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

WORKLOADS = ("roundtrip", "zcheck", "oracle", "hardness")
SETUP_REPS = 7
TIME_LIMIT_S = 170
WORKER = Path(__file__).resolve().with_name("worker.py")


def spec() -> dict:
    return json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result; its other
    stdout lines are passed on."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=checkout.ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: worker {' '.join(argv)} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def bench(workload: str, seed: int, seconds: int, traced: bool, deadline: float) -> dict:
    """Result object of one workload run, as printed on the last line."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not traced:
        for _ in range(SETUP_REPS - 1):
            setups.append(worker([*argv, "--setup-only"], deadline)["setup_s"])
    result = worker([*argv, "--trace", str(int(traced))], deadline)
    values = result["metrics"]
    if not traced:
        values["setup_s"] = statistics.median([*setups, result["setup_s"]])
    listed = spec()["per_layer" if traced else "end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise SystemExit(f"error: measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in listed})}")
    print(result["info"])
    for message in result["errors"]:
        print(f"check failed: {message}")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="petrisynth benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    checkout.use_source()
    start = time.monotonic()
    if args.workload != "all":
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), start + TIME_LIMIT_S)
        print(json.dumps(result))
        return 0
    runs = {}
    for name in WORKLOADS:
        for traced in (False, True):
            runs[f"{name}/trace{int(traced)}"] = bench(name, args.seed, args.seconds, traced, time.monotonic() + TIME_LIMIT_S)
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
