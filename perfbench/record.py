#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/NAME.json \\
        [--workloads suite-fresh,scan-process] [--trace-seed 7]

Runs ``run.py`` once per (workload, seed) with ``run_seconds`` from
BENCHMARK.json, then reports per metric the median of the runs and the
spread: the distance between the first and third quartile as a share
of the median.  ``--trace-seed`` adds one traced run per workload.
The record carries the CPU count and Python version it was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - started
    result["notes"] = {}
    for line in lines:
        if line.startswith("notes: "):
            result["notes"].update(json.loads(line[len("notes: "):]))
        elif line.startswith(f"{workload} seed="):
            # The summary line: raw wall time and host speed ride along.
            fields = dict(field.split("=", 1) for field in line.split()[1:])
            for key in ("raw_wall_s", "host_speed"):
                result["notes"][key] = float(fields[key])
    return result


def _summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "machine": platform.machine(),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = [_run(name, seed, spec["run_seconds"], 0)
                for seed in _seeds(args.seeds)]
        entry = {"seeds": _seeds(args.seeds),
                 "failed": sum(r["failed"] for r in runs),
                 "elapsed_s": [round(r["elapsed_s"], 1) for r in runs],
                 "metrics": {}}
        for metric in runs[0]["metrics"]:
            summary = _summary([r["metrics"][metric]["value"] for r in runs])
            summary["bound"] = bounds[metric]
            entry["metrics"][metric] = summary
            print(f"{name} {metric}: median={summary['median']:.4f} "
                  f"spread={summary['spread']:.4f} "
                  f"(bound {bounds[metric]})", flush=True)
        print(f"{name} failed_checks={entry['failed']}", flush=True)
        for note in runs[0]["notes"]:
            entry.setdefault("notes", {})[note] = _summary(
                [r["notes"][note] for r in runs])
        if args.trace_seed is not None:
            traced = _run(name, args.trace_seed, spec["run_seconds"], 1)
            entry["failed"] += traced["failed"]
            entry["per_layer"] = {"seed": args.trace_seed, **{
                metric: value["value"]
                for metric, value in traced["metrics"].items()}}
        record["workloads"][name] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
