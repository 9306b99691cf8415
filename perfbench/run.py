#!/usr/bin/env python3
"""The repository benchmark: three workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see ``workloads.py``):

* ``suite-fresh``  - the tiny reproduction suite (``run_experiments.py
  --scale tiny``: 1,200 domains x 28 countries, serial), checkpointing
  into an empty directory.  Exercises the staged probe path and
  checkpoint writes.
* ``suite-resume`` - the same suite resumed over checkpoints a fresh run
  wrote during set-up.  Exercises checkpoint reads and the unstaged work.
* ``scan-process`` - ``ScanEngine(executor="process", workers=nproc)``
  over a top-domain slice of the small world, cold caches.  Exercises the
  process pool, shard exchange, worldpack and streaming merge.

Each repetition is a fresh interpreter with a freshly built world (and a
fresh checkpoint directory where needed).  Another repetition starts
while it is expected to fit in ``--seconds`` of timed work (there is at
least one); the metrics are medians over them.  The world is fixed;
``--seed`` seeds the study and scanner randomness.  ``--trace 1`` adds
one traced repetition that wraps each ``repro.*`` layer's entry points
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object.

Times are *reference seconds*: wall seconds rescaled by the host speed
sampled throughout the region (``speed.py``), because the shared host's
speed swings by up to 2x for stretches of seconds.  The raw wall seconds
and the host speed are printed alongside, and reported per layer.

End-to-end metrics (``--trace 0``):

* ``setup_s``      - once-per-run preparation (suite-resume: the
  checkpoint-writing fresh run; scan-process: the serial reference scan)
  plus the median per-process set-up (imports, world build, checkpoint
  copy), sampled in every repetition and, up to three samples, in
  set-up-only processes.
* ``wall_s``       - median timed region.
* ``probes_per_s`` - median of Luminati requests / timed region.
* ``peak_rss_mb``  - median peak RSS of the repetition process, plus the
  peaks of its scan-engine workers.

Failed output checks are the result's ``failed`` count (``correct`` is
false when any fails); a repetition that raises counts as a failed check.
Scratch files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("suite-fresh", "suite-resume", "scan-process")
PREPARES = {"suite-resume", "scan-process"}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("probes_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
#: Least set-up samples per run: every repetition, topped up with
#: set-up-only processes.
SETUP_SAMPLES = 3
#: Whole-run ceiling on waiting for any one child process.
CHILD_TIMEOUT_S = 170.0


class ChildFailed(Exception):
    """A preparation or repetition process did not produce a result."""


def _child(args, env, out_path: str, deadline: float) -> dict:
    """Run ``rep.py`` with ``args``; return its JSON result."""
    log_path = out_path + ".log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"), *args,
             "--out", out_path],
            stdout=log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # The child leads its own session: this also ends its workers.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ChildFailed(f"timed out; see {log_path}")
    if code != 0 or not os.path.exists(out_path):
        raise ChildFailed(f"exit code {code}; see {log_path}")
    with open(out_path) as handle:
        return json.load(handle)


def tally(results) -> tuple:
    """(checks attempted, checks failed) over repetition results."""
    attempted = failed = 0
    for result in results:
        attempted += len(result["checks"])
        failed += sum(1 for ok in result["checks"].values() if not ok)
        if result["error"]:
            print(result["error"], file=sys.stderr)
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program source at ./src/repro; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    run_dir = os.path.join(root, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-{os.getpid()}")
    if os.path.exists(run_dir):
        shutil.rmtree(run_dir)
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--run-dir", run_dir]

    reps = []
    traced = None
    prepared = {"seconds": 0.0, "notes": {}}
    try:
        if args.workload in PREPARES:
            prepared = _child(common + ["--prepare"], env,
                              os.path.join(run_dir, "prepare.json"),
                              deadline)
        measured = 0.0
        while not reps or measured + statistics.mean(
                r["wall_s"] for r in reps) <= args.seconds:
            index = len(reps)
            rep = _child(common + ["--rep-dir",
                                   os.path.join(run_dir, f"rep{index}")],
                         env, os.path.join(run_dir, f"rep{index}.json"),
                         deadline)
            reps.append(rep)
            measured += rep["wall_s"]
        # Every repetition is a set-up sample; top up to SETUP_SAMPLES.
        setups = [
            _child(common + ["--setup-only", "--rep-dir",
                             os.path.join(run_dir, f"setup{index}")],
                   env, os.path.join(run_dir, f"setup{index}.json"),
                   deadline)["setup_s"]
            for index in range(max(0, SETUP_SAMPLES - len(reps)))]
        if args.trace:
            traced = _child(common + ["--rep-dir",
                                      os.path.join(run_dir, "traced"),
                                      "--trace"],
                            env, os.path.join(run_dir, "traced.json"),
                            deadline)
    except ChildFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        # Keep results, logs and spans; drop checkpoints and temp files.
        shutil.rmtree(tmp, ignore_errors=True)
        for parent, dirs, _ in os.walk(run_dir):
            if "checkpoints" in dirs:
                dirs.remove("checkpoints")
                shutil.rmtree(os.path.join(parent, "checkpoints"),
                              ignore_errors=True)

    attempted, failed = tally(reps + ([traced] if traced else []))

    walls = [r["wall_s"] for r in reps]
    end_to_end = {
        "setup_s": prepared["seconds"] + statistics.median(
            setups + [r["setup_s"] for r in reps]),
        "wall_s": statistics.median(walls),
        "probes_per_s": statistics.median(r["requests"] / r["wall_s"]
                                          for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    raw_wall_s = statistics.median(r["raw_wall_s"] for r in reps)
    speed = statistics.median(r["speed"] or 1.0 for r in reps)
    print(f"{args.workload} seed={args.seed} reps={len(reps)} "
          f"failed_checks={failed}/{attempted} "
          + " ".join(f"{k}={v:.4f}" for k, v in end_to_end.items())
          + f" raw_wall_s={raw_wall_s:.4f} host_speed={speed:.4f}")
    if prepared["notes"]:
        print("notes: " + json.dumps(prepared["notes"], sort_keys=True))
    for rep in reps + ([traced] if traced else []):
        for name, ok in sorted(rep["checks"].items()):
            if not ok:
                print(f"  failed check: {name}")

    if args.trace:
        # A traced repetition that raised has no layer numbers; its failed
        # check already marks the result incorrect.
        per_layer = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
        per_layer.update(traced.get("per_layer", {}))
        per_layer["trace.overhead_ratio"] = (
            traced["wall_s"] / statistics.median(walls))
        per_layer["host.raw_wall_s"] = raw_wall_s
        per_layer["host.speed"] = speed
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        metrics = {name: {"value": per_layer[name], "unit": units[name]}
                   for name, _, _, _ in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump({"reps": reps, "traced": traced, "prepared": prepared},
                  handle, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
