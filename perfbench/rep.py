"""One cold repetition (or the once-per-run preparation) of a workload.

Started by ``run.py`` as a fresh interpreter, so no page cache, GeoIP
memo or module state survives from an earlier repetition.  Writes one
JSON result file; the parent reads it after this process has exited.
A :class:`~speed.SpeedProbe` runs from the first line on; every time in
the result is in reference seconds (see ``speed.py``), with the measured
wall seconds alongside under ``raw_*``.

    python3 perfbench/rep.py --workload NAME --seed N --run-dir DIR \\
        --out FILE [--prepare | --setup-only] [--rep-dir DIR] [--trace]
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

from speed import SpeedProbe, mean_speed  # noqa: E402

PROBE = SpeedProbe().start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _install_worker_probes(directory: str):
    """Make every scan-engine worker sample host speed and record its RSS.

    Wraps the engine's worker initializer (looked up at pool creation,
    inherited by the forked workers) so each worker starts a
    :class:`~speed.SpeedProbe` and registers an exit finalizer writing
    its samples and ``ru_maxrss`` to ``directory``.  Returns an undo.
    """
    from multiprocessing import util

    from repro.lumscan import engine

    original = engine._process_worker_init

    def _write(probe: SpeedProbe) -> None:
        probe.stop()
        base = os.path.join(directory, f"worker-{os.getpid()}")
        with open(base + ".rss", "w") as handle:
            handle.write(str(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss))
        with open(base + ".speed", "w") as handle:
            json.dump(probe.samples, handle)

    def init(*args, **kwargs):
        original(*args, **kwargs)
        util.Finalize(None, _write, args=(SpeedProbe().start(),),
                      exitpriority=100)

    engine._process_worker_init = init

    def undo() -> None:
        engine._process_worker_init = original

    return undo


def _worker_files(directory: str, suffix: str):
    for name in sorted(os.listdir(directory)):
        if name.endswith(suffix):
            with open(os.path.join(directory, name)) as handle:
                yield handle.read()


def _stop_resource_tracker() -> None:
    """Stop (and reap) the shared-memory tracker process, if one started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def prepare(args) -> dict:
    from workloads import WORKLOADS

    notes = WORKLOADS[args.workload].prepare(args.seed, args.run_dir,
                                             PROBE.reference_seconds)
    now = time.perf_counter()
    return {"seconds": PROBE.reference_seconds(STARTED, now),
            "raw_seconds": now - STARTED, "notes": notes}


def repetition(args) -> dict:
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, tree_bytes

    workload = WORKLOADS[args.workload]
    os.makedirs(args.rep_dir, exist_ok=True)
    state = workload.setup(args.seed, args.run_dir, args.rep_dir)
    set_up = time.perf_counter()
    setup_s = PROBE.reference_seconds(STARTED, set_up)
    if args.setup_only:
        shutil.rmtree(args.rep_dir)
        return {"setup_s": setup_s, "raw_setup_s": set_up - STARTED}

    worker_dir = os.path.join(args.rep_dir, "workers")
    os.makedirs(worker_dir)
    undo_probe = _install_worker_probes(worker_dir)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    error = None
    outcome = None
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(layers.ROOT):
                outcome = workload.run(state)
        else:
            outcome = workload.run(state)
    except Exception:
        error = traceback.format_exc()
    finally:
        ended = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        undo_probe()
    raw_wall_s = ended - started
    samples = list(PROBE.samples)
    for text in _worker_files(worker_dir, ".speed"):
        samples.extend(json.loads(text))
    speed = mean_speed(samples, started, ended)
    wall_s = raw_wall_s * (speed if speed is not None else 1.0)

    if outcome is not None:
        try:
            checks = workload.check(state, outcome)
        except Exception:
            error = traceback.format_exc()
            checks = {"check.raised": False}
    else:
        checks = {"run.raised": False}
    parent_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_setup_s": set_up - STARTED,
        "raw_wall_s": raw_wall_s,
        "speed": speed,
        "requests": outcome.requests if outcome is not None else 0,
        "peak_rss_mb": (parent_kib + sum(
            int(text) for text in _worker_files(worker_dir, ".rss"))) / 1024.0,
        "checks": checks,
        "error": error,
    }
    if tracer is not None and outcome is not None:
        checkpoints = state.get("checkpoints")
        per_layer = layers.derive(
            tracer, wall_s=raw_wall_s, requests=outcome.requests,
            stage_stats=outcome.stage_stats, init_stats=outcome.init_stats,
            artifact_bytes=tree_bytes(checkpoints) if checkpoints else 0)
        # Every span nests under the root, so self times sum to its length.
        root_s = tracer.stats[layers.ROOT][1]
        checks["trace.self_times_sum_to_wall"] = (
            abs(tracer.self_total() - root_s) <= 1e-6 * max(1.0, root_s)
            and abs(root_s - raw_wall_s) <= 0.01 * raw_wall_s + 0.01)
        result["per_layer"] = per_layer
        tracer.dump(os.path.join(args.rep_dir, "spans.json"))
    checkpoints = state.get("checkpoints")
    if checkpoints and os.path.isdir(checkpoints):
        shutil.rmtree(checkpoints)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--rep-dir")
    parser.add_argument("--out", required=True)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    try:
        result = prepare(args) if args.prepare else repetition(args)
    finally:
        PROBE.stop()
        _stop_resource_tracker()
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
