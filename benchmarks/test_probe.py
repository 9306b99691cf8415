"""Probe-path benchmark: length-only fast lane + process sharding.

Two claims from the probe fast lane are measured here on fresh ``small``
worlds (cold page caches, the state a real scan starts from):

* **Fast lane**: a single-worker scan with the default
  ``BodyPolicy.lengths_over(BODY_KEEP_THRESHOLD)`` must push at least 2x
  the probes/sec of a full-materialization scan.  The win comes from
  ``page_length`` replaying ``generate_page``'s RNG draws without
  building the page, plus skipping the jitter concatenation for bodies
  the dataset would drop anyway.
* **Process sharding**: at 4 workers the process pool (columnar shard
  exchange, streaming merge) must beat a plain serial scan on wall
  clock.  The assertion is gated on ``os.cpu_count() >= 2``; the timings
  are recorded unconditionally, including a 1/2/4-worker scaling
  curve.

Throughputs land in ``BENCH_probe.json`` at the repo root so CI keeps a
trajectory across commits.
"""

from __future__ import annotations

import time

from bench_util import (
    cpu_count,
    oversubscription_fields,
    oversubscription_note,
    worker_rss_fields,
    write_trajectory,
)
from repro.httpsim.messages import BodyPolicy
from repro.lumscan.engine import ScanEngine
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.websim.world import World, WorldConfig

WORLD_SEED = 7
SCAN_SEED = 9
DOMAINS = 300
COUNTRIES = 3
#: The pool-vs-serial comparison uses a wider country slice so the scan
#: is long enough to amortize each process worker's one-time world load.
EXECUTOR_COUNTRIES = 20
SAMPLES = 3
WORKERS = 4
MIN_FASTLANE_SPEEDUP = 2.0


def _fresh_world() -> World:
    """A new small world per measurement: cold page/length caches."""
    return World(WorldConfig.small(seed=WORLD_SEED))


def _scan_slice(world, n_countries=COUNTRIES):
    urls = [d.url for d in world.population.top(2 * DOMAINS)
            if not d.dead and not d.redirect_loop][:DOMAINS]
    countries = LuminatiClient(world).countries()[:n_countries]
    return urls, countries


def _rows(data):
    return [data.row(i) for i in range(len(data))]


def _timed_scan(scanner_factory, repeat: int = 2, n_countries=COUNTRIES):
    """Best-of-``repeat`` scan, each against a freshly built world.

    A fresh world per repeat keeps the page caches cold — the state a
    real scan starts from — while best-of filters scheduler noise.
    """
    best_rate, best_elapsed, data = 0.0, float("inf"), None
    for _ in range(repeat):
        world = _fresh_world()
        urls, countries = _scan_slice(world, n_countries)
        scanner = scanner_factory(world)
        started = time.perf_counter()
        data = scanner.scan(urls, countries, samples=SAMPLES)
        elapsed = time.perf_counter() - started
        if elapsed < best_elapsed:
            best_elapsed = elapsed
            best_rate = len(data) / elapsed
    return data, best_rate, best_elapsed


def test_fast_lane_speedup_single_worker():
    full, full_rate, full_time = _timed_scan(
        lambda world: Lumscan(LuminatiClient(world), seed=SCAN_SEED,
                              body_policy=BodyPolicy.full()))
    fast, fast_rate, fast_time = _timed_scan(
        lambda world: Lumscan(LuminatiClient(world), seed=SCAN_SEED))

    # Correctness first: the fast lane changes nothing the dataset keeps.
    assert _rows(fast) == _rows(full)

    speedup = fast_rate / full_rate
    print(f"\nfast lane: full {full_rate:,.0f} probes/s ({full_time:.2f}s), "
          f"elided {fast_rate:,.0f} probes/s ({fast_time:.2f}s), "
          f"speedup {speedup:.2f}x")
    write_trajectory("probe", "fast_lane_single_worker", {
        "probes": len(full),
        "full_probes_per_sec": round(full_rate, 1),
        "fastlane_probes_per_sec": round(fast_rate, 1),
        "speedup": round(speedup, 2),
    })
    assert speedup >= MIN_FASTLANE_SPEEDUP, (
        f"expected >= {MIN_FASTLANE_SPEEDUP}x fast-lane speedup, "
        f"got {speedup:.2f}x")


def _process_engine_factory(workers: int, engines=None):
    """Engine factory; ``engines`` (a list) collects every built engine so
    the caller can read worker-init stats off the one that ran."""
    def factory(world):
        engine = ScanEngine(Lumscan(LuminatiClient(world), seed=SCAN_SEED),
                            workers=workers)
        if engines is not None:
            engines.append(engine)
        return engine
    return factory


def test_executor_scaling():
    cpus = cpu_count()
    serial, serial_rate, _ = _timed_scan(
        lambda world: Lumscan(LuminatiClient(world), seed=SCAN_SEED),
        n_countries=EXECUTOR_COUNTRIES)
    process_engines = []
    processed, process_rate, process_time = _timed_scan(
        _process_engine_factory(WORKERS, process_engines),
        n_countries=EXECUTOR_COUNTRIES)

    assert _rows(processed) == _rows(serial)

    # The multi-core scaling curve across worker counts.
    # Single-repeat per point keeps the curve affordable; the headline
    # numbers above stay best-of-2.  Every point carries the shared
    # cpu-count/oversubscription fields (see bench_util) — on a 1-CPU
    # runner a 4-worker entry measures process overhead, not scaling,
    # and must not be read as "parallelism loses to serial".
    curve = []
    for workers in sorted({1, 2, WORKERS, min(WORKERS, cpus)}):
        if workers == WORKERS:
            point, rate, elapsed = processed, process_rate, process_time
            engine = process_engines[-1]
        else:
            engines = []
            point, rate, elapsed = _timed_scan(
                _process_engine_factory(workers, engines),
                repeat=1, n_countries=EXECUTOR_COUNTRIES)
            assert _rows(point) == _rows(serial)
            engine = engines[-1]
        curve.append({"workers": workers,
                      "probes_per_sec": round(rate, 1),
                      "seconds": round(elapsed, 2),
                      **oversubscription_fields(workers),
                      **worker_rss_fields(engine)})

    print(f"\nexecutors ({cpus} cpus, {WORKERS} workers): "
          f"serial {serial_rate:,.0f} probes/s, "
          f"process {process_rate:,.0f} probes/s ({process_time:.2f}s)")
    for point in curve:
        tag = " [oversubscribed]" if point["oversubscribed"] else ""
        print(f"  {point['workers']} workers: "
              f"{point['probes_per_sec']:,.0f} probes/s{tag}")
    payload = {
        "cpus": cpus,
        "workers": WORKERS,
        "probes": len(serial),
        "serial_probes_per_sec": round(serial_rate, 1),
        "process_probes_per_sec": round(process_rate, 1),
        "scaling_curve": curve,
    }
    if any(point["oversubscribed"] for point in curve):
        payload["note"] = oversubscription_note(WORKERS)
    write_trajectory("probe", "executor_scaling", payload)
    if cpus >= 2:
        # With the shard exchange the pool must beat a plain serial scan
        # outright — the multi-core win the exchange exists for.
        assert process_rate >= serial_rate, (
            f"process pool ({process_rate:,.0f}/s) should beat a serial "
            f"scan ({serial_rate:,.0f}/s) on {cpus} cpus")
