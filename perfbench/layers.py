"""Per-layer boundaries, the per-layer metric table, and their derivation.

:func:`install` wraps the public entry points of each ``repro.*`` layer
with a :class:`~tracer.Tracer`; :func:`derive` turns the tracer's sums
plus a few program-side facts (stage stats, request count, worker init
stats) into the per-layer metrics listed in :data:`PER_LAYER`.

Every ``.s`` metric is inclusive time at that boundary (outermost calls
only), except ``websim.world.fetch.s``, which is self time: the fetch
minus the page synthesis, GeoIP and RNG spans inside it.
``lumscan.engine.merge.s`` spans ``ScanEngine._merge_payload`` (open,
extend and release of each worker shard) and ``lumscan.engine.wait.s``
the engine's ``wait`` on worker futures.  ``.calls``
counts calls made in the benchmark's own process; scan-engine workers run
untraced, so on ``scan-process`` their share shows only through
``worker_init_stats()`` and the parent-side engine spans.

:data:`PER_LAYER` also records, per metric, which end-to-end metric on
which workload it is expected to move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: The twelve study stages, as (study, stage) in run order.
STAGES: Tuple[Tuple[str, str], ...] = (
    ("top10k", "safe-list"), ("top10k", "country-ranking"),
    ("top10k", "initial-scan"), ("top10k", "outliers"),
    ("top10k", "discovery"), ("top10k", "candidate-resample"),
    ("top10k", "confirm"), ("top1m", "customer-id"), ("top1m", "sample"),
    ("top1m", "scan"), ("top1m", "explicit-confirm"),
    ("top1m", "nonexplicit-confirm"),
)

_FRESH, _RESUME, _SCAN = "suite-fresh", "suite-resume", "scan-process"
_ALL = (_FRESH, _RESUME, _SCAN)

#: (metric, unit, better, [(end-to-end metric, workload), ...]).
PER_LAYER: List[Tuple[str, str, str, List[Tuple[str, str]]]] = [
    *[(f"run.stage.{study}.{stage}.s", "s", "lower", [("wall_s", _FRESH)])
      for study, stage in STAGES],
    ("run.unstaged_s", "s", "lower", [("wall_s", _RESUME)]),
    ("run.checkpoint_hits", "count", "higher", [("wall_s", _RESUME)]),
    ("run.artifacts.save_stage.s", "s", "lower", [("wall_s", _FRESH)]),
    ("run.artifacts.load_stage.s", "s", "lower", [("wall_s", _RESUME)]),
    ("run.artifacts.bytes", "bytes", "lower",
     [("wall_s", _FRESH), ("wall_s", _RESUME)]),
    ("lumscan.scanner.run_task.calls", "count", "lower",
     [("wall_s", _FRESH), ("probes_per_s", _FRESH)]),
    ("lumscan.scanner.run_task.s", "s", "lower",
     [("wall_s", _FRESH), ("probes_per_s", _FRESH)]),
    ("lumscan.engine.scan.s", "s", "lower",
     [("wall_s", _SCAN), ("probes_per_s", _SCAN)]),
    ("lumscan.engine.resample.s", "s", "lower", [("wall_s", _FRESH)]),
    ("lumscan.engine.merge.s", "s", "lower", [("wall_s", _SCAN)]),
    ("lumscan.engine.wait.s", "s", "lower", [("wall_s", _SCAN)]),
    ("lumscan.engine.chunks", "count", "lower", [("wall_s", _SCAN)]),
    ("lumscan.engine.worker_spawn.s", "s", "lower", [("wall_s", _SCAN)]),
    ("lumscan.engine.worker_build.s", "s", "lower", [("wall_s", _SCAN)]),
    ("lumscan.engine.pack_loads", "count", "higher",
     [("peak_rss_mb", _SCAN)]),
    ("lumscan.engine.worker_rss_peak_mb", "MB", "lower",
     [("peak_rss_mb", _SCAN)]),
    ("proxynet.luminati.requests", "count", "lower",
     [("probes_per_s", w) for w in _ALL]),
    ("proxynet.luminati.verify_connectivity.calls", "count", "lower",
     [("wall_s", _FRESH)]),
    ("proxynet.luminati.verify_connectivity.s", "s", "lower",
     [("wall_s", _FRESH)]),
    ("proxynet.luminati.verify_per_probe", "ratio", "lower",
     [("wall_s", _FRESH)]),
    ("proxynet.transport.fetch_with_redirects.calls", "count", "lower",
     [("wall_s", _FRESH)]),
    ("proxynet.transport.fetch_with_redirects.s", "s", "lower",
     [("wall_s", _FRESH)]),
    ("proxynet.transport.hops_per_fetch", "ratio", "lower",
     [("wall_s", _FRESH)]),
    ("websim.world.fetch.calls", "count", "lower", [("wall_s", _FRESH)]),
    ("websim.world.fetch.s", "s", "lower", [("wall_s", _FRESH)]),
    ("websim.content.generate_page.calls", "count", "lower",
     [("wall_s", _RESUME)]),
    ("websim.content.generate_page.s", "s", "lower", [("wall_s", _RESUME)]),
    ("websim.content.page_length.calls", "count", "lower",
     [("wall_s", _FRESH)]),
    ("websim.content.page_length.s", "s", "lower", [("wall_s", _FRESH)]),
    ("websim.content.full_page_ratio", "ratio", "lower",
     [("wall_s", _RESUME)]),
    ("websim.worldpack.freeze_world.s", "s", "lower", [("wall_s", _SCAN)]),
    ("websim.worldpack.load_world.calls", "count", "higher",
     [("peak_rss_mb", _SCAN)]),
    ("netsim.geoip.lookup.calls", "count", "lower", [("wall_s", _FRESH)]),
    ("netsim.geoip.lookup.s", "s", "lower", [("wall_s", _FRESH)]),
    ("netsim.geoip.distinct_addresses", "count", "lower",
     [("peak_rss_mb", _SCAN)]),
    ("httpsim.messages.headers_created", "count", "lower",
     [("wall_s", _FRESH)]),
    ("httpsim.messages.headers_per_probe", "ratio", "lower",
     [("wall_s", _FRESH)]),
    ("util.rng.derive_rng.calls", "count", "lower",
     [("wall_s", w) for w in _ALL]),
    ("util.rng.derive_rng.s", "s", "lower", [("wall_s", w) for w in _ALL]),
    ("core.identify.identify_cdn_customers.calls", "count", "lower",
     [("wall_s", _RESUME)]),
    ("core.identify.identify_cdn_customers.s", "s", "lower",
     [("wall_s", _RESUME)]),
    ("core.classify.classify_body.calls", "count", "lower",
     [("wall_s", _FRESH)]),
    ("core.classify.classify_body.s", "s", "lower", [("wall_s", _FRESH)]),
    ("core.discovery.discover.s", "s", "lower", [("wall_s", _FRESH)]),
    ("core.resample.confirm_blocks.s", "s", "lower", [("wall_s", _FRESH)]),
    ("core.resample.draw_block_rates.s", "s", "lower",
     [("wall_s", _RESUME)]),
    ("core.timeouts.run_timeout_study.s", "s", "lower",
     [("wall_s", _RESUME)]),
    ("core.pipeline.build_observation_pools.s", "s", "lower",
     [("wall_s", _RESUME)]),
    ("core.pipeline.run_vps_exploration.s", "s", "lower",
     [("wall_s", _RESUME)]),
    ("datasets.ooni.generate.s", "s", "lower", [("wall_s", _RESUME)]),
    ("datasets.cloudflare_rules.generate.s", "s", "lower",
     [("wall_s", _RESUME)]),
    ("analysis.figures.s", "s", "lower", [("wall_s", _RESUME)]),
    ("analysis.tables.s", "s", "lower", [("wall_s", _RESUME)]),
    ("trace.overhead_ratio", "ratio", "lower", []),
    ("trace.wall_s", "s", "lower", []),
    ("trace.unattributed_s", "s", "lower", []),
    ("host.raw_wall_s", "s", "lower", []),
    ("host.speed", "ratio", "higher", []),
]

#: Name of the root span that covers a traced repetition's timed region.
ROOT = "bench.workload"

#: Timed boundaries: (span name, module, class or None, attr, store).
#: A class None wraps a module-level name at every ``repro`` module
#: binding it; ``store`` False rolls per-probe spans up.
_TIMED = [
    ("run.artifacts.save_stage", "repro.run.artifacts", "ArtifactStore",
     "save_stage", True),
    ("run.artifacts.load_stage", "repro.run.artifacts", "ArtifactStore",
     "load_stage", True),
    ("run.runner.run", "repro.run.runner", "StudyRunner", "run", True),
    ("lumscan.scanner.run_task", "repro.lumscan.scanner", "Lumscan",
     "run_task", False),
    ("lumscan.engine.scan", "repro.lumscan.engine", "ScanEngine", "scan",
     True),
    ("lumscan.engine.resample", "repro.lumscan.engine", "ScanEngine",
     "resample", True),
    ("lumscan.engine.merge", "repro.lumscan.engine", "ScanEngine",
     "_merge_payload", True),
    ("lumscan.engine.wait", "repro.lumscan.engine", None, "wait", True),
    ("proxynet.luminati.request", "repro.proxynet.luminati",
     "LuminatiClient", "request", False),
    ("proxynet.luminati.verify_connectivity", "repro.proxynet.luminati",
     "LuminatiClient", "verify_connectivity", False),
    ("proxynet.transport.fetch_with_redirects", "repro.proxynet.transport",
     None, "fetch_with_redirects", False),
    ("websim.world.fetch", "repro.websim.world", "World", "fetch", False),
    ("websim.content.generate_page", "repro.websim.content", None,
     "generate_page", False),
    ("websim.content.page_length", "repro.websim.content", None,
     "page_length", False),
    ("websim.worldpack.freeze_world", "repro.websim.worldpack", None,
     "freeze_world", True),
    ("websim.worldpack.load_world", "repro.websim.worldpack", None,
     "load_world", True),
    ("netsim.geoip.lookup", "repro.netsim.geoip", "GeoIPDatabase", "lookup",
     False),
    ("util.rng.derive_rng", "repro.util.rng", None, "derive_rng", False),
    ("core.identify.identify_cdn_customers", "repro.core.identify", None,
     "identify_cdn_customers", True),
    ("core.classify.classify_body", "repro.core.classify", None,
     "classify_body", False),
    ("core.discovery.discover", "repro.core.discovery", None, "discover",
     True),
    ("core.resample.confirm_blocks", "repro.core.resample", None,
     "confirm_blocks", True),
    ("core.resample.draw_block_rates", "repro.core.resample", None,
     "draw_block_rates", False),
    ("core.timeouts.run_timeout_study", "repro.core.timeouts", None,
     "run_timeout_study", True),
    ("core.pipeline.build_observation_pools", "repro.core.pipeline", None,
     "build_observation_pools", True),
    ("core.pipeline.run_vps_exploration", "repro.core.pipeline", None,
     "run_vps_exploration", True),
    ("datasets.ooni.generate", "repro.datasets.ooni", "OONICorpus",
     "generate", True),
    ("datasets.cloudflare_rules.generate", "repro.datasets.cloudflare_rules",
     "CloudflareRuleDataset", "generate", True),
]

#: Timed boundaries whose argument at this index is collected as a set.
_DISTINCT = {"netsim.geoip.lookup": 1}

#: Counted (untimed) boundaries: (counter, module, class, attr).
_COUNTED = [
    ("httpsim.messages.headers_created", "repro.httpsim.messages",
     "Headers", "__init__"),
    ("lumscan.engine.chunks", "repro.lumscan.engine", "ChunkAutotuner",
     "record"),
]

#: Modules whose figure or table functions all share one span name.
_FAMILIES = [
    ("analysis.figures", "repro.analysis.figures", "figure"),
    ("analysis.tables", "repro.analysis.tables", "table"),
]


def install(tracer) -> None:
    """Wrap every layer boundary with ``tracer`` (undo: ``uninstall``)."""
    import importlib
    import inspect

    for name, module_name, owner, attr, store in _TIMED:
        module = importlib.import_module(module_name)
        observe = (tracer.observer(name, _DISTINCT[name])
                   if name in _DISTINCT else None)

        def make(fn, name=name, store=store, observe=observe):
            return tracer.timed(name, fn, store=store, observe=observe)

        if owner is None:
            tracer.patch_function(module_name, attr, make)
        else:
            tracer.patch(getattr(module, owner), attr, make)
    for counter, module_name, owner, attr in _COUNTED:
        cls = getattr(importlib.import_module(module_name), owner)
        tracer.patch(cls, attr,
                     lambda fn, counter=counter: tracer.counted(counter, fn))
    for span, module_name, prefix in _FAMILIES:
        module = importlib.import_module(module_name)
        for attr, value in sorted(vars(module).items()):
            if (attr.startswith(prefix) and inspect.isfunction(value)
                    and value.__module__ == module_name):
                tracer.patch_function(
                    module_name, attr,
                    lambda fn, span=span: tracer.timed(span, fn))
    tracer.install()


def derive(tracer, *, wall_s: float, requests: int,
           stage_stats: Optional[Dict[str, List[dict]]] = None,
           init_stats=None, artifact_bytes: int = 0) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    All but ``trace.overhead_ratio`` and ``host.*``, which come from the
    untraced repetitions.  ``wall_s`` is the traced region's raw wall time.
    """
    stats = tracer.stats

    def calls(name: str) -> int:
        return int(stats.get(name, (0, 0.0, 0.0))[0])

    def inclusive(name: str) -> float:
        return float(stats.get(name, (0, 0.0, 0.0))[1])

    def own(name: str) -> float:
        return float(stats.get(name, (0, 0.0, 0.0))[2])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    stage_seconds = {}
    hits = 0
    for study, entries in (stage_stats or {}).items():
        for entry in entries:
            stage_seconds[(study, entry["stage"])] = float(entry["seconds"])
            hits += bool(entry["cache_hit"])
    for study, stage in STAGES:
        out[f"run.stage.{study}.{stage}.s"] = stage_seconds.get(
            (study, stage), 0.0)
    out["run.unstaged_s"] = wall_s - sum(stage_seconds.values())
    out["run.checkpoint_hits"] = hits
    out["run.artifacts.save_stage.s"] = inclusive("run.artifacts.save_stage")
    out["run.artifacts.load_stage.s"] = inclusive("run.artifacts.load_stage")
    out["run.artifacts.bytes"] = artifact_bytes

    out["lumscan.scanner.run_task.calls"] = calls("lumscan.scanner.run_task")
    out["lumscan.scanner.run_task.s"] = inclusive("lumscan.scanner.run_task")
    for key in ("scan", "resample", "merge", "wait"):
        out[f"lumscan.engine.{key}.s"] = inclusive(f"lumscan.engine.{key}")
    out["lumscan.engine.chunks"] = tracer.counts.get("lumscan.engine.chunks",
                                                     0)
    out["lumscan.engine.worker_spawn.s"] = (
        init_stats.spawn_seconds if init_stats else 0.0)
    out["lumscan.engine.worker_build.s"] = (
        init_stats.build_seconds if init_stats else 0.0)
    out["lumscan.engine.pack_loads"] = (
        init_stats.pack_loads if init_stats else 0)
    out["lumscan.engine.worker_rss_peak_mb"] = (
        init_stats.rss_peak_bytes / 2 ** 20 if init_stats else 0.0)

    verify = "proxynet.luminati.verify_connectivity"
    hop = "proxynet.transport.fetch_with_redirects"
    out["proxynet.luminati.requests"] = requests
    out[f"{verify}.calls"] = calls(verify)
    out[f"{verify}.s"] = inclusive(verify)
    out["proxynet.luminati.verify_per_probe"] = ratio(calls(verify),
                                                      requests)
    out[f"{hop}.calls"] = calls(hop)
    out[f"{hop}.s"] = inclusive(hop)
    hops = tracer.rollup.get((hop, "websim.world.fetch"), (0, 0.0, 0.0))[0]
    out["proxynet.transport.hops_per_fetch"] = ratio(hops, calls(hop))

    out["websim.world.fetch.calls"] = calls("websim.world.fetch")
    out["websim.world.fetch.s"] = own("websim.world.fetch")
    pages = calls("websim.content.generate_page")
    lengths = calls("websim.content.page_length")
    for key in ("generate_page", "page_length"):
        out[f"websim.content.{key}.calls"] = calls(f"websim.content.{key}")
        out[f"websim.content.{key}.s"] = inclusive(f"websim.content.{key}")
    out["websim.content.full_page_ratio"] = ratio(pages, pages + lengths)
    out["websim.worldpack.freeze_world.s"] = inclusive(
        "websim.worldpack.freeze_world")
    # Workers load the pack; the parent sees each load as a pack_load.
    out["websim.worldpack.load_world.calls"] = (
        calls("websim.worldpack.load_world")
        + (init_stats.pack_loads if init_stats else 0))

    out["netsim.geoip.lookup.calls"] = calls("netsim.geoip.lookup")
    out["netsim.geoip.lookup.s"] = inclusive("netsim.geoip.lookup")
    out["netsim.geoip.distinct_addresses"] = len(
        tracer.distinct.get("netsim.geoip.lookup", ()))
    headers = tracer.counts.get("httpsim.messages.headers_created", 0)
    out["httpsim.messages.headers_created"] = headers
    out["httpsim.messages.headers_per_probe"] = ratio(headers, requests)
    out["util.rng.derive_rng.calls"] = calls("util.rng.derive_rng")
    out["util.rng.derive_rng.s"] = inclusive("util.rng.derive_rng")

    for name in ("core.identify.identify_cdn_customers",
                 "core.classify.classify_body"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = inclusive(name)
    for name in ("core.discovery.discover", "core.resample.confirm_blocks",
                 "core.resample.draw_block_rates",
                 "core.timeouts.run_timeout_study",
                 "core.pipeline.build_observation_pools",
                 "core.pipeline.run_vps_exploration",
                 "datasets.ooni.generate",
                 "datasets.cloudflare_rules.generate",
                 "analysis.figures", "analysis.tables"):
        out[f"{name}.s"] = inclusive(name)

    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = own(ROOT)
    return out
