"""Lumscan: reliability features layered over the raw Luminati API (§3.2).

Lumscan improves raw proxy measurements four ways, all reproduced here:

1. **Connectivity verification** — before using an exit node, fetch the
   Luminati echo page; exits that cannot reach it are discarded.  The echo
   response also yields the exit's IP and geolocation for bookkeeping.
2. **Retries** — failed requests are repeated a configurable number of
   times on a *different* exit, collapsing transient proxy noise.
3. **Full browser headers** — merely setting User-Agent does not suppress
   bot detection (the §3.1 ZGrab lesson), so Lumscan sends a complete
   browser header set by default (caller-overridable).
4. **Load balancing / rotation** — at most ``requests_per_exit`` requests
   are sent through any exit before rotating, bounding per-user resource
   consumption; requests are spread round-robin across superproxies.

Scan-shaped work (``scan`` / ``resample``) runs through the task model of
:mod:`repro.lumscan.engine`: each (country, url, sample) probe owns a
derived RNG and its own exit-rotation state, so the dataset a scan
produces is a pure function of the seed and the task list — independent
of execution order, and therefore shardable across the engine's worker
pool without changing a single byte of output.
"""

from __future__ import annotations

import logging
import random
import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

logger = logging.getLogger("repro.lumscan")

from repro.httpsim.messages import BodyPolicy, Headers
from repro.httpsim.useragent import browser_headers
from repro.lumscan.engine import (
    ProbeTask,
    ScanEngine,
    WorkerBuildInfo,
    WorkerInitStats,
    record_probe,
)
from repro.lumscan.records import BODY_KEEP_THRESHOLD, ScanDataset
from repro.netsim.errors import NoExitAvailable
from repro.proxynet.luminati import ExitNode, LuminatiClient, ProbeResult
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.rng import derive_rng
from repro.websim.world import WorldConfig
from repro.websim.worldpack import WorldPack, WorldPackHandle, freeze_world


@dataclass(frozen=True)
class LumscanConfig:
    """Tuning for a Lumscan run."""

    retries: int = 2                 # extra attempts after a failure
    requests_per_exit: int = 10      # rotation threshold (§3.2)
    superproxies: int = 8            # parallel mediating superproxies
    verify_exits: bool = True        # echo-page connectivity pre-check
    max_redirects: int = 10


@dataclass(frozen=True)
class ScannerSpec:
    """A picklable recipe for rebuilding a scanner in another process.

    Everything that determines a scanner's behaviour is derived from seeds
    and frozen configs, so shipping this spec (instead of the scanner's
    megabytes of lazily-built world state) and rebuilding once per worker
    process yields a replica whose probe outcomes are bit-identical — the
    same per-task derived-RNG contract that makes sharding safe.

    ``world_source``, when set, points at a frozen worldpack (see
    :mod:`repro.websim.worldpack`): the worker maps it zero-copy instead
    of rebuilding the world.  The pack is an optimization, never a
    dependency — if the mapping fails (unlinked block, missing file,
    fingerprint mismatch, platform without shareable segments) the
    worker falls back to the spec rebuild, which produces bit-identical
    probe outcomes by construction.
    """

    world_config: WorldConfig
    luminati_seed: int
    exits_per_country: int
    scanner_seed: int
    config: LumscanConfig
    header_items: Tuple[Tuple[str, str], ...]
    body_policy: Optional[BodyPolicy]
    world_source: Optional[WorldPackHandle] = None

    def build(self) -> "Lumscan":
        """Construct the scanner replica (called once per worker process)."""
        return self.build_timed(SYSTEM_CLOCK)[0]

    def build_timed(self, clock: Clock) -> Tuple["Lumscan", WorkerBuildInfo]:
        """Like :meth:`build`, but reports how the world came to be.

        The returned :class:`WorkerBuildInfo` carries the world's actual
        source ("pack" when the worldpack mapped, "build" after the
        rebuild fallback) and the wall seconds the world step took,
        measured on the injectable ``clock``.
        """
        from repro.websim.world import World

        stopwatch = clock.stopwatch()
        world = None
        if self.world_source is not None:
            try:
                from repro.websim.worldpack import load_world

                world = load_world(self.world_source)
            except (OSError, ValueError) as exc:
                logger.debug("worldpack %s unavailable (%s); rebuilding",
                             self.world_source.ref, exc)
        if world is None:
            world = World(self.world_config)
        info = WorkerBuildInfo(source=world.source,
                               build_seconds=stopwatch.elapsed())
        luminati = LuminatiClient(world, seed=self.luminati_seed,
                                  exits_per_country=self.exits_per_country)
        scanner = Lumscan(luminati, config=self.config,
                          headers=Headers(list(self.header_items)),
                          seed=self.scanner_seed, body_policy=self.body_policy)
        return scanner, info


@dataclass
class RotationState:
    """Exit-rotation bookkeeping for one probe stream.

    Scan tasks each own a fresh state (per-task rotation); the legacy
    ``probe()`` entry point keeps one long-lived instance state.
    """

    exit_node: Optional[ExitNode] = None
    uses: int = 0
    country: Optional[str] = None


class Lumscan:
    """Scanning tool built on a :class:`LuminatiClient`."""

    def __init__(self, luminati: LuminatiClient,
                 config: Optional[LumscanConfig] = None,
                 headers: Optional[Headers] = None,
                 seed: int = 0,
                 body_policy: Optional[BodyPolicy] = None) -> None:
        self._luminati = luminati
        self._config = config or LumscanConfig()
        self._headers = headers or browser_headers()
        self._seed = seed
        self._rng = derive_rng(seed, "lumscan")
        self._rotation = RotationState()
        # Scan tasks only keep lengths of large 200-bodies (ScanDataset
        # drops them past BODY_KEEP_THRESHOLD), so by default they declare
        # that and let the origin elide exactly those bodies.  Pass
        # BodyPolicy.full() to force materialization; ad-hoc probe() calls
        # always materialize.
        self._task_body_policy = (body_policy if body_policy is not None
                                  else BodyPolicy.lengths_over(BODY_KEEP_THRESHOLD))
        self.superproxy_loads = [0] * self._config.superproxies
        self._superproxy_cursor = 0
        self._superproxy_lock = threading.Lock()
        self._worker_init_stats = WorkerInitStats()

    # ------------------------------------------------------------------ #

    def probe(self, url: str, country: str, epoch: int = 0,
              rng: Optional[random.Random] = None) -> ProbeResult:
        """One logical measurement: verified exit, retries, rotation.

        Without ``rng`` this consumes the scanner's shared stream and
        long-lived rotation state (ad-hoc probing).  With ``rng`` the probe
        is self-contained: private rotation state, every draw from the
        caller's rng — the form scan tasks use.
        """
        if rng is None:
            return self._probe(url, country, epoch, self._rng, self._rotation)
        return self._probe(url, country, epoch, rng, RotationState())

    def run_task(self, task: ProbeTask) -> ProbeResult:
        """Execute one scan task with its derived RNG (engine entry point)."""
        return self._probe(task.url, task.country, task.epoch,
                           self.task_rng(task), RotationState(),
                           body_policy=self._task_body_policy)

    def task_rng(self, task: ProbeTask) -> random.Random:
        """The private RNG owned by one scan task.

        Seeded from the task's full identity, so any worker that picks the
        task up draws the identical stream.
        """
        return derive_rng(self._seed, "task", task.country, task.domain,
                          task.sample_idx, task.epoch)

    def scan(self, urls: Sequence[str], countries: Sequence[str],
             samples: int = 3, epoch: int = 0,
             dataset: Optional[ScanDataset] = None,
             workers: int = 1) -> ScanDataset:
        """Probe every (country, domain) pair ``samples`` times.

        Results for a pair are appended contiguously, which downstream
        consumers (``ScanDataset.pairs``) rely on.  ``workers`` > 1 shards
        the task space across a process pool via :class:`ScanEngine`;
        the output is identical to ``workers=1`` for any count.
        """
        return ScanEngine(self, workers=workers).scan(
            urls, countries, samples=samples, epoch=epoch, dataset=dataset)

    def resample(self, pairs: Iterable, samples: int, epoch: int = 0,
                 dataset: Optional[ScanDataset] = None,
                 workers: int = 1) -> ScanDataset:
        """Re-probe specific (domain, country) pairs ``samples`` times."""
        return ScanEngine(self, workers=workers).resample(
            pairs, samples, epoch=epoch, dataset=dataset)

    # ------------------------------------------------------------------ #
    # Process-pool support

    def spawn_spec(self,
                   world_source: Optional[WorldPackHandle] = None
                   ) -> ScannerSpec:
        """The picklable recipe a worker process rebuilds this scanner from.

        ``world_source`` optionally points workers at a frozen worldpack
        to map instead of rebuilding the world (see
        :meth:`freeze_world_pack`).
        """
        luminati = self._luminati
        return ScannerSpec(
            world_config=luminati.world.config,
            luminati_seed=luminati.seed,
            exits_per_country=luminati.exits_per_country,
            scanner_seed=self._seed,
            config=self._config,
            header_items=tuple(self._headers.items()),
            body_policy=self._task_body_policy,
            world_source=world_source,
        )

    def freeze_world_pack(self, directory: Optional[str] = None) -> WorldPack:
        """Freeze this scanner's world for zero-copy worker mapping.

        The caller owns the returned pack and must ``release()`` it once
        the pool is done (the engine does this in its ``finally``).
        """
        return freeze_world(self._luminati.world, directory=directory)

    def worker_counts(self) -> Tuple[int, int]:
        """(requests, fetches) served so far — delta source for workers."""
        return (self._luminati.request_count,
                self._luminati.world.fetch_count)

    def worker_init_stats(self) -> WorkerInitStats:
        """Accumulated worker spawn/world-build costs absorbed so far."""
        return self._worker_init_stats

    def absorb_worker_counts(self, requests: int, fetches: int,
                             token: Optional[str] = None,
                             init_stats: Optional[WorkerInitStats] = None
                             ) -> None:
        """Fold a worker replica's traffic deltas into this scanner's stats.

        ``token``, when given, identifies the batch of deltas; absorbing
        the same token twice raises, so a retried chunk can never
        double-count traffic totals.  ``init_stats`` additionally folds
        the pool's worker spawn-time/world-build-time accounting into
        :meth:`worker_init_stats` (sums, except ``rss_peak_bytes`` which
        takes the max).
        """
        self._luminati.absorb_worker_counts(requests, fetches, token=token)
        if init_stats is not None and init_stats.spawned:
            prior = self._worker_init_stats
            self._worker_init_stats = WorkerInitStats(
                spawned=prior.spawned + init_stats.spawned,
                spawn_seconds=prior.spawn_seconds + init_stats.spawn_seconds,
                build_seconds=prior.build_seconds + init_stats.build_seconds,
                pack_loads=prior.pack_loads + init_stats.pack_loads,
                rss_peak_bytes=max(prior.rss_peak_bytes,
                                   init_stats.rss_peak_bytes),
            )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _domain_of(url: str) -> str:
        host = url.split("://", 1)[-1].split("/", 1)[0]
        return host[4:] if host.startswith("www.") else host

    def _probe(self, url: str, country: str, epoch: int,
               rng: random.Random, state: RotationState,
               body_policy: Optional[BodyPolicy] = None) -> ProbeResult:
        attempts = 1 + self._config.retries
        result: Optional[ProbeResult] = None
        for _ in range(attempts):
            rotate = (
                state.exit_node is None
                or state.country != country
                or state.uses >= self._config.requests_per_exit
            )
            if rotate:
                try:
                    state.exit_node = self._pick_verified_exit(country, rng)
                except NoExitAvailable as exc:
                    return ProbeResult(url=url, country=country, response=None,
                                       error=exc.kind)
                state.uses = 0
                state.country = country
            state.uses += 1
            self._balance_superproxy()
            result = self._luminati.request(
                url, country, headers=self._headers, exit_node=state.exit_node,
                max_redirects=self._config.max_redirects, epoch=epoch, rng=rng,
                body_policy=body_policy)
            if result.ok:
                return result
            # Rotate away from the failing exit before retrying.
            state.exit_node = None
        assert result is not None
        return result

    def _pick_verified_exit(self, country: str,
                            rng: random.Random) -> ExitNode:
        for _ in range(5):
            node = self._luminati.pick_exit(country, rng=rng)
            if not self._config.verify_exits:
                return node
            echo = self._luminati.verify_connectivity(node)
            if echo.get("ip"):
                return node
        return self._luminati.pick_exit(country, rng=rng)

    def _balance_superproxy(self) -> int:
        # Round-robin by counter: O(1) instead of an O(superproxies) min()
        # scan, and trivially balanced (loads never differ by more than 1).
        with self._superproxy_lock:
            index = self._superproxy_cursor
            self._superproxy_cursor = (index + 1) % len(self.superproxy_loads)
            self.superproxy_loads[index] += 1
            return index

    # Kept as an alias so existing callers/tests that append probe results
    # to datasets keep working; the implementation lives in the engine.
    _record = staticmethod(record_probe)
