"""Parallel scan engine: deterministic sharding of the probe task space.

The studies cover a (country, url, sample) task space of millions of
probes (§3.2, §5).  :class:`ScanEngine` shards that space across a worker
pool while keeping a hard correctness contract: **the merged dataset is
identical — same records, same order — to a serial scan, for any worker
count**.  Two mechanisms make that possible:

1. **Per-task derived RNG.**  Every probe owns a private ``random.Random``
   seeded from ``(seed, country, domain, sample_idx, epoch)`` via
   :func:`repro.util.rng.derive_rng`, and that rng is threaded through the
   whole simulation stack (exit picking, path-failure rolls, bot
   heuristics, page rendering and jitter).  A probe's outcome is therefore
   a pure function of its task identity, never of which worker ran it or
   what ran before it.
2. **Deterministic sharding + ordered merge.**  Tasks are enumerated in
   the canonical serial order, split into contiguous chunks, and merged
   back in chunk order, so completion order is irrelevant.

The engine has exactly two execution paths, chosen by ``workers``:
``workers=1`` runs every task inline in the calling process, and
``workers>1`` ships task chunks to a ``ProcessPoolExecutor`` (the
simulated transport never blocks, so only processes buy parallelism).
Each worker process maps the parent's frozen worldpack (or, when
freezing fails, rebuilds the world from the picklable
:class:`~repro.lumscan.scanner.ScannerSpec`) once, then runs chunks
carved from the canonical task order.  Three mechanisms keep the
process pool's merge path off the critical path:

* **Columnar shard exchange**: workers serialize chunk results into flat
  binary segments (:mod:`repro.lumscan.shards` — shared-memory blocks,
  or mmap-able spill files where the platform has no POSIX shared
  memory) and return only a tiny handle; the parent maps each segment
  and bulk-extends its dataset with zero row decode.
* **Streaming merge**: chunk results are consumed *as they complete*
  (``FIRST_COMPLETED`` waits plus a :class:`ChunkReorderBuffer` that
  restores chunk-sequence order), so the parent never barriers on the
  pool and holds at most a bounded window of unmerged shards — parent
  memory stays flat.  Because merges still happen in sequence order,
  the merged bytes are identical to serial for any completion order.
* **Latency-driven chunk autotuning**: a :class:`ChunkAutotuner` sizes
  the next chunk from the observed probes/s so each chunk lands near
  :data:`DEFAULT_TARGET_CHUNK_SECONDS` of wall time (amortizing dispatch
  without starving the stream).
  Timing flows through the injectable :class:`repro.util.clock.Clock`,
  so tests drive it deterministically — and chunk boundaries never
  affect output bytes in the first place.
"""

from __future__ import annotations

import itertools
import logging
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

logger = logging.getLogger("repro.lumscan.engine")

from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.lumscan.shards import (
    ExchangeSpec,
    ShardExchange,
    ShardHandle,
    open_shard,
    release_shard,
    write_shard,
)
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.memory import rss_bytes

#: Tasks per work unit handed to the pool.  Small enough that the pool
#: load-balances uneven chunks, large enough to amortize dispatch.  The
#: pool treats this as the *initial* size and autotunes from there (see
#: :class:`ChunkAutotuner`).
DEFAULT_CHUNK_SIZE = 64

#: Outstanding chunks per worker: enough that a worker finishing early
#: always has a queued chunk, small enough to bound unmerged backlog.
PIPELINE_DEPTH = 2

#: Autotuning target: wall-time one chunk should take.
DEFAULT_TARGET_CHUNK_SECONDS = 0.25

#: Monotonic ids for stat-absorption tokens (see absorb_worker_counts).
_ABSORB_BATCH_IDS = itertools.count()


@dataclass(frozen=True)
class WorkerBuildInfo:
    """How one worker obtained its world replica, and how long it took."""

    source: str            # "pack" (mapped worldpack) or "build" (rebuilt)
    build_seconds: float   # wall time of the world load/rebuild alone


@dataclass(frozen=True)
class WorkerInitStats:
    """Accumulated worker-initialization costs for one scanner.

    ``spawn_seconds`` sums each worker's whole initializer (world plus
    client/scanner wiring); ``build_seconds`` the world portion alone.
    ``pack_loads`` counts workers that mapped a frozen worldpack instead
    of rebuilding; ``rss_peak_bytes`` is the largest post-init worker
    RSS observed (0 where the platform offers no reading).
    """

    spawned: int = 0
    spawn_seconds: float = 0.0
    build_seconds: float = 0.0
    pack_loads: int = 0
    rss_peak_bytes: int = 0


@dataclass(frozen=True)
class ProbeTask:
    """One unit of scan work: a single probe of (country, url, sample)."""

    country: str
    url: str
    domain: str
    sample_idx: int
    epoch: int = 0


def domain_of(url: str) -> str:
    """Registrable domain of a probe URL (www-stripped)."""
    host = url.split("://", 1)[-1].split("/", 1)[0]
    return host[4:] if host.startswith("www.") else host


def scan_tasks(urls: Sequence[str], countries: Sequence[str],
               samples: int, epoch: int = 0) -> List[ProbeTask]:
    """The canonical serial task ordering of ``Lumscan.scan``."""
    tasks: List[ProbeTask] = []
    for country in countries:
        for url in urls:
            domain = domain_of(url)
            for sample_idx in range(samples):
                tasks.append(ProbeTask(country=country, url=url, domain=domain,
                                       sample_idx=sample_idx, epoch=epoch))
    return tasks


def resample_tasks(pairs: Iterable[Tuple[str, str]], samples: int,
                   epoch: int = 0) -> List[ProbeTask]:
    """The canonical serial task ordering of ``Lumscan.resample``."""
    tasks: List[ProbeTask] = []
    for domain, country in pairs:
        url = f"http://{domain}/"
        for sample_idx in range(samples):
            tasks.append(ProbeTask(country=country, url=url, domain=domain,
                                   sample_idx=sample_idx, epoch=epoch))
    return tasks


def record_probe(data: ScanDataset, domain: str, country: str, result) -> None:
    """Append one ProbeResult to a dataset (shared by scanner and engine).

    A response whose body was elided under a
    :class:`~repro.httpsim.messages.BodyPolicy` carries ``body_length``
    instead of a body; only bodies the dataset would retain anyway are
    ever materialized, so both lanes append identical records.
    """
    if result.ok:
        response = result.response
        body = None if response.body_length is not None else response.body
        data.append(domain, country, response.status,
                    response.content_length, body,
                    interfered=result.interfered)
    else:
        data.append(domain, country, NO_RESPONSE, 0, None, error=result.error)


class ChunkReorderBuffer:
    """Reassembles out-of-order chunk completions into sequence order.

    Workers may finish chunks in any order; merge order must be chunk
    sequence order for the dataset bytes to match serial.  ``push``
    accepts a completed chunk by sequence number, ``pop_ready`` drains
    the contiguous prefix.  A sequence number can be pushed exactly
    once — a duplicate (e.g. a retried chunk) is rejected, so the same
    chunk's rows and stats can never be merged twice.
    """

    def __init__(self) -> None:
        self._next = 0
        self._held: Dict[int, object] = {}

    @property
    def pending(self) -> int:
        """Completed-but-unmerged chunks currently buffered."""
        return len(self._held)

    @property
    def next_seq(self) -> int:
        """The sequence number the next ``pop_ready`` item must carry."""
        return self._next

    def push(self, seq: int, item) -> None:
        """Buffer chunk ``seq``'s payload (duplicates are rejected)."""
        if seq < self._next or seq in self._held:
            raise ValueError(f"chunk {seq} was already merged or buffered")
        self._held[seq] = item

    def pop_ready(self) -> List:
        """Remove and return the contiguous ready prefix, in order."""
        ready: List = []
        while self._next in self._held:
            ready.append(self._held.pop(self._next))
            self._next += 1
        return ready

    def drain(self) -> List:
        """Remove and return everything held (error-path cleanup)."""
        items = [self._held[seq] for seq in sorted(self._held)]
        self._held.clear()
        return items


class ChunkAutotuner:
    """Latency-driven chunk sizing: resize toward a target wall-time.

    Each completed chunk reports ``(tasks, elapsed_seconds)``; the tuner
    keeps an exponentially-smoothed probes/s estimate and proposes
    ``rate * target_seconds`` tasks for the next chunk, clamped to at
    most double/halve per observation so one noisy chunk cannot whipsaw
    the stream.  The tuner is a pure function of the observations it is
    fed — driven by a :class:`~repro.util.clock.ManualClock` (elapsed
    values under test control, or frozen at zero) it is fully
    deterministic, and chunk boundaries never affect output bytes.
    """

    def __init__(self, initial: int, target_seconds: float,
                 min_size: int = 8, max_size: int = 8192,
                 smoothing: float = 0.5) -> None:
        if initial < 1:
            raise ValueError(f"initial chunk size must be >= 1, got {initial}")
        if not target_seconds > 0.0:
            raise ValueError(
                f"target_seconds must be > 0, got {target_seconds}")
        self._size = initial
        self._target = float(target_seconds)
        self._min = min_size
        self._max = max_size
        self._smoothing = smoothing
        self._rate: Optional[float] = None

    @property
    def rate(self) -> Optional[float]:
        """Smoothed observed probes/s (None before any observation)."""
        return self._rate

    def chunk_size(self) -> int:
        """Tasks the next submitted chunk should carry."""
        return self._size

    def record(self, tasks: int, elapsed: float) -> None:
        """Fold in one completed chunk's observed latency."""
        if tasks <= 0 or elapsed <= 0.0:
            return
        rate = tasks / elapsed
        self._rate = rate if self._rate is None else (
            self._smoothing * rate + (1.0 - self._smoothing) * self._rate)
        proposed = int(round(self._rate * self._target))
        proposed = min(proposed, self._size * 2)
        proposed = max(proposed, self._size // 2)
        self._size = max(self._min, min(self._max, proposed))


# Module-level worker state for the process pool: each worker process
# builds its scanner replica once (in the pool initializer) and tracks the
# traffic counts it last reported, so every chunk returns exact deltas.
_WORKER_SCANNER = None
_WORKER_COUNTS = (0, 0)
_WORKER_EXCHANGE: Optional[ExchangeSpec] = None
_WORKER_CLOCK: Clock = SYSTEM_CLOCK
# One-shot init-cost record: the first chunk a worker completes carries
# it back to the parent (then it is cleared, so a worker reports its
# spawn cost exactly once however many chunks it runs).
_WORKER_INIT_INFO: Optional[dict] = None


def _process_worker_init(spec, exchange_spec: ExchangeSpec,
                         clock: Clock) -> None:
    global _WORKER_SCANNER, _WORKER_COUNTS, _WORKER_EXCHANGE, _WORKER_CLOCK
    global _WORKER_INIT_INFO
    stopwatch = clock.stopwatch()
    build_timed = getattr(spec, "build_timed", None)
    if build_timed is not None:
        scanner, build_info = build_timed(clock)
    else:
        scanner = spec.build()
        build_info = WorkerBuildInfo(source="build",
                                     build_seconds=stopwatch.elapsed())
    _WORKER_SCANNER = scanner
    _WORKER_COUNTS = scanner.worker_counts()
    _WORKER_EXCHANGE = exchange_spec
    _WORKER_CLOCK = clock
    _WORKER_INIT_INFO = {
        "spawn_seconds": stopwatch.elapsed(),
        "build_seconds": build_info.build_seconds,
        "source": build_info.source,
        "rss_bytes": rss_bytes(),
    }
    logger.debug("worker init: world %s in %.3fs (%.3fs total)",
                 build_info.source, build_info.build_seconds,
                 _WORKER_INIT_INFO["spawn_seconds"])


def _process_run_chunk(seq: int, chunk: List[ProbeTask]):
    """Run one chunk in a worker.

    Returns ``(seq, handle, request_delta, fetch_delta, tasks, elapsed,
    init_info)`` where ``handle`` is the :class:`ShardHandle` of the
    chunk's rows (they stay in the segment) and ``init_info`` is this
    worker's one-time spawn-cost record (None on every chunk after the
    first).
    """
    global _WORKER_COUNTS, _WORKER_INIT_INFO
    scanner = _WORKER_SCANNER
    stopwatch = _WORKER_CLOCK.stopwatch()
    data = ScanDataset()
    run = scanner.run_task
    for task in chunk:
        record_probe(data, task.domain, task.country, run(task))
    requests, fetches = scanner.worker_counts()
    prev_requests, prev_fetches = _WORKER_COUNTS
    _WORKER_COUNTS = (requests, fetches)
    elapsed = stopwatch.elapsed()
    handle = write_shard(data.export_columns(), _WORKER_EXCHANGE, seq)
    init_info, _WORKER_INIT_INFO = _WORKER_INIT_INFO, None
    return (seq, handle, requests - prev_requests,
            fetches - prev_fetches, len(chunk), elapsed, init_info)


class ScanEngine:
    """Worker-pool scheduler over a :class:`~repro.lumscan.scanner.Lumscan`.

    Drop-in compatible with the scanner's ``scan`` / ``resample`` API; the
    study pipelines accept either.  ``workers=1`` executes inline with no
    pool; ``workers>1`` runs the process pool.  Both are byte-identical
    by construction.

    ``spill_dir`` is where the process pool keeps file-backed state: the
    shard-exchange session and the frozen worldpack land there when the
    platform offers no POSIX shared memory (both are removed when the
    scan ends).  ``clock`` times chunks for the autotuner; a
    :class:`~repro.util.clock.ManualClock` reports zero elapsed time, so
    chunks keep ``chunk_size``.

    ``executor`` selects nothing: it is accepted for older callers as
    ``"process"`` at any width, or ``"thread"`` at ``workers=1`` (which
    never built a pool), and any other value raises ``ValueError``.
    """

    def __init__(self, scanner, workers: int = 1,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 executor: str = "process",
                 spill_dir: Optional[str] = None,
                 clock: Optional[Clock] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if executor != "process" and not (executor == "thread"
                                          and workers == 1):
            raise ValueError(
                f"executor must be 'process' (or 'thread' at workers=1), "
                f"got {executor!r} with workers={workers}")
        self._scanner = scanner
        self._workers = workers
        self._chunk_size = chunk_size
        self._spill_dir = spill_dir
        self._clock = clock if clock is not None else SYSTEM_CLOCK

    @property
    def workers(self) -> int:
        """Configured pool width."""
        return self._workers

    def worker_init_stats(self):
        """The scanner's accumulated worker spawn/build costs, if tracked."""
        stats = getattr(self._scanner, "worker_init_stats", None)
        return stats() if stats is not None else None

    # ------------------------------------------------------------------ #

    def scan(self, urls: Sequence[str], countries: Sequence[str],
             samples: int = 3, epoch: int = 0,
             dataset: Optional[ScanDataset] = None) -> ScanDataset:
        """Probe every (country, domain) pair ``samples`` times.

        Samples for a pair land contiguously in serial order, which
        downstream consumers (``ScanDataset.pairs``) rely on.
        """
        return self._execute(scan_tasks(urls, countries, samples, epoch),
                             dataset)

    def resample(self, pairs: Iterable[Tuple[str, str]], samples: int,
                 epoch: int = 0,
                 dataset: Optional[ScanDataset] = None) -> ScanDataset:
        """Re-probe specific (domain, country) pairs ``samples`` times."""
        return self._execute(resample_tasks(pairs, samples, epoch), dataset)

    # ------------------------------------------------------------------ #

    def _execute(self, tasks: List[ProbeTask],
                 dataset: Optional[ScanDataset]) -> ScanDataset:
        data = dataset if dataset is not None else ScanDataset()
        if self._workers == 1 or len(tasks) <= 1:
            for task in tasks:
                record_probe(data, task.domain, task.country,
                             self._scanner.run_task(task))
            return data
        return self._execute_processes(tasks, data)

    def _execute_processes(self, tasks: List[ProbeTask],
                           data: ScanDataset) -> ScanDataset:
        scanner = self._scanner
        spawn = getattr(scanner, "spawn_spec", None)
        if spawn is None:
            raise TypeError(
                f"workers > 1 needs a spawnable scanner "
                f"(spawn_spec/worker_counts/absorb_worker_counts); "
                f"{type(scanner).__name__} has no spawn_spec")
        spec = spawn()
        pack = self._freeze_world_pack()
        if pack is not None:
            spec = replace(spec, world_source=pack.handle)
        tuner = ChunkAutotuner(initial=self._chunk_size,
                               target_seconds=DEFAULT_TARGET_CHUNK_SECONDS)
        buffer = ChunkReorderBuffer()
        pending: Dict[object, int] = {}   # future -> chunk sequence number
        requests = fetches = 0
        spawned = pack_loads = 0
        spawn_seconds = build_seconds = 0.0
        rss_peak = 0
        cursor = 0
        seq = 0
        exchange = ShardExchange(spill_dir=self._spill_dir)
        try:
            logger.debug("engine: %d tasks over %d process workers "
                         "(exchange=%s, world=%s)",
                         len(tasks), self._workers, exchange.mode,
                         "pack" if pack is not None else "rebuild")
            exchange_spec = exchange.open().spec()
            with ProcessPoolExecutor(
                    max_workers=self._workers,
                    initializer=_process_worker_init,
                    initargs=(spec, exchange_spec, self._clock)) as pool:

                def submit_next() -> bool:
                    nonlocal cursor, seq
                    if cursor >= len(tasks):
                        return False
                    chunk = tasks[cursor:cursor + tuner.chunk_size()]
                    pending[pool.submit(_process_run_chunk, seq, chunk)] = seq
                    cursor += len(chunk)
                    seq += 1
                    return True

                # Keep a bounded window of outstanding chunks: workers stay
                # saturated, the parent never holds more than
                # workers * PIPELINE_DEPTH unmerged results.
                for _ in range(self._workers * PIPELINE_DEPTH):
                    if not submit_next():
                        break
                # Stream-merge as chunks complete (any completion order);
                # the reorder buffer restores sequence order, and
                # extend_columns interns code tables in first-seen row
                # order, so the merged dataset is byte-identical to a
                # serial scan.
                while pending:
                    done, _ = wait(set(pending),
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        pending.pop(future)
                        (chunk_seq, payload, request_delta, fetch_delta,
                         n_tasks, elapsed, init_info) = future.result()
                        if init_info is not None:
                            spawned += 1
                            spawn_seconds += init_info["spawn_seconds"]
                            build_seconds += init_info["build_seconds"]
                            rss_peak = max(rss_peak, init_info["rss_bytes"])
                            if init_info["source"] == "pack":
                                pack_loads += 1
                        tuner.record(n_tasks, elapsed)
                        buffer.push(chunk_seq,
                                    (payload, request_delta, fetch_delta))
                        submit_next()
                    for payload, request_delta, fetch_delta in \
                            buffer.pop_ready():
                        self._merge_payload(data, payload)
                        requests += request_delta
                        fetches += fetch_delta
        finally:
            # Error path: nothing below may leak a segment.  Unmerged
            # buffered shards, plus shards from futures that completed
            # after the failure, are released; closing the exchange then
            # removes the spill session directory wholesale.  The steps
            # are chained with nested finally blocks so a failure inside
            # one cleanup cannot skip the ones after it.
            try:
                for payload, _, _ in buffer.drain():
                    release_shard(payload)
                for future in pending:
                    if future.cancel():
                        continue
                    try:
                        result = future.result()
                    except Exception:
                        continue
                    release_shard(result[1])
            finally:
                try:
                    exchange.close()
                finally:
                    if pack is not None:
                        # The parent owns the pack's backing storage:
                        # release it on every path — including
                        # worker-crash-during-init — so no shm block or
                        # spill file outlives the pool.
                        pack.release()
        scanner.absorb_worker_counts(
            requests, fetches,
            token=f"engine-batch-{next(_ABSORB_BATCH_IDS)}",
            init_stats=WorkerInitStats(
                spawned=spawned, spawn_seconds=spawn_seconds,
                build_seconds=build_seconds, pack_loads=pack_loads,
                rss_peak_bytes=rss_peak))
        return data

    def _freeze_world_pack(self):
        """Freeze the scanner's world for the pool.

        Returns the parent-owned pack (released in the execute
        ``finally``) or None when the scanner cannot freeze or freezing
        fails with ``OSError`` — the workers then fall back to the spec
        rebuild, which is bit-identical.
        """
        freeze = getattr(self._scanner, "freeze_world_pack", None)
        if freeze is None:
            return None
        try:
            return freeze(directory=self._spill_dir)
        except OSError:
            logger.debug("worldpack freeze failed; workers will rebuild",
                         exc_info=True)
            return None

    @staticmethod
    def _merge_payload(data: ScanDataset, payload: ShardHandle) -> None:
        """Extend the parent dataset with one chunk's shard, then release it."""
        try:
            with open_shard(payload) as reader:
                data.extend_columns(reader.columns)
        finally:
            release_shard(payload)
