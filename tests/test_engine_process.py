"""Process-parallel scan sharding: byte-identity and plumbing tests.

``ScanEngine(workers>1)`` ships task chunks to worker processes that
each rebuild the scanner from a picklable :class:`ScannerSpec`.  The
merged dataset is identical — same records, same order — to a serial
scan (pinned record by record in ``test_lumscan_engine.py``), and the
parent scanner's request/fetch counters account for all worker traffic.
The shard exchange adds two more: the merged bytes stay identical under
any chunk completion order, and no shard segment outlives the scan — not
even when a worker blows up mid-run.  Both hold for the shared-memory
transport and for the spill-file fallback (reached with the ``no_shm``
fixture, which makes ``shm_available`` report False).
"""

import os
import pickle
import time

import pytest

import repro.lumscan.engine as engine_mod
from repro.lumscan.engine import ScanEngine, scan_tasks
from repro.lumscan.records import ScanDataset
from repro.lumscan.scanner import Lumscan, ScannerSpec
from repro.lumscan.serialize import dump_dataset
from repro.lumscan.shards import shm_available
from repro.proxynet.luminati import LuminatiClient
from repro.util.clock import ManualClock


def _rows(data):
    return [data.row(i) for i in range(len(data))]


def _clean_urls(world, n):
    urls = []
    for domain in world.population:
        if not domain.dead and not domain.redirect_loop:
            urls.append(f"http://{domain.name}/")
            if len(urls) == n:
                break
    return urls


class _InlineOnlyScanner:
    """Satisfies Scanner but not SpawnableScanner (no spawn_spec)."""

    def run_task(self, task):  # pragma: no cover - never reached
        raise AssertionError("should fail before running tasks")


class TestExecutorValidation:
    def test_unknown_executor_rejected(self, nano_luminati):
        with pytest.raises(ValueError):
            ScanEngine(Lumscan(nano_luminati, seed=3), executor="fork")

    def test_thread_executor_only_at_one_worker(self, nano_luminati):
        # "thread" is accepted only where it never built a pool.
        ScanEngine(Lumscan(nano_luminati, seed=3), executor="thread")
        ScanEngine(Lumscan(nano_luminati, seed=3), workers=2,
                   executor="process")
        with pytest.raises(ValueError, match="executor"):
            ScanEngine(Lumscan(nano_luminati, seed=3), workers=2,
                       executor="thread")

    @pytest.mark.parametrize("option", [
        {"merge": "memory"},
        {"merge": "spill"},
        {"target_chunk_seconds": 0.25},
    ], ids=lambda option: "=".join(map(str, *option.items())))
    def test_removed_engine_options_rejected(self, nano_luminati, option):
        # The merge always extends the parent dataset in memory and the
        # chunk target is a constant; neither is an option any more.
        with pytest.raises(TypeError, match=next(iter(option))):
            ScanEngine(Lumscan(nano_luminati, seed=3), workers=2, **option)

    def test_non_spawnable_scanner_rejected(self):
        engine = ScanEngine(_InlineOnlyScanner(), workers=2, chunk_size=2)
        with pytest.raises(TypeError, match="spawn_spec"):
            engine.scan([f"http://d{i}.example.com/" for i in range(8)],
                        ["US"], samples=1)


class TestScannerSpec:
    def test_spec_pickles_and_rebuilds_identically(self, nano_world):
        scanner = Lumscan(LuminatiClient(nano_world), seed=21)
        spec = scanner.spawn_spec()
        replica = pickle.loads(pickle.dumps(spec)).build()
        urls = _clean_urls(nano_world, 8)
        tasks = scan_tasks(urls, ["US", "IR"], samples=2)
        for task in tasks:
            assert replica.run_task(task) == scanner.run_task(task)

    def test_spec_is_frozen(self, nano_world):
        spec = Lumscan(LuminatiClient(nano_world), seed=21).spawn_spec()
        assert isinstance(spec, ScannerSpec)
        with pytest.raises(AttributeError):
            spec.scanner_seed = 99


class TestProcessSerialDeterminism:
    @pytest.fixture(scope="class")
    def serial(self, nano_world):
        client = LuminatiClient(nano_world)
        urls = _clean_urls(nano_world, 18)
        countries = client.countries()[:5]
        fetches_before = nano_world.fetch_count
        data = Lumscan(client, seed=11).scan(urls, countries, samples=3)
        counts = (client.request_count,
                  nano_world.fetch_count - fetches_before)
        return urls, countries, data, counts

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_identical_to_serial(self, nano_world, serial, workers):
        urls, countries, expected, _ = serial
        client = LuminatiClient(nano_world)
        engine = ScanEngine(Lumscan(client, seed=11), workers=workers,
                            chunk_size=16)
        data = engine.scan(urls, countries, samples=3)
        assert _rows(data) == _rows(expected)

    def test_worker_traffic_absorbed(self, nano_world, serial):
        urls, countries, _, (serial_requests, serial_fetches) = serial
        client = LuminatiClient(nano_world)
        fetches_before = nano_world.fetch_count
        engine = ScanEngine(Lumscan(client, seed=11), workers=2,
                            chunk_size=16)
        engine.scan(urls, countries, samples=3)
        assert client.request_count == serial_requests
        assert nano_world.fetch_count - fetches_before == serial_fetches

    def test_resample_identical_to_serial(self, nano_world, serial):
        urls, countries, _, _ = serial
        pairs = [(url.split("//")[1].rstrip("/"), country)
                 for country in countries[:3] for url in urls[:6]]
        client = LuminatiClient(nano_world)
        expected = Lumscan(client, seed=11).resample(pairs, samples=4, epoch=2)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=3, chunk_size=5)
        data = engine.resample(pairs, samples=4, epoch=2)
        assert _rows(data) == _rows(expected)


class TestDatasetPickle:
    def test_round_trip_preserves_rows(self, nano_luminati):
        data = Lumscan(nano_luminati, seed=8).scan(
            _clean_urls(nano_luminati.world, 10), ["US", "CN"], samples=2)
        clone = pickle.loads(pickle.dumps(data))
        assert _rows(clone) == _rows(data)

    def test_pickle_trims_column_buffers(self, nano_luminati):
        data = Lumscan(nano_luminati, seed=8).scan(
            _clean_urls(nano_luminati.world, 10), ["US"], samples=2)
        state = data.__getstate__()
        for name in ScanDataset.COLUMN_BUFFERS:
            assert len(state[name]) == len(data)

    def test_clone_still_appendable(self, nano_luminati):
        data = Lumscan(nano_luminati, seed=8).scan(
            _clean_urls(nano_luminati.world, 6), ["US"], samples=1)
        clone = pickle.loads(pickle.dumps(data))
        before = len(clone)
        clone.append("late.example.com", "BR", 200, 1234, "<html>",
                     interfered=False)
        assert len(clone) == before + 1
        added = clone.row(before)
        assert (added.domain, added.country, added.status, added.length) == \
            ("late.example.com", "BR", 200, 1234)


# --------------------------------------------------------------------- #
# Shard exchange

def _encoded(data, tmp_path, name):
    """Serialized dataset bytes (gzip with mtime=0 — content-pure)."""
    path = str(tmp_path / f"{name}.jsonl.gz")
    dump_dataset(data, path)
    with open(path, "rb") as handle:
        return handle.read()


_REAL_RUN_CHUNK = engine_mod._process_run_chunk


def _inverted_run_chunk(seq, chunk):
    """Chunk runner that forces completion in reverse sequence order.

    Early chunks sleep longest, so within the engine's in-flight window
    the highest sequence number always completes first — the adversarial
    case for the reorder buffer.  Fork-started workers inherit the
    monkeypatched module state, and the pool pickles this function by
    reference, so the patch applies inside workers too.
    """
    time.sleep(max(0, 8 - seq) * 0.05)
    return _REAL_RUN_CHUNK(seq, chunk)


def _exploding_run_chunk(seq, chunk):
    """Chunk runner that fails on the third chunk, after shards exist."""
    if seq == 2:
        raise RuntimeError("chunk 2 exploded")
    time.sleep(0.02 * seq)
    return _REAL_RUN_CHUNK(seq, chunk)


def _leftovers(root):
    return [os.path.join(dirpath, name)
            for dirpath, dirs, files in os.walk(root)
            for name in list(dirs) + list(files)]


class TestShardExchange:
    def test_unknown_exchange_rejected(self, nano_luminati):
        # The transport follows shm_available(); no spelling selects it.
        for mode in ("auto", "shm", "file", "pickle"):
            with pytest.raises(TypeError, match="exchange"):
                ScanEngine(Lumscan(nano_luminati, seed=3), workers=2,
                           exchange=mode)

    @pytest.fixture(scope="class")
    def serial(self, nano_world):
        client = LuminatiClient(nano_world)
        urls = _clean_urls(nano_world, 14)
        countries = client.countries()[:4]
        data = Lumscan(client, seed=11).scan(urls, countries, samples=3)
        return urls, countries, data

    @pytest.mark.parametrize("exchange", [
        pytest.param("shm", marks=pytest.mark.skipif(
            not shm_available(), reason="POSIX shared memory unavailable")),
        "file",
    ])
    def test_every_exchange_is_byte_identical_to_serial(
            self, nano_world, serial, tmp_path, monkeypatch, request,
            exchange):
        urls, countries, expected = serial
        if exchange == "file":
            request.getfixturevalue("no_shm")
        kinds = set()
        real_merge = ScanEngine._merge_payload

        def recording_merge(data, payload):
            kinds.add(payload.kind)
            real_merge(data, payload)

        monkeypatch.setattr(ScanEngine, "_merge_payload",
                            staticmethod(recording_merge))
        spill = tmp_path / "ckpt"
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=16, spill_dir=str(spill))
        data = engine.scan(urls, countries, samples=3)
        assert kinds == {exchange}
        assert _leftovers(spill) == []
        assert _encoded(data, tmp_path, exchange) == \
            _encoded(expected, tmp_path, "serial")

    def test_reverse_completion_order_is_byte_identical(
            self, nano_world, serial, tmp_path, monkeypatch):
        # Force chunks to complete in reverse order; the reorder buffer
        # must still merge them in sequence order, byte for byte.
        urls, countries, expected = serial
        monkeypatch.setattr(engine_mod, "_process_run_chunk",
                            _inverted_run_chunk)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=3, chunk_size=24,
                            spill_dir=str(tmp_path), clock=ManualClock())
        data = engine.scan(urls, countries, samples=3)
        assert _encoded(data, tmp_path, "inverted") == \
            _encoded(expected, tmp_path, "serial")

    def test_worker_failure_leaves_no_segments(self, nano_world, serial,
                                               tmp_path, monkeypatch,
                                               no_shm):
        # A worker exception mid-scan must release every shard already
        # written — buffered, in flight, or still on disk — and remove
        # the spill session directory and the worldpack file under the
        # checkpoint dir.
        urls, countries, _ = serial
        monkeypatch.setattr(engine_mod, "_process_run_chunk",
                            _exploding_run_chunk)
        spill = tmp_path / "ckpt"
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8,
                            spill_dir=str(spill), clock=ManualClock())
        with pytest.raises(RuntimeError, match="chunk 2 exploded"):
            engine.scan(urls, countries, samples=3)
        assert _leftovers(spill) == []

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_worker_failure_leaves_no_shm_blocks(self, nano_world, serial,
                                                 monkeypatch):
        urls, countries, _ = serial
        before = set(os.listdir("/dev/shm"))
        monkeypatch.setattr(engine_mod, "_process_run_chunk",
                            _exploding_run_chunk)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, clock=ManualClock())
        with pytest.raises(RuntimeError, match="chunk 2 exploded"):
            engine.scan(urls, countries, samples=3)
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_autotuned_scan_matches_serial(self, nano_world, serial,
                                           tmp_path):
        # With autotuning live (real clock), chunk boundaries shift run
        # to run — and must never leak into the output bytes.
        urls, countries, expected = serial
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8)
        data = engine.scan(urls, countries, samples=3)
        assert _encoded(data, tmp_path, "tuned") == \
            _encoded(expected, tmp_path, "serial")


class TestAbsorptionTokens:
    def test_duplicate_token_rejected(self, nano_world):
        scanner = Lumscan(LuminatiClient(nano_world), seed=5)
        scanner.absorb_worker_counts(10, 20, token="batch-A")
        with pytest.raises(ValueError, match="batch-A"):
            scanner.absorb_worker_counts(10, 20, token="batch-A")

    def test_distinct_tokens_accumulate(self, nano_world):
        client = LuminatiClient(nano_world)
        scanner = Lumscan(client, seed=5)
        base = client.request_count
        scanner.absorb_worker_counts(3, 0, token="batch-B")
        scanner.absorb_worker_counts(4, 0, token="batch-C")
        assert client.request_count == base + 7

    def test_untokened_absorption_keeps_working(self, nano_world):
        client = LuminatiClient(nano_world)
        scanner = Lumscan(client, seed=5)
        base = client.request_count
        scanner.absorb_worker_counts(2, 0)
        scanner.absorb_worker_counts(2, 0)
        assert client.request_count == base + 4

    def test_engine_scans_use_fresh_tokens(self, nano_world):
        # Two scans through one engine absorb two batches; the global
        # token counter must keep them distinct.
        urls = _clean_urls(nano_world, 6)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=4)
        engine.scan(urls, ["US"], samples=1)
        engine.scan(urls, ["IR"], samples=1)


def _exploding_worker_init(spec):
    """Initializer that dies before the worker ever builds a scanner."""
    raise RuntimeError("worker init exploded")


class TestWorldpackInitCleanup:
    """Crash-during-init must not leak the frozen worldpack's storage.

    The engine freezes one worldpack per process scan and hands its
    handle to every worker initializer.  If an initializer dies, the
    pool breaks before any chunk completes — the parent still owns the
    pack and must unlink its shared-memory segment on the way out, the
    same contract the shard-exchange session tests enforce above.
    """

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_worker_init_crash_releases_worldpack_shm(self, nano_world,
                                                      monkeypatch):
        urls = _clean_urls(nano_world, 10)
        before = set(os.listdir("/dev/shm"))
        monkeypatch.setattr(engine_mod, "_process_worker_init",
                            _exploding_worker_init)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, clock=ManualClock())
        with pytest.raises(Exception) as excinfo:
            engine.scan(urls, ["US", "IR"], samples=2)
        assert "process" in type(excinfo.value).__name__.lower() \
            or "exploded" in str(excinfo.value)
        assert set(os.listdir("/dev/shm")) - before == set()

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_successful_scan_releases_worldpack_shm(self, nano_world):
        urls = _clean_urls(nano_world, 10)
        before = set(os.listdir("/dev/shm"))
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, clock=ManualClock())
        engine.scan(urls, ["US", "IR"], samples=2)
        assert set(os.listdir("/dev/shm")) - before == set()
