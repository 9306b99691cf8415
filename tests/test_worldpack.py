"""Frozen-world equivalence: pack-loaded worlds are bit-identical replicas.

The worldpack exists so process-pool workers can map the parent's
immutable world state zero-copy instead of rebuilding it.  That is only
sound if a pack-loaded world is *indistinguishable* from a rebuilt one
everywhere a probe can look — the tests here pin that down layer by
layer:

1. every frozen structure (population, policies, degradations,
   censorship, GeoIP entries and country order, address plan, DNS, page
   lengths, config) round-trips exactly;
2. probe outcomes — ``Lumscan.run_task`` over a hypothesis-driven slice
   of (domain, country, sample) identities — are equal on both worlds;
3. a process-pool scan serializes to byte-identical datasets whether
   workers map the pack or rebuild from the spec, at any worker count;
4. the fallback, release, and tamper paths fail safe: a worker that
   cannot map the pack rebuilds, a released pack raises, a fingerprint
   mismatch is rejected;
5. both transports work: shared memory where ``shm_available`` says so,
   and a temp file (forced with the ``no_shm`` fixture) where it does
   not.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lumscan.engine import ScanEngine, scan_tasks
from repro.lumscan.scanner import Lumscan
from repro.lumscan.serialize import dump_dataset
from repro.lumscan.shards import shm_available
from repro.proxynet.luminati import LuminatiClient
from repro.websim.world import World, WorldConfig
from repro.websim.worldpack import (
    MAGIC,
    WorldPackReader,
    freeze_world,
    load_world,
    write_worldpack_file,
)


@pytest.fixture(scope="module")
def built_world():
    return World(WorldConfig.nano())


@pytest.fixture(scope="module")
def pack(built_world):
    frozen = freeze_world(built_world)
    yield frozen
    frozen.release()


@pytest.fixture(scope="module")
def loaded_world(pack):
    return load_world(pack.handle)


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


def _encoded(data, tmp_path, name):
    path = str(tmp_path / f"{name}.jsonl.gz")
    dump_dataset(data, path)
    with open(path, "rb") as handle:
        return handle.read()


class TestRoundTrip:
    def test_source_markers(self, built_world, loaded_world):
        assert built_world.source == "build"
        assert loaded_world.source == "pack"

    def test_config_round_trips(self, built_world, loaded_world):
        assert loaded_world.config == built_world.config

    def test_population_identical(self, built_world, loaded_world):
        assert list(loaded_world.population) == list(built_world.population)

    def test_policies_identical_including_order(self, built_world,
                                                loaded_world):
        assert loaded_world.policies == built_world.policies
        assert list(loaded_world.policies) == list(built_world.policies)

    def test_degradations_and_censorship_identical(self, built_world,
                                                   loaded_world):
        assert loaded_world.degradations == built_world.degradations
        assert loaded_world.censorship == built_world.censorship

    def test_geoip_entries_and_country_order(self, built_world,
                                             loaded_world):
        # Registration order fixes the country list the error model
        # draws a wrong country from.
        assert loaded_world.geoip._entries == built_world.geoip._entries
        assert list(loaded_world.geoip._countries) == \
            list(built_world.geoip._countries)

    def test_address_plan_identical(self, built_world, loaded_world):
        assert loaded_world.allocator._next == built_world.allocator._next
        assert loaded_world.allocator._blocks == built_world.allocator._blocks
        assert loaded_world._appengine_cidrs == built_world._appengine_cidrs

    def test_dns_materializes_lazily_and_identically(self, pack):
        fresh = load_world(pack.handle)
        assert fresh._dns is None  # not parsed until first use
        reference = World(WorldConfig.nano())
        for domain in list(reference.population)[:40]:
            for rtype in ("A", "NS"):
                assert fresh.dns.try_query(domain.name, rtype) == \
                    reference.dns.try_query(domain.name, rtype)
        assert fresh._dns is not None

    def test_cached_page_lengths_round_trip(self, built_world, pack):
        # The parent's memoized lengths must be served from the frozen
        # index — same values, no recompute, no page materialization.
        loaded = load_world(pack.handle)
        for name, length in built_world._page_length_cache.items():
            domain = built_world.population.get(name)
            assert loaded._page_length(domain) == length

    def test_geoblocking_domains_identical(self, built_world, loaded_world):
        assert loaded_world.geoblocking_domains() == \
            built_world.geoblocking_domains()


class TestProbeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(
        ("US", "CN", "RU", "IR", "SY", "DE", "BR", "NG")),
        st.integers(0, 2))
    def test_run_task_identical(self, built_world, loaded_world,
                                index, country, sample):
        domains = [d for d in built_world.population
                   if not d.dead][index % 120:][:3]
        urls = [f"http://{d.name}/" for d in domains]
        tasks = scan_tasks(urls, [country], samples=sample + 1)
        built = Lumscan(LuminatiClient(built_world), seed=11)
        loaded = Lumscan(LuminatiClient(loaded_world), seed=11)
        for task in tasks:
            assert loaded.run_task(task) == built.run_task(task)

    def test_geoblocking_slice_identical(self, built_world, loaded_world):
        urls = [f"http://{name}/"
                for name in built_world.geoblocking_domains()[:10]]
        countries = ["US", "IR", "CN", "RU"]
        tasks = scan_tasks(urls, countries, samples=2)
        built = Lumscan(LuminatiClient(built_world), seed=7)
        loaded = Lumscan(LuminatiClient(loaded_world), seed=7)
        for task in tasks:
            assert loaded.run_task(task) == built.run_task(task)


class TestEngineByteIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pack_and_rebuild_scans_identical(self, built_world, tmp_path,
                                              workers):
        urls = _clean_urls(built_world, 12)
        countries = ["US", "IR", "CN"]

        def scan(freeze_fails):
            scanner = Lumscan(LuminatiClient(built_world), seed=11)
            if freeze_fails:
                # Force the engine's OSError fallback: every worker then
                # rebuilds the world from the spec.
                def unfreezable(directory=None):
                    raise OSError("no shareable storage")
                scanner.freeze_world_pack = unfreezable
            engine = ScanEngine(scanner, workers=workers, chunk_size=8)
            return engine, engine.scan(urls, countries, samples=2)

        packed_engine, packed = scan(freeze_fails=False)
        rebuilt_engine, rebuilt = scan(freeze_fails=True)
        assert _encoded(packed, tmp_path, f"pack{workers}") == \
            _encoded(rebuilt, tmp_path, f"rebuild{workers}")
        assert packed_engine.worker_init_stats().pack_loads == \
            packed_engine.worker_init_stats().spawned
        assert rebuilt_engine.worker_init_stats().pack_loads == 0

    def test_init_stats_accumulate(self, built_world):
        engine = ScanEngine(Lumscan(LuminatiClient(built_world), seed=11),
                            workers=2, chunk_size=8)
        engine.scan(_clean_urls(built_world, 8), ["US"], samples=1)
        stats = engine.worker_init_stats()
        assert stats.spawned >= 1
        assert stats.spawn_seconds > 0.0
        assert stats.build_seconds >= 0.0
        assert stats.rss_peak_bytes >= 0

    def test_unknown_world_source_rejected(self, built_world):
        # The engine always maps a pack when it can; the study config
        # keeps only the "auto" spelling and rejects the removed modes.
        from repro.core.pipeline import StudyConfig

        for mode in ("cache", "pack", "rebuild"):
            with pytest.raises(ValueError, match="world_source"):
                StudyConfig(world_source=mode)
        with pytest.raises(TypeError):
            ScanEngine(Lumscan(LuminatiClient(built_world), seed=11),
                       world_source="auto")


class TestFallbackAndRelease:
    def test_spec_falls_back_to_rebuild_on_released_pack(self, built_world):
        scanner = Lumscan(LuminatiClient(built_world), seed=11)
        frozen = scanner.freeze_world_pack()
        handle = frozen.handle
        frozen.release()
        replica = scanner.spawn_spec(world_source=handle).build()
        assert replica is not None  # rebuilt, not mapped

    def test_released_pack_handle_raises(self, built_world):
        frozen = freeze_world(built_world)
        frozen.release()
        assert frozen.released
        with pytest.raises(ValueError):
            frozen.handle

    def test_release_is_idempotent(self, built_world):
        frozen = freeze_world(built_world)
        frozen.release()
        frozen.release()  # second call must be a no-op

    def test_fingerprint_mismatch_rejected(self, built_world, tmp_path):
        path = str(tmp_path / "world.lshw")
        handle = write_worldpack_file(built_world, path)
        forged = dataclasses.replace(handle, fingerprint="0" * 32)
        with pytest.raises(ValueError, match="fingerprint"):
            WorldPackReader(forged)

    def test_unknown_freeze_mode_rejected(self, built_world):
        # The transport follows shm_available(); no mode selects it.
        for mode in ("auto", "shm", "file", "tape"):
            with pytest.raises(TypeError, match="mode"):
                freeze_world(built_world, mode=mode)
            with pytest.raises(TypeError, match="mode"):
                Lumscan(LuminatiClient(built_world),
                        seed=11).freeze_world_pack(mode=mode)


class TestFileTransport:
    def test_file_pack_loads_identically(self, built_world, tmp_path,
                                         no_shm):
        frozen = freeze_world(built_world, directory=str(tmp_path))
        try:
            assert frozen.handle.kind == "file"
            assert os.path.dirname(frozen.handle.ref) == str(tmp_path)
            loaded = load_world(frozen.handle)
            assert list(loaded.population) == list(built_world.population)
            assert loaded.policies == built_world.policies
        finally:
            frozen.release()

    def test_release_unlinks_file(self, built_world, tmp_path, no_shm):
        frozen = freeze_world(built_world, directory=str(tmp_path))
        path = frozen.handle.ref
        assert os.path.exists(path)
        frozen.release()
        assert not os.path.exists(path)

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_shm_release_unlinks_segment(self, built_world):
        before = set(os.listdir("/dev/shm"))
        frozen = freeze_world(built_world)
        assert frozen.handle.kind == "shm"
        assert set(os.listdir("/dev/shm")) - before != set()
        frozen.release()
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_header_is_readable_without_mapping(self, built_world,
                                                tmp_path):
        path = str(tmp_path / "world.lshw")
        handle = write_worldpack_file(built_world, path)
        # Magic, u32 LE header length, then the canonical-JSON header.
        with open(path, "rb") as stream:
            assert stream.read(len(MAGIC)) == MAGIC
            header_len = int.from_bytes(stream.read(4), "little")
            header = json.loads(stream.read(header_len))
        assert header["fingerprint"] == handle.fingerprint
        assert header["size"] == len(built_world.population)
        names = [section["name"] for section in header["sections"]]
        assert "tld_codes" in names
        assert "config" in names


class TestStageStats:
    def test_worker_init_accounting_reaches_stage_stats(self):
        from repro.core.pipeline import StudyConfig, run_top10k_study

        world = World(WorldConfig.nano())
        result = run_top10k_study(world, config=StudyConfig(workers=2))
        spawned = sum(s.workers_spawned for s in result.stage_stats)
        assert spawned > 0
        scan_stages = [s for s in result.stage_stats if s.workers_spawned]
        assert all(s.worker_spawn_seconds > 0.0 for s in scan_stages)
        assert all(s.worker_pack_loads == s.workers_spawned
                   for s in scan_stages)
        entry = scan_stages[0].as_dict()
        for key in ("workers_spawned", "worker_spawn_seconds",
                    "world_build_seconds", "worker_pack_loads"):
            assert key in entry
