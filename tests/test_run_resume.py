"""Resume-equality integration tests (the staged-runner contract).

A run interrupted after ``initial-scan`` and resumed must produce
bit-identical results to an uninterrupted run while skipping the
completed stages.  Probe outcomes are pure functions of task identity, so
this holds as long as the checkpoint codecs round-trip every artifact
exactly and no skipped stage leaks shared-RNG state.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.pipeline import (
    StudyConfig,
    run_top10k_study,
    run_top1m_study,
    top10k_stages,
    top1m_stages,
)
from repro.lumscan.serialize import dump_dataset
from repro.proxynet.luminati import LuminatiClient
from repro.run import ArtifactStore
from repro.websim.world import World, WorldConfig

#: Stages assumed complete when the run "crashed" after the initial scan.
_COMPLETED = ("safe-list", "country-ranking", "initial-scan")


@pytest.fixture(scope="module")
def resume_pair(tmp_path_factory):
    """(fresh result, resumed result, fresh probes, resumed probes)."""
    root = str(tmp_path_factory.mktemp("checkpoints"))
    cfg = StudyConfig()

    fresh_world = World(WorldConfig.nano())
    fresh_lum = LuminatiClient(fresh_world)
    fresh = run_top10k_study(fresh_world, fresh_lum, cfg,
                             checkpoint_dir=root)

    # Simulate the interruption: revoke completion of every stage after
    # the initial scan, then resume on a brand-new world instance.
    store = ArtifactStore(root, "top10k", cfg, fresh_world.config)
    store.invalidate([s for s in top10k_stages()
                      if s.name not in _COMPLETED])

    resumed_world = World(WorldConfig.nano())
    resumed_lum = LuminatiClient(resumed_world)
    resumed = run_top10k_study(resumed_world, resumed_lum, cfg,
                               checkpoint_dir=root, resume=True)
    return fresh, resumed, fresh_lum.request_count, resumed_lum.request_count


class TestTop10KResume:
    def test_derived_artifacts_identical(self, resume_pair):
        fresh, resumed, _, _ = resume_pair
        assert resumed.safe_domains == fresh.safe_domains
        assert resumed.countries == fresh.countries
        assert resumed.top_blocking_countries == fresh.top_blocking_countries
        assert resumed.representatives == fresh.representatives
        assert resumed.outliers == fresh.outliers
        assert resumed.clusters == fresh.clusters
        assert list(resumed.registry) == list(fresh.registry)
        assert resumed.candidates == fresh.candidates
        assert resumed.confirmed == fresh.confirmed
        assert resumed.other_page_counts == fresh.other_page_counts
        assert (resumed.other_page_counts.most_common()
                == fresh.other_page_counts.most_common())
        assert (resumed.luminati_refused_domains
                == fresh.luminati_refused_domains)
        assert (resumed.never_responding_domains
                == fresh.never_responding_domains)

    def test_datasets_byte_identical(self, resume_pair, tmp_path):
        fresh, resumed, _, _ = resume_pair
        for name in ("initial", "resampled"):
            a = tmp_path / f"fresh.{name}.jsonl.gz"
            b = tmp_path / f"resumed.{name}.jsonl.gz"
            dump_dataset(getattr(fresh, name), a)
            dump_dataset(getattr(resumed, name), b)
            assert a.read_bytes() == b.read_bytes()

    def test_completed_stages_skipped(self, resume_pair):
        _, resumed, _, _ = resume_pair
        hits = {s.stage: s.cache_hit for s in resumed.stage_stats}
        assert all(hits[name] for name in _COMPLETED)
        assert not any(hit for name, hit in hits.items()
                       if name not in _COMPLETED)

    def test_resume_saves_probes(self, resume_pair):
        """The initial scan dominates probe count; skipping it must show."""
        _, resumed, fresh_probes, resumed_probes = resume_pair
        assert resumed_probes < fresh_probes
        by_stage = {s.stage: s.probes for s in resumed.stage_stats}
        assert by_stage["initial-scan"] == 0
        assert by_stage["candidate-resample"] > 0

    def test_stats_cover_every_stage(self, resume_pair):
        fresh, resumed, _, _ = resume_pair
        names = [s.name for s in top10k_stages()]
        assert [s.stage for s in fresh.stage_stats] == names
        assert [s.stage for s in resumed.stage_stats] == names


class TestTop1MResume:
    def test_resume_after_scan_is_identical(self, tmp_path, registry):
        root = str(tmp_path)
        cfg = StudyConfig()

        fresh_world = World(WorldConfig.nano())
        fresh = run_top1m_study(fresh_world, config=cfg, registry=registry,
                                checkpoint_dir=root)

        store = ArtifactStore(root, "top1m", cfg, fresh_world.config,
                              salt=_registry_salt(registry))
        store.invalidate([s for s in top1m_stages()
                          if s.name in ("explicit-confirm",
                                        "nonexplicit-confirm")])

        resumed_world = World(WorldConfig.nano())
        resumed = run_top1m_study(resumed_world, config=cfg,
                                  registry=registry,
                                  checkpoint_dir=root, resume=True)

        assert resumed.population.customers == fresh.population.customers
        assert resumed.safe_customers == fresh.safe_customers
        assert resumed.sampled_domains == fresh.sampled_domains
        assert resumed.confirmed == fresh.confirmed
        assert resumed.nonexplicit_flagged == fresh.nonexplicit_flagged
        assert resumed.consistency == fresh.consistency
        hits = {s.stage: s.cache_hit for s in resumed.stage_stats}
        assert hits == {"customer-id": True, "sample": True, "scan": True,
                        "explicit-confirm": False,
                        "nonexplicit-confirm": False}


def _registry_salt(registry):
    from repro.core.pipeline import registry_salt
    return registry_salt(registry)


class TestCheckpointInvalidation:
    def test_config_change_invalidates_everything(self, tmp_path):
        """Changing a methodology knob must force full re-execution."""
        root = str(tmp_path)
        world = World(WorldConfig.nano())
        lum = LuminatiClient(world)
        run_top10k_study(world, lum, StudyConfig(), checkpoint_dir=root)

        changed = dataclasses.replace(StudyConfig(), samples_confirm=10)
        world2 = World(WorldConfig.nano())
        result = run_top10k_study(world2, config=changed,
                                  checkpoint_dir=root, resume=True)
        assert not any(s.cache_hit for s in result.stage_stats)

    def test_engine_change_keeps_every_checkpoint(self, tmp_path):
        """Engine knobs never change output, so they never invalidate."""
        root = str(tmp_path)
        world = World(WorldConfig.nano())
        fresh = run_top10k_study(world, config=StudyConfig(),
                                 checkpoint_dir=root)

        wider = StudyConfig(workers=2, executor="process", exchange="auto",
                            merge="memory", target_chunk_ms=250)
        world2 = World(WorldConfig.nano())
        result = run_top10k_study(world2, config=wider,
                                  checkpoint_dir=root, resume=True)
        assert all(s.cache_hit for s in result.stage_stats)
        assert result.confirmed == fresh.confirmed
