"""Unit tests for the staged-run layer: codecs, artifact store, runner."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core.consistency import DomainConsistency
from repro.core.discovery import DiscoveredCluster
from repro.core.fingerprints import Fingerprint, FingerprintRegistry
from repro.core.identify import CDNPopulation
from repro.core.lengths import Outlier
from repro.core.resample import ConfirmedBlock
from repro.lumscan.records import Sample, ScanDataset
from repro.lumscan.serialize import dump_dataset
from repro.run import (
    KIND_DATASET,
    ArtifactSpec,
    ArtifactStore,
    RunContext,
    Stage,
    StudyRunner,
    decode_artifact,
    encode_artifact,
    run_fingerprint,
)


def _roundtrip(value):
    import json
    encoded = encode_artifact(value)
    # Must survive an actual JSON round trip, not just the tagging.
    return decode_artifact(json.loads(json.dumps(encoded)))


class TestCodecs:
    def test_scalars(self):
        for value in (None, True, 0, -3, 0.25, 1e-17, "text", ""):
            assert _roundtrip(value) == value

    def test_float_exact(self):
        value = 0.1 + 0.2  # not representable as a short decimal
        assert _roundtrip(value) == value

    def test_tuple_vs_list_distinguished(self):
        assert _roundtrip((1, 2)) == (1, 2)
        assert _roundtrip([1, 2]) == [1, 2]
        assert _roundtrip([("a", "b"), ("c", "d")]) == [("a", "b"),
                                                        ("c", "d")]

    def test_counter_preserves_insertion_order(self):
        """Counter.most_common breaks ties by insertion order; the codec
        must not silently re-sort it."""
        counter = Counter()
        counter["zebra"] = 2
        counter["apple"] = 2
        restored = _roundtrip(counter)
        assert isinstance(restored, Counter)
        assert restored.most_common() == counter.most_common()

    def test_set_restores(self):
        assert _roundtrip({"b", "a"}) == {"a", "b"}

    def test_tuple_keyed_dict(self):
        value = {("dom.com", "IR"): "akamai-block",
                 ("dom.com", "SY"): "cloudflare-block"}
        assert _roundtrip(value) == value

    def test_dict_preserves_order(self):
        value = {"z": 1, "a": 2}
        assert list(_roundtrip(value)) == ["z", "a"]

    def test_study_dataclasses(self):
        sample = Sample("d.com", "IR", 403, 40, "<html>blocked</html>",
                        None, False)
        values = [
            sample,
            Outlier(index=7, sample=sample, representative=9000,
                    relative_difference=0.92),
            ConfirmedBlock("d.com", "IR", "cloudflare-block", "cloudflare",
                           0.95, 20),
            DiscoveredCluster("cluster-1", 12, "<html>blocked</html>",
                              ("error 1009", "cloudflare"),
                              "cloudflare-block"),
            Fingerprint("custom-block", ("marker a", "marker b"), 42),
            DomainConsistency("d.com", "akamai-block",
                              {"IR": 1.0, "US": 0.0}, 12),
        ]
        for value in values:
            assert _roundtrip(value) == value

    def test_registry(self):
        registry = FingerprintRegistry.default().with_fingerprint(
            Fingerprint("custom-block", ("unique marker",), 99))
        restored = _roundtrip(registry)
        assert list(restored) == list(registry)

    def test_population(self):
        population = CDNPopulation(tested=5)
        population.add("cloudflare", "a.com")
        population.add("akamai", "a.com")
        population.add("akamai", "b.com")
        restored = _roundtrip(population)
        assert restored.tested == 5
        assert restored.customers == population.customers

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_artifact(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_artifact({"__repro__": "no-such-tag"})


class TestFingerprint:
    def test_stable(self):
        a = run_fingerprint({"seed": 1}, {"n": 10}, "top10k", "scan")
        b = run_fingerprint({"seed": 1}, {"n": 10}, "top10k", "scan")
        assert a == b

    def test_sensitive_to_every_input(self):
        base = run_fingerprint({"seed": 1}, {"n": 10}, "top10k", "scan")
        assert run_fingerprint({"seed": 2}, {"n": 10},
                               "top10k", "scan") != base
        assert run_fingerprint({"seed": 1}, {"n": 11},
                               "top10k", "scan") != base
        assert run_fingerprint({"seed": 1}, {"n": 10},
                               "top1m", "scan") != base
        assert run_fingerprint({"seed": 1}, {"n": 10},
                               "top10k", "confirm") != base
        assert run_fingerprint({"seed": 1}, {"n": 10},
                               "top10k", "scan", salt="x") != base

    def test_execution_only_fields_left_out(self):
        # Output is byte-identical across the scan-engine knobs, so a run
        # resumed at another width must hit the same checkpoints.
        from repro.core.pipeline import StudyConfig

        def key(config):
            return run_fingerprint(config, {"n": 10}, "top10k", "scan")

        base = key(StudyConfig(seed=1))
        assert key(StudyConfig(seed=1, workers=2, executor="process",
                               exchange="auto", merge="memory",
                               target_chunk_ms=250,
                               world_source="auto")) == base
        assert key(StudyConfig(seed=1, executor="thread")) == base
        assert key(StudyConfig(seed=2)) != base
        assert key(StudyConfig(seed=1, samples_confirm=19)) != base

    @pytest.mark.parametrize("field,value", [
        ("exchange", "file"),
        ("exchange", "shm"),
        ("merge", "spill"),
        ("target_chunk_ms", 0),
        ("target_chunk_ms", 100),
    ])
    def test_inert_engine_fields_accept_only_their_default(self, field,
                                                           value):
        # Kept only so older callers that spell out the defaults still
        # build a config; anything else would be silently ignored.
        from repro.core.pipeline import StudyConfig

        with pytest.raises(ValueError, match=field):
            StudyConfig(**{field: value})


def _dataset() -> ScanDataset:
    data = ScanDataset()
    data.append("a.com", "US", 200, 9_000, None)
    data.append("a.com", "IR", 403, 480, "<html>block</html>")
    data.append("b.com", "SY", -1, 0, None, error="timeout")
    return data


_STAGE = Stage("scan", (ArtifactSpec("initial", KIND_DATASET),
                        ArtifactSpec("notes")),
               lambda ctx: {"initial": _dataset(), "notes": ["n1", "n2"]})


def _store(tmp_path, study_config=None, world_config=None) -> ArtifactStore:
    return ArtifactStore(str(tmp_path), "study",
                         study_config or {"seed": 1},
                         world_config or {"n": 10})


def _make_legacy_lshm(study) -> list:
    """Rewrite the ``scan`` stage's dataset as a retired LSHM manifest.

    Reproduces the layout older stores wrote: the LSHD segment under its
    content-addressed ``<stem>.seg-<fingerprint>.lshd`` name, an
    ``.lshm`` manifest beside it, and a stage manifest listing the
    ``.lshm`` file.  Returns the two legacy dataset files.
    """
    from repro.lumscan.shards import read_segment_header

    flat = study / "scan.initial.lshd"
    fingerprint = read_segment_header(flat)["fingerprint"]
    segment = study / f"scan.initial.seg-{fingerprint}.lshd"
    flat.rename(segment)
    manifest = study / "scan.initial.lshm"
    manifest.write_bytes(b"LSHM" + json.dumps(
        {"version": 1, "fingerprint": fingerprint, "rows": 3,
         "segments": [[segment.name, 3, fingerprint]]},
        sort_keys=True, separators=(",", ":")).encode("utf-8"))
    stage_manifest = study / "scan.manifest.json"
    record = json.loads(stage_manifest.read_text())
    record["artifacts"][0]["file"] = manifest.name
    stage_manifest.write_text(json.dumps(record))
    return [manifest, segment]


class TestArtifactStore:
    def test_save_then_load_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        artifacts = {"initial": _dataset(), "notes": ["n1", "n2"]}
        store.save_stage(_STAGE, artifacts, probes=9, seconds=0.5)
        manifest = store.manifest(_STAGE)
        assert manifest is not None
        assert manifest["stats"] == {"probes": 9, "seconds": 0.5}
        loaded = store.load_stage(_STAGE)
        assert loaded["notes"] == ["n1", "n2"]
        assert [loaded["initial"].row(i) for i in range(3)] \
            == [artifacts["initial"].row(i) for i in range(3)]

    def test_missing_checkpoint(self, tmp_path):
        store = _store(tmp_path)
        assert store.manifest(_STAGE) is None
        with pytest.raises(FileNotFoundError):
            store.load_stage(_STAGE)

    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        _store(tmp_path).save_stage(
            _STAGE, {"initial": _dataset(), "notes": []})
        other = _store(tmp_path, study_config={"seed": 2})
        assert other.manifest(_STAGE) is None

    def test_missing_artifact_file_invalidates(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        (tmp_path / "study" / "scan.initial.lshd").unlink()
        assert store.manifest(_STAGE) is None

    def test_invalidate_drops_manifest_only(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        store.invalidate([_STAGE])
        assert store.manifest(_STAGE) is None
        # Artifact files survive — only completion is revoked.
        assert (tmp_path / "study" / "scan.initial.lshd").exists()

    def test_invalidate_can_remove_artifacts(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        store.invalidate([_STAGE], remove_artifacts=True)
        assert store.manifest(_STAGE) is None
        assert not (tmp_path / "study" / "scan.initial.lshd").exists()
        assert not (tmp_path / "study" / "scan.notes.json").exists()

    def test_default_format_is_mmapped_lshd(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        loaded = store.load_stage(_STAGE)["initial"]
        assert loaded.is_mapped
        assert [loaded.row(i) for i in range(3)] \
            == [_dataset().row(i) for i in range(3)]

    def test_cross_format_resume(self, tmp_path):
        # A stage manifest that lists a retired .lshm dataset counts as
        # incomplete: resume re-executes the stage (it does not crash
        # trying to load the manifest) and writes an LSHD segment.
        calls = []
        stage = Stage("scan", _STAGE.outputs,
                      lambda ctx: calls.append("scan") or
                      {"initial": _dataset(), "notes": ["n1"]})
        store = _store(tmp_path)
        StudyRunner("study", [stage], store=store).run(_context())
        _make_legacy_lshm(tmp_path / "study")
        assert store.manifest(stage) is None

        ctx = _context()
        StudyRunner("study", [stage], store=store, resume=True).run(ctx)
        assert calls == ["scan", "scan"]
        assert [s.cache_hit for s in ctx.stats] == [False]
        files = [entry["file"] for entry in store.manifest(stage)["artifacts"]]
        assert files == ["scan.initial.lshd", "scan.notes.json"]
        loaded = store.load_stage(stage)["initial"]
        try:
            assert [loaded.row(i) for i in range(3)] \
                == [_dataset().row(i) for i in range(3)]
        finally:
            loaded.close()

    def test_invalidate_removes_legacy_lshm_and_segments(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        study = tmp_path / "study"
        legacy = _make_legacy_lshm(study)
        assert all(path.exists() for path in legacy)
        store.invalidate([_STAGE], remove_artifacts=True)
        assert not any(path.exists() for path in legacy)
        assert sorted(p.name for p in study.iterdir()) == []

    def test_legacy_jsonl_checkpoint_loads(self, tmp_path):
        # Stores no longer write JSONL, but a checkpoint an older store
        # wrote that way still resumes (loads sniff the bytes) and is
        # still removed by invalidate().
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        study = tmp_path / "study"
        (study / "scan.initial.lshd").unlink()
        dump_dataset(_dataset(), str(study / "scan.initial.jsonl.gz"))
        manifest_path = study / "scan.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["artifacts"][0]["file"] = "scan.initial.jsonl.gz"
        manifest_path.write_text(json.dumps(manifest))
        loaded = store.load_stage(_STAGE)["initial"]
        assert not loaded.is_mapped
        assert loaded.row(2) == _dataset().row(2)
        store.invalidate([_STAGE], remove_artifacts=True)
        assert not (study / "scan.initial.jsonl.gz").exists()

    def test_bad_dataset_format_rejected(self, nano_world):
        # Checkpoints are LSHD only; the suite keeps the keyword for older
        # callers but rejects any other format.
        from repro.analysis.experiments import ExperimentSuite

        ExperimentSuite(nano_world, checkpoint_format="lshd")
        for fmt in ("lshm", "csv", "jsonl", "jsonl.gz"):
            with pytest.raises(ValueError, match="checkpoint_format"):
                ExperimentSuite(nano_world, checkpoint_format=fmt)

    def test_dataset_type_enforced(self, tmp_path):
        with pytest.raises(TypeError):
            _store(tmp_path).save_stage(
                _STAGE, {"initial": ["not a dataset"], "notes": []})


def _context(**extras) -> RunContext:
    return RunContext(world=None, config={"seed": 1}, extras=extras)


class TestStudyRunner:
    def test_duplicate_stage_names_rejected(self):
        stage = Stage("dup", (ArtifactSpec("x"),), lambda ctx: {"x": 1})
        with pytest.raises(ValueError):
            StudyRunner("study", [stage, stage])

    def test_runs_stages_in_order_and_threads_artifacts(self):
        stages = [
            Stage("one", (ArtifactSpec("a"),), lambda ctx: {"a": 2}),
            Stage("two", (ArtifactSpec("b"),),
                  lambda ctx: {"b": ctx.artifact("a") * 10}),
        ]
        ctx = _context()
        StudyRunner("study", stages).run(ctx)
        assert ctx.artifact("b") == 20
        assert [s.stage for s in ctx.stats] == ["one", "two"]
        assert not any(s.cache_hit for s in ctx.stats)

    def test_missing_declared_output_raises(self):
        stage = Stage("bad", (ArtifactSpec("present"),
                              ArtifactSpec("absent")),
                      lambda ctx: {"present": 1})
        with pytest.raises(RuntimeError, match="absent"):
            StudyRunner("study", [stage]).run(_context())

    def test_undeclared_artifact_access_raises(self):
        ctx = _context()
        with pytest.raises(KeyError):
            ctx.artifact("nope")

    def test_resume_skips_completed_stages(self, tmp_path):
        calls = []

        def make(name, value):
            def run(ctx):
                calls.append(name)
                return {name: value}
            return Stage(name, (ArtifactSpec(name),), run)

        stages = [make("a", 1), make("b", 2)]
        store = _store(tmp_path)
        runner = StudyRunner("study", stages, store=store)
        runner.run(_context())
        assert calls == ["a", "b"]

        store.invalidate([stages[1]])
        resumed = StudyRunner("study", stages, store=store, resume=True)
        ctx = _context()
        resumed.run(ctx)
        assert calls == ["a", "b", "b"]   # "a" loaded, "b" re-ran
        assert [s.cache_hit for s in ctx.stats] == [True, False]
        assert ctx.artifact("a") == 1 and ctx.artifact("b") == 2

    def test_resume_without_store_executes_everything(self):
        calls = []
        stage = Stage("s", (ArtifactSpec("s"),),
                      lambda ctx: calls.append("s") or {"s": 1})
        StudyRunner("study", [stage], resume=True).run(_context())
        assert calls == ["s"]

    def test_probe_counter_delta(self):
        counter = {"n": 0}

        def probe(ctx):
            counter["n"] += 7
            return {"x": 1}

        ctx = RunContext(world=None, config={}, extras={},
                         probe_counter=lambda: counter["n"])
        StudyRunner("study",
                    [Stage("x", (ArtifactSpec("x"),), probe)]).run(ctx)
        assert ctx.stats[0].probes == 7
