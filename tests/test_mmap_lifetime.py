"""Lifetime safety of mmap-backed datasets and checkpoint determinism.

Mapped datasets hand out zero-copy numpy views over a file mapping, so
the dangerous states are all about *who outlives whom*: a view kept
after the dataset closes, a store invalidating (unlinking) a segment a
reader still has mapped, a mapped dataset crossing a pickle boundary.
These tests pin the contract: views stay readable, ``close()`` reports
honestly whether the mapping was released, and POSIX unlink semantics
keep open mappings valid.  The last class re-runs the LSHD checkpoint
writer under different ``PYTHONHASHSEED`` values and asserts
byte-identical segments — the codec equivalent of the repro.lint
iteration-order rules.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.lumscan.records import ScanDataset
from repro.lumscan.serialize import dump_dataset_lshd, load_dataset
from repro.run.artifacts import ArtifactStore
from repro.run.stage import ArtifactSpec, KIND_DATASET, Stage


def _dataset() -> ScanDataset:
    data = ScanDataset()
    data.append("a.com", "US", 200, 9_000, None)
    data.append("a.com", "IR", 403, 480, "<html>block</html>")
    data.append("b.com", "SY", -1, 0, None, error="timeout")
    data.append("c.com", "US", 403, 50, "fw", interfered=True)
    return data


def _mapped(tmp_path, name="scan.lshd") -> ScanDataset:
    path = tmp_path / name
    dump_dataset_lshd(_dataset(), path)
    return load_dataset(path)


class TestCloseSemantics:
    def test_clean_close_releases_mapping(self, tmp_path):
        data = _mapped(tmp_path)
        assert data.is_mapped
        assert data.close() is True
        assert len(data) == 0

    def test_closed_dataset_rejects_reads_and_writes(self, tmp_path):
        data = _mapped(tmp_path)
        data.close()
        with pytest.raises(ValueError):
            data.row(0)
        with pytest.raises(ValueError):
            data.append("d.com", "DE", 200, 1, None)

    def test_view_outlives_close(self, tmp_path):
        # A column view exported before close() stays readable: the
        # mapping cannot be released while the view pins it, and close()
        # reports that by returning False.
        data = _mapped(tmp_path)
        statuses = data.export_columns().statuses
        assert data.close() is False
        assert [int(s) for s in statuses] == [200, 403, -1, 403]
        del statuses
        # With the last view gone the dataset is already detached; a
        # second close is a no-op on the dataset side.

    def test_double_close_is_idempotent(self, tmp_path):
        data = _mapped(tmp_path)
        assert data.close() is True
        assert data.close() is True

    def test_append_detaches_from_mapping(self, tmp_path):
        # Growing a mapped dataset must copy into ordinary buffers, not
        # write through to the file.
        path = tmp_path / "scan.lshd"
        dump_dataset_lshd(_dataset(), path)
        before = path.read_bytes()
        data = load_dataset(path)
        data.append("d.com", "DE", 200, 1, None)
        assert len(data) == 5
        assert path.read_bytes() == before
        data.close()

    def test_pickle_produces_plain_copy(self, tmp_path):
        data = _mapped(tmp_path)
        clone = pickle.loads(pickle.dumps(data))
        assert not clone.is_mapped
        data.close()
        assert clone.row(1) == _dataset().row(1)


_STAGE = Stage("scan", (ArtifactSpec("initial", KIND_DATASET),),
               lambda ctx: {"initial": _dataset()})


class TestInvalidateWhileMapped:
    def test_unlinked_segment_stays_readable(self, tmp_path):
        # POSIX keeps the mapped pages alive after unlink, so a reader
        # holding a checkpoint survives the store removing it.
        store = ArtifactStore(str(tmp_path), "study", {"seed": 1}, {"n": 1})
        store.save_stage(_STAGE, {"initial": _dataset()})
        reader = store.load_stage(_STAGE)["initial"]
        assert reader.is_mapped

        store.invalidate([_STAGE], remove_artifacts=True)
        assert not (tmp_path / "study" / "scan.initial.lshd").exists()
        assert [reader.row(i) for i in range(4)] \
            == [_dataset().row(i) for i in range(4)]
        assert reader.close() is True

    def test_rewrite_under_reader_does_not_corrupt_it(self, tmp_path):
        # save_stage replaces the segment via atomic rename; a reader
        # mapped to the old inode keeps seeing the old rows.
        store = ArtifactStore(str(tmp_path), "study", {"seed": 1}, {"n": 1})
        store.save_stage(_STAGE, {"initial": _dataset()})
        reader = store.load_stage(_STAGE)["initial"]

        bigger = _dataset()
        bigger.append("d.com", "DE", 200, 1, None)
        store.save_stage(_STAGE, {"initial": bigger})

        assert len(reader) == 4
        assert reader.row(0) == _dataset().row(0)
        reader.close()
        fresh = store.load_stage(_STAGE)["initial"]
        assert len(fresh) == 5
        fresh.close()


_DUMP_SCRIPT = r"""
import sys

from repro.lumscan.records import ScanDataset
from repro.lumscan.serialize import dump_dataset_lshd

data = ScanDataset()
for domain, country, status, length, body, error, interfered in [
    ("zeta.example", "US", 200, 9000, None, None, False),
    ("zeta.example", "IR", 403, 480, "<html>block</html>", None, True),
    ("alpha.example", "SY", -1, 0, None, "timeout", False),
    ("mid.example", "CN", 403, 50, "fw", None, True),
    ("alpha.example", "RU", 451, 77, "<html>legal</html>", None, False),
]:
    data.append(domain, country, status, length, body,
                error=error, interfered=interfered)
dump_dataset_lshd(data, sys.argv[1])
sys.stdout.buffer.write(open(sys.argv[1], "rb").read())
"""


def _dump_with_hash_seed(seed: str, tmp_path) -> bytes:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = seed
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _DUMP_SCRIPT,
         str(tmp_path / f"seed{seed}.lshd")],
        capture_output=True, env=env, check=True)
    return result.stdout


class TestCheckpointHashSeedIndependence:
    def test_segments_identical_across_hash_seeds(self, tmp_path):
        first = _dump_with_hash_seed("1", tmp_path)
        second = _dump_with_hash_seed("2", tmp_path)
        assert first.startswith(b"LSHD")
        assert first == second

    def test_segments_stable_across_repeat_runs(self, tmp_path):
        assert _dump_with_hash_seed("42", tmp_path) \
            == _dump_with_hash_seed("43", tmp_path)
