"""Tests for dataset persistence: LSHD segments, JSONL, and sniffing."""

import os

import pytest

from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.lumscan.serialize import (
    dump_dataset,
    dump_dataset_lshd,
    load_dataset,
    sniff_format,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _dataset():
    data = ScanDataset()
    data.append("a.com", "US", 200, 9_000, None)
    data.append("a.com", "IR", 403, 480, "<html>block page</html>")
    data.append("b.com", "SY", NO_RESPONSE, 0, None, error="timeout")
    data.append("c.com", "US", 403, 50, "fw", interfered=True)
    return data


class TestRoundtrip:
    def test_roundtrip_preserves_records(self, tmp_path):
        original = _dataset()
        path = tmp_path / "scan.jsonl"
        written = dump_dataset(original, path)
        assert written == len(original)
        loaded = load_dataset(path)
        assert len(loaded) == len(original)
        for i in range(len(original)):
            assert loaded.row(i) == original.row(i)

    def test_roundtrip_preserves_pairs(self, tmp_path):
        original = _dataset()
        path = tmp_path / "scan.jsonl"
        dump_dataset(original, path)
        loaded = load_dataset(path)
        assert ([(d, c) for d, c, _ in loaded.pairs()]
                == [(d, c) for d, c, _ in original.pairs()])

    def test_roundtrip_run_structure(self, tmp_path):
        """Runs survive the round trip even though JSON-decoded strings
        are fresh objects (regression: run detection once compared
        domain/country with ``is``, which only worked for interned
        literals and shattered loaded datasets into length-1 runs)."""
        original = ScanDataset()
        for _ in range(3):
            original.append("run.example", "US", 200, 100, None)
        for _ in range(2):
            original.append("run.example", "IR", 403, 50, "blocked")
        path = tmp_path / "scan.jsonl"
        dump_dataset(original, path)
        loaded = load_dataset(path)
        runs = [(d, c, len(s)) for d, c, s in loaded.pairs()]
        assert runs == [("run.example", "US", 3), ("run.example", "IR", 2)]

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert dump_dataset(ScanDataset(), path) == 0
        assert len(load_dataset(path)) == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        dump_dataset(_dataset(), path)
        content = path.read_text()
        path.write_text(content.replace("\n", "\n\n"))
        assert len(load_dataset(path)) == 4


class TestErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_dataset(path)

    def test_unknown_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"domain":"a.com","country":"US","status":200,'
                        '"length":1,"surprise":true}\n')
        with pytest.raises(ValueError, match="unknown fields"):
            load_dataset(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"domain":"a.com","country":"US"}\n')
        with pytest.raises(ValueError, match="missing field"):
            load_dataset(path)


class TestGzip:
    def test_gz_roundtrip_preserves_records(self, tmp_path):
        original = _dataset()
        path = tmp_path / "scan.jsonl.gz"
        written = dump_dataset(original, path)
        assert written == len(original)
        loaded = load_dataset(path)
        assert len(loaded) == len(original)
        for i in range(len(original)):
            assert loaded.row(i) == original.row(i)

    def test_gz_file_is_actually_compressed(self, tmp_path):
        path = tmp_path / "scan.jsonl.gz"
        dump_dataset(_dataset(), path)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"

    def test_gz_bytes_are_deterministic(self, tmp_path):
        """mtime=0 keeps the byte stream a pure function of the content —
        checkpoint comparison and resume tests rely on this."""
        a = tmp_path / "a.jsonl.gz"
        b = tmp_path / "b.jsonl.gz"
        dump_dataset(_dataset(), a)
        dump_dataset(_dataset(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_gz_and_plain_agree(self, tmp_path):
        original = _dataset()
        plain = tmp_path / "scan.jsonl"
        gz = tmp_path / "scan.jsonl.gz"
        dump_dataset(original, plain)
        dump_dataset(original, gz)
        import gzip
        assert gzip.open(gz, "rt").read() == plain.read_text()

    def test_empty_gz_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl.gz"
        assert dump_dataset(ScanDataset(), path) == 0
        assert len(load_dataset(path)) == 0


class TestLSHD:
    def test_mapped_roundtrip_preserves_records(self, tmp_path):
        original = _dataset()
        path = tmp_path / "scan.lshd"
        assert dump_dataset_lshd(original, path) == len(original)
        loaded = load_dataset(path)
        try:
            assert loaded.is_mapped
            for i in range(len(original)):
                assert loaded.row(i) == original.row(i)
        finally:
            loaded.close()

    def test_materialized_load_copies_and_releases(self, tmp_path):
        path = tmp_path / "scan.lshd"
        dump_dataset_lshd(_dataset(), path)
        loaded = load_dataset(path, mmap=False)
        assert not loaded.is_mapped
        os.remove(path)  # no mapping holds the file
        assert loaded.row(3) == _dataset().row(3)
        # A materialized dataset stays growable like any other.
        loaded.append("d.com", "DE", 200, 1, None)
        assert len(loaded) == 5

    def test_lshd_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.lshd", tmp_path / "b.lshd"
        dump_dataset_lshd(_dataset(), a)
        dump_dataset_lshd(_dataset(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_lshd_dataset(self, tmp_path):
        path = tmp_path / "empty.lshd"
        assert dump_dataset_lshd(ScanDataset(), path) == 0
        data = load_dataset(path)
        try:
            assert len(data) == 0
        finally:
            data.close()

    def test_pairs_and_runs_on_mapped_dataset(self, tmp_path):
        original = ScanDataset()
        for _ in range(3):
            original.append("run.example", "US", 200, 100, None)
        for _ in range(2):
            original.append("run.example", "IR", 403, 50, "blocked")
        path = tmp_path / "runs.lshd"
        dump_dataset_lshd(original, path)
        loaded = load_dataset(path)
        try:
            runs = [(d, c, len(s)) for d, c, s in loaded.pairs()]
            assert runs == [("run.example", "US", 3),
                            ("run.example", "IR", 2)]
        finally:
            loaded.close()


class TestSniffing:
    def test_sniffs_each_format(self, tmp_path):
        dump_dataset(_dataset(), tmp_path / "a")
        dump_dataset(_dataset(), tmp_path / "b.gz")
        dump_dataset_lshd(_dataset(), tmp_path / "c")
        assert sniff_format(tmp_path / "a") == "jsonl"
        assert sniff_format(tmp_path / "b.gz") == "jsonl.gz"
        assert sniff_format(tmp_path / "c") == "lshd"

    def test_extension_is_never_trusted(self, tmp_path):
        # An LSHD segment under a legacy extension still loads as LSHD.
        path = tmp_path / "scan.jsonl.gz"
        dump_dataset_lshd(_dataset(), path)
        loaded = load_dataset(path)
        try:
            assert loaded.is_mapped
            assert loaded.row(0) == _dataset().row(0)
        finally:
            loaded.close()

    def test_retired_lshm_manifest_rejected_by_name(self, tmp_path):
        # Multi-segment LSHM manifests are no longer read: their magic is
        # recognized so the error names the format instead of failing
        # as malformed JSONL.
        path = tmp_path / "scan.lshm"
        path.write_bytes(b'LSHM{"rows":0,"segments":[],"version":1}')
        assert sniff_format(path) == "lshm"
        for mmap in (True, False):
            with pytest.raises(ValueError, match="LSHM"):
                load_dataset(path, mmap=mmap)

    def test_legacy_gzip_fixture_still_loads(self):
        # Frozen bytes from the pre-columnar gzip-JSONL writer: the
        # loader must keep reading checkpoints written before LSHD
        # became the default format.
        path = os.path.join(FIXTURES, "legacy_scan.jsonl.gz")
        assert sniff_format(path) == "jsonl.gz"
        loaded = load_dataset(path)
        assert len(loaded) == 4
        for i in range(4):
            assert loaded.row(i) == _dataset().row(i)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        dump_dataset(_dataset(), tmp_path / "scan.jsonl")
        dump_dataset(_dataset(), tmp_path / "scan.jsonl.gz")
        dump_dataset_lshd(_dataset(), tmp_path / "scan.lshd")
        leftovers = [p.name for p in tmp_path.iterdir()
                     if ".tmp." in p.name]
        assert leftovers == []

    def test_failed_dump_preserves_existing_file(self, tmp_path):
        """A crash mid-write must leave the previous dataset intact."""
        path = tmp_path / "scan.jsonl"
        dump_dataset(_dataset(), path)
        before = path.read_bytes()

        class Exploding(ScanDataset):
            def __iter__(self):
                yield from super().__iter__()
                raise RuntimeError("simulated crash mid-write")

        bad = Exploding()
        bad.append("x.com", "US", 200, 1, None)
        with pytest.raises(RuntimeError):
            dump_dataset(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()
                if ".tmp." in p.name] == []
