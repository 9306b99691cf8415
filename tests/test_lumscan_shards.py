"""The LSHD shard codec and the engine's streaming-merge primitives.

Covers the full worker→parent transport in isolation: segment encode /
decode round-trips (file and shared memory), deterministic segment
bytes, handle release and exchange-session cleanup, plus unit tests for
the :class:`ChunkReorderBuffer` (out-of-order reassembly, duplicate
rejection) and the :class:`ChunkAutotuner` (latency-driven sizing,
clamps, required target).
"""

import os

import pytest

from repro.lumscan.engine import ChunkAutotuner, ChunkReorderBuffer
from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import (
    KIND_FILE,
    KIND_SHM,
    ExchangeSpec,
    SegmentMapping,
    ShardExchange,
    decode_shard,
    encode_shard,
    open_shard,
    payload_base,
    read_segment_header,
    release_shard,
    shm_available,
    write_segment_file,
    write_shard,
)

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="POSIX shared memory unavailable")


def _sample_dataset() -> ScanDataset:
    data = ScanDataset()
    data.append("alpha.example", "US", 200, 1234, "hello world")
    data.append("alpha.example", "IR", 403, 0, "blocked", interfered=True)
    data.append("beta.example", "US", 0, 0, None, error="conn-timeout")
    data.append("beta.example", "IR", 200, 9999, None)
    data.append("gamma.example", "CN", 0, 0, None, error="proxy-5xx")
    data.append("gamma.example", "US", 0, 0, None, error="conn-timeout")
    return data


def _rows(data):
    return [data.row(i) for i in range(len(data))]


def _roundtrip(tmp_path, mode):
    source = _sample_dataset()
    spec = ExchangeSpec(mode=mode, directory=str(tmp_path))
    handle = write_shard(source.export_columns(), spec, seq=0)
    merged = ScanDataset()
    try:
        with open_shard(handle) as reader:
            merged.extend_columns(reader.columns)
    finally:
        release_shard(handle)
    return source, merged


class TestSegmentRoundTrip:
    def test_file_roundtrip_preserves_rows(self, tmp_path):
        source, merged = _roundtrip(tmp_path, KIND_FILE)
        assert _rows(merged) == _rows(source)

    @needs_shm
    def test_shm_roundtrip_preserves_rows(self, tmp_path):
        source, merged = _roundtrip(tmp_path, KIND_SHM)
        assert _rows(merged) == _rows(source)

    def test_roundtrip_into_nonempty_dataset_remaps_codes(self, tmp_path):
        # The parent dataset already interned other labels, so every
        # shard code must be remapped, not copied.
        merged = ScanDataset()
        merged.append("zeta.example", "JP", 200, 10, "first")
        merged.append("alpha.example", "US", 0, 0, None, error="dns-nxdomain")
        source = _sample_dataset()
        spec = ExchangeSpec(mode=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(source.export_columns(), spec, seq=0)
        try:
            with open_shard(handle) as reader:
                merged.extend_columns(reader.columns)
        finally:
            release_shard(handle)
        assert _rows(merged)[2:] == _rows(source)
        assert merged.row(0).domain == "zeta.example"
        assert merged.row(1).error == "dns-nxdomain"

    def test_empty_dataset_roundtrips(self, tmp_path):
        spec = ExchangeSpec(mode=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(ScanDataset().export_columns(), spec, seq=0)
        merged = ScanDataset()
        try:
            with open_shard(handle) as reader:
                merged.extend_columns(reader.columns)
        finally:
            release_shard(handle)
        assert len(merged) == 0


class TestSegmentDeterminism:
    def test_identical_rows_identical_bytes(self, tmp_path):
        # Segment bytes are a pure function of the rows: two datasets
        # built the same way must serialize to identical segments.
        a, _, na = encode_shard(_sample_dataset().export_columns())
        b, _, nb = encode_shard(_sample_dataset().export_columns())
        assert a == b and na == nb
        spec = ExchangeSpec(mode=KIND_FILE, directory=str(tmp_path))
        first = write_shard(_sample_dataset().export_columns(), spec, seq=0)
        second = write_shard(_sample_dataset().export_columns(), spec, seq=1)
        try:
            with open(first.ref, "rb") as fh:
                blob_a = fh.read()
            with open(second.ref, "rb") as fh:
                blob_b = fh.read()
        finally:
            release_shard(first)
            release_shard(second)
        assert blob_a == blob_b

    def test_payload_sections_are_aligned(self):
        header, payload, _ = encode_shard(_sample_dataset().export_columns())
        base = payload_base(header)
        assert base % 16 == 0
        for offset, _blob in payload:
            assert (base + offset) % 16 == 0


class TestHandleLifecycle:
    def test_release_removes_spill_file_and_is_idempotent(self, tmp_path):
        spec = ExchangeSpec(mode=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(_sample_dataset().export_columns(), spec, seq=3)
        assert os.path.exists(handle.ref)
        release_shard(handle)
        assert not os.path.exists(handle.ref)
        release_shard(handle)  # second release must be a no-op

    @needs_shm
    def test_release_unlinks_shm_and_is_idempotent(self):
        spec = ExchangeSpec(mode=KIND_SHM, directory="")
        handle = write_shard(_sample_dataset().export_columns(), spec, seq=0)
        release_shard(handle)
        with pytest.raises(FileNotFoundError):
            open_shard(handle)
        release_shard(handle)  # idempotent

    def test_no_temp_residue_after_write(self, tmp_path):
        spec = ExchangeSpec(mode=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(_sample_dataset().export_columns(), spec, seq=0)
        names = sorted(os.listdir(tmp_path))
        release_shard(handle)
        assert names == [os.path.basename(handle.ref)]


class TestShardExchange:
    def test_file_session_directory_lifecycle(self, tmp_path, no_shm):
        exchange = ShardExchange(spill_dir=str(tmp_path))
        assert exchange.mode == KIND_FILE
        with exchange:
            session = exchange.directory
            assert session is not None and os.path.isdir(session)
            spec = exchange.spec()
            handle = write_shard(_sample_dataset().export_columns(),
                                 spec, seq=0)
            assert os.path.dirname(handle.ref) == session
        # Closing the session removes the directory and any segments
        # still inside it — the engine's error paths rely on this.
        assert not os.path.exists(session)

    def test_spec_before_open_raises(self, no_shm):
        with pytest.raises(RuntimeError):
            ShardExchange().spec()

    def test_auto_resolves_to_concrete_kind(self, monkeypatch):
        # shm_available() alone picks the transport: shared memory where
        # the platform has it, spill files where it does not.
        import repro.lumscan.shards as shards

        expected = KIND_SHM if shm_available() else KIND_FILE
        assert ShardExchange().mode == expected
        monkeypatch.setattr(shards, "shm_available", lambda: False)
        assert ShardExchange().mode == KIND_FILE


class TestSegmentFile:
    def test_roundtrip_preserves_rows(self, tmp_path):
        source = _sample_dataset()
        target = str(tmp_path / "data.lshd")
        total = write_segment_file(source.export_columns(), target)
        assert total == os.path.getsize(target)
        mapping = SegmentMapping(target)
        try:
            merged = ScanDataset()
            merged.extend_columns(decode_shard(mapping.buffer))
        finally:
            assert mapping.close()
        assert _rows(merged) == _rows(source)

    def test_fingerprinted_and_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.lshd"), str(tmp_path / "b.lshd")
        write_segment_file(_sample_dataset().export_columns(), a)
        write_segment_file(_sample_dataset().export_columns(), b)
        with open(a, "rb") as fh:
            blob_a = fh.read()
        with open(b, "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b
        header = read_segment_header(a)
        assert header["fingerprint"] == read_segment_header(b)["fingerprint"]
        assert len(header["fingerprint"]) == 32  # blake2b-128 hex

    def test_no_temp_residue(self, tmp_path):
        write_segment_file(_sample_dataset().export_columns(),
                           str(tmp_path / "data.lshd"))
        assert sorted(os.listdir(tmp_path)) == ["data.lshd"]

    def test_header_reads_without_mapping_payload(self, tmp_path):
        source = _sample_dataset()
        target = str(tmp_path / "data.lshd")
        write_segment_file(source.export_columns(), target)
        header = read_segment_header(target)
        assert header["n"] == len(source)
        assert [name for name, _, _, _ in header["columns"]] \
            == ["dcodes", "ccodes", "statuses", "lengths", "ecodes"]
        assert [name for name, _, _ in header["json"]] \
            == ["domains", "countries", "errors", "bodies", "interfered"]

    def test_bad_magic_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.lshd"
        bogus.write_bytes(b"not a segment at all")
        with pytest.raises(ValueError):
            read_segment_header(str(bogus))

    def test_truncated_header_rejected(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        with open(target, "rb") as fh:
            blob = fh.read()
        short = tmp_path / "short.lshd"
        short.write_bytes(blob[:10])
        with pytest.raises(ValueError):
            read_segment_header(str(short))


class TestSegmentMapping:
    def test_close_without_views_succeeds(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        mapping = SegmentMapping(target)
        assert not mapping.closed
        assert mapping.close() is True
        assert mapping.closed
        with pytest.raises(ValueError):
            mapping.buffer

    def test_close_with_live_view_reports_false(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        mapping = SegmentMapping(target)
        columns = decode_shard(mapping.buffer)
        view = columns.dcodes
        assert mapping.close() is False   # view pins the mapping
        assert int(view[0]) == 0          # ...and stays readable
        del columns, view
        assert mapping.close() is True

    def test_close_is_idempotent(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        mapping = SegmentMapping(target)
        assert mapping.close() is True
        assert mapping.close() is True


class TestChunkReorderBuffer:
    def test_reverse_completion_order_reassembles(self):
        buffer = ChunkReorderBuffer()
        for seq in (3, 2, 1):
            buffer.push(seq, f"chunk-{seq}")
            assert buffer.pop_ready() == []  # seq 0 still missing
        buffer.push(0, "chunk-0")
        assert buffer.pop_ready() == [f"chunk-{i}" for i in range(4)]
        assert buffer.pending == 0
        assert buffer.next_seq == 4

    def test_interleaved_completion(self):
        buffer = ChunkReorderBuffer()
        buffer.push(1, "b")
        buffer.push(0, "a")
        assert buffer.pop_ready() == ["a", "b"]
        buffer.push(2, "c")
        assert buffer.pop_ready() == ["c"]

    def test_duplicate_sequence_rejected(self):
        buffer = ChunkReorderBuffer()
        buffer.push(0, "a")
        with pytest.raises(ValueError):
            buffer.push(0, "retry-of-a")
        assert buffer.pop_ready() == ["a"]
        with pytest.raises(ValueError):
            buffer.push(0, "late-retry")  # already merged

    def test_drain_returns_everything_in_order(self):
        buffer = ChunkReorderBuffer()
        buffer.push(5, "f")
        buffer.push(2, "c")
        assert buffer.drain() == ["c", "f"]
        assert buffer.pending == 0


class TestChunkAutotuner:
    def test_grows_toward_target(self):
        # 1000 probes/s at a 0.25s target wants ~250-task chunks, but
        # growth is clamped to doubling per observation.
        tuner = ChunkAutotuner(32, target_seconds=0.25)
        tuner.record(32, 0.032)
        assert tuner.chunk_size() == 64
        tuner.record(64, 0.064)
        assert tuner.chunk_size() == 128
        tuner.record(128, 0.128)
        assert tuner.chunk_size() == 250

    def test_shrinks_on_slow_chunks(self):
        # 100 probes/s at a 0.25s target wants 25-task chunks; shrink is
        # clamped to halving per observation and floored at min_size.
        tuner = ChunkAutotuner(512, target_seconds=0.25)
        tuner.record(512, 5.12)
        assert tuner.chunk_size() == 256
        tuner.record(256, 2.56)
        assert tuner.chunk_size() == 128
        for _ in range(10):
            tuner.record(tuner.chunk_size(), tuner.chunk_size() / 100.0)
        assert tuner.chunk_size() == 25

    def test_zero_elapsed_is_a_no_op(self):
        # A frozen ManualClock shipped to workers reports zero elapsed;
        # the tuner must hold the size (deterministic chunking).
        tuner = ChunkAutotuner(64, target_seconds=0.25)
        tuner.record(64, 0.0)
        tuner.record(0, 1.0)
        assert tuner.chunk_size() == 64
        assert tuner.rate is None

    def test_respects_min_and_max(self):
        tuner = ChunkAutotuner(16, target_seconds=1.0,
                               min_size=8, max_size=64)
        for _ in range(8):
            tuner.record(tuner.chunk_size(), 1e-6)  # absurdly fast
        assert tuner.chunk_size() == 64
        # The smoothed rate halves per observation, so walking back down
        # from the fast regime takes a stretch of slow chunks.
        for _ in range(40):
            tuner.record(tuner.chunk_size(), 1e6)  # absurdly slow
        assert tuner.chunk_size() == 8

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            ChunkAutotuner(0, target_seconds=0.25)

    def test_requires_positive_target(self):
        # There is no fixed-size mode: tests that need fixed chunks feed
        # zero elapsed times (a ManualClock) instead.
        with pytest.raises(TypeError):
            ChunkAutotuner(64)
        for target in (0, 0.0, -0.25):
            with pytest.raises(ValueError, match="target_seconds"):
                ChunkAutotuner(64, target_seconds=target)
