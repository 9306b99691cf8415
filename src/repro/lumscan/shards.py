"""Columnar shard exchange: zero-copy worker→parent result transport.

Pickling whole :class:`~repro.lumscan.records.ScanDataset` objects back
to the parent would pay per-row serialization cost in the worker *and*
the parent, on the merge path that every probe funnels through.  The
process pool instead exchanges flat binary **shard segments**: a worker
serializes its trimmed int-coded columns (raw numpy buffers plus JSON
code tables) into a `multiprocessing.shared_memory` block — or, where
POSIX shared memory is missing (:func:`shm_available`), an mmap-able
spill file — and returns only a tiny picklable
:class:`ShardHandle`.  The parent maps the
segment, rebuilds :class:`~repro.lumscan.records.ShardColumns` views
directly over the mapped bytes (``np.frombuffer`` — no row decode, no
copy), bulk-extends its dataset, and releases the segment.

Segment layout (format ``LSHD`` v1)::

    offset 0   magic  b"LSHD"
    offset 4   u32 LE header length H
    offset 8   header: canonical JSON (sorted keys, no whitespace)
    ...        zero padding to a 16-byte boundary  -> payload base B
    B + off    payload sections at the offsets the header records

The header carries two tables, each entry ``[name, ..., offset, nbytes]``
with offsets relative to ``B``:

* ``columns`` — the five fixed-dtype row columns (``dcodes`` ``<i4``,
  ``ccodes`` ``<i4``, ``statuses`` ``<i2``, ``lengths`` ``<i8``,
  ``ecodes`` ``<i2``), stored as raw little-endian buffers, each padded
  to 16-byte alignment so the mapped views are aligned.
* ``json`` — the string-bearing sections (domain/country/error code
  tables, retained bodies as ``[row, body]`` pairs, interfered row
  indices), stored as canonical JSON.

**Ordering guarantees.**  Code tables are written in first-seen row
order (their in-memory order), bodies are written sorted by row index,
and interfered indices are written sorted — every byte of a segment is a
pure function of the chunk's rows, so identical chunks produce identical
segments and the ``repro.lint`` iter-order rule can treat the writer as
a serialization sink.  Merging segments in chunk-sequence order through
:meth:`ScanDataset.extend_columns` therefore reproduces the serial
dataset bit-for-bit.

Lifetime is owned by the parent: workers ``close()`` (and unregister
from their resource tracker) immediately after writing, and the parent
unlinks each segment after merging it — or, on error paths, via
:func:`release_shard` / the :class:`ShardExchange` session context.

Beyond the worker exchange, the same format is the repo's **checkpoint
and analytics substrate**: :func:`write_segment_file` persists a whole
dataset as one fingerprinted segment (atomic rename, bit-deterministic),
and :class:`SegmentMapping` + :meth:`ScanDataset.from_columns` open it
back as a zero-copy mapped dataset.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lumscan.records import ShardColumns

MAGIC = b"LSHD"
FORMAT_VERSION = 1

#: Section alignment: mapped column views start on 16-byte boundaries.
ALIGNMENT = 16

#: Canonical row-column order and on-disk dtypes (little-endian).
COLUMN_DTYPES: Tuple[Tuple[str, str], ...] = (
    ("dcodes", "<i4"),
    ("ccodes", "<i4"),
    ("statuses", "<i2"),
    ("lengths", "<i8"),
    ("ecodes", "<i2"),
)

#: Canonical order of the JSON-encoded sections.
JSON_SECTIONS: Tuple[str, ...] = (
    "domains", "countries", "errors", "bodies", "interfered",
)

#: Transport kinds a segment can live in.
KIND_SHM = "shm"
KIND_FILE = "file"

#: Resource-lifetime contract enforced by ``repro.lint`` (flow-sensitive
#: acquire/release pairing, buffer-escape, and atomic-write rules).  A
#: pure literal: the linter parses it with ``ast.literal_eval`` and
#: merges it into its contract registry — keep it in sync with the
#: classes below when the codec surface changes.
LINT_RESOURCE_CONTRACT = {
    "codec": "shards",
    "resources": [
        {"name": "shard-exchange",
         "acquire": ["ShardExchange"],
         "release_methods": ["close"]},
        {"name": "shard-reader",
         "acquire": ["ShardReader", "open_shard"],
         "release_methods": ["close"],
         "release_funcs": ["release_shard"]},
        {"name": "segment-mapping",
         "acquire": ["SegmentMapping"],
         "release_methods": ["close"]},
    ],
    "buffers": [
        {"name": "segment-mapping",
         "acquire": ["SegmentMapping"],
         "close_methods": ["close"],
         "view_attrs": ["buffer"],
         "view_funcs": ["decode_shard"]},
    ],
    "atomic": {
        "suffixes": [".lshd", "manifest.json"],
        "writers": ["write_segment_file"],
    },
}


@dataclass(frozen=True)
class ShardHandle:
    """Lightweight picklable reference to one written shard segment.

    This is everything a worker sends back through the pool: the parent
    re-opens the segment by ``ref`` (a shared-memory block name or a
    spill-file path) and never receives the rows themselves.
    """

    kind: str      # KIND_SHM or KIND_FILE
    ref: str       # shm block name, or absolute spill-file path
    nbytes: int    # total segment size


@dataclass(frozen=True)
class ExchangeSpec:
    """Picklable recipe telling worker processes where to write shards."""

    mode: str          # KIND_SHM or KIND_FILE
    directory: str     # spill session directory (empty for shared memory)


def shm_available() -> bool:
    """True when POSIX shared memory can actually be allocated here."""
    try:
        from multiprocessing import shared_memory
        block = shared_memory.SharedMemory(create=True, size=ALIGNMENT)
    except (ImportError, OSError):
        return False
    block.close()
    block.unlink()
    return True


def _pad(n: int) -> int:
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


#: Digest width of the optional segment fingerprint (blake2b, hex).
FINGERPRINT_BYTES = 16


def _combine_digests(digests: List[bytes]) -> str:
    """Fold per-section digests into the segment fingerprint.

    The fingerprint hashes the sections' *digests* (in payload order)
    rather than the raw bytes, so a writer can digest each section as it
    is produced; the worldpack writer folds its sections the same way.
    """
    outer = hashlib.blake2b(digest_size=FINGERPRINT_BYTES)
    for digest in digests:
        outer.update(digest)
    return outer.hexdigest()


def encode_shard(columns: ShardColumns,
                 fingerprint: bool = False
                 ) -> Tuple[bytes, List[Tuple[int, bytes]], int]:
    """Serialize a column bundle to ``(header, payload, payload_nbytes)``.

    ``payload`` is a list of ``(relative_offset, bytes)`` sections; the
    caller places them at ``payload_base(header) + offset``.  Every byte
    is a deterministic function of the rows: code tables keep first-seen
    order, bodies are sorted by row index, interfered indices sorted.

    ``fingerprint=True`` adds a payload digest to the header (checkpoint
    segments carry one; hot-path worker shards skip the hashing cost).
    Readers ignore unknown header keys, so both flavors decode the same.
    """
    payload: List[Tuple[int, bytes]] = []
    column_meta = []
    offset = 0
    arrays = {
        "dcodes": columns.dcodes,
        "ccodes": columns.ccodes,
        "statuses": columns.statuses,
        "lengths": columns.lengths,
        "ecodes": columns.ecodes,
    }
    for name, dtype in COLUMN_DTYPES:
        blob = np.ascontiguousarray(
            arrays[name][: columns.n], dtype=np.dtype(dtype)).tobytes()
        column_meta.append([name, dtype, offset, len(blob)])
        payload.append((offset, blob))
        offset += _pad(len(blob))
    sections = {
        "domains": list(columns.domain_names),
        "countries": list(columns.country_names),
        "errors": list(columns.error_names),
        "bodies": [[int(row), body]
                   for row, body in sorted(columns.bodies.items())],
        "interfered": sorted(int(row) for row in columns.interfered),
    }
    json_meta = []
    for name in JSON_SECTIONS:
        blob = json.dumps(sections[name], ensure_ascii=False,
                          separators=(",", ":")).encode("utf-8")
        json_meta.append([name, offset, len(blob)])
        payload.append((offset, blob))
        offset += _pad(len(blob))
    header = {
        "version": FORMAT_VERSION,
        "n": int(columns.n),
        "columns": column_meta,
        "json": json_meta,
    }
    if fingerprint:
        header["fingerprint"] = _combine_digests(
            [hashlib.blake2b(blob, digest_size=FINGERPRINT_BYTES).digest()
             for _, blob in payload])
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    return header_bytes, payload, offset


def payload_base(header_bytes: bytes) -> int:
    """Absolute offset of the payload area for a given header."""
    return _pad(len(MAGIC) + 4 + len(header_bytes))


def _write_segment(buffer, header_bytes: bytes,
                   payload: List[Tuple[int, bytes]]) -> None:
    base = payload_base(header_bytes)
    view = memoryview(buffer)
    view[0:4] = MAGIC
    view[4:8] = len(header_bytes).to_bytes(4, "little")
    view[8:8 + len(header_bytes)] = header_bytes
    for offset, blob in payload:
        view[base + offset: base + offset + len(blob)] = blob


def _unregister_shm(name: str) -> None:
    # The creating process hands segment lifetime to the parent; without
    # this its resource tracker would unlink (or warn about) blocks the
    # parent still owns.
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister("/" + name.lstrip("/"), "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across OSes
        pass


def write_shard(columns: ShardColumns, spec: ExchangeSpec,
                seq: int) -> ShardHandle:
    """Serialize ``columns`` into a new segment; returns its handle.

    Spill files are written via temp-then-rename, so a crashed worker
    can never leave a segment that reads as complete but is truncated.
    """
    header_bytes, payload, payload_nbytes = encode_shard(columns)
    total = payload_base(header_bytes) + payload_nbytes
    if spec.mode == KIND_SHM:
        from multiprocessing import shared_memory
        block = shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            _write_segment(block.buf, header_bytes, payload)
        except BaseException:
            block.close()
            block.unlink()
            raise
        name = block.name
        block.close()
        _unregister_shm(name)
        return ShardHandle(kind=KIND_SHM, ref=name, nbytes=total)
    path = os.path.join(spec.directory, f"shard-{os.getpid()}-{seq:08d}.seg")
    buffer = bytearray(total)
    _write_segment(buffer, header_bytes, payload)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(buffer)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return ShardHandle(kind=KIND_FILE, ref=path, nbytes=total)


def write_segment_file(columns: ShardColumns, path: str,
                       fingerprint: bool = True) -> int:
    """Write ``columns`` as one complete LSHD segment file at ``path``.

    The checkpoint-side writer: identical byte layout to the
    worker-exchange shards, plus a header fingerprint so a segment's
    integrity is checkable without decoding the payload.  The write is
    atomic (temp + ``os.replace``) and the bytes are a pure function of
    the rows.  Returns the segment size in bytes.
    """
    header_bytes, payload, payload_nbytes = encode_shard(
        columns, fingerprint=fingerprint)
    total = payload_base(header_bytes) + payload_nbytes
    buffer = bytearray(total)
    _write_segment(buffer, header_bytes, payload)
    target = os.fspath(path)
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(buffer)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return total


def read_segment_header(path) -> Dict[str, object]:
    """Read a segment file's header without mapping or decoding the payload.

    Powers ``repro-geoblock store inspect``: only the magic and the
    header JSON are read, so a million-row checkpoint inspects in
    O(header) regardless of payload size.
    """
    name = os.fspath(path)
    with open(name, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{name}: not an LSHD segment (bad magic)")
        header_len = int.from_bytes(handle.read(4), "little")
        blob = handle.read(header_len)
    if len(blob) != header_len:
        raise ValueError(f"{name}: truncated segment header")
    return json.loads(blob.decode("utf-8"))


def decode_shard(buffer) -> ShardColumns:
    """Rebuild :class:`ShardColumns` views directly over segment bytes.

    The returned arrays alias ``buffer`` (zero-copy); they stay valid
    only while the mapping is open.  :class:`ShardReader` owns that
    lifetime.
    """
    view = memoryview(buffer)
    if bytes(view[0:4]) != MAGIC:
        raise ValueError("not a shard segment (bad magic)")
    header_len = int.from_bytes(view[4:8], "little")
    header = json.loads(bytes(view[8:8 + header_len]).decode("utf-8"))
    if header["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported shard format v{header['version']}")
    base = _pad(len(MAGIC) + 4 + header_len)
    arrays = {}
    for name, dtype, offset, nbytes in header["columns"]:
        dt = np.dtype(dtype)
        arrays[name] = np.frombuffer(view, dtype=dt,
                                     count=nbytes // dt.itemsize,
                                     offset=base + offset)
    sections = {}
    for name, offset, nbytes in header["json"]:
        sections[name] = json.loads(
            bytes(view[base + offset: base + offset + nbytes]).decode("utf-8"))
    return ShardColumns(
        n=int(header["n"]),
        dcodes=arrays["dcodes"],
        ccodes=arrays["ccodes"],
        statuses=arrays["statuses"],
        lengths=arrays["lengths"],
        ecodes=arrays["ecodes"],
        domain_names=sections["domains"],
        country_names=sections["countries"],
        error_names=sections["errors"],
        bodies={int(row): body for row, body in sections["bodies"]},
        interfered=sections["interfered"],
    )


class ShardReader:
    """Zero-copy view over one segment; ``close()`` releases the mapping.

    Usable as a context manager yielding the reader itself (read
    ``reader.columns`` inside the block and do not keep references to it
    past the block — the views alias the mapping, and a live reference
    would make the unmap fail).  Closing only unmaps — removing the
    segment itself is :func:`release_shard`'s job, so a reader can be
    retried.
    """

    def __init__(self, handle: ShardHandle) -> None:
        self._handle = handle
        self._shm = None
        self._mmap: Optional[mmap.mmap] = None
        self._file = None
        if handle.kind == KIND_SHM:
            from multiprocessing import shared_memory
            self._shm = shared_memory.SharedMemory(name=handle.ref)
            buffer = self._shm.buf
        else:
            self._file = open(handle.ref, "rb")
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            buffer = self._mmap
        self.columns: Optional[ShardColumns] = decode_shard(buffer)

    def __enter__(self) -> "ShardReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop the column views and release the underlying mapping."""
        self.columns = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None


def open_shard(handle: ShardHandle) -> ShardReader:
    """Map a segment for reading (context manager over its columns)."""
    return ShardReader(handle)


def release_shard(handle: ShardHandle) -> None:
    """Remove a segment without reading it (idempotent; error-path safe)."""
    if handle.kind == KIND_SHM:
        from multiprocessing import shared_memory
        try:
            block = shared_memory.SharedMemory(name=handle.ref)
        except FileNotFoundError:
            return
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass
        return
    try:
        os.remove(handle.ref)
    except FileNotFoundError:
        pass


class ShardExchange:
    """Parent-side transport session for one engine execution.

    The transport is shared memory wherever :func:`shm_available` says
    POSIX shared memory works, and spill files otherwise.  In file mode
    the session owns a spill directory under ``spill_dir`` and closing
    the session removes every segment that directory still holds — the
    engine's error paths lean on this so a mid-scan exception cannot
    orphan spill files under the checkpoint dir.  Shared-memory segments
    have no directory; the engine releases those per handle.  Usable as
    a context manager.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self._mode = KIND_SHM if shm_available() else KIND_FILE
        self._spill_parent = spill_dir
        self._dir: Optional[str] = None

    @property
    def mode(self) -> str:
        """Resolved transport kind (KIND_SHM or KIND_FILE)."""
        return self._mode

    @property
    def directory(self) -> Optional[str]:
        """The open session's spill directory (None for shm / closed)."""
        return self._dir

    def open(self) -> "ShardExchange":
        """Create the session spill directory (no-op for shared memory)."""
        if self._mode == KIND_FILE and self._dir is None:
            base = self._spill_parent or tempfile.gettempdir()
            os.makedirs(base, exist_ok=True)
            self._dir = tempfile.mkdtemp(prefix="lshd-", dir=base)
        return self

    def spec(self) -> ExchangeSpec:
        """The picklable worker-side recipe for this session."""
        if self._mode == KIND_FILE and self._dir is None:
            raise RuntimeError("exchange session is not open")
        return ExchangeSpec(mode=self._mode, directory=self._dir or "")

    def close(self) -> None:
        """End the session, removing the spill directory and its segments."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "ShardExchange":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()


class SegmentMapping:
    """Read-only mmap over a whole segment file (dataset-lifetime owner).

    :class:`ShardReader` owns short merge-scoped mappings; this class
    backs long-lived mapped datasets (checkpoint loads).  ``close()`` is best-effort: the file descriptor always
    closes, but the mapping itself survives while numpy column views
    still alias it — ``close()`` then returns False and the OS reclaims
    the pages when the last view is garbage-collected.  A mapping over
    an unlinked file stays valid (POSIX), so invalidating or replacing a
    checkpoint under a live reader is safe.
    """

    def __init__(self, path) -> None:
        self._path = os.fspath(path)
        self._file = open(self._path, "rb")
        try:
            self._mmap: Optional[mmap.mmap] = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            self._file.close()
            raise

    @property
    def path(self) -> str:
        """The mapped segment's path at open time."""
        return self._path

    @property
    def closed(self) -> bool:
        """True once ``close()`` released (or abandoned) the mapping."""
        return self._mmap is None

    @property
    def buffer(self) -> mmap.mmap:
        """The raw mapped segment bytes (valid until ``close()``)."""
        if self._mmap is None:
            raise ValueError(f"segment mapping over {self._path} is closed")
        return self._mmap

    def close(self) -> bool:
        """Release the mapping; False when live views keep it pinned."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._mmap is not None:
            mapped, self._mmap = self._mmap, None
            try:
                mapped.close()
            except BufferError:
                # Exported numpy views still alias the pages; dropping
                # our reference hands reclamation to their collection.
                return False
        return True
