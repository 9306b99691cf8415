"""On-disk persistence for scan datasets: LSHD segments and JSONL.

Scans are expensive (millions of probes), so batch runs save raw results
and analyses reload them.  Two formats are supported, dispatched by
magic bytes (never by file extension):

* **LSHD columnar segments** (:func:`dump_dataset_lshd`) — the
  checkpoint format: the dataset's raw column buffers plus canonical
  JSON code tables in one fingerprinted segment (see
  :mod:`repro.lumscan.shards`).  :func:`load_dataset` maps a segment
  back as zero-copy column views, so loading is O(columns) instead of
  O(rows).
* **JSONL** (:func:`dump_dataset`) — one JSON object per record:
  append-friendly, diff-able, and stream-parsable; kept as the export /
  interchange format and for checkpoints written before the columnar
  format existed.  Paths ending in ``.gz`` are transparently
  compressed, with ``mtime=0`` so identical datasets produce identical
  bytes.

Legacy LSHM multi-segment manifests are recognized by their magic but no
longer read: :func:`load_dataset` rejects them with a ``ValueError``
that names the format.

Both writers share the crash-safety contract: data goes to a temporary
file in the target directory and is atomically :func:`os.replace`\\ d
into place, so an interrupted run can never leave a truncated dataset
behind.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np

from repro.lumscan.records import ScanDataset, ShardColumns
from repro.lumscan.shards import (
    MAGIC as _LSHD_MAGIC,
    SegmentMapping,
    decode_shard,
    write_segment_file,
)

_FIELDS = ("domain", "country", "status", "length", "body", "error",
           "interfered")

_GZIP_MAGIC = b"\x1f\x8b"

#: Magic of the retired LSHM multi-segment manifest format.
_LSHM_MAGIC = b"LSHM"

PathLike = Union[str, os.PathLike]

#: Resource-lifetime contract enforced by ``repro.lint``: report and
#: dataset text formats may only be written through the atomic
#: temp-then-rename writer below.
LINT_RESOURCE_CONTRACT = {
    "codec": "serialize",
    "atomic": {
        "suffixes": [".jsonl", ".jsonl.gz"],
        "writers": ["_atomic_text_writer", "dump_dataset", "save_report"],
    },
}


def _is_gzip(path: PathLike) -> bool:
    return os.fspath(path).endswith(".gz")


def sniff_format(path: PathLike) -> str:
    """Detect a dataset file's on-disk format from its magic bytes.

    Returns ``"lshd"``, ``"lshm"`` (a retired manifest, recognized only
    so it can be rejected by name), ``"jsonl.gz"``, or ``"jsonl"``.  The
    extension is never trusted, so renamed or legacy checkpoints load
    correctly.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_LSHD_MAGIC))
    if magic == _LSHD_MAGIC:
        return "lshd"
    if magic == _LSHM_MAGIC:
        return "lshm"
    if magic[: len(_GZIP_MAGIC)] == _GZIP_MAGIC:
        return "jsonl.gz"
    return "jsonl"


@contextmanager
def _atomic_text_writer(path: PathLike) -> Iterator[io.TextIOBase]:
    """A text handle whose content reaches ``path`` only on clean exit.

    Data goes to ``<path>.tmp.<pid>`` first; on success the temp file is
    atomically renamed over the target (same-directory ``os.replace``).
    On error the temp file is removed and the target is untouched.
    """
    target = os.fspath(path)
    tmp = f"{target}.tmp.{os.getpid()}"
    raw = open(tmp, "wb")
    try:
        if _is_gzip(target):
            # mtime=0 keeps the byte stream a pure function of the content.
            gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
            handle = io.TextIOWrapper(gz, encoding="utf-8", newline="\n")
        else:
            handle = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        try:
            yield handle
        finally:
            handle.close()   # closes the gzip member, then the raw file
        os.replace(tmp, target)
    except BaseException:
        raw.close()
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _open_text(path: PathLike, compressed: bool) -> io.TextIOBase:
    """Open a (possibly gzip-compressed) text file for reading."""
    if compressed:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def dump_dataset(dataset: ScanDataset, path: PathLike) -> int:
    """Write a dataset as JSONL; returns the number of records written.

    The write is atomic (temp file + ``os.replace``) and transparently
    gzip-compressed when ``path`` ends in ``.gz``.
    """
    count = 0
    with _atomic_text_writer(path) as handle:
        for sample in dataset:
            record = {
                "domain": sample.domain,
                "country": sample.country,
                "status": sample.status,
                "length": sample.length,
            }
            if sample.body is not None:
                record["body"] = sample.body
            if sample.error is not None:
                record["error"] = sample.error
            if sample.interfered:
                record["interfered"] = True
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count


def dump_dataset_lshd(dataset: ScanDataset, path: PathLike) -> int:
    """Write a dataset as one LSHD columnar segment.

    The checkpoint-side writer: atomic (temp + ``os.replace``),
    fingerprinted, and bit-deterministic — the bytes are a pure function
    of the records.  :func:`load_dataset` maps the result back as
    zero-copy column views.  Returns the number of records written.
    """
    write_segment_file(dataset.export_columns(), os.fspath(path))
    return len(dataset)


def _load_segment(path: PathLike, mmap_columns: bool) -> ScanDataset:
    """Open an LSHD segment as a dataset (mapped or materialized)."""
    mapping = SegmentMapping(path)
    try:
        columns = decode_shard(mapping.buffer)
        if mmap_columns:
            return ScanDataset.from_columns(columns, source=mapping)
        materialized = ShardColumns(
            n=columns.n,
            dcodes=np.array(columns.dcodes),
            ccodes=np.array(columns.ccodes),
            statuses=np.array(columns.statuses),
            lengths=np.array(columns.lengths),
            ecodes=np.array(columns.ecodes),
            domain_names=list(columns.domain_names),
            country_names=list(columns.country_names),
            error_names=list(columns.error_names),
            bodies=dict(columns.bodies),
            interfered=list(columns.interfered),
        )
    except BaseException:
        mapping.close()
        raise
    mapping.close()
    return ScanDataset.from_columns(materialized)


def load_dataset(path: PathLike, mmap: bool = True) -> ScanDataset:
    """Read a dataset in any supported on-disk format.

    The format is sniffed from magic bytes: LSHD segments come back as
    zero-copy mapped datasets (``mmap=False`` copies the columns into
    ordinary growable buffers and releases the mapping immediately);
    gzip and plain JSONL — including checkpoints written before the
    columnar format existed — parse row by row as before.  A retired
    LSHM manifest raises ``ValueError``.
    """
    fmt = sniff_format(path)
    if fmt == "lshd":
        return _load_segment(path, mmap_columns=mmap)
    if fmt == "lshm":
        raise ValueError(f"{os.fspath(path)}: LSHM multi-segment manifests "
                         f"are no longer supported; re-run the stage to "
                         f"write an LSHD segment")
    dataset = ScanDataset()
    with _open_text(path, compressed=(fmt == "jsonl.gz")) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {exc}") from None
            unknown = set(record) - set(_FIELDS)
            if unknown:
                raise ValueError(
                    f"{path}:{line_number}: unknown fields {sorted(unknown)}")
            try:
                dataset.append(
                    domain=record["domain"],
                    country=record["country"],
                    status=int(record["status"]),
                    length=int(record["length"]),
                    body=record.get("body"),
                    error=record.get("error"),
                    interfered=bool(record.get("interfered", False)),
                )
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{line_number}: missing field {exc}") from None
    return dataset
