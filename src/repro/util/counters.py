"""Lock-free hot-path counters.

The simulated transport answers in microseconds, so a mutex around a
``count += 1`` is a real fraction of per-probe cost (and a serialization
point for threaded callers).  :class:`ShardedCounter` keeps one
cell per thread — increments touch only thread-local state — and sums the
cells on read.  Reads are rare (stage stats, assertions), increments are
per-fetch.

Process workers cannot share cells, so they report per-chunk deltas back
to the parent, which folds them in via :meth:`ShardedCounter.add` — the
merged total therefore accounts for every fetch at any worker count.
"""

from __future__ import annotations

import threading
from typing import List


class ShardedCounter:
    """A monotonic counter sharded per thread, aggregated on read."""

    __slots__ = ("_local", "_cells", "_register_lock", "_absorbed")

    def __init__(self) -> None:
        self._local = threading.local()
        self._cells: List[List[int]] = []
        self._register_lock = threading.Lock()  # first touch per thread only
        self._absorbed = 0

    def increment(self) -> None:
        """Add 1 (lock-free except the first call from a new thread)."""
        try:
            cell = self._local.cell
        except AttributeError:
            cell = [0]
            self._local.cell = cell
            with self._register_lock:
                self._cells.append(cell)
        cell[0] += 1

    def add(self, amount: int) -> None:
        """Fold in a batch counted elsewhere (e.g. a process worker)."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        with self._register_lock:
            self._absorbed += amount

    @property
    def value(self) -> int:
        """The aggregate count across all threads and absorbed batches."""
        return self._absorbed + sum(cell[0] for cell in list(self._cells))
