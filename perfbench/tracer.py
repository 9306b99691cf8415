"""In-memory span tracer that wraps program entry points at run time.

The benchmark never edits the program: :class:`Tracer` replaces chosen
functions and methods with timing wrappers while a traced repetition
runs, and :meth:`Tracer.uninstall` puts the original objects back.

Every wrapped call opens a span (name, start, end, parent).  A span's
*self time* is its duration minus the time its child spans cover; spans
nest strictly on the owning thread, so the covered time is the sum of the
children's durations.  Spans of hot per-probe boundaries are not stored
one by one (a tiny suite makes millions of them); they are folded into a
roll-up keyed by (parent name, name) with the same call/time/self sums.
Everything stays in memory until :meth:`Tracer.dump`.

Forked children (scan-engine workers) inherit the wrappers; the tracer
switches itself off in every child, so worker calls run untimed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Tracers currently installed in this process (switched off after fork).
_ACTIVE: List["Tracer"] = []


def _disable_in_child() -> None:
    for tracer in _ACTIVE:
        tracer.enabled = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_disable_in_child)

class Tracer:
    """Span recorder plus the patch table that installs it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.owner = threading.get_ident()
        #: Stored spans: (span_id, parent_id, name, start, end, self_s).
        #: ``parent_id`` is the nearest stored ancestor, -1 at the top.
        self.spans: List[Tuple[int, int, str, float, float, float]] = []
        #: name -> [calls, inclusive_s, self_s]; inclusive time counts
        #: only the outermost call of a recursive name.
        self.stats: Dict[str, List[float]] = {}
        #: (parent_name, name) -> [calls, inclusive_s, self_s] for spans
        #: that are rolled up instead of stored.
        self.rollup: Dict[Tuple[str, str], List[float]] = {}
        #: Plain event counters (boundaries counted, not timed).
        self.counts: Dict[str, int] = {}
        #: Distinct values seen by observers, per name.
        self.distinct: Dict[str, set] = {}
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def enter(self, name: str, store: bool = True) -> list:
        """Open a span; returns the frame to pass to :meth:`leave`."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        anchor = span_id if store else (parent[5] if parent else -1)
        self._open[name] = self._open.get(name, 0) + 1
        # [name, store, parent_frame, start, child_s, anchor, span_id]
        frame = [name, store, parent, 0.0, 0.0, anchor, span_id]
        stack.append(frame)
        frame[3] = self.clock()
        return frame

    def leave(self, frame: list) -> None:
        """Close the innermost span, which must be ``frame``."""
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, store, parent, start, child, _, span_id = frame
        duration = end - start
        own = duration - child
        depth = self._open[name] - 1
        self._open[name] = depth
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[2] += own
        if depth == 0:
            entry[1] += duration
        if parent is not None:
            parent[4] += duration
        if store:
            self.spans.append((span_id, parent[5] if parent else -1,
                               name, start, end, own))
        else:
            key = (parent[0] if parent else "", name)
            rolled = self.rollup.get(key)
            if rolled is None:
                rolled = self.rollup[key] = [0, 0.0, 0.0]
            rolled[0] += 1
            rolled[1] += duration
            rolled[2] += own

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`enter`/:meth:`leave`."""
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.leave(frame)

    # ---------------------------------------------------------- wrappers

    def _live(self) -> bool:
        return self.enabled and threading.get_ident() == self.owner

    def timed(self, name: str, fn: Callable, store: bool = True,
              observe: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call is a span named ``name``."""
        enter, leave, live = self.enter, self.leave, self._live

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not live():
                return fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs)
            frame = enter(name, store)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call bumps the counter ``name`` (untimed)."""
        counts, live = self.counts, self._live
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if live():
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observer(self, name: str, index: int) -> Callable:
        """An ``observe`` hook collecting distinct ``args[index]`` values."""
        seen = self.distinct.setdefault(name, set())

        def observe(args, kwargs):
            if len(args) > index:
                seen.add(args[index])

        return observe

    # ------------------------------------------------------------ patches

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        ``owner`` is a class (or module) that defines ``attr`` itself.
        Static and class methods keep their descriptor kind.  The raw
        ``__dict__`` entry is remembered so :meth:`uninstall` restores
        exactly the original object.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_function(self, module_name: str, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function at every module binding it.

        Modules that did ``from module import attr`` hold their own
        reference; each loaded ``repro`` module whose ``attr`` is the
        same object gets the same wrapper.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            if vars(module).get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> None:
        """Register for switch-off in forked children (patches apply at once)."""
        if self not in _ACTIVE:
            _ACTIVE.append(self)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    # ------------------------------------------------------------- output

    def self_total(self) -> float:
        """Sum of self time over every closed span."""
        return sum(entry[2] for entry in self.stats.values())

    def dump(self, path: str) -> None:
        """Write spans, roll-ups, stats and counters as one JSON file."""
        payload = {
            "spans": [
                {"id": sid, "parent": pid, "name": name, "start": start,
                 "end": end, "self_s": own}
                for sid, pid, name, start, end, own in self.spans],
            "rollup": [
                {"parent": parent, "name": name, "calls": calls,
                 "s": total, "self_s": own}
                for (parent, name), (calls, total, own)
                in sorted(self.rollup.items())],
            "stats": {name: {"calls": calls, "s": total, "self_s": own}
                      for name, (calls, total, own)
                      in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "distinct": {name: len(values)
                         for name, values in sorted(self.distinct.items())},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
