"""In-memory span tracer with per-thread nesting and self time.

A span has a name, a start, an end and a parent: the span that encloses
it on the same thread.  Spans on other threads never nest, so a span's
self time is its duration minus the time its children on its own
thread cover; children on one thread never overlap, so that is the sum
of their durations.  Aggregates are kept for every span.  Individual
spans are kept for the Chrome trace-event file only when the span is a
root (no parent) or when it was opened with ``keep=True`` and fewer
than ``max_kept`` spans are already kept, so that hot leaf calls
(millions per run) cost memory only in their aggregate.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable


class Aggregate:
    __slots__ = ("count", "total_s", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans from any number of threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_kept: int = 100_000) -> None:
        self.clock = clock
        self.max_kept = max_kept
        self.aggregates: dict[str, Aggregate] = {}
        #: Kept spans: (id, name, start, end, parent id or None, thread id).
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, keep: bool = True) -> None:
        # Frame: [name, start, child time, span id, keep].
        self._stack().append([name, self.clock(), 0.0, next(self._ids), keep])

    def exit(self) -> float:
        """Close the innermost span on this thread; returns its duration."""
        end = self.clock()
        stack = self._stack()
        name, start, child_s, span_id, keep = stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        with self._lock:
            agg = self.aggregates.get(name)
            if agg is None:
                agg = self.aggregates[name] = Aggregate()
            agg.count += 1
            agg.total_s += duration
            agg.self_s += duration - child_s
            if parent is None or (keep and len(self.spans) < self.max_kept):
                self.spans.append((span_id, name, start, end,
                                   None if parent is None else parent[3],
                                   threading.get_ident()))
            else:
                self.dropped += 1
        return duration

    def roots(self) -> list[tuple[float, float]]:
        """(start, end) of every root span, on any thread."""
        return [(s, e) for _, _, s, e, parent, _ in self.spans if parent is None]

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (Perfetto opens it)."""
        pid = os.getpid()
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": start * 1e6, "dur": (end - start) * 1e6, "pid": pid,
             "tid": tid, "args": {"id": span_id, "parent": parent}}
            for span_id, name, start, end, parent, tid in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
