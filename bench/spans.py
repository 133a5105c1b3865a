"""In-memory spans around the benchmark's calls into bicfrac.

A span records its name, start, end, parent span and task.  The layer of a
span is the part of its name before the first dot (``fractions.materialize``
is in ``fractions``), matching bicfrac's module names; the benchmark's own
work is the ``bench`` layer.  Spans stay in memory until the run ends.

With tracing off, `Tracer.call` is a plain call and `Tracer.span` records
nothing, so the untraced run pays one attribute test per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[tuple[str, float, float, int, str, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.group = ""  # "setup:<i>" or "pass:<i>": which repetition the span belongs to
        self.task = ""
        self._stack: list[int] = []

    def call(self, name: str, fn, /, *args, **kwargs):
        """``fn(*args, **kwargs)``, recorded as span ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, 0.0, 0.0, parent, self.task, self.group))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[idx] = (name, start, end, parent, self.task, self.group)

    def count(self, name: str, value: float) -> None:
        """Add to counter ``name`` in the current group; kept in both modes."""
        self.counts[self.group][name] += value

    def self_times(self, group: str) -> dict[str, float]:
        """Self time of each span name in ``group``: duration minus its children."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _task, grp in self.records:
            if grp == group and parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _parent, _task, grp) in enumerate(self.records):
            if grp == group:
                out[name] += (end - start) - child_time[idx]
        return out

    def totals(self, group: str) -> dict[str, float]:
        """Total duration of each span name in ``group``, children included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _task, grp in self.records:
            if grp == group:
                out[name] += end - start
        return out

    def write(self, path: Path) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "task": t, "group": g}
            for n, s, e, p, t, g in self.records
        ]
        counts = {g: dict(c) for g, c in self.counts.items()}
        path.write_text(json.dumps({"spans": spans, "counts": counts}) + "\n", encoding="utf-8")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
