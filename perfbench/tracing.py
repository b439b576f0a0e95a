"""In-memory spans and counts for the traced benchmark run.

A span records (name, start, end, parent, job) around one call into an
authcap layer; spans of one job share its job id.  Counts are values read
from the objects a call returned.  Nothing is written until `dump`, so the
only cost while a job runs is two clock reads and a list append per span.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        return False


class _RecordedSpan(Span):
    __slots__ = ("tracer",)

    def __enter__(self):
        self.tracer.stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self)
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.tracer.stack.pop()
        return False


class Tracer:
    """Span and count recorder.  A disabled tracer still times each span
    (callers read `Span.seconds` to form rates) but keeps nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.counts = defaultdict(list)   # name -> [(job, value)]
        self.job = None

    def span(self, name: str) -> Span:
        if not self.enabled:
            return Span(name, None, self.job)
        s = _RecordedSpan(name, self.stack[-1] if self.stack else None, self.job)
        s.tracer = self
        return s

    def count(self, name: str, value: float):
        if self.enabled:
            self.counts[name].append((self.job, float(value)))

    def durations(self, name: str) -> list:
        return [s.seconds for s in self.spans if s.name == name]

    def count_values(self, name: str) -> list:
        return [v for _, v in self.counts.get(name, ())]

    def self_times(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.seconds - child[i]
        return out

    def dump(self, path, extra: dict):
        """Write every span, count and the self-time table as one JSON file."""
        t0 = min((s.start for s in self.spans), default=0.0)
        payload = dict(extra)
        payload["spans"] = [[s.name, s.start - t0, s.end - t0, s.parent, s.job]
                            for s in self.spans]
        payload["span_columns"] = ["name", "start_s", "end_s", "parent", "job"]
        payload["counts"] = {k: v for k, v in self.counts.items()}
        payload["self_times"] = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def median_or_zero(values) -> float:
    """Median of the samples; 0 when the layer was never called."""
    return statistics.median(values) if values else 0.0
