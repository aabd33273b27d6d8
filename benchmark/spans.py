"""In-memory span recorder for the traced run.

A span wraps one call from the benchmark into the library.  It holds a
name, start and end (``time.perf_counter`` seconds), the id of the
enclosing span, the query it belongs to, and any counts the caller
attaches.  Spans stay in memory until :meth:`Tracer.write` at the end of
the run.  The untraced run uses :class:`NullTracer`, whose spans record
nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    enabled = False
    query = None

    def span(self, name: str):
        return nullcontext({})


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self.query = None
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "query": self.query,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [rec["end"] - rec["start"] - c for rec, c in zip(self.spans, child)]

    def durations(self, name: str) -> list:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def values(self, name: str, key: str) -> list:
        return [r[key] for r in self.spans if r["name"] == name]

    def summary(self) -> dict:
        """Per span name: count, total duration and total self time (s)."""
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for rec, own in zip(self.spans, self.self_times()):
            row = out[rec["name"]]
            row["count"] += 1
            row["total_s"] += rec["end"] - rec["start"]
            row["self_s"] += own
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
