"""In-memory spans around calls into the engine's layers.

A span is ``(id, name, start, end, parent, run_id)``.  Spans nest by call
order on one thread; a span's self time is its duration minus the time its
direct children cover.  Nothing is written until ``write`` is called.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run_id": self.run_id}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child_s):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def totals(self) -> dict[str, float]:
        """Summed wall seconds per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def span_overhead_us(n: int = 2000) -> float:
    """Cost of opening and closing one empty span, in microseconds."""
    t = Tracer("overhead")
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x"):
            pass
    return (time.perf_counter() - t0) / n * 1e6
