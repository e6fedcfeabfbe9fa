"""A4 — named accumulating benchmark timers.

Reference semantics re-expressed (PHPCrawlerBenchmark.class.php:16-145):
``start(name)``/``stop(name)`` accumulate elapsed seconds per named timer
across any number of start/stop cycles; call counts are tracked; temporary
timers are excluded from the summary; per-name and global resets.  The
reference exposes these as class statics — here a ``Benchmark`` instance
rides the object that owns the measured phase (one per CrawlJob driver;
worker-side timing stays in the per-row ``fetch_ms`` column because actor
clocks don't share state), plus a module-level default for ad-hoc use.

The crawl round driver adds every round phase mark to a Benchmark, so
``CrawlJob.benchmarks()`` returns the whole-job phase decomposition (e.g.
total fetch+split vs gate seconds across epochs).
"""

from __future__ import annotations

import time


class Benchmark:
    __slots__ = ("_totals", "_starts", "_counts", "_temporary")

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._starts: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._temporary: set[str] = set()

    def start(self, name: str, temporary: bool = False) -> None:
        """Start (or restart) the clock for ``name``; elapsed time
        accumulates across cycles (reference :30-42)."""
        self._starts[name] = time.perf_counter()
        self._counts[name] = self._counts.get(name, 0) + 1
        if temporary:
            self._temporary.add(name)

    def stop(self, name: str) -> float | None:
        """Stop the clock; returns this cycle's elapsed seconds, or None if
        the clock was never started (reference :55-68)."""
        t0 = self._starts.pop(name, None)
        if t0 is None:
            return None
        elapsed = time.perf_counter() - t0
        self._totals[name] = self._totals.get(name, 0.0) + elapsed
        return elapsed

    def add(self, name: str, seconds: float) -> None:
        """Accumulate an externally-measured span (the crawl driver's phase
        marks measure inter-mark deltas themselves)."""
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + 1

    def elapsed(self, name: str) -> float:
        """Accumulated seconds for ``name`` (0.0 if unknown)."""
        return self._totals.get(name, 0.0)

    def call_count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def reset(self, name: str) -> None:
        self._totals[name] = 0.0

    def reset_all(self, retain: tuple[str, ...] = ()) -> None:
        for name in self._totals:
            if name not in retain:
                self._totals[name] = 0.0

    def all(self) -> dict[str, float]:
        """name → accumulated seconds, temporary timers excluded
        (reference getAllBenchmarks :134-145)."""
        return {
            n: round(v, 6)
            for n, v in sorted(self._totals.items())
            if n not in self._temporary
        }

    def report(self) -> str:
        """printAllBenchmarks analog — one 'name: N.NNNN sec' per line."""
        return "\n".join(f"{n}: {v:.4f} sec" for n, v in self.all().items())


#: module-level default, the analog of the reference's class statics
default = Benchmark()
