"""Persistent fetch-worker pool — stateful actors that live for the whole
crawl job, not one Dataset execution.

Why raw actors here (the documented Dataset-API exception, SURVEY.md §2.3):
``map_batches(Cls, concurrency=N)`` builds a FRESH actor pool per execution,
so an iterative-round crawl would re-create fetchers — and re-load their
state (page/image stores here; connection pools, DNS/cookie caches T3/T4,
per-host politeness clocks T7 in production) — every round.  Cross-round
actor state is something the Dataset API genuinely cannot express; every
per-record transform still runs through the shared SyntheticFetchExtract
operator code, and blocks reach workers as plasma-shared Arrow tables
(zero-copy within a node).

Outputs leave a worker as ONE Arrow IPC stream buffer per batch
(``fetch.to_wire``), not as a ``pa.Table``: Ray's own ``pa.Table`` reducer
(its slice workaround) walks every chunk of every column in Python on both
ends, and the fused output has 44 columns in up to five kind chunks.  A
buffer pickles as one out-of-band blob, and readers open it zero-copy
(``fetch.from_wire``).  Measured per 256-URL batch of the crawl workloads
on a 4-CPU host: the worker's thread spent 13-15 ms returning a Table and
2.6-7.2 ms returning a buffer (IPC write included); the reader's get went
from 3.5-6.3 ms to 1.2-1.4 ms (get plus read).

Partitioning assumption: the driver cuts blocks into fixed-size row ranges
and hands each to whichever worker has room in its queue (work stealing); at
multi-node scale the same pool is placed per-node
(``scheduling_strategy="SPREAD"``) and ranges ride object locality.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from .fetch import fetch_robots, make_fetcher, to_wire

_QUEUE_DEPTH = 2  # batches ``FetchPool.submit`` keeps queued per worker


@ray.remote(num_cpus=1)
class FetchWorker:
    """num_cpus=1: workers burn a real core each; without the reservation the
    round's split and finalize tasks oversubscribe the node during the fetch
    phase (measured: 24 unreserved workers + 32 task slots thrash instead of
    scaling).  Size ``fetch_concurrency`` ≈ 3/4 of the CPUs — the split-sink
    tasks pipeline on the rest as fetch batches complete (wave-width A/B,
    BASELINE.md 2026-08-20: 75% reads +20-30% URLs/s over the earlier
    half-CPUs rule at both 8 and 32 CPUs).

    ``process`` returns each batch's fused output as one Arrow IPC buffer
    (module docstring: the hand-off costs a fraction of a Table's)."""
    def __init__(self, pages_ref, images_ref, fetch_kwargs: dict):
        self.impl = make_fetcher(pages_ref, images_ref, fetch_kwargs)

    def process(self, block: pa.Table, start: int, end: int) -> pa.Buffer:
        """Rows ``[start, end)`` of ``block`` fetched and extracted; read
        the result with ``fetch.from_wire``."""
        return to_wire(self.impl(block.slice(start, end - start)))

    def robots(self, hostports) -> dict[str, dict]:
        """Rules per host for ``(host, port)`` origins (the seed-host
        prefetch, ``robots_source="fetch"``), fetched with this worker's
        client so its cookies and DNS cache see the robots requests too."""
        out: dict[str, dict] = {}
        for h, port in hostports:
            rules = fetch_robots(self.impl, h, port)
            if rules:
                out[h] = rules
        return out


class FetchPool:
    """K persistent workers; ``submit`` deals row ranges of frontier blocks
    out to them by work stealing and returns the output-buffer refs."""

    def __init__(self, k: int, pages_ref, images_ref, fetch_kwargs: dict):
        self.k = k
        self.workers = [
            FetchWorker.remote(pages_ref, images_ref, fetch_kwargs) for _ in range(k)
        ]
        #: duplicates dispatched across the pool's lifetime (observability:
        #: a healthy calm run should keep this at/near zero — a climbing
        #: count on a quiet host means the overdue threshold is too tight)
        self.speculated_total = 0
        # warm: force process spawn + store mapping now, not mid-crawl
        ray.get([w.__ray_ready__.remote() for w in self.workers])

    def submit(self, block_refs: list, counts: list[int], batch_size: int,
               on_done=None, speculate: bool = True) -> list:
        """Work-stealing dispatch: keep ``_QUEUE_DEPTH`` batches queued per worker and
        top up as each completes — kills the straggler tail that static
        round-robin leaves when batch costs vary (images vs 45 KB documents).
        Returns once every batch is done.
        Output refs are returned INDEXED BY TASK ORDER (= seq order), which
        downstream ranking depends on; ``on_done(task_idx, ref)`` fires in
        completion order, exactly once per task.  ``fetch_local=False`` keeps
        payload blocks out of the driver.

        ``speculate``: once the fresh queue is drained, an idle worker
        re-executes a still-outstanding batch — the classic straggler
        mitigation for the wave tail, where one stalled worker (hypervisor
        steal here; a slow node on a real cluster) otherwise gates the whole
        round.  A batch is a speculation candidate only once OVERDUE (in
        flight > 1.5× the round's median batch duration), so calm rounds
        never speculate and pay zero overhead — an eagerly-duplicated batch
        would leave its loser running into the next round's dispatch,
        taxing exactly the healthy case.  Safe because the fetch operator is
        deterministic per batch: whichever copy finishes first supplies the
        task's ref and the loser is abandoned — it runs to completion on its
        worker, its result is dropped, and the worker rejoins the pool when
        it finishes.  Losers are deliberately NOT ray.cancel()ed: cancelling
        an actor task while its argument references are being resolved trips
        a Ray-core reference-count CHECK (reference_count.cc:581, observed
        on 2.49.2), and the waste is bounded at one batch per speculation.
        A production HTTP fetcher pays one duplicate request per speculated
        batch — the standard price."""
        import time as _time

        tasks = [
            (ref, s, min(s + batch_size, n))
            for ref, n in zip(block_refs, counts)
            for s in range(0, n, batch_size)
        ]
        n_tasks = len(tasks)
        out: list = [None] * n_tasks
        nxt = 0
        inflight: dict = {}
        task_done = [False] * n_tasks
        n_done = 0
        copies: list[list] = [[] for _ in range(n_tasks)]
        started: dict = {}     # fut -> dispatch monotonic time
        durations: list[float] = []
        idle: list = []

        def overdue_threshold() -> float:
            if not durations:
                return 0.5
            d = sorted(durations)
            return max(0.5, 1.5 * d[len(d) // 2])

        def feed(w) -> bool:
            nonlocal nxt
            if nxt < n_tasks:
                i = nxt
                nxt += 1
            elif speculate:
                # oldest not-done single-copy batch that is OVERDUE and not
                # already running on this worker
                now = _time.monotonic()
                thr = overdue_threshold()
                i = next(
                    (j for j in range(n_tasks)
                     if not task_done[j] and len(copies[j]) == 1
                     and now - started[copies[j][0]] > thr
                     and inflight.get(copies[j][0], (None,))[0] is not w),
                    None,
                )
                if i is None:
                    return False
            else:
                return False
            ref, s, e = tasks[i]
            fut = w.process.remote(ref, s, e)
            inflight[fut] = (w, i)
            copies[i].append(fut)
            started[fut] = _time.monotonic()
            if len(copies[i]) > 1:
                self.speculated_total += 1
            return True

        for w in self.workers:
            for _ in range(_QUEUE_DEPTH):
                if not feed(w):
                    break
        while n_done < n_tasks:
            # finite timeout so idle workers re-check overdue candidates even
            # with no completion events (the stalled-worker case)
            done, _ = ray.wait(
                list(inflight), num_returns=1, timeout=0.25, fetch_local=False
            )
            if done:
                w, i = inflight.pop(done[0])
                durations.append(_time.monotonic() - started[done[0]])
                if not task_done[i]:
                    task_done[i] = True
                    n_done += 1
                    out[i] = done[0]
                    for f in copies[i]:
                        if f is not done[0]:
                            inflight.pop(f, None)  # abandoned — never awaited
                    if on_done is not None:
                        on_done(i, done[0])
                if not feed(w):
                    idle.append(w)
            if idle and speculate and nxt >= n_tasks:
                still_idle = [w for w in idle if not feed(w)]
                idle[:] = still_idle
        return out

    def shutdown(self) -> None:
        for w in self.workers:
            ray.kill(w)
        self.workers = []
