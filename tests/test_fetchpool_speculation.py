"""Tail speculation in FetchPool.submit: a worker stalled mid-batch
(hypervisor steal here, a slow node on a real cluster) must not gate the
round — the outstanding batch re-executes on an idle worker, the first copy
to finish supplies the task's ref, and on_done fires exactly once per task
with deterministic content."""

from __future__ import annotations

import time

import pyarrow as pa
import ray

from lightcrawler_ray.stages.fetchpool import FetchPool


@ray.remote
class _StallGate:
    """First caller wins the stall token — exactly one worker stalls."""

    def __init__(self):
        self.taken = False

    def try_take(self) -> bool:
        if self.taken:
            return False
        self.taken = True
        return True


@ray.remote(num_cpus=0)
class _StubWorker:
    def __init__(self, gate):
        self.gate = gate

    def process(self, block: pa.Table, start: int, end: int) -> pa.Table:
        if ray.get(self.gate.try_take.remote()):
            time.sleep(60)  # the straggler: without speculation the round
            # would take 60+ s; with it the duplicate wins in milliseconds
        return block.slice(start, end - start)


def _stub_pool(k: int, gate) -> FetchPool:
    pool = FetchPool.__new__(FetchPool)
    pool.k = k
    pool.workers = [_StubWorker.remote(gate) for _ in range(k)]
    pool.speculated_total = 0
    return pool


def test_speculation_beats_stalled_worker(ray_session):
    gate = _StallGate.remote()
    pool = _stub_pool(3, gate)
    block = pa.table({"x": pa.array(range(120), pa.int64())})
    block_ref = ray.put(block)
    fired: dict[int, int] = {}

    t0 = time.perf_counter()
    out = pool.submit(
        [block_ref], [120], batch_size=10,
        on_done=lambda i, ref: fired.__setitem__(i, fired.get(i, 0) + 1),
    )
    elapsed = time.perf_counter() - t0

    assert elapsed < 30, f"round gated by the stalled worker ({elapsed:.1f}s)"
    assert len(out) == 12 and all(r is not None for r in out)
    assert pool.speculated_total >= 1  # the stalled batch was duplicated
    # exactly-once on_done per task
    assert fired == {i: 1 for i in range(12)}
    # winner content is the right slice for its task INDEX, whichever copy won
    for i, ref in enumerate(out):
        t = ray.get(ref)
        assert t.column("x").to_pylist() == list(range(i * 10, i * 10 + 10)), i
    for w in pool.workers:
        ray.kill(w)


def test_no_speculation_still_exact_when_unstalled(ray_session):
    """With no stalled worker nothing is overdue: full drain, per-index refs."""
    gate = _StallGate.remote()
    ray.get(gate.try_take.remote())  # burn the token: nobody stalls
    pool = _stub_pool(2, gate)
    block_ref = ray.put(pa.table({"x": pa.array(range(40), pa.int64())}))
    out = pool.submit([block_ref], [40], batch_size=10)
    assert [ray.get(r).num_rows for r in out] == [10, 10, 10, 10]
    for w in pool.workers:
        ray.kill(w)
