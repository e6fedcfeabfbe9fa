"""One state actor per partition: a crawl's URL-seen, content-seen,
politeness and sim-band partitions share ``StateShard`` actors.

Checks the placement (partition i of every kind on actor i % n), the actor
count, the start-up warm (pyarrow's lazy pandas import paid in set-up),
shutdown, and that crawl outputs do not depend on how many partitions each
kind has — (3, 2) puts kinds with different partition counts on shared
actors."""

from __future__ import annotations

import os
import time

import pyarrow.parquet as pq
import pytest

from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages.frontier import CrawlSpec


@pytest.fixture(scope="module")
def fixture_paths():
    p = synth.GraphParams(n_pages=300, n_hosts=6, n_images=120, out_degree=6)
    return synth.ensure_fixtures(p)


def _job(paths, job_dir: str, **kw):
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    # threshold 40: rounds straddle it, so both the driver-ranked and the
    # block-graph path run; a delay gives every host a non-trivial ledger
    base = dict(max_depth=2, follow_mode=1, fetch_concurrency=1, fetch_batch_size=64,
                local_round_threshold=40, request_delay_ms=250.0)
    base.update(kw)
    return CrawlJob(CrawlSpec(**base), pq.read_table(paths["seeds"]), paths["pages"],
                    paths["images"], paths["robots"], job_dir)


def _actor_states() -> dict[str, tuple[str, str]]:
    import ray

    return {a["ActorID"]: (a["ActorClassName"], a["State"])
            for a in ray._private.state.actors().values()}


def _alive(states: dict) -> set[str]:
    return {i for i, (_, st) in states.items() if st == "ALIVE"}


def test_placement_count_warm_start_and_shutdown(ray_session, fixture_paths, tmp_path):
    import sys

    import ray

    before = _alive(_actor_states())
    job = _job(fixture_paths, str(tmp_path / "job"), seen_shards=3, politeness_shards=2,
               fetch_concurrency=2)
    try:
        n = len(job.state.actors)
        assert n == 4  # max(seen_shards, politeness_shards, N_BANDS)
        states = _actor_states()
        new = _alive(states) - before
        assert len(new) == n + job.spec.fetch_concurrency
        assert sorted(states[i][0] for i in new) == (
            ["FetchWorker"] * job.spec.fetch_concurrency + ["StateShard"] * n)
        ids = [a._actor_id for a in job.state.actors]
        for fam in (job.seen, job.content_seen, job.sched, job.docsim):
            assert [h._actor_id for h in fam.shards] == [ids[i % n] for i in range(len(fam.shards))]
        for i in range(n):
            # every kind that has a partition i keeps it on actor i
            on_i = {fam.shards[i]._actor_id
                    for fam in (job.seen, job.content_seen, job.sched, job.docsim)
                    if i < len(fam.shards)}
            assert on_i == {ids[i]}
        # the warm start: round 0 pays no pandas import on any state actor
        assert ray.get([a.__ray_call__.remote(lambda self: "pandas" in sys.modules)
                        for a in job.state.actors]) == [True] * n
    finally:
        job.shutdown()
    deadline = time.monotonic() + 30
    while _alive(_actor_states()) & new and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not _alive(_actor_states()) & new


def _outputs(job) -> dict:
    from lightcrawler_ray import storage

    sched, images, docs = [], set(), set()
    for d in sorted(os.listdir(job.job_dir)):
        if not d.startswith("epoch="):
            continue
        for name, out in (("schedule", sched), ("images", images), ("docs", docs)):
            p = os.path.join(job.job_dir, d, name)
            t = storage.load_table(p) if os.path.isdir(p) else None
            if t is None or not t.num_columns:
                continue
            if name == "schedule":
                out.extend(zip(t.column("enqueue_seq").to_pylist(), t.column("host").to_pylist(),
                               t.column("sched_ms").to_pylist()))
            else:
                out.update(t.column("image_id" if name == "images" else "doc_id").to_pylist())
    return {"order": job.crawl_order(), "seen": job.seen.members(),
            "schedule": sorted(sched), "images": images, "docs": docs}


def test_outputs_do_not_depend_on_partition_counts(ray_session, fixture_paths, tmp_path):
    from lightcrawler_ray.pipelines import simulator
    from lightcrawler_ray.pipelines.crawl import load_robots

    runs = {}
    for k, p in ((2, 4), (3, 2), (4, 4)):
        job = _job(fixture_paths, str(tmp_path / f"k{k}p{p}"), seen_shards=k, politeness_shards=p)
        try:
            job.run(max_rounds=10)
            runs[(k, p)] = _outputs(job)
        finally:
            job.shutdown()
    first = runs[(2, 4)]
    golden = simulator.simulate(job.spec, pq.read_table(fixture_paths["seeds"]),
                                fixture_paths["pages"], fixture_paths["images"],
                                load_robots(fixture_paths["robots"]))
    assert first["order"] == golden.order
    assert set(first["seen"]) == golden.seen
    assert first["schedule"] and first["images"] and first["docs"]
    assert len({sched_ms for *_, sched_ms in first["schedule"]}) > 1
    for kp, out in runs.items():
        assert out == first, kp
