"""End-to-end crawl parity: Ray engine vs reference-semantics simulator.

north_rule checks: (a) crawl ordering, (b) URL-seen membership equality,
(c) per-row image invariant (decoded-pixel allclose / PSNR≥40 + caption
equality), plus resume-from-checkpoint equivalence."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lightcrawler_ray.functions import imagecodec
from lightcrawler_ray.pipelines import simulator
from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages.frontier import CrawlSpec


@pytest.fixture(scope="module")
def fixture_paths():
    p = synth.GraphParams(n_pages=300, n_hosts=6, n_images=120, out_degree=6)
    return p, synth.ensure_fixtures(p)


def make_spec(**kw) -> CrawlSpec:
    # local_round_threshold=0 forces every round through the distributed path
    # so parity tests cover the cluster code; the mixed-path test below uses
    # the default adaptive threshold
    base = dict(max_depth=2, follow_mode=1, seen_shards=2, fetch_concurrency=1,
                fetch_batch_size=64, local_round_threshold=0)
    base.update(kw)
    return CrawlSpec(**base)


@pytest.fixture(scope="module")
def golden(fixture_paths):
    from lightcrawler_ray.pipelines.crawl import load_robots

    p, paths = fixture_paths
    spec = make_spec()
    seeds = pq.read_table(paths["seeds"])
    robots = load_robots(paths["robots"])
    return simulator.simulate(spec, seeds, paths["pages"], paths["images"], robots)


@pytest.fixture(scope="module")
def engine_run(ray_session, fixture_paths, tmp_path_factory):
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    job_dir = str(tmp_path_factory.mktemp("crawljob"))
    spec = make_spec()
    seeds = pq.read_table(paths["seeds"])
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    summary = job.run(max_rounds=10)
    yield job, summary
    job.shutdown()


def test_seen_membership_parity(engine_run, golden):
    job, _ = engine_run
    assert set(job.seen.members()) == golden.seen


def test_crawl_order_parity(engine_run, golden):
    job, _ = engine_run
    assert job.crawl_order() == golden.order


def test_fetch_metrics_sane(engine_run, golden):
    _, summary = engine_run
    assert summary["links_followed"] == len(golden.order)
    assert summary["errors"] > 0  # the 404/500 rows were exercised
    assert summary["retries"] > 0  # flaky rows retried
    assert summary["documents_received"] > 0


def test_image_invariant(engine_run, golden, fixture_paths):
    """north_rule (c): every engine image row decodes allclose to the fixture
    pixels (PSNR≥40 for lossy) and captions match the golden run."""
    import os

    from lightcrawler_ray import storage

    p, paths = fixture_paths
    job, _ = engine_run
    ref = pq.read_table(paths["images"])
    ref_bytes = dict(zip(ref.column("image_id").to_pylist(), ref.column("bytes").to_pylist()))
    golden_caps = {r["image_id"]: r["caption"] for r in golden.images}
    golden_ids = set(golden_caps)

    engine_rows = []
    for d in sorted(os.listdir(job.job_dir)):
        img_dir = os.path.join(job.job_dir, d, "images")
        if d.startswith("epoch=") and os.path.isdir(img_dir):
            t = storage.load_table(img_dir)
            engine_rows.extend(t.to_pylist())
    assert engine_rows, "no image rows written"
    seen_ids = set()
    for r in engine_rows:
        seen_ids.add(r["image_id"])
        px_engine = imagecodec.decode(r["bytes"])
        px_ref = imagecodec.decode(ref_bytes[r["image_id"]])
        if r["fmt"] in ("png", "bmp"):
            assert np.array_equal(px_engine, px_ref)
        else:
            assert imagecodec.psnr(px_engine, px_ref) >= 40.0
        assert r["caption"] == golden_caps[r["image_id"]]
    # engine image set ⊆ golden (exact-dup rows collapse in the engine sink)
    assert seen_ids <= golden_ids
    golden_unique_blobs = {ref_bytes[i] for i in golden_ids}
    assert len(seen_ids) == len(golden_unique_blobs)


def test_docs_extracted_with_metadata(engine_run):
    import os

    from lightcrawler_ray import storage

    job, _ = engine_run
    rows = []
    for d in sorted(os.listdir(job.job_dir)):
        doc_dir = os.path.join(job.job_dir, d, "docs")
        if d.startswith("epoch=") and os.path.isdir(doc_dir):
            rows.extend(storage.load_table(doc_dir).to_pylist())
    assert rows
    with_no = [r for r in rows if r["doc_ori_no"]]
    assert with_no, "detail pages should yield doc_ori_no"
    assert all(r["doc_id"] for r in rows)
    dated = [r for r in rows if r["publish_time"] > 0]
    assert dated
    negged = [r for r in rows if r["negs"]]
    assert negged and "中华人民共和国网络安全法" in negged[0]["negs"]


def test_resume_from_checkpoint(ray_session, fixture_paths, golden, tmp_path):
    """Kill after round 0, resume in a fresh job → same final state."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    job_dir = str(tmp_path / "resumable")
    spec = make_spec()
    seeds = pq.read_table(paths["seeds"])
    j1 = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    j1._round(j1._seed_table(), 0, j1.seeds.num_rows)  # only round 0, then "crash"
    j1.shutdown()

    j2 = CrawlJob(make_spec(), seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    j2.run(max_rounds=10)
    try:
        assert set(j2.seen.members()) == golden.seen
        assert j2.crawl_order() == golden.order
    finally:
        j2.shutdown()


def _epoch_table(job, d: str, name: str) -> pa.Table | None:
    from lightcrawler_ray import storage

    p = os.path.join(job.job_dir, d, name)
    if not os.path.isdir(p):
        return None
    t = storage.load_table(p)
    return t if t.num_columns else None


def _epoch_outputs(job) -> dict:
    """Per epoch: frontier (url_md5, enqueue_seq) pairs and the image_id /
    doc_id sets the sinks kept."""
    cols = {"frontier": ("url_md5", "enqueue_seq"), "images": ("image_id",),
            "docs": ("doc_id",)}
    out = {}
    for d in sorted(os.listdir(job.job_dir)):
        if not d.startswith("epoch="):
            continue
        row = {}
        for name, keys in cols.items():
            t = _epoch_table(job, d, name)
            row[name] = set(zip(*(t.column(c).to_pylist() for c in keys))) if t else set()
        out[d] = row
    return out


@pytest.mark.parametrize("threshold", [0, 40, 4096])
def test_mixed_path_parity(ray_session, fixture_paths, golden, engine_run, tmp_path, threshold):
    """Where a round's filter and rank run (driver or remote tasks / block
    graph) must be semantically invisible: at any threshold the crawl has
    the same order and membership as the simulator, and every epoch the
    same frontier (url_md5, enqueue_seq) and kept image/doc ids as the
    all-distributed run (threshold 40 makes rounds straddle it)."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    spec = make_spec(local_round_threshold=threshold)
    seeds = pq.read_table(paths["seeds"])
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"],
                   str(tmp_path / "mixed"))
    job.run(max_rounds=10)
    try:
        assert set(job.seen.members()) == golden.seen
        assert job.crawl_order() == golden.order
        assert _epoch_outputs(job) == _epoch_outputs(engine_run[0])
    finally:
        job.shutdown()


@pytest.mark.parametrize("threshold", [0, 4096])
def test_gate_count_metrics(ray_session, fixture_paths, engine_run, tmp_path, threshold):
    """Per epoch, the METRICS gate columns reconcile with the epoch tables:
    urls_enqueued = frontier rows, and urls_enqueued + urls_deduped = the
    candidates CandidateFilter keeps (within-round duplicates and
    already-seen keys both count as deduped)."""
    import json

    from lightcrawler_ray.pipelines.crawl import CrawlJob
    from lightcrawler_ray.stages.frontier import CandidateFilter

    p, paths = fixture_paths
    if threshold == 0:
        job = engine_run[0]  # make_spec() is the all-distributed threshold 0
    else:
        job = CrawlJob(make_spec(local_round_threshold=threshold), pq.read_table(paths["seeds"]),
                       paths["pages"], paths["images"], paths["robots"], str(tmp_path / "gate"))
        job.run(max_rounds=10)
    try:
        filt = CandidateFilter(job.spec)
        filt.robots = job.robots
        metrics = {r["epoch"]: r for r in job.metrics().to_pylist()}
        cands = job._seed_table()
        content_seq = (1 << 62) if job.spec.redirects_till_content else -1
        epochs = sorted(d for d in os.listdir(job.job_dir) if d.startswith("epoch="))
        deduped = 0
        for d in epochs:
            kept = filt(cands, content_seq=content_seq)
            front = _epoch_table(job, d, "frontier")
            m = metrics.get(int(d.split("=")[1]))
            if m is None:  # a round whose gate left no winners writes no metrics
                assert front is None or front.num_rows == 0
            else:
                assert m["urls_enqueued"] == front.num_rows
                assert m["urls_enqueued"] + m["urls_deduped"] == kept.num_rows
                deduped += m["urls_deduped"]
            links = _epoch_table(job, d, "links")
            cands = links if links is not None else cands.slice(0, 0)
            with open(os.path.join(job.job_dir, d, "_EPOCH_DONE")) as f:
                content_seq = json.load(f)["content_seq"]
        assert len(metrics) >= 2 and deduped > 0
    finally:
        if threshold:
            job.shutdown()


def test_resume_from_sparse_snapshot(ray_session, fixture_paths, golden, tmp_path):
    """snapshot_every>1: crash past the last snapshot → resume re-enters at
    the snapshotted epoch, deterministically re-crawls, same final state."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    spec = make_spec(snapshot_every=2)
    seeds = pq.read_table(paths["seeds"])
    job_dir = str(tmp_path / "sparse")
    j1 = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    cand, hint = j1._seed_table(), j1.seeds.num_rows
    for e in range(2):  # crash after epoch 1 (snapshot only at epoch 0)
        n, cand, hint = j1._round(cand, e, hint)
    j1._drain_pending()
    j1.shutdown()

    j2 = CrawlJob(make_spec(snapshot_every=2), seeds, paths["pages"], paths["images"],
                  paths["robots"], job_dir)
    j2.run(max_rounds=10)
    try:
        assert set(j2.seen.members()) == golden.seen
        assert j2.crawl_order() == golden.order
    finally:
        j2.shutdown()


def test_resume_mid_epoch_kill(ray_session, fixture_paths, golden, tmp_path):
    """Kill MID-epoch (between the split-sink writes and the drain): the
    next epoch dir holds stale un-blessed parts but no _EPOCH_DONE.  Resume
    must discard the stale parts (a shorter deterministic re-run must not
    bless leftovers from the longer interrupted one) and converge to the
    golden state."""
    import json

    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    seeds = pq.read_table(paths["seeds"])
    job_dir = str(tmp_path / "midkill")
    j1 = CrawlJob(make_spec(), seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    cand, hint = j1._seed_table(), j1.seeds.num_rows
    for e in range(2):
        n, cand, hint = j1._round(cand, e, hint)
    j1._drain_pending()
    j1.shutdown()
    # fake a crash mid-epoch-2: partial links/docs parts on disk, no
    # _EPOCH_DONE, no seen.npz
    ed = os.path.join(job_dir, "epoch=0002")
    os.makedirs(os.path.join(ed, "links"))
    os.makedirs(os.path.join(ed, "docs"))
    stale = pa.table({"stale": pa.array([1, 2, 3], pa.int64())})
    pq.write_table(stale, os.path.join(ed, "links", "part-00007.parquet"))
    pq.write_table(stale, os.path.join(ed, "docs", "part-00007.parquet"))

    j2 = CrawlJob(make_spec(), seeds, paths["pages"], paths["images"],
                  paths["robots"], job_dir)
    j2.run(max_rounds=10)
    try:
        assert set(j2.seen.members()) == golden.seen
        assert j2.crawl_order() == golden.order
        # the stale parts were discarded, and epoch 2 was re-run cleanly
        assert not os.path.exists(os.path.join(ed, "links", "part-00007.parquet")) or \
            json.load(open(os.path.join(ed, "_EPOCH_DONE"))), "epoch 2 re-blessed"
        docs_dir = os.path.join(ed, "docs")
        if os.path.isdir(docs_dir):
            for f in os.listdir(docs_dir):
                if f.endswith(".parquet"):
                    assert "stale" not in pq.read_schema(os.path.join(docs_dir, f)).names
    finally:
        j2.shutdown()


@pytest.mark.parametrize("victim", ["fetch", "seen", "content", "sched"])
def test_resume_after_actor_death(ray_session, fixture_paths, golden, tmp_path, victim):
    """A job-lifetime ACTOR dying mid-crawl (node loss at cluster scale) —
    a fetch worker, or the state actor holding a URL-seen, content-seen or
    politeness partition (one process hosts a partition of every kind, so
    the last three reach it through each kind's own facade) —
    fails the in-flight round; a supervisor-style restart on the same job
    dir resumes from the last blessed epoch and converges to the golden
    state.  This drives the real failure path — ray.kill on a live actor,
    error propagation through the dispatch/split/gate chains — not just a
    synthesized crash dir."""
    import ray

    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    seeds = pq.read_table(paths["seeds"])
    job_dir = str(tmp_path / f"actorkill_{victim}")
    j1 = CrawlJob(make_spec(), seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    cand, hint = j1._seed_table(), j1.seeds.num_rows
    for e in range(2):
        n, cand, hint = j1._round(cand, e, hint)
    j1._drain_pending()
    ray.kill(
        {
            "fetch": lambda: j1.fetch_pool.workers[0],
            "seen": lambda: j1.seen.shards[0],
            "content": lambda: j1.content_seen.shards[0],
            "sched": lambda: j1.sched.shards[0],
        }[victim]()
    )
    with pytest.raises(Exception):
        n, cand, hint = j1._round(cand, 2, hint)
        j1._drain_pending()
        j1._round(cand, 3, hint)  # belt-and-braces: error must surface by here
    # crashed-driver teardown: kill job actors without draining errored refs
    for comp in (j1.state, j1.fetch_pool):
        try:
            comp.shutdown()
        except Exception:
            pass

    j2 = CrawlJob(make_spec(), seeds, paths["pages"], paths["images"],
                  paths["robots"], job_dir)
    j2.run(max_rounds=10)
    try:
        assert set(j2.seen.members()) == golden.seen
        assert j2.crawl_order() == golden.order
    finally:
        j2.shutdown()


def test_traffic_limit_aborts(ray_session, fixture_paths, tmp_path):
    """A2 — cumulative-bytes abort stops the crawl early (round granular)."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    spec = make_spec(traffic_limit_bytes=10_000)
    seeds = pq.read_table(paths["seeds"])
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"],
                   str(tmp_path / "traffic"))
    s = job.run(max_rounds=10)
    try:
        assert job.bytes_total >= 10_000  # crossed the limit...
        assert s["links_followed"] < 59   # ...and stopped before the full crawl
    finally:
        job.shutdown()


def test_request_limit_budget(ray_session, fixture_paths, golden, tmp_path):
    """A2/O3 — request budget caps fetches at exactly N, in pop order (the
    first N of the reference order)."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    spec = make_spec(request_limit=10)
    seeds = pq.read_table(paths["seeds"])
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"],
                   str(tmp_path / "budget"))
    s = job.run(max_rounds=10)
    try:
        assert s["links_followed"] == 10
        assert job.crawl_order() == golden.order[:10]
    finally:
        job.shutdown()


def test_robots_disallow_respected(engine_run, golden):
    """host 0 disallows /private/ — nothing under it may be fetched."""
    job, _ = engine_run
    assert not any("/private/" in u for u in golden.order_urls)


def test_tail_collapse_parity(ray_session, fixture_paths, golden, tmp_path):
    """A distributed round whose seen gate leaves <= threshold winners must
    collapse to the local tail (skipping the rank/split/finalize machinery)
    WITHOUT changing order, membership, or sink contents — and the collapse
    must actually fire on this fixture (the BFS tail rounds have large raw
    link counts but tiny unseen remainders)."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    # threshold below the biggest round but above the gated tail rounds; the
    # raw-link hint routes mid-crawl rounds distributed, the gate then leaves
    # a driver-sized remainder
    spec = make_spec(local_round_threshold=60)
    seeds = pq.read_table(paths["seeds"])
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"],
                   str(tmp_path / "collapse"))
    job.run(max_rounds=10)
    try:
        assert job.tail_collapses > 0, "fixture never exercised the collapse path"
        assert set(job.seen.members()) == golden.seen
        assert job.crawl_order() == golden.order
    finally:
        job.shutdown()
