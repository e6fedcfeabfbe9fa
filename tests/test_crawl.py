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


@pytest.mark.parametrize("threshold", [0, 4096])
def test_resume_from_checkpoint(ray_session, fixture_paths, golden, tmp_path, threshold):
    """Kill after round 0, resume in a fresh job → same final state, on the
    block graph (0) and the driver-ranked round (4096).  Either way the
    round leaves its epoch to the next drain: no done marker until the
    shutdown drains it."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    job_dir = str(tmp_path / "resumable")
    spec = make_spec(local_round_threshold=threshold)
    seeds = pq.read_table(paths["seeds"])
    j1 = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    j1._round(j1._seed_table(), 0, j1.seeds.num_rows)  # only round 0, then "crash"
    done = os.path.join(job_dir, "epoch=0000", "_EPOCH_DONE")
    assert not os.path.exists(done)
    j1.shutdown()
    assert os.path.exists(done)

    j2 = CrawlJob(make_spec(local_round_threshold=threshold), seeds, paths["pages"],
                  paths["images"], paths["robots"], job_dir)
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
    """Per epoch: frontier (url_md5, enqueue_seq) pairs, the links
    checkpoint's (url, parent_seq, link_idx), the kept images with their
    near-dup verdicts, the kept doc and attachment doc_ids, the metrics row
    and the done marker's ``next_seq``."""
    import json

    cols = {"frontier": ("url_md5", "enqueue_seq"),
            "links": ("url", "parent_seq", "link_idx"),
            "images": ("image_id", "near_dup_of"), "docs": ("doc_id",),
            "attachments": ("doc_id",)}
    out = {}
    for d in sorted(os.listdir(job.job_dir)):
        if not d.startswith("epoch="):
            continue
        row = {}
        for name, keys in cols.items():
            t = _epoch_table(job, d, name)
            row[name] = set(zip(*(t.column(c).to_pylist() for c in keys))) if t else set()
        metrics = _epoch_table(job, d, "metrics")
        row["metrics"] = metrics.to_pylist() if metrics else []
        with open(os.path.join(job.job_dir, d, "_EPOCH_DONE")) as f:
            row["next_seq"] = json.load(f)["next_seq"]
        out[d] = row
    return out


def _unsorted_links(job) -> list[str]:
    """Epochs whose links checkpoint is not in (parent_seq, link_idx) order —
    the order the next round's rank numbers its winners in."""
    bad = []
    for d in sorted(os.listdir(job.job_dir)):
        t = _epoch_table(job, d, "links") if d.startswith("epoch=") else None
        if t is not None and t.num_rows:
            key = list(zip(t.column("parent_seq").to_pylist(), t.column("link_idx").to_pylist()))
            if key != sorted(key):
                bad.append(d)
    return bad


def _record(job, summary: dict) -> dict:
    return {"seen": set(job.seen.members()), "order": job.crawl_order(), "summary": summary,
            "epochs": _epoch_outputs(job), "unsorted_links": _unsorted_links(job)}


def _crawl(paths: dict, spec: CrawlSpec, job_dir: str) -> dict:
    """Crawl to the end with Ray Data's sort disabled (no round may rank
    through it) and return what the parity cases compare."""
    import ray.data

    from lightcrawler_ray.pipelines.crawl import CrawlJob

    def no_sort(*a, **kw):
        raise AssertionError("the crawl ranked through a Ray Data sort")

    job = CrawlJob(spec, pq.read_table(paths["seeds"]), paths["pages"], paths["images"],
                   paths["robots"], job_dir)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ray.data.Dataset, "sort", no_sort)
            summary = job.run(max_rounds=10)
        return _record(job, summary)
    finally:
        job.shutdown()


# priority rules: pages /p/80-89 and the image pages pop before their level-0
# round mates; max_depth=3 gives the rules rounds to reorder
_RULES = dict(priority_rules=((r"/p/8\d\.html", 5), (r"img-", 3)), max_depth=3)


@pytest.fixture(scope="module")
def reference(ray_session, fixture_paths, golden, engine_run, tmp_path_factory):
    """``reference(**spec_kw)``: the spec's threshold-0 (all block-graph) run
    and its simulator run, made once per module and shared by every case
    that compares another threshold against it."""
    from lightcrawler_ray.pipelines.crawl import load_robots

    _, paths = fixture_paths
    runs = {(): (_record(*engine_run), golden)}

    def get(**kw):
        key = tuple(sorted(kw.items()))
        if key not in runs:
            spec = make_spec(**kw)
            gold = simulator.simulate(spec, pq.read_table(paths["seeds"]), paths["pages"],
                                      paths["images"], load_robots(paths["robots"]))
            runs[key] = (_crawl(paths, spec, str(tmp_path_factory.mktemp("ref"))), gold)
        return runs[key]

    return get


def _cases(thresholds) -> list:
    """(threshold, rules) cases; the uniform ones keep the bare threshold id."""
    return ([pytest.param(t, False, id=str(t)) for t in thresholds]
            + [pytest.param(t, True, id=f"rules-{t}") for t in thresholds])


@pytest.mark.parametrize("threshold,rules", _cases([0, 40, 4096]))
def test_mixed_path_parity(fixture_paths, reference, tmp_path, threshold, rules):
    """Where a round's filter and rank run (driver or remote tasks / block
    graph) must be semantically invisible: at any threshold the crawl has
    the all-distributed run's membership (with uniform priorities also the
    simulator's membership and order), and every epoch the same
    ``_epoch_outputs`` — frontier, links checkpoint, sink rows, metrics row
    and next_seq — as the all-distributed run (threshold 40 makes rounds
    straddle it).  Every
    links checkpoint is in (parent_seq, link_idx) order, also when
    priority rules make the pop order differ from it."""
    kw = _RULES if rules else {}
    ref, gold = reference(**kw)
    run = ref if threshold == 0 else _crawl(
        fixture_paths[1], make_spec(local_round_threshold=threshold, **kw), str(tmp_path / "mixed"))
    assert run["seen"] == ref["seen"]
    if rules:
        # rounds are BFS layers, so a URL's depth is its shortest; the
        # reference's one queue may first reach it deeper (a high-priority
        # page popped early) and then not follow its links at max_depth
        assert gold.seen <= run["seen"]
    else:
        assert run["seen"] == gold.seen
        assert run["order"] == gold.order
    assert run["epochs"] == ref["epochs"]
    assert run["unsorted_links"] == []


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


@pytest.mark.parametrize("threshold", [0, 4096])
def test_traffic_limit_aborts(ray_session, fixture_paths, tmp_path, threshold):
    """A2 — cumulative-bytes abort stops the crawl early (round granular),
    counted in the round on both paths: the bytes the loop stopped on are
    the bytes the drained metrics rows hold."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p, paths = fixture_paths
    spec = make_spec(traffic_limit_bytes=10_000, local_round_threshold=threshold)
    seeds = pq.read_table(paths["seeds"])
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"],
                   str(tmp_path / "traffic"))
    s = job.run(max_rounds=10)
    try:
        assert job.bytes_total >= 10_000  # crossed the limit...
        assert s["links_followed"] < 59   # ...and stopped before the full crawl
        assert s["bytes_received"] == job.bytes_total
    finally:
        job.shutdown()


@pytest.mark.parametrize("threshold,rules", _cases([0, 4096]))
def test_request_limit_budget(fixture_paths, reference, tmp_path, threshold, rules):
    """A2/O3 — the request budget caps fetches at exactly N, keeping the
    round's top winners by (priority desc, enqueue_seq).  Every winner is
    numbered once, before the cap, so the driver rank and the block graph
    give the same seqs; with uniform priorities the crawl is the first N of
    the reference order."""
    kw = dict(_RULES if rules else {}, request_limit=10)
    ref, gold = reference(**kw)
    run = ref if threshold == 0 else _crawl(
        fixture_paths[1], make_spec(local_round_threshold=threshold, **kw), str(tmp_path / "budget"))
    assert run["summary"]["fetched"] == run["summary"]["links_followed"] == 10
    assert run["summary"]["next_seq"] == len(run["seen"])
    assert run["epochs"] == ref["epochs"]
    if not rules:
        assert run["order"] == gold.order[:10]


def test_budget_quotas_keep_pop_order_prefix(tmp_path):
    """The budget rule over several blocks: ``_rank_block`` with the
    ``_budget_quotas`` quotas keeps exactly the first N winners of
    (priority desc, enqueue_seq), numbering every winner before the cut."""
    from lightcrawler_ray.pipelines.crawl import _budget_quotas, _level_counts, _rank_block

    rng = np.random.default_rng(7)
    sizes = [5, 0, 9, 3, 12]
    prio = rng.choice([0, 0, 0, 3, 5], size=sum(sizes))
    blocks, start = [], 0
    for n in sizes:
        blocks.append(pa.table({"host": [f"h{i % 3}" for i in range(n)],
                                "priority": pa.array(prio[start:start + n], pa.int32())}))
        start += n
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    pop = sorted(range(prio.size), key=lambda s: (-prio[s], s))
    for n_keep in (0, 1, 4, 11, 20, prio.size - 1):
        quotas, take = _budget_quotas([_level_counts(t) for t in blocks], n_keep)
        kept = []
        for i, (t, off, q) in enumerate(zip(blocks, offsets, quotas)):
            ranked, *_ = _rank_block(t, int(off), q, str(tmp_path), i, 2)
            assert ranked.num_rows == take[i]
            kept += ranked.column("enqueue_seq").to_pylist()
        assert sorted(kept) == sorted(pop[:n_keep])


def test_robots_disallow_respected(engine_run, golden):
    """host 0 disallows /private/ — nothing under it may be fetched."""
    job, _ = engine_run
    assert not any("/private/" in u for u in golden.order_urls)


def test_tail_collapse_parity(ray_session, fixture_paths, golden, tmp_path):
    """A distributed round whose seen gate leaves <= threshold winners must
    collapse to a driver-ranked round (its winners ranked in-process by the
    same ``_rank_block`` and split in-process, no rank or split tasks) WITHOUT
    changing order, membership, or sink contents — and the collapse
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
