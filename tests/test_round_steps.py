"""The one round body's placement helpers: the rank units
(``_rank_groups``) and the block graph's speculated next-round filter,
which must actually be consumed — losing it only slows the crawl, so no
output check would notice."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pyarrow.parquet as pq
import pytest

from lightcrawler_ray.pipelines import crawl
from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages.frontier import CrawlSpec


def _check_groups(counts: np.ndarray, groups: list[list[int]]) -> None:
    """Groups cover every block with winners exactly once, in order, each
    group a run of consecutive such blocks."""
    live = [int(b) for b in np.nonzero(counts)[0]]
    assert [b for g in groups for b in g] == live
    pos = {b: i for i, b in enumerate(live)}
    for g in groups:
        assert g and [pos[b] for b in g] == list(range(pos[g[0]], pos[g[0]] + len(g)))


@pytest.mark.parametrize("counts", [
    [0, 5, 0, 0, 7, 0],
    [9000, 0, 1, 4096, 2],
    [5000] * 6,
    [0, 0, 0, 12],
])
def test_rank_groups_few_blocks(counts):
    """A driver-ranked round is one group; a block graph with at most two
    winner blocks per ``_COALESCE_ROWS`` winners ranks each block alone."""
    counts = np.asarray(counts, dtype=np.int64)
    one = crawl._rank_groups(counts, True)
    _check_groups(counts, one)
    assert len(one) == 1
    graph = crawl._rank_groups(counts, False)
    _check_groups(counts, graph)
    assert all(len(g) == 1 for g in graph)


def test_rank_groups_coalesce_tiny_blocks():
    """Many tiny winner blocks (the r5 dedup-heavy gate) group into
    contiguous units of at most 32 blocks, each closed at
    ``_COALESCE_ROWS`` winners; the driver-ranked round stays one group."""
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 16, size=1220).astype(np.int64)
    counts[rng.choice(1220, 40, replace=False)] = 0
    counts[600] = 3000  # one large block closes its group by rows
    graph = crawl._rank_groups(counts, False)
    _check_groups(counts, graph)
    assert max(len(g) for g in graph) <= 32
    assert len(graph) < np.count_nonzero(counts) // 8
    for g in graph[:-1]:
        assert len(g) == 32 or counts[g].sum() >= crawl._COALESCE_ROWS
    one = crawl._rank_groups(counts, True)
    _check_groups(counts, one)
    assert len(one) == 1
    assert crawl._rank_groups(np.zeros(4, np.int64), False) == []


def test_speculated_filter_consumed(ray_session, tmp_path, monkeypatch):
    """On the block graph (threshold 0), a round that starts with content
    already found speculates the next round's ``_filter_extract`` tasks on
    its fetch batches' links, and the next round uses them: it launches no
    filter task at its head (before its seen gate).  M9 redirect-only mode
    is on, so content is first found in round 0's fetch; rounds 0 and 1
    filter at their heads, every later round must not."""
    paths = synth.ensure_fixtures(synth.GraphParams(n_pages=300, n_hosts=6, n_images=120,
                                                    out_degree=6))
    spec = CrawlSpec(max_depth=2, follow_mode=1, seen_shards=2, fetch_concurrency=1,
                     fetch_batch_size=64, local_round_threshold=0)
    job = crawl.CrawlJob(spec, pq.read_table(paths["seeds"]), paths["pages"], paths["images"],
                         paths["robots"], str(tmp_path / "job"))
    log: list[str] = []
    task = crawl._filter_extract

    def options(**kw):
        opts = task.options(**kw)

        def remote(*args):
            log.append("filter")
            return opts.remote(*args)

        return SimpleNamespace(remote=remote)

    def logged(event, fn):
        def call(*args):
            log.append(event)
            return fn(*args)
        return call

    monkeypatch.setattr(crawl, "_filter_extract", SimpleNamespace(options=options))
    monkeypatch.setattr(job, "_round", logged("round", job._round))
    monkeypatch.setattr(job.seen, "gate_round", logged("gate", job.seen.gate_round))
    try:
        summary = job.run(max_rounds=10)
    finally:
        job.shutdown()
    assert summary["fetched"] > 0
    heads = []
    for event in log:
        if event == "round":
            heads.append(0)
            at_head = True
        elif event == "gate":
            at_head = False
        elif at_head:
            heads[-1] += 1
    assert len(heads) >= 4
    assert heads[0] > 0 and heads[1] > 0, heads
    assert heads[2:] == [0] * (len(heads) - 2), heads
    assert log.count("filter") > heads[0]  # the speculated launches
