"""Smoke test of ``tools/epoch_digest.py``: one crawl job on the crawl test
fixture yields a digest of every output for each epoch, and a digest moves
when a part's name or bytes do."""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages.frontier import CrawlSpec

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "epoch_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("epoch_digest", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_epoch_digest_one_job(ray_session, tmp_path):
    tool = _load_tool()
    paths = synth.ensure_fixtures(synth.GraphParams(n_pages=300, n_hosts=6, n_images=120,
                                                    out_degree=6))
    spec = CrawlSpec(max_depth=2, follow_mode=1, seen_shards=2, fetch_concurrency=1,
                     fetch_batch_size=64, local_round_threshold=40)
    t0 = time.perf_counter()
    recs = tool.run_job(spec, paths, str(tmp_path / "job"))
    assert time.perf_counter() - t0 < 20
    recs = json.loads(json.dumps(recs))
    assert [r["epoch"] for r in recs] == list(range(len(recs))) and len(recs) >= 3
    # every fetched epoch has every output; the last, empty one has no
    # frontier, schedule or payloads, but its links, snapshot and marker
    for r in recs[:-1]:
        assert all(len(r[name]) == 32 for name in tool.OUTPUTS), r
    last = recs[-1]
    assert last["frontier"] is None and last["metrics"] is None
    assert last["links"] and last["_EPOCH_DONE"] and last["seen.npz"]
    assert spec.seed_hosts == ()  # the job worked on a copy
    assert tool.epoch_digests(str(tmp_path / "job")) == recs


def test_digest_sees_names_and_bytes(tmp_path):
    tool = _load_tool()
    d = tmp_path / "links"
    d.mkdir()
    (d / "part-00000.parquet").write_bytes(b"abc")
    base = tool.digest(str(d))
    (d / "part-00000.parquet").rename(d / "part-00001.parquet")
    renamed = tool.digest(str(d))
    (d / "part-00001.parquet").write_bytes(b"abd")
    assert len({base, renamed, tool.digest(str(d))}) == 3
    assert tool.digest(str(tmp_path / "missing")) is None
