"""Smoke test of ``tools/phase_seconds.py``: one block-graph job on the
crawl test fixture yields its fetch count, ``run()`` seconds and the
graph path's phases."""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages.frontier import CrawlSpec

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "phase_seconds.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("phase_seconds", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_phase_seconds_one_graph_job(ray_session, tmp_path):
    tool = _load_tool()
    paths = synth.ensure_fixtures(synth.GraphParams(n_pages=300, n_hosts=6, n_images=120,
                                                    out_degree=6))
    spec = CrawlSpec(max_depth=2, follow_mode=1, seen_shards=2, fetch_concurrency=1,
                     fetch_batch_size=64, local_round_threshold=0)
    t0 = time.perf_counter()
    recs = list(tool.run_jobs(spec, paths, 1, str(tmp_path)))
    assert time.perf_counter() - t0 < 20
    assert len(recs) == 1
    rec = json.loads(json.dumps(recs[0]))
    assert rec["job"] == 0 and rec["fetched"] > 0 and rec["run_s"] > 0
    # threshold 0: every round ran the block graph, none collapsed
    for phase in ("gate_counts", "rank+sched_launch", "fetch+split", "sinks"):
        assert rec["phases"][phase] > 0, phase
    assert "tail_collapse" not in rec["phases"]
    assert spec.seed_hosts == ()  # the job worked on a copy
    assert list(tmp_path.iterdir()) == []
