"""What ``perfbench`` takes from ``bench.py``: the width-1 host-capacity
probe and the VM's busy and steal counters, read on every benchmark run; and
``bench.py`` itself, which takes no arguments.  Also the engine names the
benchmark's trace leg (``perfbench.replay``) reads off a finished crawl."""

import hashlib
import os
import subprocess
import sys
import time

import bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_host_capacity_width_one():
    # the call perfbench.hostctx makes, at a shorter duration
    cap = bench.host_capacity(widths=(1,), dur=0.05)
    assert cap["cpu_1"] > 0 and cap["mem_1"] > 0
    assert "probe_failed" not in cap


def test_host_capacity_defaults_to_width_one_only():
    # one width, so no cross-width ratio keys: only the two readings
    # ``capacity_probe`` copies into ``context.host``
    cap = bench.host_capacity(dur=0.05)
    assert set(cap) == {"cpu_1", "mem_1"}


def _dying_cap_worker(kind, dur, q):
    q.put(1.0)
    sys.exit(3)


def test_host_capacity_flags_a_probe_that_dies(monkeypatch):
    # the worker reports, then exits non-zero: the reading is kept but the
    # probe is marked failed rather than passed off as a clean one
    monkeypatch.setattr(bench, "_cap_worker", _dying_cap_worker)
    cap = bench.host_capacity(widths=(1,), dur=0.05)
    assert cap["probe_failed"] is True


def test_capacity_probe_fills_context_host():
    import perfbench.hostctx

    host = perfbench.hostctx.capacity_probe()
    assert set(host) == {"cpu_1_mb_s", "mem_1_mb_s"}
    assert host["cpu_1_mb_s"] > 0 and host["mem_1_mb_s"] > 0


def test_busy_and_steal_counters_are_monotonic():
    busy0, steal0 = bench._busy_cpu_s(), bench._steal_cpu_s()
    assert isinstance(busy0, float) and isinstance(steal0, float)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.05:
        hashlib.sha256(b"x" * 4096).digest()
    assert bench._busy_cpu_s() >= busy0
    assert bench._steal_cpu_s() >= steal0


def test_perfbench_imports_its_bench_names():
    import perfbench.hostctx
    import perfbench.run  # noqa: F401

    assert perfbench.hostctx.bench is bench


def test_bench_queries_resolve_to_the_timed_functions():
    # the operator suite times these functions, looked up by name
    import __ray_entry__
    from lightcrawler_ray import relational as rel
    from lightcrawler_ray.extras import ann, dedupe, joins, textstats

    expected = {
        "pricing_summary": rel.pricing_summary,
        "tumbling_window": rel.tumbling_window,
        "top_revenue": rel.top_revenue,
        "anti_join_new": rel.anti_join_new,
        "exact_dedup_first": rel.exact_dedup_first,
        "minhash_lsh_pairs": dedupe.minhash_lsh_pairs,
        "simhash_near_dups": dedupe.simhash_near_dups,
        "embedding_near_dups": dedupe.embedding_near_dups,
        "ann_topk": ann.topk_bruteforce,
        "token_counts": textstats.token_counts,
        "sessionize": rel.sessionize,
        "skew_salted_join": joins.skew_salted_join,
        "q5_local_supplier": joins.q5_local_supplier,
    }
    assert bench.BENCH_QUERIES == tuple(expected)
    queries = __ray_entry__.queries()
    for name, fn in expected.items():
        assert queries[name] is fn, name
    assert queries["distinct_langs"] is rel.distinct_langs  # the warmup query


def test_bench_rejects_arguments():
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench.py"), "--scaling"],
        capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 2
    assert "usage:" in p.stderr


def test_trace_replay_counts_every_fetched_url(ray_session, tmp_path):
    # the ``--trace 1`` leg: replay a finished crawl layer by layer through
    # the fetcher, the fetch pool and the kind split, then read the job's
    # own phase marks
    import pyarrow.parquet as pq

    from lightcrawler_ray.pipelines.crawl import CrawlJob
    from lightcrawler_ray.sources import synth
    from lightcrawler_ray.stages.frontier import CrawlSpec
    from perfbench import replay
    from perfbench.trace import Tracer

    paths = synth.ensure_fixtures(
        synth.GraphParams(n_pages=120, n_hosts=4, n_images=40, out_degree=6, n_seeds=8),
        root=str(tmp_path / "fixtures"))
    spec = CrawlSpec(max_depth=2, follow_mode=1, seen_shards=2, fetch_concurrency=1)
    job = CrawlJob(spec, pq.read_table(paths["seeds"]), paths["pages"], paths["images"],
                   paths["robots"], str(tmp_path / "job"))
    t0 = time.perf_counter()
    summary = job.run(max_rounds=10)
    run_s = time.perf_counter() - t0
    job.shutdown()
    layers = replay.replay(job, Tracer("contract"), str(tmp_path / "replay"))
    layers.update(replay.crawl_phase_metrics(job, summary))
    assert summary["fetched"] > 0
    assert layers["fetch.urls"] == summary["fetched"]
    assert layers["crawl.epochs"] == summary["epochs"]
    # every round of this crawl is driver-ranked; its tail marks its phases
    assert layers["crawl.fetch_wave_s"] > 0
    assert layers["crawl.sinks_s"] > 0
    # the phase marks account for the run: every epoch's drain and finish
    # falls inside a mark
    assert sum(job.benchmarks().values()) >= 0.9 * run_s
