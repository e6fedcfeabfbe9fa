"""Benchmark harness — prints ONE JSON line with headline seconds + per-query
timings: the headline crawl over the 400k-page synthetic web, the routed
list/detail/attachment crawl, and 13 operator queries on the sf tables.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS (default 32),
LCRAY_SEEN_MODE (default: the CrawlSpec default, "exact"; "cuckoo" runs the
URL-seen gate on the approximate filters — the only mode a 10^10-key frontier
can afford).

``perfbench`` imports the host-capacity probe (``host_capacity``) and the
VM's busy and steal counters (``_busy_cpu_s``, ``_steal_cpu_s``) from here.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Heavier-than-test fixture: ~90 KB detail bodies and 2-4 images per page so
# the benchmark measures extraction/decode compute, not just scheduling.
# 512 seeds / depth<=3: the frontier profile is dominated by two huge
# middle rounds (the 10^10-frontier shape the north rule scales on), not a
# long small-round tail whose fixed costs would hide the fetch pool's work.
# The crawl reaches ~82k URLs + ~10k images of the 400k-page graph.
BENCH_GRAPH = dict(
    n_pages=400000, n_hosts=32, n_images=20000, out_degree=12, seed=42,
    body_repeat=240, images_per_detail=2, n_seeds=512,
)

# the operator suite: names in ``__ray_entry__.queries()``, timed in order
BENCH_QUERIES = (
    "pricing_summary", "tumbling_window", "top_revenue", "anti_join_new",
    "exact_dedup_first", "minhash_lsh_pairs", "simhash_near_dups",
    "embedding_near_dups", "ann_topk", "token_counts", "sessionize",
    "skew_salted_join", "q5_local_supplier",
)


def _quiet():
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray").setLevel(logging.ERROR)
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _run_job(spec, paths: dict, job_dir: str) -> dict:
    """Build a ``CrawlJob`` on ``paths``' fixtures, time ``run``, then shut
    it down.  Memory and speculation counts are read while the job's actors
    are still up; the job's outputs stay in ``job_dir`` for the caller."""
    import pyarrow.parquet as pq

    from lightcrawler_ray.pipelines.crawl import CrawlJob
    from perfbench.hostctx import anon_mb  # imported here: hostctx imports bench

    shutil.rmtree(job_dir, ignore_errors=True)
    seeds = pq.read_table(paths["seeds"])
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    t0 = time.perf_counter()
    summary = job.run(max_rounds=12)
    dt = time.perf_counter() - t0
    out = {
        "sec": dt,
        "urls": summary["links_followed"],
        "urls_per_sec": summary["links_followed"] / dt,
        "summary": summary,
        # RssAnon of the driver + Ray workers: plasma pages are a shared
        # mapping, so VmHWM would count every object the driver ever read
        "anon_rss_mb": round(anon_mb(), 1),
        "speculated": getattr(job.fetch_pool, "speculated_total", 0),
    }
    job.shutdown()
    return out


def bench_crawl(ncpu: int) -> dict:
    """Headline: the full crawl pipeline over the 400k-page synthetic web
    (~82k URLs / ~10k images fetched at depth<=3) — canonicalize → dedup →
    seen shards → fetch+extract actor pool → image/doc sinks, with per-epoch
    checkpointing on."""
    from lightcrawler_ray.sources import synth
    from lightcrawler_ray.stages.frontier import CrawlSpec

    paths = synth.ensure_fixtures(synth.GraphParams(**BENCH_GRAPH))  # cached (untimed)
    job_dir = f"/dev/shm/lcray_bench_job_{ncpu}"  # tmpfs: the sandbox stand-in for a distributed store (local virtio disk is 78 MB/s and would floor every level)
    seen_mode = os.environ.get("LCRAY_SEEN_MODE", CrawlSpec.seen_mode)
    spec = CrawlSpec(
        max_depth=3,
        follow_mode=1,
        seen_shards=8,
        seen_mode=seen_mode,
        # pool = 3/4 of the CPUs (splits/gate/rank/sinks pipeline on the
        # rest).  Chosen by the 2026-08-20 wave-width A/B (BASELINE.md): vs
        # the old 50%, +30% URLs/s at 8 CPUs and +20% at 32.
        fetch_concurrency=max(2, ncpu * 75 // 100),
        fetch_batch_size=256,
        # bench bodies are heavy (~90 KB) → even mid-size rounds benefit from
        # the pool; only the genuinely tiny head/tail rounds stay local
        local_round_threshold=256,
        snapshot_every=4,
    )
    r = _run_job(spec, paths, job_dir)
    shutil.rmtree(job_dir, ignore_errors=True)
    images = r["summary"]["images_written"]
    return {
        **r,
        "images": images,
        "images_per_sec": images / r["sec"],
        "seen_mode": seen_mode,
    }


def bench_routed(ncpu: int) -> dict:
    """M11/M25/M29 at bench scale: the routed list/detail/attachment site
    (~24.4k URLs: 400 list pages discovered only through record-count
    pagination file series, 16k CJK detail docs, 8k PDF attachment payloads
    fetched on the attachment route)."""
    import pyarrow.parquet as pq

    from lightcrawler_ray.sources import synth
    from lightcrawler_ray.stages.frontier import CrawlSpec

    paths = synth.ensure_routed_fixtures(synth.RoutedSiteParams())  # cached (untimed)
    job_dir = f"/dev/shm/lcray_bench_routed_{ncpu}"
    spec = CrawlSpec(
        max_depth=3,
        follow_mode=2,
        routes=synth.ROUTED_ROUTES,
        synthesize_pagination=True,
        seen_shards=8,
        fetch_concurrency=max(2, ncpu * 75 // 100),
        fetch_batch_size=256,
        local_round_threshold=256,
        snapshot_every=4,
    )
    r = _run_job(spec, paths, job_dir)
    rows = {"attachments": 0, "docs": 0}
    for ep in sorted(os.listdir(job_dir)):
        if not ep.startswith("epoch="):
            continue
        for sub in rows:
            d = os.path.join(job_dir, ep, sub)
            if os.path.isdir(d):
                rows[sub] += sum(
                    pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
                    for f in os.listdir(d)
                    if f.endswith(".parquet")
                )
    shutil.rmtree(job_dir, ignore_errors=True)
    return {**r, **rows}


def _busy_cpu_s() -> float:
    """This VM's own busy CPU seconds (user+nice+system+irq+softirq) — with
    no other in-VM workload this is all ours; a window whose busy share is
    far above its expected profile was polluted from INSIDE the VM (e.g. a
    test run alongside the bench), which steal cannot see."""
    with open("/proc/stat") as f:
        v = list(map(int, f.readline().split()[1:]))
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / os.sysconf("SC_CLK_TCK")


def _steal_cpu_s() -> float:
    """Cumulative STEAL seconds (/proc/stat field 8): CPU time the
    hypervisor denied this VM's runnable vCPUs — the direct, attributable
    neighbor-interference signal on a shared host."""
    with open("/proc/stat") as f:
        vals = list(map(int, f.readline().split()[1:]))
    return vals[7] / os.sysconf("SC_CLK_TCK") if len(vals) > 7 else 0.0


def bench_queries(sf_dir: str) -> dict[str, float]:
    """Representative operator pipelines over the driver testdata."""
    import pandas as pd
    import pyarrow as pa

    import __ray_entry__

    queries = __ray_entry__.queries()

    def consume(res):
        if isinstance(res, (pd.DataFrame, pa.Table)):
            return len(res)
        return res.count()

    # one untimed Ray Data execution first: Dataset-operator worker spawn /
    # module import warmup otherwise lands entirely on the first timed query
    consume(queries["distinct_langs"](sf_dir))

    out: dict[str, float] = {}
    for name in BENCH_QUERIES:
        t0 = time.perf_counter()
        consume(queries[name](sf_dir))
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def main() -> None:
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
    _quiet()
    # warm the page cache with one untimed read
    import pyarrow.parquet as pq

    for t in ("lineitem", "events", "documents", "embeddings", "orders", "supplier"):
        pq.read_table(f"{sf_dir}/{t}.parquet")

    # hypervisor steal over the measured window: a bench line taken while a
    # neighbour was busy reads as such (steal is never our own work)
    steal0, wall0 = _steal_cpu_s(), time.perf_counter()
    crawl = bench_crawl(ncpu)
    queries = bench_queries(sf_dir)
    routed = bench_routed(ncpu)
    queries["crawl_routed"] = round(routed["sec"], 3)
    queries["crawl_400k"] = round(crawl["sec"], 3)
    total = round(sum(queries.values()), 3)
    sf = sf_dir.rstrip("/").rsplit("sf", 1)[-1]
    ray.shutdown()
    wall = time.perf_counter() - wall0
    steal_cpu_s = max(0.0, _steal_cpu_s() - steal0)
    print(
        json.dumps(
            {
                "metric": "e2e_seconds (crawl_400k [82k URLs] + operator suite)",
                "value": total,
                "unit": "sec",
                "queries": queries,
                "sf": float(sf) if sf.replace(".", "").isdigit() else sf,
                "num_cpus": ncpu,
                "crawl_urls_per_sec": round(crawl["urls_per_sec"], 1),
                "crawl_images_per_sec": round(crawl["images_per_sec"], 1),
                "crawl_urls": crawl["urls"],
                "crawl_images": crawl["images"],
                "crawl_seen_mode": crawl["seen_mode"],
                "crawl_anon_rss_mb": crawl["anon_rss_mb"],
                "steal_cpu_s": round(steal_cpu_s, 1),
                "steal_frac": round(steal_cpu_s / (wall * len(os.sched_getaffinity(0))), 4),
                # duplicates dispatched by tail speculation: ~0 on a calm
                # host; climbing alongside steal is the mechanism working
                "crawl_speculated": crawl["speculated"],
                "routed_urls": routed["urls"],
                "routed_urls_per_sec": round(routed["urls_per_sec"], 1),
                "routed_docs": routed["docs"],
                "routed_attachments": routed["attachments"],
            }
        )
    )


def _cap_worker(kind: str, dur: float, q) -> None:
    """One capacity-probe process: fixed CPU-bound (sha256 over 1 MB) or
    memory-bandwidth-bound (64 MB numpy copy) loop for ``dur`` seconds;
    puts its own throughput (MB/s of buffer processed) on ``q``."""
    import hashlib
    import numpy as np

    t0 = time.perf_counter()
    n = 0
    if kind == "cpu":
        buf = b"x" * (1 << 20)
        while time.perf_counter() - t0 < dur:
            hashlib.sha256(buf).digest()
            n += 1
        q.put(n / (time.perf_counter() - t0))
    else:
        a = np.zeros(64 << 20, dtype=np.uint8)
        a[::4096] = 1  # fault the pages in before timing
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < dur:
            b = a.copy()
            n += int(b[0] >= 0)
        q.put(n * 64 / (time.perf_counter() - t0))


def host_capacity(widths=(1,), dur: float = 0.35) -> dict:
    """Direct host-grade measurement, independent of our own job: aggregate
    sha256 (CPU, ``cpu_<w>``) and 64 MB-copy (memory-bandwidth, ``mem_<w>``)
    throughput in MB/s at each process width.  Steal only sees CPU
    confiscation; a neighbour that takes memory bandwidth shows here and
    nowhere else.  ``probe_failed`` is set when a probe process died or
    never reported (its width then reads 0.0)."""
    import multiprocessing as mp
    import queue as queue_mod

    out: dict[str, float] = {}
    failed = False
    for kind in ("cpu", "mem"):
        for w in widths:
            q = mp.Queue()
            ps = [
                mp.Process(target=_cap_worker, args=(kind, dur, q))
                for _ in range(w)
            ]
            for p in ps:
                p.start()
            # a bounded wait per result: a probe worker that dies (e.g. OOM
            # in the 64 MB copy) is recorded as a failure, not waited on
            vals = []
            for _ in ps:
                try:
                    vals.append(q.get(timeout=dur * 20 + 30))
                except queue_mod.Empty:
                    failed = True
                    break
            for p in ps:
                p.join(timeout=10)
                if p.is_alive():
                    p.terminate()
                    p.join()
                if p.exitcode not in (0, None):
                    failed = True
            out[f"{kind}_{w}"] = round(sum(vals), 1) if len(vals) == w else 0.0
    if failed:
        out["probe_failed"] = True
    return out


if __name__ == "__main__":
    argparse.ArgumentParser(
        description="Print one JSON line: crawl + operator-suite seconds.",
        epilog="Settings come from the environment: RAY_GRAFT_CPUS, "
        "GRAFT_SF_DIR, LCRAY_SEEN_MODE.",
    ).parse_args()
    main()
