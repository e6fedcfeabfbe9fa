"""Benchmark harness — prints ONE JSON line with headline seconds + per-query
timings.  ``--scaling`` runs the headline crawl at two parallelism levels in
fresh processes (num_cpus=8 vs 32) and reports throughput scaling efficiency
(the sandbox stand-in for the north_rule's N vs 4N node criterion) — at
depth 4 (~390k URLs, the graded protocol; ``--shallow`` for the depth-3
fixture).

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS (default 32),
LCRAY_SEEN_MODE (default: the CrawlSpec default, "exact"; "cuckoo" runs the
URL-seen gate on the approximate filters — the only mode a 10^10-key frontier
can afford).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Heavier-than-test fixture: ~90 KB detail bodies and 2-4 images per page so
# the benchmark measures extraction/decode compute, not just scheduling.
# 512 seeds / depth<=3: the frontier profile is dominated by two huge
# middle rounds (the 10^10-frontier shape the north rule scales on), not a
# long small-round tail whose fixed costs would mask pool scaling.
# The crawl reaches ~82k URLs + ~10k images of the 400k-page graph.
BENCH_GRAPH = dict(
    n_pages=400000, n_hosts=32, n_images=20000, out_degree=12, seed=42,
    body_repeat=240, images_per_detail=2, n_seeds=512,
)


def _quiet():
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray").setLevel(logging.ERROR)
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def bench_crawl(ncpu: int) -> dict:
    """Headline: the full crawl pipeline over the 400k-page synthetic web
    (~82k URLs / ~10k images fetched at depth<=3) — canonicalize → dedup →
    seen shards → fetch+extract actor pool → image/doc sinks, with per-epoch
    checkpointing on."""
    import pyarrow.parquet as pq

    from lightcrawler_ray.pipelines.crawl import CrawlJob
    from lightcrawler_ray.sources import synth
    from lightcrawler_ray.stages.frontier import CrawlSpec

    p = synth.GraphParams(**BENCH_GRAPH)
    paths = synth.ensure_fixtures(p)  # cached across runs (untimed)
    seeds = pq.read_table(paths["seeds"])
    job_dir = f"/dev/shm/lcray_bench_job_{ncpu}"  # tmpfs: the sandbox stand-in for a distributed store (local virtio disk is 78 MB/s and would floor every level)
    shutil.rmtree(job_dir, ignore_errors=True)
    seen_mode = os.environ.get("LCRAY_SEEN_MODE", CrawlSpec.seen_mode)
    # LCRAY_BENCH_DEPTH=4 runs the SAME job one BFS level deeper (~390k of
    # the 400k pages instead of ~82k): the giant middle rounds then dominate
    # and the fixed head/tail cost that drags whole-job scaling at depth 3
    # amortizes away — the closest this fixture gets to the 10^10-frontier
    # round profile the north rule is actually about.
    depth = int(os.environ.get("LCRAY_BENCH_DEPTH", "3"))
    spec = CrawlSpec(
        max_depth=depth,
        follow_mode=1,
        seen_shards=8,
        seen_mode=seen_mode,
        # pool = 3/4 of the CPUs (splits/gate/rank/sinks pipeline on the
        # rest).  Chosen by the 2026-08-20 wave-width A/B (BASELINE.md): vs
        # the old 50%, +30% URLs/s at 8 CPUs and +20% at 32, with depth-4
        # scaling efficiency still over the 0.8 bar (0.810 median).
        fetch_concurrency=max(2, ncpu * 75 // 100),
        fetch_batch_size=256,
        # bench bodies are heavy (~90 KB) → even mid-size rounds benefit from
        # the pool; only the genuinely tiny head/tail rounds stay local
        local_round_threshold=256,
        snapshot_every=4,
        fetch_batches_per_worker=4,
    )
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    steal0, busy0 = _steal_cpu_s(), _busy_cpu_s()
    t0 = time.perf_counter()
    summary = job.run(max_rounds=12)
    dt = time.perf_counter() - t0
    steal = max(0.0, _steal_cpu_s() - steal0)
    busy = max(0.0, _busy_cpu_s() - busy0)
    rss_mb, anon_mb = _driver_mem_mb()
    speculated = getattr(job.fetch_pool, "speculated_total", 0)
    job.shutdown()
    shutil.rmtree(job_dir, ignore_errors=True)
    return {
        "sec": dt,
        "urls": summary["links_followed"],
        "urls_per_sec": summary["links_followed"] / dt,
        "images": summary["images_written"],
        "images_per_sec": summary["images_written"] / dt,
        "docs": summary["documents_received"],
        "seen_mode": seen_mode,
        "driver_peak_rss_mb": rss_mb,
        "driver_anon_rss_mb": anon_mb,
        # steal DURING the timed window only (untimed fixture-load bursts
        # don't pollute the throughput number and must not flag the leg);
        # busy_frac documents in-VM CPU so self-pollution is visible too
        "steal_frac": round(steal / (dt * len(os.sched_getaffinity(0))), 4),
        "busy_frac": round(busy / (dt * len(os.sched_getaffinity(0))), 4),
        # duplicates dispatched by tail speculation: ~0 on a calm host;
        # climbing alongside steal is the mechanism working as intended
        "speculated": speculated,
    }


def bench_routed(ncpu: int) -> dict:
    """M11/M25/M29 at bench scale: the routed list/detail/attachment site
    (~24.4k URLs: 400 list pages discovered only through record-count
    pagination file series, 16k CJK detail docs, 8k PDF attachment payloads
    fetched on the attachment route)."""
    import pyarrow.parquet as pq

    from lightcrawler_ray.pipelines.crawl import CrawlJob
    from lightcrawler_ray.sources import synth
    from lightcrawler_ray.stages.frontier import CrawlSpec

    p = synth.RoutedSiteParams()
    paths = synth.ensure_routed_fixtures(p)  # cached across runs (untimed)
    seeds = pq.read_table(paths["seeds"])
    job_dir = f"/dev/shm/lcray_bench_routed_{ncpu}"
    shutil.rmtree(job_dir, ignore_errors=True)
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
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"], job_dir)
    t0 = time.perf_counter()
    summary = job.run(max_rounds=12)
    dt = time.perf_counter() - t0
    job.shutdown()
    atts = docs = 0
    for ep in sorted(os.listdir(job_dir)):
        if not ep.startswith("epoch="):
            continue
        for sub in ("attachments", "docs"):
            d = os.path.join(job_dir, ep, sub)
            if os.path.isdir(d):
                n = sum(
                    pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
                    for f in os.listdir(d)
                    if f.endswith(".parquet")
                )
                if sub == "attachments":
                    atts += n
                else:
                    docs += n
    shutil.rmtree(job_dir, ignore_errors=True)
    return {
        "sec": dt,
        "urls": summary["links_followed"],
        "urls_per_sec": summary["links_followed"] / dt,
        "docs": docs,
        "attachments": atts,
    }


def _busy_cpu_s() -> float:
    """This VM's own busy CPU seconds (user+nice+system+irq+softirq) — with
    no other in-VM workload this is all ours; a leg whose busy_frac is far
    above its expected profile was polluted from INSIDE the VM (e.g. a test
    run alongside the bench), which steal cannot see."""
    with open("/proc/stat") as f:
        v = list(map(int, f.readline().split()[1:]))
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / os.sysconf("SC_CLK_TCK")


def _steal_cpu_s() -> float:
    """Cumulative STEAL seconds (/proc/stat field 8): CPU time the
    hypervisor denied this VM's runnable vCPUs — the direct, attributable
    neighbor-interference signal on this shared host.  (Only this sandbox's
    own processes run inside the VM, so guest-visible busy time is all ours;
    verified empirically: an idle-VM window shows busy≈0 even at loadavg 6,
    while slow bench legs coincide with steal bursts of 7–10 CPUs.)"""
    with open("/proc/stat") as f:
        vals = list(map(int, f.readline().split()[1:]))
    return vals[7] / os.sysconf("SC_CLK_TCK") if len(vals) > 7 else 0.0


def _driver_mem_mb() -> tuple[float, float]:
    """(peak RSS, anon RSS) of the driver in MB.  VmHWM counts every plasma
    page the driver ever touched through zero-copy Arrow reads (shared mmap
    of the object store — measured 8.5 GB shmem vs 0.27 GB heap on the 82k
    crawl), so RssAnon is the honest 'driver memory' number; VmHWM is kept
    as the object-store-traffic upper bound."""
    hwm = anon = 0.0
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM"):
                    hwm = round(int(line.split()[1]) / 1024.0, 1)
                elif line.startswith("RssAnon"):
                    anon = round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return hwm, anon


def _joins():
    from lightcrawler_ray.extras import joins

    return joins


def bench_queries(sf_dir: str) -> dict[str, float]:
    """Representative operator pipelines over the driver testdata."""
    from lightcrawler_ray import relational as rel
    from lightcrawler_ray.extras import ann, dedupe, textstats

    def consume(res):
        import pandas as pd
        import pyarrow as pa

        if isinstance(res, (pd.DataFrame, pa.Table)):
            return len(res)
        return res.count()

    # one untimed Ray Data execution first: Dataset-operator worker spawn /
    # module import warmup otherwise lands entirely on the first timed query
    consume(rel.distinct_langs(sf_dir))

    out: dict[str, float] = {}
    for name, fn in [
        ("pricing_summary", rel.pricing_summary),
        ("tumbling_window", rel.tumbling_window),
        ("top_revenue", rel.top_revenue),
        ("anti_join_new", rel.anti_join_new),
        ("exact_dedup_first", rel.exact_dedup_first),
        ("minhash_lsh_pairs", dedupe.minhash_lsh_pairs),
        ("simhash_near_dups", dedupe.simhash_near_dups),
        ("embedding_near_dups", dedupe.embedding_near_dups),
        ("ann_topk", ann.topk_bruteforce),
        ("token_counts", textstats.token_counts),
        ("sessionize", rel.sessionize),
        ("skew_salted_join", _joins().skew_salted_join),
        ("q5_local_supplier", _joins().q5_local_supplier),
    ]:
        t0 = time.perf_counter()
        consume(fn(sf_dir))
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

    # run-time pollution accounting: hypervisor steal time over the measured
    # window.  Launch-time loadavg can't see a burst that arrives mid-leg;
    # steal can, and it is attributable (it is never our own work).
    steal0, wall0 = _steal_cpu_s(), time.perf_counter()
    crawl = bench_crawl(ncpu)
    # the --scaling legs time only the crawl (the operator suite is a
    # single-level measurement and would just add noise window)
    crawl_only = os.environ.get("LCRAY_BENCH_CRAWL_ONLY") == "1"
    queries = {} if crawl_only else bench_queries(sf_dir)
    routed = None if crawl_only else bench_routed(ncpu)
    if routed is not None:
        queries["crawl_routed"] = round(routed["sec"], 3)
    queries["crawl_400k"] = round(crawl["sec"], 3)
    total = round(sum(queries.values()), 3)
    sf = sf_dir.rstrip("/").rsplit("sf", 1)[-1]
    ray.shutdown()
    wall = time.perf_counter() - wall0
    steal_cpu_s = max(0.0, _steal_cpu_s() - steal0)
    n_host = len(os.sched_getaffinity(0))
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
                "crawl_driver_peak_rss_mb": crawl["driver_peak_rss_mb"],
                "crawl_driver_anon_rss_mb": crawl["driver_anon_rss_mb"],
                "steal_cpu_s": round(steal_cpu_s, 1),
                "steal_frac": round(steal_cpu_s / (wall * n_host), 4),
                "crawl_steal_frac": crawl["steal_frac"],
                "crawl_busy_frac": crawl["busy_frac"],
                "crawl_speculated": crawl["speculated"],
                # self-describing host grade: compare this leg's crawl
                # throughput to the calm-window floor for its width (see
                # HOST_FLOOR_URLS_PER_SEC / BASELINE.md) so a polluted
                # BENCH_r{N} reads as such without cross-referencing
                "host_degraded": _below_floor(
                    int(os.environ.get("LCRAY_BENCH_DEPTH", "3")),
                    ncpu,
                    crawl["urls_per_sec"],
                ),
                "bench_depth": int(os.environ.get("LCRAY_BENCH_DEPTH", "3")),
                **(
                    {
                        "routed_urls": routed["urls"],
                        "routed_urls_per_sec": round(routed["urls_per_sec"], 1),
                        "routed_docs": routed["docs"],
                        "routed_attachments": routed["attachments"],
                    }
                    if routed is not None
                    else {}
                ),
            }
        )
    )


def _loadavg() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def _wait_steal_quiet(max_wait_s: float = 600.0, sample_s: float = 5.0) -> float:
    """Wait until the hypervisor steal RATE drops below half the pollution
    threshold (or give up after ``max_wait_s``); returns the last sampled
    rate.  Loadavg is NOT consulted: on this VM it reflects D-state/IO
    artifacts, not CPU contention (an idle VM measures loadavg 6 at busy≈0),
    while steal is the direct neighbor signal — see BASELINE.md."""
    t0 = time.time()
    while True:
        s0 = _steal_cpu_s()
        time.sleep(sample_s)
        rate = (_steal_cpu_s() - s0) / (sample_s * len(os.sched_getaffinity(0)))
        if rate < NEIGHBOR_QUIET_FRAC / 2 or time.time() - t0 > max_wait_s:
            return round(rate, 4)


def _crawl_once(ncpu: int, retries: int = 1, depth: int = 3) -> dict:
    env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(ncpu),
        LCRAY_BENCH_CRAWL_ONLY="1",
        LCRAY_BENCH_DEPTH=str(depth),
    )
    for attempt in range(retries + 1):
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True,
        )
        if p.returncode == 0:
            return json.loads(p.stdout.strip().splitlines()[-1])
        # surface the child's failure (otherwise CalledProcessError hides it)
        sys.stderr.write(
            f"[leg ncpu={ncpu} attempt={attempt}] exit {p.returncode}\n"
            + p.stderr[-4000:] + "\n"
        )
        sys.stderr.flush()
    raise RuntimeError(f"crawl leg failed after {retries + 1} attempts (ncpu={ncpu})")


# a leg is clean only when hypervisor steal stayed under 2% of the host's
# CPU during its timed crawl window (steal is the attributable neighbor
# signal on this VM; loadavg is a D-state artifact here).  Measured steal
# on polluted legs: 0.08-0.26; on visually quiet windows: <0.005.
NEIGHBOR_QUIET_FRAC = 0.02

# second half of the quiet test (BASELINE.md, mid-grade-host window): a
# steal-invisible interference channel (shared memory bandwidth) can deflate
# BOTH legs 15-30% below the calm-window references while steal stays <1%.
# A pair whose steal is quiet but whose legs sit below these floors is
# host-degraded; its EFFICIENCY is biased down (stragglers tax the wide leg
# more), so excluding such pairs can only lower-bound, never inflate, the
# graded headline.  Floors = just under the calm-window minima for this
# fixture UNDER THE SHIPPED pool-75 config and the ROUND-5 engine
# (recalibrated 2026-08-20 after the r5 hot-path work made the r4 floors
# 30-45% stale: the r5 calm depth-3 triplet read 8-CPU 1,934-2,183 and
# 32-CPU 5,802-6,011 URLs/s — floors just under those minima).  History:
# r4 pool-75 floors 1,340/3,700; pool-50-era 980/2,800 — raw pair JSONLs
# keep their own basis.
HOST_FLOOR_URLS_PER_SEC = {8: 1900.0, 32: 5700.0}

# depth-4 legs (~390k URLs) have a different throughput profile (per-URL
# cost identical but fixed head/tail amortized → higher URLs/s).
# Recalibrated 2026-08-20 for the ROUND-5 engine from six steal-quiet
# pairs (SCALING_r05 bank: quiet 8-legs 1,806-1,990, quiet 32-legs
# 5,255-6,187 once the probe-degraded 5,116 leg is excluded) — floors
# just under those minima, same rule as every prior calibration.
# (r4 pool-75 floors: 1,260/4,020; pool-50-era 990/3,350.)  An
# uncalibrated (0.0) floor fails closed: `_below_floor` treats it as
# host_degraded=True so an unknown-grade window cannot masquerade as a
# clean one.
HOST_FLOOR_URLS_PER_SEC_D4 = {8: 1780.0, 32: 5200.0}

# the engine-independent window gate (r5): throughput floors are
# engine-relative and go stale the moment the engine speeds up (the r5
# engine beats the r4 floors by 30-45%, so the r4 floors would certify
# plainly degraded windows).  The host_capacity 64MB-copy probe measures
# the deflation channel directly: calm windows read ~43-48 GB/s aggregate
# at 32-wide, degraded ones ~32-36 (the r4-identified ~28% bandwidth
# confiscation).  40 GB/s sits between the two observed bands; a pair
# whose 32-leg launched below it is host_degraded regardless of floors.
MEM32_CALM_FLOOR_MBS = 40000.0


def _floors(depth: int) -> dict:
    return HOST_FLOOR_URLS_PER_SEC if depth == 3 else HOST_FLOOR_URLS_PER_SEC_D4


def _below_floor(depth: int, ncpu: int, urls_per_sec: float) -> bool:
    """True when the leg is below its calm-window floor OR the floor for
    (depth, width) is uncalibrated — 'can't certify at-grade' fails closed."""
    floor = _floors(depth).get(ncpu, 0.0)
    return floor <= 0.0 or urls_per_sec < floor


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


def host_capacity(widths=(8, 32), dur: float = 0.35) -> dict:
    """Direct host-grade measurement, independent of our own job: aggregate
    sha256 (CPU) and 64 MB-copy (memory-bandwidth) throughput at each
    process width.  Steal only sees CPU confiscation; the r4 hunts showed a
    second channel — shrinking AVAILABLE per-core memory bandwidth (mem_1
    4.3 → 6.0 GB/s between degraded and calm windows while steal stayed
    <0.1%) — that deflates crawl legs invisibly.  Recording these readings
    next to every scaling leg makes a refused pair carry the evidence of
    WHY it was refused and lets calm windows be recognized directly."""
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
            # a bounded wait per result: if a probe worker dies (e.g.
            # transient OOM during the 32-wide 64MB-copy burst, ~4 GB peak
            # RSS) an unattended --scaling-until hunt must record the
            # failure and move on, not hang forever on q.get() (ADVICE r4)
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
    lo, hi = min(widths), max(widths)
    if hi > lo and out.get(f"cpu_{lo}") and out.get(f"mem_{lo}"):
        out[f"cpu_eff_{lo}_{hi}"] = round(
            (out[f"cpu_{hi}"] / out[f"cpu_{lo}"]) / (hi / lo), 3
        )
        out[f"mem_eff_{lo}_{hi}"] = round(
            (out[f"mem_{hi}"] / out[f"mem_{lo}"]) / (hi / lo), 3
        )
    return out


def scaling(pairs: int = 3, until_quiet: int = 0, max_pairs: int = 12, depth: int = 3) -> None:
    """Same crawl job at 8 and 32 CPUs (the sandbox stand-in for N vs 4N
    nodes), run as back-to-back interleaved pairs in fresh interpreters;
    efficiency per pair = (thr_32 / thr_8) / (32 / 8).

    Headline ``scaling_efficiency`` = the MEDIAN over pairs whose legs BOTH
    ran with hypervisor steal below ``NEIGHBOR_QUIET_FRAC`` over their timed
    windows (steal deflates the 32-CPU leg and can inflate a pair when it
    hits the 8-CPU leg instead, so best-of-N is upward-biased; the
    runtime-quiet median is not).  When no pair is clean the headline falls
    back to the median of all pairs and says so.  The best pair is reported
    separately under ``best_pair``.

    ``until_quiet=K`` turns the run into a quiet-window hunt: pairs keep
    accumulating (bounded by ``max_pairs``) until K runtime-quiet ones have
    landed — the unattended way to wait out a steal storm."""
    trials = []
    while True:
        n_quiet = sum(1 for t in trials if t["quiet"] and not t["host_degraded"])
        if until_quiet:
            if n_quiet >= until_quiet or len(trials) >= max_pairs:
                break
        elif len(trials) >= pairs:
            break
        # before each leg: wait for any ongoing steal burst to pass (launch
        # gate only — the VERDICT on a pair is its measured in-window steal)
        pre8 = _wait_steal_quiet()
        cap8 = host_capacity()
        r8 = _crawl_once(8, depth=depth)
        cap8_after = host_capacity()
        pre32 = _wait_steal_quiet()
        cap32 = host_capacity()
        r32 = _crawl_once(32, depth=depth)
        cap32_after = host_capacity()
        # the crawl-window steal is the leg's pollution verdict (the timed
        # section); whole-leg steal_frac also rides in the raw leg JSON
        nf8 = r8.get("crawl_steal_frac", 1.0)
        nf32 = r32.get("crawl_steal_frac", 1.0)
        trials.append(
            {
                "urls_per_sec_8": r8["crawl_urls_per_sec"],
                "urls_per_sec_32": r32["crawl_urls_per_sec"],
                "images_per_sec_8": r8["crawl_images_per_sec"],
                "images_per_sec_32": r32["crawl_images_per_sec"],
                "crawl_sec_8": r8["queries"]["crawl_400k"],
                "crawl_sec_32": r32["queries"]["crawl_400k"],
                "steal_rate_at_launch_8": pre8,
                "steal_rate_at_launch_32": pre32,
                "steal_frac_8": nf8,
                "steal_frac_32": nf32,
                "busy_frac_8": r8.get("crawl_busy_frac"),
                "busy_frac_32": r32.get("crawl_busy_frac"),
                # host-grade evidence measured just before each leg (see
                # host_capacity): cap_before_8/32 tie the leg to the
                # window's AVAILABLE cpu + memory bandwidth, the channel
                # the floor gate exists to detect
                "cap_before_8": cap8,
                "cap_after_8": cap8_after,
                "cap_before_32": cap32,
                "cap_after_32": cap32_after,
                "quiet": nf8 < NEIGHBOR_QUIET_FRAC and nf32 < NEIGHBOR_QUIET_FRAC,
                # engine-independent window grade, SYMMETRIC + BRACKETED
                # (tightened 2026-08-20 second session, prospectively —
                # before the final bank's pairs were collected): EITHER leg
                # launched into, or emerged from, a bandwidth-confiscated
                # window ⇒ the pair is refused.  A degraded 8-leg window
                # biases efficiency UP (soft denominator), a degraded
                # 32-leg window biases it DOWN; certifying only pairs whose
                # BOTH legs are bracketed by calm probes refuses both bias
                # directions, which matters on a host whose bandwidth
                # oscillates faster than a leg runs (observed 28→43 GB/s
                # within single pairs in this session's hunt).
                "mem_degraded": min(
                    cap8.get("mem_32", 0.0), cap8_after.get("mem_32", 0.0),
                    cap32.get("mem_32", 0.0), cap32_after.get("mem_32", 0.0),
                ) < MEM32_CALM_FLOOR_MBS,
                "depth": depth,
                "host_degraded": (
                    _below_floor(depth, 8, r8["crawl_urls_per_sec"])
                    or _below_floor(depth, 32, r32["crawl_urls_per_sec"])
                    or min(
                        cap8.get("mem_32", 0.0), cap8_after.get("mem_32", 0.0),
                        cap32.get("mem_32", 0.0), cap32_after.get("mem_32", 0.0),
                    ) < MEM32_CALM_FLOOR_MBS
                ),
                "scaling_efficiency": round(
                    (r32["crawl_urls_per_sec"] / r8["crawl_urls_per_sec"]) / 4.0, 3
                ),
            }
        )
        # stream partial results so an interrupted run still reports pairs
        print(json.dumps({"pair": trials[-1]}), flush=True)
    print(json.dumps(summarize_pairs(trials)))


def summarize_pairs(trials: list[dict]) -> dict:
    """Headline selection (pure — unit-tested): median over quiet at-grade
    pairs; labeled deflated fallback to quiet-only; labeled fallback to all
    pairs.  The best pair rides along for transparency but NEVER forms the
    headline (best-of-N under noise is upward-biased — ADVICE round 2)."""
    import statistics

    graded = [t for t in trials if t["quiet"] and not t["host_degraded"]]
    quiet = [t for t in trials if t["quiet"]]
    basis, label = (
        (graded, "runtime-quiet, at-grade pairs") if graded
        else (quiet, "runtime-quiet pairs (ALL host-degraded — deflated, see "
                     "BASELINE.md mid-grade-host note)") if quiet
        else (trials, "pairs (NO runtime-quiet pair this run)")
    )
    headline = round(statistics.median(t["scaling_efficiency"] for t in basis), 3)
    best = max(trials, key=lambda t: t["scaling_efficiency"])
    # self-describe with the floors that actually gated these pairs: keyed
    # by the run's depth (depth-4 is the default protocol — ADVICE r4 noted
    # the old unconditional depth-3 dict mislabeled depth-4 output)
    depth = trials[0].get("depth", 3) if trials else 3
    return {
        "scaling_efficiency": headline,
        "headline_basis": f"median of {len(basis)} " + label,
        "neighbor_quiet_frac": NEIGHBOR_QUIET_FRAC,
        "depth": depth,
        "host_floor_urls_per_sec": _floors(depth),
        "host_floor_urls_per_sec_by_depth": {
            "3": HOST_FLOOR_URLS_PER_SEC, "4": HOST_FLOOR_URLS_PER_SEC_D4,
        },
        "best_pair": best,
        "pairs": trials,
    }


if __name__ == "__main__":
    # depth 4 (~390k URLs) is the graded scaling protocol (BASELINE.md
    # round-4 headline); --shallow measures the legacy depth-3 fixture
    _depth = 3 if any(a.startswith("--shallow") for a in sys.argv) else 4
    if "--scaling-until" in sys.argv:
        i = sys.argv.index("--scaling-until")
        k = int(sys.argv[i + 1]) if len(sys.argv) > i + 1 and sys.argv[i + 1].isdigit() else 3
        scaling(until_quiet=k, depth=_depth)
    elif "--scaling" in sys.argv:
        i = sys.argv.index("--scaling")
        n = int(sys.argv[i + 1]) if len(sys.argv) > i + 1 and sys.argv[i + 1].isdigit() else 3
        scaling(pairs=n, depth=_depth)
    else:
        main()
