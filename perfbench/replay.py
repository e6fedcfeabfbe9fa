"""Traced layer replay over one finished crawl job.

Epoch by epoch, in crawl order, each layer's public call runs again on the
rows the crawl wrote (candidates = previous epoch's links checkpoint,
frontier = this epoch's frontier table), with a span around every call.
Fresh layer state (seen shards, content shards, band shards, fetch pool)
is built for the replay, so the crawl's own state is not disturbed.
Function-level probes run on a bounded sample of each epoch's rows.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from lightcrawler_ray import storage
from lightcrawler_ray.functions import hashing, htmltools, imagecodec
from lightcrawler_ray.functions import urltools as ut
from lightcrawler_ray.stages.fetch import OutBuilder, make_fetcher, split_outputs
from lightcrawler_ray.stages.fetchpool import FetchPool
from lightcrawler_ray.stages.politeness import HostClock, split_sched_parts
from lightcrawler_ray.state.seenset import SeenSet, shard_of
from lightcrawler_ray.state.simindex import SimIndex

from . import checks
from .trace import Tracer

_PROBE_ROWS = 64
_FRONTIER_COLS = ["url", "url_md5", "host", "depth", "priority", "enqueue_seq", "referer", "linktext"]
# layers whose replay time is split into shares; the fetch pool's span re-runs
# the fetch work in a worker, so it is reported as dispatch overhead instead
SHARE_LAYERS = ("frontier", "seenset", "politeness", "fetch", "content", "storage")
_CRAWL_PHASES = {
    "crawl.filter_gate_s": "launch_filter+gate", "crawl.gate_wait_s": "gate_counts",
    "crawl.rank_s": "rank+sched_launch", "crawl.fetch_wave_s": "fetch+split",
    "crawl.sinks_s": "sinks", "crawl.local_round_s": "local_round",
    "crawl.tail_collapse_s": "tail_collapse", "crawl.drain_s": "final_drain",
}


def crawl_phase_metrics(job, summary: dict) -> dict[str, float]:
    """Phase seconds and counts the job itself recorded."""
    bench = job.benchmarks()
    out = {k: float(bench.get(v, 0.0)) for k, v in _CRAWL_PHASES.items()}
    out["crawl.epochs"] = summary["epochs"]
    out["crawl.tail_collapses"] = job.tail_collapses
    out["crawl.speculated"] = job.fetch_pool.speculated_total
    return out


def _pop_order(front: pa.Table) -> pa.Table:
    idx = pc.sort_indices(front, [("priority", "descending"), ("enqueue_seq", "ascending")])
    return front.take(idx).select(_FRONTIER_COLS)


def _unique(keys: list[str]) -> list[str]:
    return list(dict.fromkeys(k for k in keys if k))


def _du_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def _last_snapshot_bytes(job_dir: str) -> int:
    snaps = [os.path.join(ed, "seen.npz") for ed in checks.epoch_dirs(job_dir)]
    snaps = [p for p in snaps if os.path.exists(p)]
    return os.path.getsize(snaps[-1]) if snaps else 0


def replay(job, tracer: Tracer, work_dir: str) -> dict[str, float]:
    """Replay ``job``'s epochs; returns the per-layer metrics.

    The fetch pool is replayed with one worker, so its per-URL time minus
    the direct call's is dispatch overhead, not parallel speed-up."""
    spec = job.spec
    kw = job._fetch_kwargs()
    filt = checks.make_filter(job)
    seen = SeenSet(spec.seen_shards, spec.seen_capacity, spec.seen_mode)
    content = SeenSet(spec.seen_shards, spec.seen_capacity, "exact")
    sim = SimIndex()
    ray.get([a.__ray_ready__.remote() for a in list(seen.shards) + list(content.shards) + list(sim.shards)])
    t0 = time.perf_counter()
    pool = FetchPool(1, job.pages_ref, job.images_ref, kw)
    spawn_s = time.perf_counter() - t0
    fetcher = make_fetcher(job.pages_ref, job.images_ref, kw)
    probe_fetcher = make_fetcher(job.pages_ref, job.images_ref, kw)
    clock = HostClock(spec.request_delay_ms, job.robots)
    pages = ray.get(job.pages_ref)
    page_row = {u: i for i, u in enumerate(pages.column("url").to_pylist())}
    os.makedirs(work_dir, exist_ok=True)

    n = dict.fromkeys(("cands", "kept", "probes", "new", "urls", "links", "bytes", "errors",
                       "retries", "images", "docs", "canon", "pages", "sim_docs", "probe_docs",
                       "probe_images", "build_rows", "io_bytes"), 0)
    shard_counts = np.zeros(spec.seen_shards, dtype=np.int64)
    host_counts: dict[str, int] = {}
    prior: set[str] = set()
    with tracer.span("replay"):
        for ed, cands, cs in checks.epochs(job):
            with tracer.span("epoch"):
                with tracer.span("frontier"):
                    kept = filt(cands, content_seq=cs) if cands.num_rows else cands
                _, keys, front = checks.gate_counts(ed, cands.num_rows, kept, prior)
                n["cands"] += cands.num_rows
                n["kept"] += kept.num_rows
                with tracer.span("seenset"):
                    new = seen.check_and_add(keys)
                n["probes"] += len(keys)
                n["new"] += int(new.sum())
                if keys:
                    shard_counts += np.bincount(shard_of(keys, spec.seen_shards),
                                                minlength=spec.seen_shards)
                if front is None or front.num_rows == 0:
                    continue
                block = _pop_order(front)
                hosts = block.column("host").to_pylist()
                for h in hosts:
                    host_counts[h] = host_counts.get(h, 0) + 1
                with tracer.span("politeness"):
                    split_sched_parts(hosts, block.column("enqueue_seq").to_numpy(),
                                      block.column("priority").to_numpy(), job.sched.p)
                    clock.schedule(hosts)
                with tracer.span("fetch"):
                    out = fetcher(block)
                with tracer.span("fetchpool"):
                    ray.get(pool.submit([ray.put(block)], [block.num_rows], spec.fetch_batch_size))
                kinds = split_outputs(out)
                f = kinds["fetch"]
                n["urls"] += block.num_rows
                n["links"] += kinds["link"].num_rows
                n["bytes"] += int(pc.sum(f.column("bytes_received")).as_py() or 0)
                n["errors"] += int(pc.sum(pc.greater_equal(f.column("status"), 400)).as_py() or 0)
                n["retries"] += int(pc.sum(pc.subtract(f.column("attempts"), 1)).as_py() or 0)
                imgs, docs, atts = kinds["image"], kinds["doc"], kinds["attach"]
                n["images"] += imgs.num_rows
                n["docs"] += docs.num_rows
                with tracer.span("content"):
                    img_keys = _unique(hashlib.md5(b.as_buffer()).hexdigest()
                                       for b in imgs.column("image_bytes") if b.is_valid)
                    content.check_and_add(img_keys)
                    content.check_and_add(_unique(docs.column("doc_id").to_pylist()))
                    content.check_and_add(_unique(atts.column("doc_id").to_pylist()))
                    if docs.num_rows and spec.doc_near_dup_hamming >= 0:
                        with tracer.span("simindex"):
                            sim.query_insert(docs.column("simhash").to_numpy(),
                                             docs.column("doc_id").to_pylist(),
                                             spec.doc_near_dup_hamming,
                                             docs.column("enqueue_seq").to_numpy())
                        n["sim_docs"] += docs.num_rows
                with tracer.span("storage"):
                    dest = os.path.join(work_dir, os.path.basename(ed))
                    with tracer.span("storage.commit"):
                        storage.commit_table(out, dest)
                    with tracer.span("storage.load"):
                        storage.load_table(dest)
                n["io_bytes"] += out.nbytes
                _probe(tracer, n, block, cands, docs, imgs, pages, page_row, probe_fetcher)
        with tracer.span("seenset.snapshot"):
            seen.snapshot()
        load = [s["load_factor"] for s in seen.stats()]
    for s in (seen, content, sim):
        s.shutdown()
    pool.shutdown()
    shutil.rmtree(work_dir, ignore_errors=True)
    return _layer_metrics(tracer, n, spawn_s, shard_counts, host_counts, load, job)


def _probe(tracer, n, block, cands, docs, imgs, pages, page_row, fetcher) -> None:
    """Function-level timings on the first rows of this epoch."""
    with tracer.span("probe"):
        urls = [u for u in cands.column("url").to_pylist()[:_PROBE_ROWS * 4] if u]
        with tracer.span("urltools.canonicalize"):
            for u in urls:
                ut.canonicalize(u)
        n["canon"] += len(urls)
        rows = [page_row[u] for u in block.column("url").to_pylist()[:_PROBE_ROWS]
                if u in page_row]
        html_pages = [(pages["url"][i].as_py(), pages["body"][i].as_py(),
                       pages["content_type"][i].as_py()) for i in rows]
        html_pages = [p for p in html_pages if p[2].startswith("text/html") and p[1]]
        with tracer.span("htmltools.decode_body"):
            texts = [(u, htmltools.decode_body(b, ct)) for u, b, ct in html_pages]
        with tracer.span("htmltools.find_links"):
            for u, html in texts:
                htmltools.find_links(html, u)
        n["pages"] += len(texts)
        contents = [c for c in docs.column("content").to_pylist()[:_PROBE_ROWS] if c]
        with tracer.span("hashing.simhash64"):
            for c in contents:
                hashing.simhash64(c)
        with tracer.span("hashing.doc_id"):
            for c in contents:
                hashing.doc_id(c)
        n["probe_docs"] += len(contents)
        blobs = [b.as_py() for b in imgs.column("image_bytes")[:_PROBE_ROWS // 4] if b.is_valid]
        with tracer.span("imagecodec.decode"):
            pixels = [imagecodec.decode(b) for b in blobs]
        with tracer.span("hashing.phash64"):
            for px in pixels:
                hashing.phash64(px)
        n["probe_images"] += len(blobs)
        ob = OutBuilder()
        for fr in block.slice(0, _PROBE_ROWS).to_pylist():
            fetcher._process_into(fr, ob)
        with tracer.span("fetch.build"):
            built = ob.build()
        n["build_rows"] += built.num_rows


def _per(total_s: float, count: int) -> float:
    return total_s / count * 1e6 if count else 0.0


def _layer_metrics(tracer, n, spawn_s, shard_counts, host_counts, load, job) -> dict[str, float]:
    tot = tracer.totals()
    g = tot.get
    urls = max(1, n["urls"])
    # layer spans are siblings under their epoch, so their inclusive times
    # partition the replayed layer work without double counting
    shares = {k: g(k, 0.0) for k in SHARE_LAYERS}
    share_sum = sum(shares.values()) or 1.0
    io_mb = n["io_bytes"] / 1e6
    images_kept = checks.count_rows(job.job_dir, "images")
    docs_kept = checks.count_rows(job.job_dir, "docs")
    hc = np.array(list(host_counts.values()) or [1], dtype=np.float64)
    m = {
        "frontier.cands_in": n["cands"],
        "frontier.cands_kept": n["kept"],
        "frontier.filter_us_per_cand": _per(g("frontier", 0.0), n["cands"]),
        "urltools.canonicalize_us_per_url": _per(g("urltools.canonicalize", 0.0), n["canon"]),
        "seenset.probes": n["probes"],
        "seenset.new": n["new"],
        "seenset.new_ratio": n["new"] / n["probes"] if n["probes"] else 0.0,
        "seenset.gate_us_per_key": _per(g("seenset", 0.0), n["probes"]),
        "seenset.shard_skew": float(shard_counts.max() / max(shard_counts.mean(), 1e-9)),
        "seenset.snapshot_mb": _last_snapshot_bytes(job.job_dir) / 1e6,
        "seenset.snapshot_s": g("seenset.snapshot", 0.0),
        "cuckoo.load_factor": float(np.mean(load)) if load else 0.0,
        "politeness.sched_us_per_url": _per(g("politeness", 0.0), n["urls"]),
        "politeness.host_skew": float(hc.max() / hc.mean()),
        "fetch.urls": n["urls"],
        "fetch.extract_us_per_url": _per(g("fetch", 0.0), n["urls"]),
        "fetch.links_per_url": n["links"] / urls,
        "fetch.bytes_per_url": n["bytes"] / urls,
        "fetch.errors": n["errors"],
        "fetch.retries": n["retries"],
        "htmltools.find_links_us_per_page": _per(g("htmltools.find_links", 0.0), n["pages"]),
        "htmltools.decode_us_per_page": _per(g("htmltools.decode_body", 0.0), n["pages"]),
        "hashing.simhash_us_per_doc": _per(g("hashing.simhash64", 0.0), n["probe_docs"]),
        "hashing.doc_id_us_per_doc": _per(g("hashing.doc_id", 0.0), n["probe_docs"]),
        "imagecodec.decode_us_per_image": _per(g("imagecodec.decode", 0.0), n["probe_images"]),
        "hashing.phash_us_per_image": _per(g("hashing.phash64", 0.0), n["probe_images"]),
        "fetch.build_us_per_row": _per(g("fetch.build", 0.0), n["build_rows"]),
        "fetchpool.dispatch_us_per_url": _per(g("fetchpool", 0.0) - g("fetch", 0.0), n["urls"]),
        "fetchpool.spawn_s": spawn_s,
        "content.images_in": n["images"],
        "content.images_kept": images_kept,
        "content.docs_in": n["docs"],
        "content.docs_kept": docs_kept,
        "content.attachments_kept": checks.count_rows(job.job_dir, "attachments"),
        "simindex.query_us_per_doc": _per(g("simindex", 0.0), n["sim_docs"]),
        "storage.commit_mb_per_s": io_mb / g("storage.commit", 1.0) if io_mb else 0.0,
        "storage.load_mb_per_s": io_mb / g("storage.load", 1.0) if io_mb else 0.0,
        "storage.bytes_per_url": _du_bytes(job.job_dir) / urls,
    }
    m.update({f"share.{k}": v / share_sum for k, v in shares.items()})
    return m
