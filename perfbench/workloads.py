"""The workloads: inputs made from the seed, and why each exists.

Crawl workloads set only workload-shape ``CrawlSpec`` fields (depth, follow
mode, routes, pagination) plus the pool size; every engine knob stays at its
``CrawlSpec`` default.  Fixture tables are cached per seed under the
benchmark's own state directory and never timed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(HERE, ".state")

# Operator pipelines from bench.py's suite plus asof_latest_order, at
# OPS_SF; basket_pairs_topk is quadratic per order and runs at BASKET_SF.
OPS_QUERIES = (
    "pricing_summary", "tumbling_window", "top_revenue", "anti_join_new",
    "exact_dedup_first", "minhash_lsh_pairs", "simhash_near_dups",
    "embedding_near_dups", "ann_topk", "token_counts", "sessionize",
    "skew_salted_join", "q5_local_supplier", "asof_latest_order",
)
OPS_SF = 0.01
BASKET_QUERY = "basket_pairs_topk"
BASKET_SF = 0.001


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "graph" | "routed" | "ops"
    graph: dict = field(default_factory=dict)
    spec: dict = field(default_factory=dict)


# Each workload's one-line reason is its ``why`` in BENCHMARK.json; the
# comments below say what in its shape gives it that reason.
WORKLOADS = {
    w.name: w
    for w in (
        # ~90 KB bodies and 2 images per detail page over 300 distinct
        # images: link extraction, simhash, image decode + phash and the
        # OutBuilder dominate; the frontier filter is a few per cent
        Workload(
            "crawl_heavy", kind="graph",
            graph=dict(n_pages=700, n_hosts=16, n_images=300, out_degree=12,
                       body_repeat=240, images_per_detail=2, n_seeds=64),
            spec=dict(max_depth=3, follow_mode=1),
        ),
        # 32 out-links per light page over 1000 pages: ~28 candidates per
        # fetched URL, most already seen, so the filter and the read-heavy
        # seen gate weigh against a cheap fetch
        Workload(
            "crawl_linkstorm", kind="graph",
            graph=dict(n_pages=1000, n_hosts=16, n_images=8, out_degree=32,
                       body_repeat=1, images_per_detail=0, n_seeds=64),
            spec=dict(max_depth=3, follow_mode=1),
        ),
        # the routed list/detail/attachment site: route dispatch, synthesized
        # pagination, doc dedup (doc_id, simhash bands) and doc + attachment
        # sink writes; almost every candidate is new (the write-heavy side)
        Workload(
            "crawl_routed", kind="routed",
            graph=dict(n_docs=1200),
            spec=dict(max_depth=3, follow_mode=2, synthesize_pagination=True),
        ),
        # bench.py's operator queries plus asof_latest_order on seeded tables
        # shaped like the repository's sfX data (see opsdata)
        Workload("ops_suite", kind="ops"),
    )
}


def _seed32(seed: int) -> int:
    return seed % (1 << 31)


def crawl_inputs(w: Workload, seed: int) -> dict[str, str]:
    """Parquet paths (pages, images, robots, seeds) for a crawl workload."""
    from lightcrawler_ray.sources import synth

    root = os.path.join(STATE, "fixtures")
    if w.kind == "routed":
        return synth.ensure_routed_fixtures(
            synth.RoutedSiteParams(seed=_seed32(seed), **w.graph), root=root)
    return synth.ensure_fixtures(synth.GraphParams(seed=_seed32(seed), **w.graph), root=root)


def routed_truth(w: Workload, seed: int) -> tuple[int, int]:
    """(docs, attachments) the routed site holds."""
    from lightcrawler_ray.sources import synth

    p = synth.RoutedSiteParams(seed=_seed32(seed), **w.graph)
    per_section = 10 * p.page_size
    n_docs = max(1, p.n_docs // per_section) * per_section
    return n_docs, -(-n_docs // p.att_every)


def crawl_spec(w: Workload, pool: int):
    from lightcrawler_ray.sources import synth
    from lightcrawler_ray.stages.frontier import CrawlSpec

    extra = {"routes": synth.ROUTED_ROUTES} if w.kind == "routed" else {}
    return CrawlSpec(fetch_concurrency=pool, **w.spec, **extra)


def ops_inputs(seed: int) -> tuple[str, str]:
    """(suite tables dir, basket tables dir)."""
    from . import opsdata

    root = os.path.join(STATE, "ops")
    return opsdata.ensure(root, OPS_SF, _seed32(seed)), opsdata.ensure(root, BASKET_SF, _seed32(seed))
