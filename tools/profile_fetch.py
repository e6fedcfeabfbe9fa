"""Per-stage cost of the fetch+extract operator, in one process, no Ray.

Runs ``SyntheticFetchExtract`` over a crawl workload's fixture: every page
URL and every image URL once, in batches of ``CrawlSpec.fetch_batch_size``,
with the workload's routes and pagination settings.  Each stage's calls
from the operator are timed through stand-ins for the modules
``stages/fetch.py`` reads (so a helper that calls another timed function
internally is not counted twice), and the result is printed as best-of-N
µs per fetched URL:

  lookup+decode  page/image lookup in the shared store, ``decode_body``
  links          ``exclude_sections``, ``find_links``, ``find_images``
  lines+main     ``html_to_lines``, ``main_content`` (the spec's parse mode)
  summary        ``page_title``, ``extract_summary``, ``named_entities``
  hash+text      ``simhash64``, ``doc_id``, ``quality_score``, ``lang_id``,
                 ``token_count``
  image          ``imagecodec.decode``, ``phash64``
  build          ``OutBuilder.build``
  other          the operator's wall time not in a stage above
  operator       the operator's wall time (every stage above but wire)
  wire           ``to_wire`` + ``from_wire`` of each batch's output (the
                 fetch pool's hand-off, without Ray)

Usage (from the repository root; builds the workload's fixture under
``perfbench/.state`` on first use):

  python tools/profile_fetch.py --workload crawl_heavy --seed 101 --repeat 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time
import types
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from lightcrawler_ray.stages import fetch as fetch_mod  # noqa: E402
from lightcrawler_ray.stages.fetch import (FRONTIER_COLS, from_wire,  # noqa: E402
                                           load_fixture_tables, make_fetcher, to_wire)

# module name in stages/fetch.py → {function: stage}
_MODULE_STAGES = {
    "htmltools": {"decode_body": "lookup+decode", "exclude_sections": "links",
                  "find_links": "links", "find_images": "links", "page_title": "summary"},
    "texttools": {"extract_summary": "summary", "named_entities": "summary",
                  "quality_score": "hash+text", "lang_id": "hash+text",
                  "token_count": "hash+text"},
    "hashing": {"simhash64": "hash+text", "doc_id": "hash+text", "phash64": "image"},
    "imagecodec": {"decode": "image"},
}
# bound per fetcher instance, so wrapped on the instance
_INSTANCE_STAGES = {"_fetch_raw": "lookup+decode", "_html_to_lines": "lines+main",
                    "_main_content": "lines+main"}
STAGES = ("lookup+decode", "links", "lines+main", "summary", "hash+text", "image",
          "build", "other", "operator", "wire")


def _timed(fn, stage: str, acc: dict):
    clock = time.perf_counter

    def timed(*a, **kw):
        t0 = clock()
        try:
            return fn(*a, **kw)
        finally:
            acc[stage] += clock() - t0

    return timed


class _TimedModule:
    """Stands in for a module in ``stages/fetch.py``'s namespace: the listed
    functions are timed into their stage, every other name is the
    module's own."""

    def __init__(self, mod: types.ModuleType, stages: dict[str, str], acc: dict):
        self._mod = mod
        for name, stage in stages.items():
            setattr(self, name, _timed(getattr(mod, name), stage, acc))

    def __getattr__(self, name):
        return getattr(self._mod, name)


@contextlib.contextmanager
def _stage_timers(acc: dict):
    """Install the stage timers in ``stages/fetch.py`` and put the real
    modules and ``OutBuilder.build`` back on exit.  Refuses to nest, so no
    call is ever timed twice."""
    if any(isinstance(getattr(fetch_mod, m), _TimedModule) for m in _MODULE_STAGES):
        raise RuntimeError("stage timers are already installed")
    saved = {m: getattr(fetch_mod, m) for m in _MODULE_STAGES}
    build = fetch_mod.OutBuilder.build
    try:
        for m, stages in _MODULE_STAGES.items():
            setattr(fetch_mod, m, _TimedModule(saved[m], stages, acc))
        fetch_mod.OutBuilder.build = _timed(build, "build", acc)
        yield
    finally:
        for m, mod in saved.items():
            setattr(fetch_mod, m, mod)
        fetch_mod.OutBuilder.build = build


def frontier(pages_path: str, images_path: str) -> pa.Table:
    """Every page URL, then every image URL, as one frontier block."""
    from lightcrawler_ray.sources import synth

    pages = pq.read_table(pages_path, columns=["url", "host"])
    ids = pq.read_table(images_path, columns=["image_id"]).column("image_id").to_pylist()
    urls = pages.column("url").to_pylist() + [synth.image_url(i) for i in ids]
    hosts = pages.column("host").to_pylist() + [synth.IMG_HOST] * len(ids)
    n = len(urls)
    return pa.table({
        "url": urls,
        "url_md5": [hashlib.md5(u.encode()).hexdigest() for u in urls],
        "host": hosts,
        "depth": pa.array([1] * n, pa.int32()),
        "priority": pa.array([0] * n, pa.int32()),
        "enqueue_seq": pa.array(range(n), pa.int64()),
        "referer": [""] * n,
        "linktext": [""] * n,
    }).select(FRONTIER_COLS)


def profile(paths: dict[str, str], spec, repeat: int = 3) -> dict[str, float]:
    """Best-of-``repeat`` µs per URL for each of ``STAGES``, plus ``urls``
    and ``batches``, for the operator ``spec`` configures over the fixture
    at ``paths`` (``pages`` and ``images`` parquet paths)."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    pages, images = load_fixture_tables(paths["pages"], paths["images"])
    block = frontier(paths["pages"], paths["images"])
    bs = spec.fetch_batch_size
    batches = [block.slice(s, bs) for s in range(0, block.num_rows, bs)]
    # the crawl's own fetch kwargs, read off the spec alone
    kw = CrawlJob._fetch_kwargs(types.SimpleNamespace(spec=spec))
    acc = dict.fromkeys(STAGES, 0.0)
    with _stage_timers(acc):
        fetcher = make_fetcher(pages, images, kw)
        for name, stage in _INSTANCE_STAGES.items():
            setattr(fetcher, name, _timed(getattr(fetcher, name), stage, acc))
        best = dict.fromkeys(STAGES, float("inf"))
        for _ in range(repeat):
            acc.update(dict.fromkeys(STAGES, 0.0))
            for b in batches:
                t0 = time.perf_counter()
                out = fetcher(b)
                t1 = time.perf_counter()
                from_wire(to_wire(out))
                acc["wire"] += time.perf_counter() - t1
                acc["operator"] += t1 - t0
            acc["other"] = acc["operator"] - sum(
                acc[s] for s in STAGES if s not in ("other", "operator", "wire"))
            for s in STAGES:
                best[s] = min(best[s], acc[s])
    n = block.num_rows
    res = {s: best[s] / n * 1e6 for s in STAGES}
    res["urls"] = n
    res["batches"] = len(batches)
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", default="crawl_heavy",
                    help="a crawl workload of perfbench/workloads.py")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--repeat", type=int, default=3, help="best of N passes")
    args = ap.parse_args(argv)
    from perfbench.workloads import WORKLOADS, crawl_inputs, crawl_spec

    w = WORKLOADS[args.workload]
    if w.kind == "ops":
        ap.error(f"{args.workload} runs no fetch")
    res = profile(crawl_inputs(w, args.seed), crawl_spec(w, 1), args.repeat)
    print(f"{args.workload} seed {args.seed}: {res['urls']} URLs in {res['batches']} "
          f"batches, best of {args.repeat}")
    for s in STAGES:
        print(f"  {s:<14}{res[s]:>10.1f} us/URL")
    return 0


if __name__ == "__main__":
    sys.exit(main())
