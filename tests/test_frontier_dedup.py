"""Per-distinct-URL frontier work: the dictionary-encoded ``CandidateFilter``
must equal the per-row filter it replaced (kept here as the oracle), and
``_filter_and_split``'s within-block key dedup must leave the seen gate's
winners and counts exactly as if every row had been shipped."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lightcrawler_ray.functions import urltools as ut
from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages.frontier import CandidateFilter, CrawlSpec


def _reference_filter(filt: CandidateFilter, t: pa.Table, redirect_only: bool = False,
                      content_seq: int = -1) -> pa.Table:
    """The per-row filter loop: canonicalize, split, md5, follow, regexes,
    robots and priority evaluated row by row."""
    from lightcrawler_ray.stages.frontier import _col, _empty_candidates

    cs = (1 << 62) if redirect_only else content_seq
    if t.num_rows == 0:
        return _empty_candidates()
    urls = [ut.canonicalize(u) or "" for u in t.column("url").to_pylist()]
    if getattr(filt, "robots_lookup", None) is not None:
        origins: dict[str, int] = {}  # host → port of its first URL
        for u in urls:
            if u:
                origins.setdefault(ut.host_of(u), int(ut.split_url(u)["port"]))
        missing = [(h, port) for h, port in origins.items() if h not in filt._robots_checked]
        if missing:
            filt._robots_checked.update(h for h, _ in missing)
            filt.robots = {**filt.robots, **filt.robots_lookup(missing)}
    n = len(urls)
    linktexts = t.column("linktext").to_pylist() if "linktext" in t.column_names else [""] * n
    depths = t.column("depth").to_pylist()
    redirs = t.column("is_redirect").to_pylist() if "is_redirect" in t.column_names else [False] * n
    pseqs = t.column("parent_seq").to_pylist() if "parent_seq" in t.column_names else [-1] * n
    keep = np.ones(n, dtype=bool)
    hosts, prios = [], []
    for i, u in enumerate(urls):
        if not u:
            keep[i] = False
            hosts.append("")
            prios.append(0)
            continue
        p = ut.split_url(u)
        host = str(p["host"])
        hosts.append(host)
        if 0 <= pseqs[i] < cs:
            keep[i] = bool(redirs[i])
            prios.append(filt._priority(u))
            continue
        if depths[i] > filt.spec.max_depth and not redirs[i]:
            keep[i] = False
        elif not filt._follow_ok(u, host, str(p["domain"]), str(p["path"])):
            keep[i] = False
        elif filt._blacklisted(u, linktexts[i] or ""):
            keep[i] = False
        elif filt.robots and filt._robots_blocked(host, str(p["path"]) + str(p["file"])):
            keep[i] = False
        prios.append(filt._priority(u))
    out = pa.table({
        "url": pa.array(urls, pa.string()),
        "url_md5": pa.array([ut.url_md5(u) if u else "" for u in urls], pa.string()),
        "host": pa.array(hosts, pa.string()),
        "link_raw": _col(t, "link_raw", n),
        "linktext": pa.array([x or "" for x in linktexts], pa.string()),
        "referer": _col(t, "referer", n),
        "depth": pa.array(depths, pa.int32()),
        "priority": pa.array(prios, pa.int32()),
        "is_redirect": pa.array(redirs, pa.bool_()),
        "parent_seq": _col(t, "parent_seq", n, pa.int64(), -1),
        "link_idx": _col(t, "link_idx", n, pa.int64(), 0),
    })
    return out.filter(pa.array(keep))


def _filters(spec: CrawlSpec, robots: dict, lookup=None):
    """(new, reference) filter pair with the same rules."""
    pair = []
    for _ in range(2):
        f = CandidateFilter(spec)
        f.robots = dict(robots)
        if lookup is not None:
            f.robots_lookup = lookup
        pair.append(f)
    return pair


def _assert_same(spec: CrawlSpec, robots: dict, t: pa.Table, content_seq: int = -1,
                 redirect_only: bool = False, lookup=None) -> pa.Table:
    new, ref = _filters(spec, robots, lookup)
    got = new(t, redirect_only=redirect_only, content_seq=content_seq)
    want = _reference_filter(ref, t, redirect_only=redirect_only, content_seq=content_seq)
    assert got.schema == want.schema
    assert got.equals(want), (got.to_pylist()[:3], want.to_pylist()[:3])
    assert new.robots == ref.robots
    return got


@pytest.fixture(scope="module")
def crawled(ray_session, tmp_path_factory):
    """Every epoch's candidate table (seeds, then each epoch's links) with
    the content_seq that round was filtered under."""
    from lightcrawler_ray import storage
    from lightcrawler_ray.pipelines.crawl import CrawlJob

    p = synth.GraphParams(n_pages=300, n_hosts=6, n_images=120, out_degree=6)
    paths = synth.ensure_fixtures(p)
    spec = CrawlSpec(max_depth=2, follow_mode=1, seen_shards=2, fetch_concurrency=1,
                     fetch_batch_size=64)
    job = CrawlJob(spec, pq.read_table(paths["seeds"]), paths["pages"], paths["images"],
                   paths["robots"], str(tmp_path_factory.mktemp("dedup")))
    try:
        job.run(max_rounds=10)
        rounds = []
        cands = job._seed_table()
        cs = (1 << 62) if spec.redirects_till_content else -1
        for d in sorted(x for x in os.listdir(job.job_dir) if x.startswith("epoch=")):
            rounds.append((cands, cs))
            lp = os.path.join(job.job_dir, d, "links")
            links = storage.load_table(lp) if os.path.isdir(lp) else None
            cands = links if links is not None and links.num_columns else cands.slice(0, 0)
            with open(os.path.join(job.job_dir, d, "_EPOCH_DONE")) as f:
                cs = json.load(f)["content_seq"]
        yield job.spec, job.robots, rounds
    finally:
        job.shutdown()


def test_filter_matches_reference_on_crawl_epochs(crawled):
    spec, robots, rounds = crawled
    assert len(rounds) >= 3
    kept = 0
    for t, cs in rounds:
        kept += _assert_same(spec, robots, t, content_seq=cs).num_rows
        # the same rows split over several chunks
        if t.num_rows > 2:
            h = t.num_rows // 2
            _assert_same(spec, robots, pa.concat_tables([t.slice(0, h), t.slice(h)]),
                         content_seq=cs)
    assert kept > 0


def _hostile(seed_host: str) -> pa.Table:
    base = f"http://{seed_host}"
    rows = [
        # (url, linktext, depth, is_redirect, parent_seq)
        ("", "", 1, False, 3),
        ("javascript:void(0)", "x", 1, False, 3),
        ("mailto:a@b.c", "", 1, True, 3),
        (f"{base}/a.html", "nav", 1, False, 3),
        (f"{base}/a.html", "nav", 1, False, 4),
        (f"{base}/a.html", "skipme", 1, False, 5),
        (f"HTTP://{seed_host.upper()}:80/./a.html#frag", "nav", 1, False, 6),
        (f"{base}/b.html?z=1&a=2", "", 1, False, 3),
        (f"{base}/b.html?a=2&z=1", "", 1, False, 7),
        # M9 redirect-only rows (parent_seq below content_seq)
        (f"{base}/redir.html", "", 1, True, 0),
        (f"{base}/plain.html", "", 1, False, 0),
        ("http://elsewhere.example/r.html", "", 1, True, 1),
        # redirects and plain links past the depth limit
        (f"{base}/deep-redir.html", "", 9, True, 3),
        (f"{base}/deep.html", "", 9, False, 3),
        # robots disallow
        (f"{base}/private/x.html", "", 1, False, 3),
        (f"{base}/private/x.html", "", 1, False, 8),
        # priority rules
        (f"{base}/hot/1.html", "", 1, False, 3),
        (f"{base}/hot/1.html", "", 1, False, 9),
        # off-scope host
        ("http://other.example/x.html", "nav", 1, False, 3),
        # seed rows always take the normal rules
        (f"{base}/seed.html", "", 0, True, -1),
        (f"{base}/follow-only-by-text.html", "keep-this", 1, False, 3),
        (f"{base}/follow-only-by-text.html", "", 1, False, 4),
    ]
    n = len(rows)
    return pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "link_raw": pa.array([r[0] for r in rows], pa.string()),
        "linktext": pa.array([r[1] if r[1] else None for r in rows], pa.string()),
        "referer": pa.array([base] * n, pa.string()),
        "depth": pa.array([r[2] for r in rows], pa.int32()),
        "is_redirect": pa.array([r[3] for r in rows], pa.bool_()),
        "parent_seq": pa.array([r[4] for r in rows], pa.int64()),
        "link_idx": pa.array(range(n), pa.int32()),
    })


HOST = "site.test"
_ROBOTS = {HOST: {"delay_ms": 0, "disallow": ("/private/",)}}
_BASE_SPEC = dict(max_depth=2, follow_mode=1, seed_hosts=(HOST,), seed_domains=("test",),
                  seed_paths=("/",), priority_rules=((r"/hot/", 5), (r"\.html", 1)))


@pytest.mark.parametrize("rules", [
    {},
    {"url_filter_regexes": (r"skipme",)},
    {"url_follow_regexes": (r"keep-this", r"/a\.html")},
    {"url_filter_regexes": (r"nav",), "url_follow_regexes": (r"html",)},
    {"follow_mode": 0},
    {"follow_mode": 2},
    {"follow_mode": 3, "seed_paths": ("/hot/",)},
])
@pytest.mark.parametrize("content_seq", [-1, 2, 1 << 62])
def test_filter_matches_reference_on_hostile_rows(rules, content_seq):
    spec = CrawlSpec(**{**_BASE_SPEC, **rules})
    t = _hostile(HOST)
    _assert_same(spec, _ROBOTS, t, content_seq=content_seq)
    _assert_same(spec, {}, t, content_seq=content_seq)
    _assert_same(spec, _ROBOTS, pa.concat_tables([t.slice(0, 5), t.slice(5, 9), t.slice(14)]),
                 content_seq=content_seq)
    _assert_same(spec, _ROBOTS, t, redirect_only=True)


def test_filter_matches_reference_in_lazy_robots_mode():
    calls = []

    def lookup(origins):
        calls.append(list(origins))
        return {h: _ROBOTS[h] for h, _ in origins if h in _ROBOTS}

    spec = CrawlSpec(**_BASE_SPEC)
    t = _hostile(HOST)
    new, ref = _filters(spec, {}, lookup)
    for _ in range(2):  # second call: every host already checked
        got = new(t, content_seq=2)
        want = _reference_filter(ref, t, content_seq=2)
        assert got.equals(want)
    assert new.robots == ref.robots == _ROBOTS
    assert not any(r.startswith(f"http://{HOST}/private/") for r in got.column("url").to_pylist())
    # each filter asked once, for the same hosts in the same first-seen order
    assert calls[0] == calls[1] and len(calls) == 2


def _gate(k: int, parts_by_block: list[list[dict]], mode: str):
    """Fresh seen shards; each answers every block's part in one call.
    Returns the (winners, probed) totals and each block's winner rows."""
    from lightcrawler_ray.state.seenset import SeenShard

    shards = [SeenShard(s, 1 << 12, mode) for s in range(k)]
    B = len(parts_by_block)
    rets = [shards[s].gate_parts(*[parts_by_block[b][s] for b in range(B)]) for s in range(k)]
    counts = np.stack([r[0] for r in rets]).sum(axis=0)
    rows = [[r[1 + b] for r in rets] for b in range(len(parts_by_block))]
    return counts.sum(axis=1), rows


def _winners(blocks, rows) -> set:
    from lightcrawler_ray.pipelines.crawl import _keep_rows

    out = set()
    for t, w in zip(blocks, rows):
        kept = _keep_rows(t, *w)
        out.update(zip(kept.column("url_md5").to_pylist(),
                       kept.column("parent_seq").to_pylist(),
                       kept.column("link_idx").to_pylist()))
    return out


@pytest.mark.parametrize("mode", ["exact", "cuckoo"])
def test_filter_and_split_dedup_is_block_order_free(crawled, mode):
    from lightcrawler_ray.pipelines.crawl import _filter_and_split
    from lightcrawler_ray.state.seenset import md5hex_to_u64_pairs

    spec, robots, rounds = crawled
    k = 3
    ref = CandidateFilter(spec)
    ref.robots = robots
    kept, t, cs = max(((ref(t, content_seq=cs), t, cs) for t, cs in rounds),
                      key=lambda r: r[0].num_rows)
    assert kept.num_rows > len(kept.column("url_md5").unique())  # has duplicates

    def split(tables):
        outs = [_filter_and_split(spec, robots, k, cs, (), tb) for tb in tables]
        return [o[0] for o in outs], [list(o[1:]) for o in outs]

    perm = np.random.default_rng(7).permutation(t.num_rows)
    shuffled = t.take(pa.array(perm))
    h = t.num_rows // 3
    layouts = {
        "one": [t],
        "shuffled": [shuffled],
        "split": [t.slice(0, h), t.slice(h)],
        "shuffled_split": [shuffled.slice(h), shuffled.slice(0, h)],
    }
    results = {}
    for name, tables in layouts.items():
        blocks, parts = split(tables)
        for blk, ps in zip(blocks, parts):
            # one row per key left in the block, keys in the parts match it
            md5 = blk.column("url_md5").to_pylist()
            assert len(set(md5)) == len(md5)
            assert sum(len(p["hi"]) for p in ps) == blk.num_rows
            assert sorted((int(h), int(lo)) for p in ps for h, lo in zip(p["hi"], p["lo"])) \
                == sorted(zip(*(a.tolist() for a in md5hex_to_u64_pairs(md5))))
        assert sum(blk.num_rows + sum(p["dups"] for p in ps)
                   for blk, ps in zip(blocks, parts)) == kept.num_rows
        counts, rows = _gate(k, parts, mode)
        results[name] = (tuple(int(c) for c in counts), _winners(blocks, rows))
    first = results["one"]
    assert first[0][1] == kept.num_rows  # probed counts every kept row
    # fresh shards: every key wins, at its min (parent_seq, link_idx) row
    best: dict[str, tuple[int, int]] = {}
    for m, s, i in zip(kept.column("url_md5").to_pylist(), kept.column("parent_seq").to_pylist(),
                       kept.column("link_idx").to_pylist()):
        best[m] = min(best.get(m, (s, i)), (s, i))
    assert first[1] == {(m, s, i) for m, (s, i) in best.items()}
    assert first[0][0] == len(best)
    for name, res in results.items():
        assert res == first, name
