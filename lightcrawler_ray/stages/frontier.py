"""Frontier preparation stages: canonicalize → filter → within-round dedup →
seen-set gate → enqueue-seq assignment.

Determinism contract (SURVEY.md §2.9 / hard part (a)): the reference's
single queue enqueues a fetched doc's surviving links immediately, FIFO, and
pops max-priority-first FIFO-within-level (O1).  This engine reproduces that
as, per round:

1. candidates carry ``(parent_seq, link_idx)`` — the lexicographic order in
   which the reference would have enqueued them;
2. duplicate URLs within the round collapse to the smallest
   ``(parent_seq, link_idx)`` (the reference's first INSERT wins, T1) —
   each filter task first cuts its own block to that row per URL, and the
   seen shard owning the URL takes the min across the round's blocks, so
   the winner does not depend on how rows were split into blocks;
3. the seen-set gate drops anything enqueued in an earlier round;
4. survivors get contiguous ``enqueue_seq`` numbers in ``(parent_seq,
   link_idx)`` order, all before the request budget — priority does NOT
   affect enqueue numbering, only pop order, exactly like the reference;
5. the budget and the fetch schedule go by ``(priority desc, enqueue_seq)``.

The distributed execution of these steps lives in pipelines/crawl.py (raw
block tasks + the seen-shard two-phase protocol + one sort-free rank); this module
holds the declarative CrawlSpec and the CandidateFilter operator shared by
the local, distributed and simulator paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions import urltools as ut

CANDIDATE_COLS = [
    "url", "url_md5", "host", "link_raw", "linktext", "referer",
    "depth", "priority", "is_redirect", "parent_seq", "link_idx",
]


@dataclass
class CrawlSpec:
    """The declarative per-site spec — the Ray shape of the reference's
    ``$SeedConf`` + ``$ContentHandlers`` + ~30 crawler setters
    (SURVEY.md §2.10; worker/SpiderFrame.class.php:26-28, PHPCrawler setters
    :1190-2256)."""

    max_depth: int = 3                       # O2; reference default 1
    follow_mode: int = 1                     # 0 all, 1 same-domain, 2 same-host, 3 same-path (M8)
    # M11 / §2.10 — per-route content dispatch: ordered (regex, kind) with
    # kind ∈ {"list", "detail", "attachment"}; EVERY matching route runs,
    # no match falls back to "list" (worker/SpiderFrame.class.php:155-178).
    # Empty = auto mode (every HTML page may yield links AND a doc record).
    routes: tuple[tuple[str, str], ...] = ()
    url_filter_regexes: tuple[str, ...] = () # blacklist (OR)
    url_follow_regexes: tuple[str, ...] = () # whitelist (OR); empty = allow all
    priority_rules: tuple[tuple[str, int], ...] = ()  # first-match regex → level
    respect_robots: bool = True              # T5
    # S4 — "sidecar" pre-parsed parquet; "fetch" = seed hosts' robots.txt
    # fetched at job start (the reference's exact behavior,
    # PHPCrawler.class.php:843-853); "lazy" = robots.txt fetched per host on
    # FIRST SIGHT inside its politeness shard (the 10^10-URL multi-host
    # path: no prefetch, Crawl-delay lands where it is enforced)
    robots_source: str = "sidecar"
    robots_ttl_s: float | None = None        # lazy-mode re-fetch age; None = once per job
    # M9 — until the FIRST 200-content fetch, non-seed candidates keep only
    # redirect links (follow rules bypassed, redirect chains don't consume
    # depth), and the first content URL re-anchors the follow scope
    # (PHPCrawler.class.php:801-820, PHPCrawlerURLFilter.class.php:121-135)
    redirects_till_content: bool = True
    request_limit: int = 0                   # 0 = unlimited; cuts in pop order (A2/O3)
    traffic_limit_bytes: int = 0             # 0 = unlimited; round-granular abort (A2)
    retry_limit: int = 3
    content_size_limit: int = 1 << 22
    # S3 — the fetch primitive: "synthetic" (fixture tables) or "http"
    # (stages/httpfetch.HttpClient over a real wire; same surrounding
    # engine byte-for-byte)
    fetcher: str = "synthetic"
    # M15 — HTML parse for doc extraction: "fast" = vectorized regex path
    # (value-identical on well-formed pages, ~several× cheaper — the 100 TB
    # default); "dom" = stdlib-tokenizer DOM tree (functions/dom.py), the
    # reference's DOMDocument::loadHTML shape for adversarial HTML
    parse_mode: str = "fast"
    user_agent: str = "lightcrawler-ray/0.1"
    connect_timeout_s: float = 60.0          # CrawlerSettings.class.php:39
    stream_timeout_s: float = 60.0           # CrawlerSettings.class.php:40
    # S3 proxy: () = direct, (host, port) or (host, port, user, pass) —
    # setProxy, PHPCrawlerHTTPRequest.class.php:314-330
    proxy: tuple = ()
    receive_rules: tuple[str, ...] = ("text/", "image/")  # M10
    # O3 stream-to-file: content-type prefixes whose bodies spill UNCAPPED
    # to worker-local files (addStreamToFileContentType,
    # PHPCrawlerHTTPRequest.class.php:459-488); the attachment sink hydrates
    # payloads from the spill path at write time.  spill_dir="" = worker
    # tmpdir; on a multi-node cluster point it at shared scratch (or
    # node-affine the finalize writers) so sinks can reach the files.
    stream_to_file_rules: tuple[str, ...] = ()
    spill_dir: str = ""
    min_doc_bytes: int = 100                 # M12
    aggressive_links: bool = False           # M4 pass 3
    synthesize_pagination: bool = False      # M29
    request_delay_ms: float = 0.0            # T7 politeness budget (recorded)
    auth_rules: tuple[tuple[str, str, str], ...] = ()   # T9 (url_regex, user, pass)
    post_rules: tuple[tuple[str, tuple], ...] = ()      # T9 (url_regex, ((k,v),...))
    seed_hosts: tuple[str, ...] = ()         # filled from seeds at job start
    seed_domains: tuple[str, ...] = ()
    seed_paths: tuple[str, ...] = ()
    seen_shards: int = 4
    seen_capacity: int = 1 << 20
    seen_mode: str = "exact"                 # exact 128-bit keys | cuckoo (10^10-key memory mode)
    politeness_shards: int = 4               # hash(host) partitions of the T7 ledger
    doc_near_dup_hamming: int = 3            # J3 simhash gate threshold; -1 disables
    fetch_concurrency: int = 4
    fetch_batch_size: int = 256
    # where the one round body's steps run (adaptive execution, see
    # pipelines/crawl.py): a round of at most this many candidate rows is
    # filtered on the driver, and a round whose gate leaves at most this many
    # winners is ranked on the driver, fetched by the pool as one block and
    # split on the driver; larger ones run each step as a task per block.
    # 0 sends every round through the remote filter tasks and the block graph
    local_round_threshold: int = 4096
    # checkpoint the seen shards every K epochs (resume re-enters at the last
    # snapshotted epoch; K>1 trades resume work for per-round driver time)
    snapshot_every: int = 1


class CandidateFilter:
    """map_batches callable: canonicalize + M8/O2 filter + priority assign.

    Stateless w.r.t. the crawl but holds compiled regexes + the broadcast
    robots rules → callable class on an actor pool isn't needed; Ray
    re-uses the instance across batches within a task (init-per-task)."""

    def __init__(self, spec: CrawlSpec, robots_ref=None):
        import re

        self.spec = spec
        self.filter_res = [re.compile(r) for r in spec.url_filter_regexes]
        self.follow_res = [re.compile(r) for r in spec.url_follow_regexes]
        self.prio_res = [(re.compile(r), lvl) for r, lvl in spec.priority_rules]
        self.robots = ray.get(robots_ref) if robots_ref is not None else {}
        # lazy robots (S4 at scale): a callable (host, port) origins → rules
        # per host, backed by the politeness shards; None = static broadcast
        # rules only
        self.robots_lookup = None
        self._robots_checked: set[str] = set()

    def _lazy_robots(self, hosts: list[str], ports: list[int]) -> None:
        """Fetch rules for hosts this batch sees for the first time, from
        the port of each host's first URL — one shard call per round per
        filter task, answered from the shard's cache after a host's first
        sight anywhere in the crawl."""
        missing: dict[str, int] = {}
        for h, port in zip(hosts, ports):
            if h and h not in self._robots_checked:
                missing.setdefault(h, port)
        if missing:
            self._robots_checked.update(missing)
            self.robots = {**self.robots, **self.robots_lookup(list(missing.items()))}

    def __call__(self, t: pa.Table, redirect_only: bool = False,
                 content_seq: int = -1) -> pa.Table:
        """M9 redirect-till-content, at per-PAGE granularity: candidates
        whose parent was fetched BEFORE the first 200-content page (``0 <=
        parent_seq < content_seq``) keep only redirect links, bypassing the
        follow rules entirely (the reference's keepRedirectUrls path,
        PHPCrawlerURLFilter.class.php:121-135 — the reference flips the flag
        per processed page, not per crawl round).  ``redirect_only=True`` is
        the no-content-yet shorthand (content_seq = +inf); seed rows
        (parent_seq < 0) always go through the normal rules.

        A round repeats the same URL on many rows (a nav link on every
        page), so the ``url`` column is dictionary-encoded and everything
        that depends on the URL alone — canonical form, host, md5, priority,
        follow scope, robots — is computed once per distinct URL and mapped
        back to rows through the dictionary indices.  Depth, the M9 rule and
        the regexes (which also read the row's linktext) stay per row."""
        cs = (1 << 62) if redirect_only else content_seq
        n = t.num_rows
        if n == 0:
            return _empty_candidates()
        enc = t.column("url").combine_chunks().dictionary_encode()
        code = enc.indices.to_numpy(zero_copy_only=False)
        # per distinct URL
        urls = [ut.canonicalize(u) or "" for u in enc.dictionary.to_pylist()]
        parts = [ut.split_url(u) if u else None for u in urls]
        hosts = [str(p["host"]) if p else "" for p in parts]
        if getattr(self, "robots_lookup", None) is not None:
            self._lazy_robots(hosts, [int(p["port"]) if p else 0 for p in parts])
        valid = np.fromiter((p is not None for p in parts), dtype=bool, count=len(parts))
        url_ok = np.fromiter(
            (p is not None
             and self._follow_ok(u, h, str(p["domain"]), str(p["path"]))
             and not (self.robots and self._robots_blocked(h, str(p["path"]) + str(p["file"])))
             for u, h, p in zip(urls, hosts, parts)),
            dtype=bool, count=len(parts),
        )
        # per row
        redir = _np_col(t, "is_redirect", n, False, bool)
        pseq = _np_col(t, "parent_seq", n, -1, np.int64)
        depth = t.column("depth").to_numpy(zero_copy_only=False)
        redirect_only_row = (pseq >= 0) & (pseq < cs)
        keep = valid[code] & np.where(
            redirect_only_row,
            redir,
            # depth limit (redirects don't consume depth, M9)
            ((depth <= self.spec.max_depth) | redir) & url_ok[code],
        )
        linktext = (
            pc.fill_null(t.column("linktext"), "").cast(pa.string())
            if "linktext" in t.column_names else pa.array([""] * n, pa.string())
        )
        if self.filter_res or self.follow_res:
            rows = np.flatnonzero(keep & ~redirect_only_row)
            lt = linktext.take(pa.array(rows)).to_pylist()
            keep[rows] = [not self._blacklisted(urls[code[i]], x) for i, x in zip(rows, lt)]
        sel = np.flatnonzero(keep)
        ix = pa.array(code[sel])
        sel = pa.array(sel)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()).take(ix),
                "url_md5": pa.array([ut.url_md5(u) if u else "" for u in urls], pa.string()).take(ix),
                "host": pa.array(hosts, pa.string()).take(ix),
                "link_raw": _col(t, "link_raw", n).take(sel),
                "linktext": linktext.take(sel),
                "referer": _col(t, "referer", n).take(sel),
                "depth": t.column("depth").take(sel).cast(pa.int32()),
                "priority": pa.array([self._priority(u) if u else 0 for u in urls], pa.int32()).take(ix),
                "is_redirect": _col(t, "is_redirect", n, pa.bool_(), False).take(sel),
                "parent_seq": _col(t, "parent_seq", n, pa.int64(), -1).take(sel),
                "link_idx": _col(t, "link_idx", n, pa.int64(), 0).take(sel),
            }
        )

    def _follow_ok(self, url: str, host: str, domain: str, path: str) -> bool:
        s = self.spec
        if s.follow_mode == 0 or not s.seed_hosts:
            return True
        if s.follow_mode == 1:
            return domain in s.seed_domains or host in s.seed_hosts
        www = host[4:] if host.startswith("www.") else host
        ok_host = any(www == (h[4:] if h.startswith("www.") else h) for h in s.seed_hosts)
        if s.follow_mode == 2:
            return ok_host
        return ok_host and any(path.startswith(p) for p in s.seed_paths)

    def _blacklisted(self, url: str, linktext: str) -> bool:
        for r in self.filter_res:
            if r.search(url) or (linktext and r.search(linktext)):
                return True
        if self.follow_res:
            return not any(r.search(url) or (linktext and r.search(linktext)) for r in self.follow_res)
        return False

    def _robots_blocked(self, host: str, path: str) -> bool:
        rules = self.robots.get(host)
        if not rules:
            return False
        return any(path.startswith(p) for p in rules.get("disallow", ()))

    def _priority(self, url: str) -> int:
        for r, lvl in self.prio_res:
            if r.search(url):
                return lvl
        return 0


def anchor_scope(spec: CrawlSpec, first_content_url: str) -> None:
    """M9 — the first content URL re-anchors the follow scope when it lies
    outside the seed scope (the reference's ``setBaseURL`` on first content,
    PHPCrawler.class.php:805-807; generalized to APPEND so multi-seed crawls
    keep their original scope too)."""
    p = ut.split_url(first_content_url)
    if not p:
        return
    host, domain, path = str(p["host"]), str(p["domain"]), str(p["path"])
    if host not in spec.seed_hosts:
        spec.seed_hosts = spec.seed_hosts + (host,)
    if domain not in spec.seed_domains:
        spec.seed_domains = spec.seed_domains + (domain,)
    if path not in spec.seed_paths:
        spec.seed_paths = spec.seed_paths + (path,)


def _col(t: pa.Table, name: str, n: int, typ=pa.string(), default=""):
    if name in t.column_names:
        c = t.column(name)
        return c.cast(typ) if c.type != typ else c
    return pa.array([default] * n, typ)


def _np_col(t: pa.Table, name: str, n: int, default, dtype) -> np.ndarray:
    """Column ``name`` as a numpy array with nulls (or a missing column)
    read as ``default``."""
    if name not in t.column_names:
        return np.full(n, default, dtype=dtype)
    c = pc.fill_null(t.column(name), default)
    return np.asarray(c.to_numpy(zero_copy_only=False), dtype=dtype)


def _empty_candidates() -> pa.Table:
    return pa.schema(
        [
            ("url", pa.string()), ("url_md5", pa.string()), ("host", pa.string()),
            ("link_raw", pa.string()), ("linktext", pa.string()), ("referer", pa.string()),
            ("depth", pa.int32()), ("priority", pa.int32()), ("is_redirect", pa.bool_()),
            ("parent_seq", pa.int64()), ("link_idx", pa.int64()),
        ]
    ).empty_table()
