"""The crawl round driver — iterative BFS over Dataset rounds with
per-epoch checkpointing (SURVEY.md §3 "Ray-Data restatement").

Each round (epoch):

  link block refs ─ _filter_extract tasks        canonicalize+filter (M1-M3, M8, O2,
                    (fused filter + key split)     T5) once per distinct URL; block
                                                   cut to its min-rank row per key
                                                   + per-seen-shard key parts
                  ─ seen-shard gate_parts        within-round dedup D1 across
                    (one fused call per shard)     blocks + cross-round gate T1,
                                                   deterministic min-rank
                                                   winners; only COUNTS hit the driver
                  ─ _rank_block                  every winner numbered offset +
                    (no sort: blocks arrive        arange (O1) — link blocks are
                    in rank order by               emitted in (parent_seq, link_idx)
                    construction)                  order; the request budget A2 keeps
                                                   the top winners by (priority desc,
                                                   enqueue_seq) from per-block counts
                  ─ politeness partitions        per-host crawl-delay schedule (T7),
                    (hash(host) partitions)        ledger walk off the driver
                  ─ persistent fetch pool        fused fetch+extract — bodies never
                    (plasma-shared page store)     leave the worker; each batch's
                                                   output returns as one Arrow
                                                   IPC buffer (stages/fetchpool.py)
                  ─ _split_sink tasks            links checkpoint + forward refs;
                                                   per-shard content-key parts
                  ─ content-shard gate_parts +   content dedup D2/D3/D4 + J3 sim
                    sim band shards + deferred     gate — sharded like the URL-seen
                    finalize writes                set; keep-rows travel by ref and
                                                   writes overlap the next round

State: partition i of the URL-seen table, the content-seen table, the
politeness ledger and the sim-band index share one ``num_cpus=0`` state
actor (``state/pool.py``): n = max(seen_shards, politeness_shards, N_BANDS)
actors per crawl, beside the fetch workers.  Each actor is single-threaded
with one FIFO mailbox, so every kind's snapshot still queues after that
kind's own updates (epoch-exact); on the block-graph path the next round's
seen gate queues behind the previous round's content chain on the same
actor.

Adaptive execution: a BFS crawl has a characteristic frontier profile — a few
huge middle rounds flanked by tiny head/tail rounds (seed fan-out, redirect
chains).  Every round runs the same steps — the ``_filter_and_split`` filter,
the seen shards' ``gate_parts``, the ``_rank_block`` rank — and round size
only picks WHERE they run.  A round of at most ``spec.local_round_threshold``
candidates is filtered in-process on the driver (no task hop); a larger one
in remote filter tasks.  A gate that leaves at most that many winners is
merged into one block and ranked in-process; ``_local_tail`` hands it to the
fetch pool as one block and splits the pooled output in-process
(``_split_project``) instead of in per-batch ``_split_sink`` tasks.  A larger
one goes through the block graph above, whose scheduling cost only pays off
at size.  Every round fetches on the pool, so the workers' client state
(cookies, DNS cache) is the crawl's only one, and every fetched round ends in
the same ``_sink_round``: content flow, finalize tasks, and metrics, snapshot
and done marker deferred to the next round's drain.  At 10^10-URL scale the
big rounds are the only ones that matter; the threshold just stops the head
and tail from paying cluster prices.

Checkpoint per epoch: frontier, links lineage, images, docs, metrics, seen
snapshot, then an atomic done-marker — resume restores the seen shards and
re-enters at the first incomplete epoch (T10 / north_rule).  All per-epoch
outputs are partitioned directories so a 256-node run can skip finished work.

Skew (SURVEY.md §4 / north_rule): hot hosts cannot unbalance this plan —
fetch work is partitioned by ROW RANGES (work-stealing over the pool,
host-agnostic), the seen shards key on url_md5 (uniform by construction), the
rank is per-block offset arithmetic (no key at all), and per-host rate is
bounded by the politeness ledger regardless of partition shape.  The one
host-keyed structure, the ledger, is O(#hosts) state, not O(rows).  The Zipf-skewed
fixture (host 0 owns ~1/H_n of pages) runs through the same parity suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions import hashing
from ..functions.benchtimer import Benchmark
from ..stages.fetch import (FRONTIER_COLS, OUT_SCHEMA, from_wire, load_fixture_tables,
                            split_outputs, to_wire)
from ..stages.fetchpool import FetchPool
from ..stages.frontier import CandidateFilter, CrawlSpec
from ..stages.politeness import SchedulePool, split_sched_parts
from ..state.pool import StatePool
from ..state.seenset import SeenSet, key_parts, md5hex_to_u64_pairs
from ..state.simindex import N_BANDS, SimIndex
from .. import storage

_LINK_COLS = ["url", "link_raw", "linktext", "referer", "depth", "is_redirect",
              "parent_seq", "link_idx"]
_IMG_COLS = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash",
             "src_url", "referer", "enqueue_seq", "url_md5"]
_DOC_COLS = ["doc_id", "url", "doc_ori_no", "title", "author", "tags",
             "publish_time", "t_valid", "content", "negs", "simhash",
             "doc_lang", "doc_quality", "doc_tokens", "attachments",
             "enqueue_seq", "url_md5"]
_ATT_COLS = ["url", "url_md5", "referer", "att_ext", "att_type", "doc_id",
             "enqueue_seq", "received_to_file", "tmp_path"]


def load_robots(robots_path: str) -> dict[str, dict]:
    t = pq.read_table(robots_path)
    return {
        h: {"delay_ms": d, "disallow": tuple(dis)}
        for h, d, dis in zip(
            t.column("host").to_pylist(),
            t.column("delay_ms").to_pylist(),
            t.column("disallow").to_pylist(),
        )
    }


class CrawlJob:
    def __init__(
        self,
        spec: CrawlSpec,
        seeds: pa.Table,
        pages_path: str,
        images_path: str,
        robots_path: str,
        job_dir: str,
    ):
        self.spec = spec
        self.seeds = seeds
        self.job_dir = job_dir
        # A4: named accumulating phase timers (PHPCrawlerBenchmark.class.php
        # :16-145 semantics) — every round phase mark adds its inter-mark
        # delta here, so benchmarks() yields the whole-job phase decomposition
        self.bench = Benchmark()
        self._mark_t = 0.0
        os.makedirs(job_dir, exist_ok=True)
        # one state actor per partition: partition i of the URL-seen table,
        # the content-seen table, the politeness ledger and the sim-band
        # index all live on actor i % n (started first so the processes
        # spawn while the fixture tables load)
        self.state = StatePool(max(spec.seen_shards, spec.politeness_shards, N_BANDS))
        self.seen = SeenSet(spec.seen_shards, spec.seen_capacity, spec.seen_mode,
                            self.state, "url")
        self.content_seen = SeenSet(spec.seen_shards, spec.seen_capacity, "exact",
                                    self.state, "content")
        self.next_seq = 0
        self.fetched = 0
        self.bytes_total = 0
        self._pending: dict | None = None
        # next-round filter tasks submitted against the in-flight round's
        # link refs (pure tasks — safe to speculate; the stateful gate is not)
        self._prefilter: dict | None = None
        # rounds routed to remote filter tasks by their candidate count whose
        # gate then left a driver-sized remainder
        self.tail_collapses = 0
        # M9: until the first 200-content fetch, candidate filtering keeps
        # only redirect links (mode off => treat content as already found)
        self._content_found = not spec.redirects_till_content
        # enqueue_seq of the first 200-content fetch: candidates with
        # parent_seq below it are filtered redirect-only (per-PAGE M9
        # granularity, matching the reference's per-processed-page flip)
        self._content_seq = -1 if self._content_found else (1 << 62)
        self._anchor_url = ""
        self._derive_seed_scope()
        # fixture stores: loaded once, broadcast once (the production analog
        # is the HTTP client config — per-actor state would be conn pools)
        pages, images = load_fixture_tables(pages_path, images_path)
        self.pages_ref = ray.put(pages)
        self.images_ref = ray.put(images)
        self.fetch_pool = FetchPool(
            spec.fetch_concurrency, self.pages_ref, self.images_ref, self._fetch_kwargs()
        )
        # robots rules (T5/T7): pre-parsed sidecar, or the seed hosts'
        # robots.txt fetched+parsed by a pool worker (S4,
        # PHPCrawlerRobotsTxtParser.class.php:29-151) — hosts discovered
        # mid-crawl are covered by the lazy mode
        if not spec.respect_robots:
            self.robots = {}
        elif spec.robots_source == "fetch":
            self.robots = ray.get(self.fetch_pool.workers[0].robots.remote(self._seed_hostports))
        elif spec.robots_source == "lazy":
            self.robots = {}  # discovered per host inside the politeness shards
        else:
            self.robots = load_robots(robots_path)
        self.robots_ref = ray.put(self.robots)
        # per-host politeness ledger (T7 upgraded: per-host, not global),
        # hash(host)-partitioned over the state actors so no round's (host, seq)
        # rows ever gather on the driver
        lazy = spec.respect_robots and spec.robots_source == "lazy"
        self.sched = SchedulePool(
            spec.politeness_shards, spec.request_delay_ms, self.robots,
            fetch_ctx=(self.pages_ref, self.images_ref, self._fetch_kwargs()) if lazy else None,
            robots_ttl_s=spec.robots_ttl_s, pool=self.state,
        )
        self._lazy_robots = self.sched if lazy else None
        self.docsim = SimIndex(self.state)
        # pre-spawn the task workers the round tasks will run on, so the
        # first distributed round doesn't pay worker startup latency; ditto
        # the state actors, each with its partitions built and its one-time
        # imports paid — a crawl service initializes its pools at deploy
        # time, not inside round 0
        n_task_cpus = max(1, int(ray.cluster_resources().get("CPU", 8)) - spec.fetch_concurrency)
        ray.get([_noop.remote() for _ in range(n_task_cpus)] + self.state.ready())
        # ... and the round-path task FUNCTIONS: the first execution of each
        # remote function pays a one-time registration/deserialization cost
        # (measured 0.43 s for _filter_extract at 32 CPUs vs 0.015 s warm)
        # that otherwise lands inside round 0 of the timed run.  Zero-row
        # calls exercise registration only; the scratch dir catches the
        # empty part files.
        warm_dir = os.path.join(job_dir, "_warmup")
        os.makedirs(warm_dir, exist_ok=True)
        k, P, kc = spec.seen_shards, self.sched.p, self.content_seen.k
        wf = _filter_extract.options(num_returns=1 + k).remote(
            spec, self.robots_ref, k, -1, (), _empty_links_table()
        )
        wm = _merge_winner_task.remote(0, wf[0])
        wr = _rank_sched_write_block.options(num_returns=1 + P).remote(
            wm, 0, None, warm_dir, 0, P
        )
        ws = _split_sink.options(num_returns=_SPLIT_META + 3 * kc).remote(
            to_wire(OUT_SCHEMA.empty_table()), warm_dir, 0, kc
        )
        wi = _finalize_images.remote(ws[4], {"row": [], "id": []}, {}, warm_dir, 0)
        wd = _finalize_rows.remote(ws[5], warm_dir, 0)
        ray.get([wf[0], wm, wr[0], wi, wd])
        import shutil

        shutil.rmtree(warm_dir, ignore_errors=True)

    def _note_content(self, statuses, urls, seqs) -> None:
        """M9 — flip the redirect-only mode off at the first 200 fetch,
        recording its enqueue_seq (per-page filter granularity) and
        re-anchoring the follow scope on that URL (rows arrive in seq
        order)."""
        if self._content_found:
            return
        from ..stages.frontier import anchor_scope

        for st, u, sq in zip(statuses, urls, seqs):
            if st == 200:
                self._content_found = True
                self._content_seq = int(sq)
                self._anchor_url = u
                anchor_scope(self.spec, u)
                return

    def _fetch_kwargs(self) -> dict:
        s = self.spec
        return dict(
            fetcher=s.fetcher,
            user_agent=s.user_agent,
            connect_timeout_s=s.connect_timeout_s,
            stream_timeout_s=s.stream_timeout_s,
            proxy=s.proxy,
            retry_limit=s.retry_limit,
            content_size_limit=s.content_size_limit,
            receive_rules=s.receive_rules,
            min_doc_bytes=s.min_doc_bytes,
            aggressive_links=s.aggressive_links,
            synthesize_pagination=s.synthesize_pagination,
            request_delay_ms=max(s.request_delay_ms, 0.0),
            routes=s.routes,
            auth_rules=s.auth_rules,
            post_rules=s.post_rules,
            parse_mode=s.parse_mode,
            stream_to_file_rules=s.stream_to_file_rules,
            spill_dir=s.spill_dir,
        )

    def _batch_size(self, n: int) -> int:
        """Adaptive fetch batch size: a small round must still spread across
        the whole pool (at batch_size=256 a 469-URL round is TWO tasks no
        matter how many workers exist) — target fetch_batches_per_worker
        batches per worker so the depth-2 stealing queue stays non-empty."""
        s = self.spec
        return max(16, min(s.fetch_batch_size,
                           -(-n // (s.fetch_batches_per_worker * self.fetch_pool.k))))

    def _derive_seed_scope(self) -> None:
        from ..functions import urltools as ut

        hosts, domains, paths, hostports = [], [], [], []
        for u in self.seeds.column("url").to_pylist():
            c = ut.canonicalize(u)
            p = ut.split_url(c) if c else None
            if p:
                hosts.append(str(p["host"]))
                domains.append(str(p["domain"]))
                paths.append(str(p["path"]))
                hostports.append((str(p["host"]), int(p["port"])))
        # (host, port) origins for the robots prefetch
        self._seed_hostports = tuple(dict.fromkeys(hostports))
        self.spec.seed_hosts = tuple(dict.fromkeys(hosts))
        self.spec.seed_domains = tuple(dict.fromkeys(domains))
        self.spec.seed_paths = tuple(dict.fromkeys(paths))

    # ------------------------------------------------------------------
    def _epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.job_dir, f"epoch={epoch:04d}")

    def _seed_table(self) -> pa.Table:
        t = self.seeds
        n = t.num_rows
        t = t.append_column("parent_seq", pa.array([-1] * n, pa.int64()))
        t = t.append_column("link_idx", pa.array(np.arange(n), pa.int64()))
        t = t.append_column("referer", pa.array([""] * n, pa.string()))
        t = t.append_column("link_raw", t.column("url"))
        t = t.append_column("linktext", pa.array([""] * n, pa.string()))
        t = t.append_column("is_redirect", pa.array([False] * n, pa.bool_()))
        return t

    def run(self, max_rounds: int = 50) -> dict:
        start_epoch, candidates, n_hint = self._resume_point()
        epoch = start_epoch
        while epoch < start_epoch + max_rounds:
            n_frontier, candidates, n_hint = self._round(candidates, epoch, n_hint)
            if n_frontier == 0:
                break
            epoch += 1
            if self.spec.request_limit and self.fetched >= self.spec.request_limit:
                break
            # A2 traffic abort: the reference compares cumulative bytes against
            # the limit continuously; round granularity is our batch analog
            if (
                self.spec.traffic_limit_bytes
                and self.bytes_total >= self.spec.traffic_limit_bytes
            ):
                break
        self.bench.start("final_drain")
        self._drain_pending()
        self.bench.stop("final_drain")
        return self.summary()

    def _resume_point(self) -> tuple[int, "list | pa.Table", int | None]:
        done = sorted(
            int(d.split("=")[1])
            for d in os.listdir(self.job_dir)
            if d.startswith("epoch=")
            and os.path.isfile(os.path.join(self.job_dir, d, "_EPOCH_DONE"))
            and os.path.isfile(os.path.join(self.job_dir, d, "seen.npz"))
        )
        if not done:
            return 0, self._seed_table(), self.seeds.num_rows
        last = done[-1]
        with open(os.path.join(self._epoch_dir(last), "_EPOCH_DONE")) as f:
            meta = json.load(f)
        self.next_seq = meta["next_seq"]
        self.fetched = meta["fetched"]
        self.bytes_total = meta.get("bytes_total", 0)
        if meta.get("content_found"):
            self._content_found = True
            self._content_seq = int(meta.get("content_seq", -1))
            self._anchor_url = meta.get("anchor_url", "")
            if self._anchor_url:
                from ..stages.frontier import anchor_scope

                anchor_scope(self.spec, self._anchor_url)
        snaps = _load_seen_snapshot(os.path.join(self._epoch_dir(last), "seen.npz"))
        self.seen.restore(snaps["seen"])
        self.content_seen.restore(snaps["content"])
        self.sched.restore(snaps.get("hosts", {}))
        if snaps.get("docsim"):
            self.docsim.restore(snaps["docsim"])
        # the links checkpoint's parts in name order are its blocks in
        # (parent_seq, link_idx) order, the order the next rank numbers in
        links_dir = os.path.join(self._epoch_dir(last), "links")
        parts = sorted(f for f in os.listdir(links_dir) if f.endswith(".parquet")
                       ) if storage.is_complete(links_dir) else []
        cand = [_read_part.remote(os.path.join(links_dir, f)) for f in parts]
        return last + 1, cand, meta.get("links", None)

    # ------------------------------------------------------------------
    def _mark(self, phase: str) -> None:
        """Add the seconds since the previous mark to ``phase``."""
        now = time.perf_counter()
        self.bench.add(phase, now - self._mark_t)
        self._mark_t = now

    def _round(self, candidates, epoch: int, n_hint: int | None):
        """One round: candidate filter, seen gate, then rank, fetch, sinks.

        Every round filters through ``_filter_and_split``, gates through
        the seen shards' ``gate_parts`` and ranks through ``_rank_block``;
        round size only picks where the steps run.  A round of at most
        ``local_round_threshold`` candidates is filtered in-process (unless
        the previous round already speculated its filter tasks), a larger
        one in remote tasks.  A gate that leaves at most that many winners
        is ranked in-process as one block (``_local_tail``), a larger one
        in block-graph tasks (``_round_graph``).  Either way every winner
        is numbered before the request budget keeps its top rows, and the
        round ends in ``_sink_round`` (or ``_empty_round``), which finishes
        the PREVIOUS epoch and leaves this one to the next drain.

        ``candidates`` is an Arrow table (seeds / a driver-ranked round's
        links) or a list of block ObjectRefs (the previous block-graph
        round's link tables, carried in the object store — no re-read — or
        the resumed epoch's links parts)."""
        spec = self.spec
        self._mark_t = time.perf_counter()
        ed = self._epoch_dir(epoch)
        if os.path.isdir(ed):
            # (re)entering an epoch — a mid-epoch crash or sparse-snapshot
            # re-crawl may have left stale higher-index parts that a shorter
            # re-run would otherwise bless; start the epoch clean
            import shutil

            shutil.rmtree(ed)
        os.makedirs(ed, exist_ok=True)
        k = self.seen.k
        small = n_hint is not None and n_hint <= spec.local_round_threshold
        in_process = False
        pf, self._prefilter = self._prefilter, None
        if (isinstance(candidates, list) and pf is not None
                and pf["key"] == tuple(r.hex() for r in candidates)):
            # the previous round speculated these filter tasks against its
            # in-flight link refs — they are done (or finishing) by now
            blocks, keymat = pf["filt"], pf["keymat"]
        elif small:
            if isinstance(candidates, list):
                candidates = [t for t in ray.get(candidates) if t.num_rows]
            else:
                candidates = [candidates]
            out = _filter_and_split(spec, self.robots, k, self._content_seq,
                                    self._lazy_robots,
                                    *(candidates or [_empty_links_table()]))
            blocks, keymat, in_process = [out[0]], [out[1:]], True
        else:
            if isinstance(candidates, pa.Table):
                candidates = [ray.put(candidates)]
            blocks, keymat = [], []
            for grp in _coalesce_groups(candidates, n_hint):
                rets = _filter_extract.options(num_returns=1 + k).remote(
                    spec, self.robots_ref, k, self._content_seq,
                    self._lazy_robots, *grp
                )
                blocks.append(rets[0])
                keymat.append(rets[1:])
        B = len(blocks)
        if B == 0:
            return self._empty_round(epoch, ed)
        # each seen shard answers the whole round in ONE gate_parts call,
        # returning only per-block counts to the driver while the winner row
        # arrays stay in the object store
        counts_refs, wins = self.seen.gate_round([[keymat[b][s] for b in range(B)]
                                                  for s in range(k)])
        winner_mat = [[wins[s][b] for s in range(k)] for b in range(B)]
        self._mark("launch_filter+gate")
        counts, probed = np.stack(ray.get(counts_refs)).sum(axis=0)
        self._mark("gate_counts")
        n_win = int(counts.sum())
        gate = (n_win, int(probed.sum()) - n_win)  # (urls_enqueued, urls_deduped)
        # O1: the round's winners take seqs [seq0, seq0 + n_win) in
        # (parent_seq, link_idx) order whether or not the budget fetches them
        seq0 = self.next_seq
        self.next_seq += n_win
        # A2: the request budget keeps the top n_frontier winners
        n_frontier = (min(n_win, max(0, spec.request_limit - self.fetched))
                      if spec.request_limit else n_win)
        local = n_win <= spec.local_round_threshold
        if local and not small:
            self.tail_collapses += 1
        if n_frontier == 0:
            return self._empty_round(epoch, ed)
        if not local:
            return self._round_graph(blocks, winner_mat, counts, seq0, n_frontier,
                                     epoch, ed, gate)
        # driver rank: the winner rows (at most the threshold) merged into
        # one block, ranked in-process as frontier part 0
        live = [b for b in range(B) if counts[b]]
        tables = [blocks[b] for b in live] if in_process else ray.get([blocks[b] for b in live])
        rows = ray.get([w for b in live for w in winner_mat[b]])
        t = _merge_winner_blocks(k, *[x for i, tb in enumerate(tables)
                                      for x in (tb, *rows[i * k:(i + 1) * k])])
        quota = _budget_quotas([_level_counts(t)], n_frontier)[0][0] if n_frontier < n_win else None
        frontier_dir = os.path.join(ed, "frontier")
        os.makedirs(frontier_dir, exist_ok=True)
        front, *sched_parts = _rank_block(t, seq0, quota, frontier_dir, 0, self.sched.p)
        self._mark("tail_collapse")
        return self._local_tail(front, sched_parts, epoch, ed, gate)

    def _empty_round(self, epoch: int, ed: str):
        """A round with nothing to fetch ends the crawl: its epoch holds an
        empty links checkpoint, the snapshot and the done marker, stashed
        and drained like every other epoch."""
        self._drain_pending()
        links_dir = os.path.join(ed, "links")
        os.makedirs(links_dir, exist_ok=True)
        self._pending = dict(ed=ed, epoch=epoch, writes=[], sched_futs=[], dirs=[links_dir],
                             fetch_small=None, snap_refs=self._snapshot_refs(epoch),
                             meta=self._done_meta(0, 0))
        self._drain_pending()
        self._mark("sinks")
        return 0, _empty_links_table(), 0

    def _local_tail(self, front: pa.Table, sched_parts: list, epoch: int, ed: str,
                    gate: tuple[int, int]):
        """Fetch + split for a driver-ranked round: ``front`` is the ranked,
        budget-capped frontier in ``enqueue_seq`` order, already written as
        frontier part 0, and ``sched_parts`` its schedule parts, both from
        ``_rank_block``.  The pool fetches it as one block; the driver
        splits the pooled output in-process (``_split_project``, no
        per-batch split tasks competing with the pool for the spare CPUs),
        writes its links as part 0 and hands the one block to
        ``_sink_round``.  The next round filters the links table directly."""
        n_frontier = front.num_rows
        # politeness ledger lives on the schedule shards (shared with the
        # block graph so clocks stay consistent across path switches); the
        # ledger walk overlaps the fetch and is gathered at the drain
        sched_dir = os.path.join(ed, "schedule")
        sched_futs = self.sched.schedule_round(sched_dir, bool(self.spec.priority_rules),
                                               [sched_parts])
        out_refs = self.fetch_pool.submit([ray.put(front.select(FRONTIER_COLS))], [n_frontier],
                                          self._batch_size(n_frontier))
        split = _split_project(from_wire(*ray.get(out_refs)), self.content_seen.k)
        links = split[_SPLIT_META - 1]
        links_dir = os.path.join(ed, "links")
        os.makedirs(links_dir, exist_ok=True)
        _write_part(links, links_dir, 0)
        return n_frontier, links, self._sink_round(epoch, ed, [split], split[0], gate,
                                                   sched_futs, n_frontier)

    # -- block graph ---------------------------------------------------
    def _round_graph(self, blocks: list, winner_mat: list, counts: np.ndarray,
                     seq0: int, n_frontier: int, epoch: int, ed: str,
                     gate: tuple[int, int]):
        """Block-graph rank + fetch + split for a round whose gate left more
        than ``local_round_threshold`` winners.  The driver waits on two
        barriers only: the gate counts (in ``_round``) and the split metas
        (in ``_sink_round``).

        Link blocks arrive from the previous round's split tasks in fetch
        order, so every block is already sorted by (parent_seq, link_idx)
        and block ranges are disjoint ascending — block b's winners are
        numbered from ``seq0`` plus the winners of the blocks before it, no
        sort.  ``blocks`` are the filtered blocks and ``winner_mat[b][s]``
        seen shard s's winner rows of block b, still in the object store.
        When the request budget keeps ``n_frontier`` of them, the driver
        gathers each block's winner count per priority level.  Rank tasks
        write frontier parts AND emit hash(host) schedule parts consumed by
        the politeness partitions (no per-row host/seq data on the driver,
        ever).  Fetch runs on the persistent worker pool, each batch's
        ``_split_sink`` task launching as the batch lands; ``_sink_round``
        takes the split refs from there."""
        spec = self.spec
        k, P = self.seen.k, self.sched.p
        live = np.nonzero(counts)[0]
        blocks = [blocks[b] for b in live]
        winner_mat = [winner_mat[b] for b in live]
        counts = counts[live]
        n_win = int(counts.sum())
        # re-coalesce tiny winner blocks (r5): a dedup-heavy gate after a
        # huge round can leave hundreds of blocks with a handful of winners
        # each (profile: 9,841 winners across 1,220 blocks ≈ 8/block) —
        # each would become its own rank task and a sub-minimum fetch
        # batch.  Contiguous groups keep (parent_seq, link_idx) order, so
        # rank order is preserved.
        if len(blocks) > 2 * max(1, -(-n_win // _COALESCE_ROWS)):
            groups: list[list[int]] = []
            cur: list[int] = []
            acc = 0
            for b in range(len(blocks)):
                cur.append(b)
                acc += int(counts[b])
                if acc >= _COALESCE_ROWS or len(cur) >= 32:
                    groups.append(cur)
                    cur, acc = [], 0
            if cur:
                groups.append(cur)
            blocks = [_merge_winner_task.remote(k, *[x for b in g
                                                     for x in (blocks[b], *winner_mat[b])])
                      for g in groups]
            winner_mat = [[] for _ in blocks]
            counts = np.array([int(counts[g].sum()) for g in groups], dtype=np.int64)
        offsets = seq0 + np.concatenate([[0], np.cumsum(counts)[:-1]])
        quotas, take = [None] * len(blocks), counts
        if n_frontier < n_win:
            quotas, take = _budget_quotas(
                ray.get([_level_counts_task.remote(blk, *win)
                         for blk, win in zip(blocks, winner_mat)]), n_frontier)
        sel = np.nonzero(take)[0]
        take = take[sel]

        frontier_dir = os.path.join(ed, "frontier")
        os.makedirs(frontier_dir, exist_ok=True)
        ranked, sched_mat = [], []
        for i, b in enumerate(sel):
            rets = _rank_sched_write_block.options(num_returns=1 + P).remote(
                blocks[b], int(offsets[b]), quotas[b], frontier_dir, i, P, *winner_mat[b]
            )
            ranked.append(rets[0])
            sched_mat.append(rets[1:])

        # politeness ledger (T7): hash(host)-partitioned shard walk; futures
        # drain with the other deferred sinks (actor mailboxes keep rounds
        # ordered, so the next round may queue behind this one safely)
        sched_dir = os.path.join(ed, "schedule")
        sched_futs = self.sched.schedule_round(sched_dir, bool(spec.priority_rules), sched_mat)

        # fetch+extract on the persistent pool (plasma-shared blocks) with
        # work-stealing dispatch; each completed batch's split task (links
        # checkpoint + meta projection) launches immediately so the sink
        # wave pipelines inside the fetch wave
        self._mark("rank+sched_launch")
        links_dir = os.path.join(ed, "links")
        os.makedirs(links_dir, exist_ok=True)
        bs = self._batch_size(n_frontier)
        take_l = [int(c) for c in take]
        nb = sum((c + bs - 1) // bs for c in take_l)
        split_refs: list = [None] * nb
        kc = self.content_seen.k
        # speculate the NEXT round's filter + key extraction INCREMENTALLY:
        # as each batch's split lands mid-wave, its link block goes straight
        # into a _filter_extract task, so the filter compute for round N+1
        # hides under round N's fetch wave on the otherwise-idle task CPUs.
        # (r5: the round-4 profile showed the old post-wave speculation
        # leaving a 5.4 s gate_counts wait at the next round's head — the
        # filters for ~3.3M links all launched after the 49.6 s wave ended.)
        # Pure tasks — safe to speculate; the stateful gate still waits for
        # the next round.  Per-block granularity ≈ _COALESCE_ROWS anyway
        # (256 URLs × ~12 links/URL), so no coalescing pass is needed.
        # M9 guard unchanged: never speculate while redirect-only may apply.
        speculate_next = self._content_found
        pf_filt: list = [None] * nb
        pf_keymat: list = [None] * nb

        def _on_batch_done(i: int, ref) -> None:
            rets = _split_sink.options(num_returns=_SPLIT_META + 3 * kc).remote(
                ref, links_dir, i, kc
            )
            split_refs[i] = rets
            if speculate_next:
                f = _filter_extract.options(num_returns=1 + k).remote(
                    spec, self.robots_ref, k, -1, self._lazy_robots,
                    rets[_SPLIT_META - 1],  # this batch's link block
                )
                pf_filt[i] = f[0]
                pf_keymat[i] = f[1:]

        self.fetch_pool.submit(ranked, take_l, bs, on_done=_on_batch_done)
        # the incremental speculation launched one filter per batch inside
        # _on_batch_done; register the completed set for the next round
        link_refs = [r[_SPLIT_META - 1] for r in split_refs]
        if speculate_next:
            self._prefilter = {
                "key": tuple(r.hex() for r in link_refs),
                "filt": pf_filt, "keymat": pf_keymat,
            }
        fetch_small = pa.concat_tables(ray.get([r[0] for r in split_refs]))
        return n_frontier, link_refs, self._sink_round(epoch, ed, split_refs, fetch_small, gate,
                                                       sched_futs, n_frontier)

    def _sink_round(self, epoch: int, ed: str, splits: list, fetch_small: pa.Table,
                    gate: tuple[int, int], sched_futs: list, n_frontier: int) -> int:
        """Every fetched round's tail, from the split on: the content flow,
        the previous epoch's drain, this epoch's per-block finalize writes,
        and the stash its own drain finishes (metrics, snapshot, done
        marker) while the next round filters and gates.  ``splits`` holds
        the ``_split_project`` returns per fetch batch: ``_split_sink`` refs
        in the block graph, the driver-ranked round's one in-process tuple;
        ``fetch_small`` is the round's fetch metas, gathered.  Counts the
        round's fetches and bytes and returns its link count."""
        self.fetched += n_frontier
        self.bytes_total += int(pc.sum(fetch_small.column("bytes_received")).as_py() or 0)
        self._note_content(fetch_small.column("status").to_pylist(),
                           fetch_small.column("url").to_pylist(),
                           fetch_small.column("enqueue_seq").to_pylist())
        self._mark("fetch+split")
        # every rank write and links part is in once the split metas landed
        storage.mark_complete(os.path.join(ed, "frontier"))
        storage.mark_complete(os.path.join(ed, "links"))
        n_links = int(pc.sum(fetch_small.column("n_links")).as_py() or 0)

        kc = self.content_seen.k
        nb = len(splits)
        cols = list(zip(*splits))
        img_metas, doc_metas = cols[1], cols[2]
        img_fulls, doc_fulls, att_fulls = cols[4], cols[5], cols[6]
        img_parts = cols[_SPLIT_META:_SPLIT_META + kc]            # [shard][block]
        doc_parts = cols[_SPLIT_META + kc:_SPLIT_META + 2 * kc]
        att_parts = cols[_SPLIT_META + 2 * kc:_SPLIT_META + 3 * kc]
        # content dedup verdicts (D2/D3/D4, J2/J3) — sharded off the driver:
        # key parts flow split → content shard → finalize by ref; the driver
        # only wires the task graph (no verdict rows, no barrier)
        img_kept, dup_ref, doc_keep, att_w = self._content_flow(
            nb, img_metas, doc_metas, img_parts, doc_parts, att_parts
        )
        dirs = [os.path.join(ed, name) for name in ("images", "docs", "attachments")]
        for d in dirs:
            os.makedirs(d, exist_ok=True)
        img_dir, doc_dir, att_dir = dirs
        # the previous epoch's deferred writes have had this whole round to
        # finish — drain them now, BEFORE stashing ours (done markers must
        # land in epoch order for resume correctness)
        self._drain_pending()
        writes = [
            _finalize_images.remote(img_fulls[b], img_kept[b], dup_ref, img_dir, b)
            for b in range(nb)
        ] + [
            _finalize_rows.remote(doc_fulls[b], doc_dir, b, doc_keep[b])
            for b in range(nb)
        ] + [
            _finalize_rows.remote(att_fulls[b], att_dir, b,
                                  *[att_w[s][b] for s in range(kc)])
            for b in range(nb)
        ]
        self._mark("sinks")

        # state snapshots are SUBMITTED now (actor mailboxes pin them to
        # exactly this epoch's position) but GATHERED in the next round's
        # drain — the payload writes + metrics + done marker defer the same
        # way, so nothing verdict-shaped blocks this round
        self._pending = dict(
            ed=ed, epoch=epoch, writes=writes, n_img=nb, sched_futs=sched_futs,
            dirs=dirs + [os.path.join(ed, "schedule")], fetch_small=fetch_small, gate=gate,
            snap_refs=self._snapshot_refs(epoch), meta=self._done_meta(n_frontier, n_links),
        )
        return n_links

    def _content_flow(self, nb: int, img_metas, doc_metas,
                      img_parts, doc_parts, att_parts):
        """Content-dedup verdicts (D2/D3/D4, J2/J3) with NO round-sized state
        on the driver — the SeenShard pattern applied to content keys.

        Per content shard s (one fused ``gate_parts`` call per kind per
        round, the actor mailbox keeping kinds in the reference's probe
        order images → doc_id → doc_ori_no → attachments,
        DaoXlegalLawContentRecord.class.php:98-101):

          images  key = content md5   → keep-first winners        (D2/J2)
          docs    key = doc_id        → stage-2 task extracts the
                  surviving rows' namespaced doc_ori_no keys      (D4)
                  → stage-3 task merges the ori winners and feeds
                  the sim band shards; a per-block resolve task
                  applies the near-dup + doc_ori_no-override rule (D3/J3)
          attach  key = content md5   → keep-first winners

        Everything returned is an ObjectRef: per-block kept-image metas, the
        round's image near-dup annotation map, per-block doc keep-row
        arrays, and per-shard-per-block attachment winner rows.  The caller
        wires them straight into the finalize writers."""
        kc = self.content_seen.k
        img_w = self.content_seen.gate_round(img_parts)[1]
        doc_w = self.content_seen.gate_round(doc_parts)[1]
        surv, oparts = [None] * nb, [[None] * nb for _ in range(kc)]
        for b in range(nb):
            rets = _doc_stage2.options(num_returns=1 + kc).remote(
                doc_metas[b], kc, *[doc_w[s][b] for s in range(kc)]
            )
            surv[b] = rets[0]
            for s in range(kc):
                oparts[s][b] = rets[1 + s]
        ori_w = self.content_seen.gate_round(oparts)[1]
        att_w = self.content_seen.gate_round(att_parts)[1]
        sim_parts = [
            _doc_stage3.remote(surv[b], *[ori_w[s][b] for s in range(kc)])
            for b in range(nb)
        ]
        h = self.spec.doc_near_dup_hamming
        if h >= 0:
            band_hits = self.docsim.query_parts_refs(h, sim_parts)
            doc_keep = [
                _doc_resolve.remote(
                    sim_parts[b], *[band_hits[band][b] for band in range(len(band_hits))]
                )
                for b in range(nb)
            ]
        else:
            doc_keep = [_doc_resolve.remote(sim_parts[b]) for b in range(nb)]
        img_kept = [
            _img_kept.remote(img_metas[b], *[img_w[s][b] for s in range(kc)])
            for b in range(nb)
        ]
        dup_ref = _image_dup_task.remote(*img_kept)
        return img_kept, dup_ref, doc_keep, att_w

    def _drain_pending(self) -> None:
        """Finish the stashed epoch: gather its finalize writes and ledger
        walk, bless its sink dirs, commit its metrics row (an epoch that
        fetched nothing has none), write its snapshot, drop the done
        marker."""
        p = getattr(self, "_pending", None)
        if not p:
            return
        self._pending = None
        res = ray.get(p["writes"] + p["sched_futs"])
        for d in p["dirs"]:
            storage.mark_complete(d)
        if p["fetch_small"] is not None:
            metrics = _metrics_from_table(p["fetch_small"], int(sum(res[: p["n_img"]])),
                                          p["epoch"], *p["gate"])
            storage.commit_table(metrics, os.path.join(p["ed"], "metrics"))
        # the snapshot refs were submitted during the epoch (mailbox-ordered),
        # so this gather observes exactly that epoch's state; the snapshot
        # must land before the done marker for resume correctness
        _save_seen_snapshot(os.path.join(p["ed"], "seen.npz"), p["snap_refs"])
        _write_done(p["ed"], p["meta"])

    def _snapshot_refs(self, epoch: int) -> dict | None:
        """Submit the ``seen.npz`` payload's shard snapshots, or None off the
        ``snapshot_every`` cadence (resume re-enters at the last snapshotted
        epoch and deterministically re-crawls the rest)."""
        if epoch % max(1, self.spec.snapshot_every):
            return None
        return {
            "seen": self.seen.snapshot_refs(),
            "content": self.content_seen.snapshot_refs(),
            "hosts": self.sched.snapshot_refs(),
            "docsim": self.docsim.snapshot_refs(),
        }

    def _done_meta(self, rows: int, n_links: int) -> dict:
        """The ``_EPOCH_DONE`` payload — everything ``_resume_point`` reads."""
        return {"next_seq": self.next_seq, "fetched": self.fetched,
                "rows": rows, "links": n_links,
                "bytes_total": self.bytes_total,
                "content_found": self._content_found,
                "content_seq": self._content_seq,
                "anchor_url": self._anchor_url}

    def benchmarks(self) -> dict[str, float]:
        """A4 — whole-job phase decomposition: phase name → accumulated
        seconds across every round (getAllBenchmarks analog)."""
        return self.bench.all()

    def shutdown(self) -> None:
        """Kill the state actors and fetch workers (job-lifetime actors)."""
        self._drain_pending()
        self.state.shutdown()
        self.fetch_pool.shutdown()

    def summary(self) -> dict:
        metrics = self.metrics()
        return {
            "epochs": int(metrics.num_rows),
            "fetched": self.fetched,
            "next_seq": self.next_seq,
            "links_followed": int(pc.sum(metrics.column("links_followed")).as_py() or 0),
            "documents_received": int(pc.sum(metrics.column("documents_received")).as_py() or 0),
            "bytes_received": int(pc.sum(metrics.column("bytes_received")).as_py() or 0),
            "images_written": int(pc.sum(metrics.column("images_written")).as_py() or 0),
            "errors": int(pc.sum(metrics.column("errors")).as_py() or 0),
            "retries": int(pc.sum(metrics.column("retries")).as_py() or 0),
        }

    def metrics(self) -> pa.Table:
        parts = []
        for d in sorted(os.listdir(self.job_dir)):
            p = os.path.join(self.job_dir, d, "metrics")
            if d.startswith("epoch=") and os.path.isdir(p):
                parts.append(storage.load_table(p))
        if not parts:
            from ..schemas import METRICS

            return METRICS.empty_table()
        return pa.concat_tables(parts)

    def crawl_order(self) -> list[str]:
        """The engine's claimed total fetch order: per epoch, frontier rows in
        (priority desc, enqueue_seq asc) — the reference's pop order.

        Parity scope (SURVEY.md §7 hard part (a)): with uniform priorities the
        reference's single queue is exactly FIFO = BFS, and this order matches
        the simulator byte-for-byte (tested).  With priority *rules*, the
        reference pops a high-priority deep URL before exhausting shallow
        ones — so it can reach a URL deeper first and, at max_depth, not
        follow its links (rounds give each URL its shortest depth), and total
        order requires the driver-side lineage replay over the recorded link
        lists rather than epoch concatenation."""
        out: list[str] = []
        for d in sorted(os.listdir(self.job_dir)):
            p = os.path.join(self.job_dir, d, "frontier")
            if d.startswith("epoch=") and os.path.isdir(p):
                t = storage.load_table(p)
                if t.num_columns == 0 or t.num_rows == 0:
                    continue
                idx = pc.sort_indices(t, [("priority", "descending"), ("enqueue_seq", "ascending")])
                out.extend(t.column("url_md5").take(idx).to_pylist())
        return out


# ---------------------------------------------------------------------------
# block tasks for the distributed round

_FETCH_META_SCHEMA = pa.schema(
    [("status", pa.int16()), ("bytes_received", pa.int64()), ("error", pa.string()),
     ("attempts", pa.int16()), ("fetch_ms", pa.float64()), ("n_links", pa.int64()),
     ("url", pa.string()), ("enqueue_seq", pa.int64())]
)
_IMG_META_SCHEMA = pa.schema(
    [("enqueue_seq", pa.int64()), ("url_md5", pa.string()),
     ("image_id", pa.string()), ("phash", pa.int64())]
)
_DOC_META_SCHEMA = pa.schema(
    [("enqueue_seq", pa.int64()), ("doc_id", pa.string()), ("doc_ori_no", pa.string()),
     ("simhash", pa.int64())]
)
_ATT_META_SCHEMA = pa.schema([("enqueue_seq", pa.int64()), ("doc_id", pa.string())])


def _limit_arrow_threads(n: int = 2) -> None:
    """Every Ray worker process gets its own Arrow thread pool sized to ALL
    cores by default — dozens of single-CPU workers each spawning 32 Arrow
    threads oversubscribe the node during the fetch wave.  Cap it."""
    try:
        if pa.cpu_count() > n:
            pa.set_cpu_count(n)
            pa.set_io_thread_count(n)
    except Exception:
        pass


_COALESCE_ROWS = 4096  # target candidate rows per filter task


def _coalesce_groups(refs: list, n_hint: int | None) -> list[list]:
    """Contiguous groups of link-block refs sized so each filter task sees
    ~_COALESCE_ROWS candidate rows (rank order is preserved because groups
    are contiguous ranges of the already-ordered block list)."""
    if not n_hint or len(refs) <= 1:
        return [[r] for r in refs]
    target = max(1, -(-n_hint // _COALESCE_ROWS))  # ceil
    groups = np.array_split(np.arange(len(refs)), min(len(refs), target))
    return [[refs[i] for i in g] for g in groups if g.size]


_read_part = ray.remote(pq.read_table)


@ray.remote
def _noop() -> None:
    """Worker-pool warmup target (spawning task workers mid-crawl costs
    ~0.5 s on the first distributed round otherwise)."""


def _filter_and_split(spec: CrawlSpec, robots: dict, k: int, content_seq: int,
                      sched, *tables: pa.Table):
    """CandidateFilter + per-seen-shard key extraction over one coalesced
    group of link blocks — every round's filter, run in-process for a
    driver-sized round and as a ``_filter_extract`` task otherwise.  Returns
    the filtered block, cut to one row per ``url_md5``, followed by k
    ``gate_parts`` key parts whose ``dups`` count the rows cut here; concat,
    take and mask filter preserve (parent_seq, link_idx) order.  Downstream
    only ever reads a block's gate winners, and a key's winner can only be
    the row kept here.

    ``sched``: in lazy-robots mode, the ``SchedulePool`` whose partitions
    answer hosts → robots rules (fetched on first sight); falsy otherwise."""
    t = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
    filt = CandidateFilter(spec)
    filt.robots = robots
    if sched:
        filt.robots_lookup = sched.robots_for
    out = filt(t, content_seq=content_seq)
    # within-block dedup: one row per key — its min (parent_seq, link_idx),
    # so the result is independent of block order — and each distinct key's
    # hex → (hi, lo) decode once; the shard finishes the min across blocks
    enc = out.column("url_md5").combine_chunks().dictionary_encode()
    code = enc.indices.to_numpy(zero_copy_only=False)
    seq = np.asarray(out.column("parent_seq").to_numpy(zero_copy_only=False), dtype=np.int64)
    idx = np.asarray(out.column("link_idx").to_numpy(zero_copy_only=False), dtype=np.int64)
    order = np.lexsort((idx, seq, code))
    first = np.ones(order.size, dtype=bool)
    first[1:] = code[order[1:]] != code[order[:-1]]
    win = np.sort(order[first])
    hi, lo = md5hex_to_u64_pairs(enc.dictionary.to_pylist())
    wcode = code[win]
    dups = np.bincount(code, minlength=hi.size)[wcode] - 1
    parts = key_parts(hi[wcode], lo[wcode], seq[win], idx[win],
                      np.arange(win.size, dtype=np.int64), k, dups)
    return (out.take(pa.array(win)), *parts)


@ray.remote
def _filter_extract(*args):
    """``_filter_and_split`` as a task (``num_returns=1+k`` at the call
    site); Ray resolves the robots ObjectRef argument to its dict."""
    _limit_arrow_threads()
    return _filter_and_split(*args)


def _keep_rows(t: pa.Table, *winner_rows: np.ndarray) -> pa.Table:
    """The rows of ``t`` named by the per-shard winner row arrays, in table
    order."""
    mask = np.zeros(t.num_rows, dtype=bool)
    for w in winner_rows:
        mask[w] = True
    return t.filter(pa.array(mask))


def _merge_winner_blocks(k: int, *flat) -> pa.Table:
    """One table of a contiguous group of blocks' gate winners: ``flat``
    packs, per block, the filtered table followed by its k per-seen-shard
    winner row arrays.  Winner masks preserve row order, so the result is
    still in (parent_seq, link_idx) order — the driver-ranked round's one
    block, and (``_merge_winner_task``) a coalesced block-graph block."""
    return pa.concat_tables([_keep_rows(flat[i], *flat[i + 1:i + 1 + k])
                             for i in range(0, len(flat), k + 1)])


_merge_winner_task = ray.remote(_merge_winner_blocks)


def _level_counts(t: pa.Table, *winner_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's winner priority levels and the winner count at each — all
    the request budget needs to know of it (``_budget_quotas``)."""
    if winner_rows:
        t = _keep_rows(t, *winner_rows)
    prio = np.asarray(t.column("priority").to_numpy(zero_copy_only=False), dtype=np.int64)
    return np.unique(prio, return_counts=True)


_level_counts_task = ray.remote(_level_counts)


def _budget_quotas(levels: list, n_keep: int) -> tuple[list, np.ndarray]:
    """Request budget (A2): keep the round's top ``n_keep`` winners by
    (priority desc, enqueue_seq), the reference's pop order, from each
    block's ``_level_counts``.  Blocks hold disjoint ascending seq ranges,
    so the cut is one level L: every winner above L stays and L's winners
    fill the rest in block order.  Returns per block its ``_rank_block``
    quota ``(L, n)`` — the rows above L plus the first n at L — and its
    kept row count."""
    lv = np.concatenate([lvl for lvl, _ in levels])
    n = np.concatenate([c for _, c in levels])
    cut = max(v for v in lv if n[lv >= v].sum() >= n_keep)
    need = n_keep - int(n[lv > cut].sum())
    quotas, take = [], []
    for lvl, c in levels:
        q = min(int(c[lvl == cut].sum()), need)
        need -= q
        quotas.append((int(cut), q))
        take.append(int(c[lvl > cut].sum()) + q)
    return quotas, np.asarray(take, dtype=np.int64)


def _rank_block(t: pa.Table, offset: int, quota: tuple[int, int] | None,
                frontier_dir: str, part: int, p_sched: int,
                *winner_rows: np.ndarray) -> tuple:
    """Every round's rank step over one block of gate winners in
    (parent_seq, link_idx) order, in-process for a driver-ranked round and
    as ``_rank_sched_write_block`` tasks in the block graph: apply the
    winner rows, number every winner ``offset + arange`` (O1: a URL is
    numbered as it enters the queue), keep the rows the budget ``quota``
    names (None keeps all), write frontier part ``part``.  Returns the
    ranked block followed by its P hash(host) schedule parts."""
    if winner_rows:
        t = _keep_rows(t, *winner_rows)
    t = t.append_column("enqueue_seq", pa.array(np.arange(offset, offset + t.num_rows), pa.int64()))
    prio = np.asarray(t.column("priority").to_numpy(zero_copy_only=False), dtype=np.int64)
    if quota is not None:
        cut, n = quota
        at = prio == cut
        keep = (prio > cut) | (at & (np.cumsum(at) <= n))
        t, prio = t.filter(pa.array(keep)), prio[keep]
    pq.write_table(t, os.path.join(frontier_dir, f"part-{part:05d}.parquet"))
    return (t, *split_sched_parts(t.column("host").to_pylist(),
                                  t.column("enqueue_seq").to_numpy(), prio, p_sched))


_rank_sched_write_block = ray.remote(_rank_block)


_SPLIT_META = 8  # _split_project's returns before the 3*kc content key parts


def _split_project(out: pa.Table, kc: int) -> tuple:
    """Split a fetch-output table by kind and project it for the sinks —
    every round's split: ``_split_sink`` runs it per fetch batch,
    ``_local_tail`` once over a driver-ranked round's pooled output.
    Returns the fetch, image, doc and attachment metas, the full
    image/doc/attachment tables for the writers, the links table, then the
    metas' per-content-shard gate parts (kc image, kc doc, kc attachment),
    so the dedup verdicts never need the payload rows."""
    kinds = split_outputs(out)
    links = kinds["link"].select(_LINK_COLS)
    f = kinds["fetch"]
    fetch_meta = pa.table(
        {
            "status": f.column("status"),
            "bytes_received": f.column("bytes_received"),
            "error": f.column("error"),
            "attempts": f.column("attempts"),
            "fetch_ms": f.column("fetch_ms"),
            "n_links": pa.array([links.num_rows] + [0] * max(0, f.num_rows - 1), pa.int64())
            if f.num_rows
            else pa.array([], pa.int64()),
            "url": f.column("url"),
            "enqueue_seq": f.column("enqueue_seq"),
        },
        schema=_FETCH_META_SCHEMA,
    )
    images = _image_rows(kinds["image"])
    img_meta = images.select(["enqueue_seq", "url_md5", "image_id", "phash"]).cast(_IMG_META_SCHEMA)
    docs = _doc_rows(kinds["doc"])
    doc_meta = docs.select(["enqueue_seq", "doc_id", "doc_ori_no", "simhash"]).cast(_DOC_META_SCHEMA)
    atts = _att_rows(kinds["attach"])
    att_meta = atts.select(["enqueue_seq", "doc_id"]).cast(_ATT_META_SCHEMA)
    return (fetch_meta, img_meta, doc_meta, att_meta, images, docs, atts, links,
            *_content_key_parts(img_meta, "url_md5", kc),
            *_content_key_parts(doc_meta, "doc_id", kc),
            *_content_key_parts(att_meta, "doc_id", kc))


def _image_rows(t: pa.Table) -> pa.Table:
    """Project fused-output image rows to the IMAGES payload schema +
    content md5 as url_md5 for the content-seen gate."""
    if t.num_rows == 0:
        t = OUT_SCHEMA.empty_table()
    # md5 straight off the Arrow buffers — no per-payload bytes copy
    md5s = [hashlib.md5(s.as_buffer() if s.is_valid else b"").hexdigest()
            for s in t.column("image_bytes")]
    return pa.table(
        {
            "image_id": t.column("image_id"),
            "bytes": t.column("image_bytes"),
            "w": t.column("w"),
            "h": t.column("h"),
            "fmt": t.column("fmt"),
            "caption": t.column("caption"),
            "phash": t.column("phash"),
            "src_url": t.column("url"),
            "referer": t.column("referer"),
            "enqueue_seq": t.column("enqueue_seq"),
            "url_md5": pa.array(md5s, pa.string()),  # content hash for dedup gate
        }
    )


@ray.remote
def _split_sink(out: pa.Buffer, links_dir: str, part: int, kc: int):
    """``_split_project`` as a task over one fetch batch's wire buffer
    (``FetchWorker.process``; ``num_returns=_SPLIT_META + 3*kc`` at the
    call site) that also writes the batch's links checkpoint part; the next
    round consumes the links ref directly — no re-read."""
    _limit_arrow_threads()
    rets = _split_project(from_wire(out), kc)
    _write_part(rets[_SPLIT_META - 1], links_dir, part)
    return rets


def _content_key_parts(meta: pa.Table, key_col: str, k: int) -> list[dict]:
    """Per-content-shard ``gate_parts`` inputs from a meta block: the key
    column, enqueue_seq as the winner order, block row index."""
    seqs = np.asarray(
        meta.column("enqueue_seq").to_numpy(zero_copy_only=False), dtype=np.int64
    )
    rows = np.arange(meta.num_rows, dtype=np.int64)
    return key_parts(*md5hex_to_u64_pairs(meta.column(key_col).to_pylist()), seqs, rows, rows, k)


def _merge_winner_rows(winners) -> np.ndarray:
    """Ascending union of per-shard winner row arrays (ascending row index ⇒
    enqueue_seq order is preserved downstream)."""
    arrs = [np.asarray(w, dtype=np.int64) for w in winners if np.asarray(w).size]
    if not arrs:
        return np.zeros(0, dtype=np.int64)
    return np.sort(np.concatenate(arrs))


@ray.remote
def _doc_stage2(doc_meta: pa.Table, kc: int, *winners):
    """Apply the doc_id stage winners, then emit the surviving rows'
    namespaced doc_ori_no gate parts (D4: ``md5("no:"+n)`` so the official
    number key space cannot collide with content md5s).  Returns the
    survivor projection followed by kc ori parts (``num_returns=1+kc``)."""
    rows = _merge_winner_rows(winners)
    t = doc_meta.take(pa.array(rows, pa.int64()))
    ori = t.column("doc_ori_no").to_pylist()
    seqs = np.asarray(t.column("enqueue_seq").to_numpy(zero_copy_only=False), dtype=np.int64)
    has = np.fromiter((o != "" for o in ori), dtype=bool, count=len(ori))
    widx = np.nonzero(has)[0]
    keys = [hashlib.md5(("no:" + ori[i]).encode()).hexdigest() for i in widx]
    parts = key_parts(*md5hex_to_u64_pairs(keys), seqs[widx], rows[widx], rows[widx], kc)
    surv = {
        "row": rows, "seq": seqs, "has_ori": has,
        "sim": np.asarray(t.column("simhash").to_numpy(zero_copy_only=False), dtype=np.int64),
    }
    return (surv, *parts)


@ray.remote
def _doc_stage3(surv: dict, *ori_winners) -> dict:
    """Merge the ori-gate winners into the doc survivor set (a numbered doc
    must win its doc_ori_no gate; unnumbered docs pass) and emit the sim-gate
    part for the band shards."""
    wrows = _merge_winner_rows(ori_winners)
    mask = ~surv["has_ori"] | np.isin(surv["row"], wrows)
    return {
        "row": surv["row"][mask], "seq": surv["seq"][mask],
        "sim": surv["sim"][mask], "override": surv["has_ori"][mask],
    }


@ray.remote
def _doc_resolve(part: dict, *band_hits) -> np.ndarray:
    """J3: drop near-dups unless numbered (the doc_ori_no override) — a doc
    is a near-dup when ANY sim band reported a stored hit."""
    if not band_hits:
        return part["row"]
    h = np.stack([np.asarray(b, dtype=np.int64) for b in band_hits])
    is_dup = (h != -1).any(axis=0)
    return part["row"][~is_dup | part["override"]]


@ray.remote
def _img_kept(img_meta: pa.Table, *winners) -> dict:
    """Kept-image projection for the near-dup annotation + finalize write."""
    rows = _merge_winner_rows(winners)
    t = img_meta.take(pa.array(rows, pa.int64()))
    return {
        "row": rows,
        "id": t.column("image_id").to_pylist(),
        "phash": np.asarray(t.column("phash").to_numpy(zero_copy_only=False), dtype=np.int64),
        "seq": np.asarray(t.column("enqueue_seq").to_numpy(zero_copy_only=False), dtype=np.int64),
    }


@ray.remote
def _image_dup_task(*kept: dict) -> dict:
    """Round-level image near-dup ANNOTATION (D3 for the image sink): banded
    phash LSH over the round's kept images.  Per band bucket the earliest
    (min-seq) member is canonical; later members within hamming ≤ 8 of it
    map to it, multi-band hits resolving to the earliest canonical.  Blocks
    arrive in seq order so concatenation preserves it.  Pure within-round
    metadata → one task per round, never the driver; the cross-ROUND image
    dedup is the exact md5 content gate (images are annotated, not dropped,
    matching the sink's near_dup_of column contract)."""
    ids: list[str] = []
    for p in kept:
        ids.extend(p["id"])
    if not ids:
        return {}
    ph = np.concatenate([np.asarray(p["phash"], dtype=np.int64) for p in kept]).view(np.uint64)
    seqs = np.concatenate([np.asarray(p["seq"], dtype=np.int64) for p in kept])
    bands = hashing.simhash_bands(ph, 4)
    best_seq: dict[str, int] = {}
    best_id: dict[str, str] = {}
    for b in range(4):
        keys = bands[:, b]
        order = np.argsort(keys, kind="stable")  # stable: seq order per key
        bounds = np.nonzero(np.diff(keys[order]))[0] + 1
        for grp in np.split(order, bounds):
            if grp.size < 2:
                continue
            first = grp[0]
            d = hashing.hamming64(ph[grp[1:]], np.full(grp.size - 1, ph[first], dtype=np.uint64))
            fseq = int(seqs[first])
            for j in np.nonzero(d <= 8)[0]:
                i = ids[grp[1 + j]]
                if fseq < best_seq.get(i, np.iinfo(np.int64).max):
                    best_seq[i] = fseq
                    best_id[i] = ids[first]
    return best_id


def _write_part(t: pa.Table, out_dir: str, part: int) -> int:
    """Write ``t`` as sink part ``part`` unless it is empty (a zero-row
    sink dir holds only its ``_SUCCESS``); returns its row count."""
    if t.num_rows:
        pq.write_table(t, os.path.join(out_dir, f"part-{part:05d}.parquet"))
    return t.num_rows


@ray.remote
def _finalize_images(images: pa.Table, kept: dict, dup_map: dict, out_dir: str, part: int) -> int:
    """Write the block's kept images with the round's near-dup verdict
    column (``_image_dup_task``)."""
    t = images.take(pa.array(kept["row"], pa.int64()))
    col = pa.array([dup_map.get(i, "") for i in kept["id"]], pa.string())
    return _write_part(t.append_column("near_dup_of", col), out_dir, part)


@ray.remote
def _finalize_rows(t: pa.Table, out_dir: str, part: int, *winners) -> int:
    """Write the block rows selected by the (per-shard) winner row arrays."""
    rows = _merge_winner_rows(winners)
    return _write_part(_hydrate_spilled(t.take(pa.array(rows, pa.int64()))), out_dir, part)


def _hydrate_spilled(t: pa.Table) -> pa.Table:
    """O3 stream-to-file: rows whose payload was received to a spill file
    (``tmp_path`` set, ``bytes`` null) get the payload read back here — at
    the SINK, after dedup winner selection, one file at a time — so the
    fetch path never buffers an oversized body and losers are never read.
    Locality: spill files live where the fetch worker wrote them; single-node
    (and shared-scratch ``spill_dir``) reads them directly, a multi-node
    deployment points ``spill_dir`` at shared storage (CrawlSpec note).  A
    missing file keeps the row with null bytes — the path column still
    records where the payload was received."""
    if "tmp_path" not in t.column_names or "bytes" not in t.column_names or t.num_rows == 0:
        return t
    paths = t.column("tmp_path").to_pylist()
    if not any(paths):
        return t
    byts = t.column("bytes")
    vals = []
    for i, p in enumerate(paths):
        v = byts[i]
        if p and not v.is_valid:
            try:
                with open(p, "rb") as f:
                    vals.append(f.read())
            except OSError:
                vals.append(None)
        else:
            vals.append(v.as_py())
    idx = t.column_names.index("bytes")
    return t.set_column(idx, "bytes", pa.array(vals, byts.type))


def _att_rows(t: pa.Table) -> pa.Table:
    """Attachment payload rows (M11 attachment route): binary rides the
    fused output's image_bytes column."""
    if t.num_rows == 0:
        t = OUT_SCHEMA.empty_table()
    out = t.select(_ATT_COLS)
    return out.append_column("bytes", t.column("image_bytes"))


def _doc_rows(t: pa.Table) -> pa.Table:
    if t.num_rows == 0:
        t = OUT_SCHEMA.empty_table()
    out = t.select([c for c in _DOC_COLS if c != "url_md5"])
    # content-seen gate keys on url_md5; for docs the key is doc_id (D2)
    return out.append_column("url_md5", t.column("doc_id"))


def _metrics_from_table(fetch: pa.Table, n_images: int, epoch: int,
                        enqueued: int, deduped: int) -> pa.Table:
    """A1 counters from the (small) fetch-metric columns, driver-side, plus
    the seen gate's counts: ``enqueued`` winners (before the request budget)
    and ``deduped`` filter-passing rows that lost the gate (already seen, or
    a later duplicate within the round)."""
    from ..schemas import METRICS

    n = fetch.num_rows
    if n:
        status = fetch.column("status").to_numpy(zero_copy_only=False)
        b = np.nan_to_num(
            fetch.column("bytes_received").to_numpy(zero_copy_only=False).astype(np.float64)
        )
        err = np.array([e not in ("", None) for e in fetch.column("error").to_pylist()])
        att = fetch.column("attempts").to_numpy(zero_copy_only=False).astype(np.int64)
        fms = np.nan_to_num(
            fetch.column("fetch_ms").to_numpy(zero_copy_only=False).astype(np.float64)
        )
        vals = dict(
            links_followed=n, documents_received=int((status == 200).sum()),
            bytes_received=int(b.sum()), errors=int(err.sum()),
            retries=int((att - 1).sum()), fetch_ms_sum=float(fms.sum()),
        )
    else:
        vals = dict(links_followed=0, documents_received=0, bytes_received=0,
                    errors=0, retries=0, fetch_ms_sum=0.0)
    return pa.table(
        {
            "epoch": pa.array([epoch], pa.int32()),
            "partition": pa.array([0], pa.int32()),
            "links_followed": pa.array([vals["links_followed"]], pa.int64()),
            "documents_received": pa.array([vals["documents_received"]], pa.int64()),
            "bytes_received": pa.array([vals["bytes_received"]], pa.int64()),
            "errors": pa.array([vals["errors"]], pa.int64()),
            "retries": pa.array([vals["retries"]], pa.int64()),
            "fetch_ms_sum": pa.array([vals["fetch_ms_sum"]], pa.float64()),
            "images_written": pa.array([n_images], pa.int64()),
            "urls_enqueued": pa.array([enqueued], pa.int64()),
            "urls_deduped": pa.array([deduped], pa.int64()),
        },
        schema=METRICS,
    )


def _empty_links_table() -> pa.Table:
    return pa.schema(
        [
            ("url", pa.string()), ("link_raw", pa.string()), ("linktext", pa.string()),
            ("referer", pa.string()), ("depth", pa.int32()), ("is_redirect", pa.bool_()),
            ("parent_seq", pa.int64()), ("link_idx", pa.int32()),
        ]
    ).empty_table()


def _write_done(epoch_dir: str, meta: dict) -> None:
    tmp = os.path.join(epoch_dir, "_EPOCH_DONE.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(epoch_dir, "_EPOCH_DONE"))


def _save_seen_snapshot(path: str, refs: dict | None) -> None:
    """Gather ``CrawlJob._snapshot_refs`` and write them atomically; no-op
    for None (an epoch off the snapshot cadence)."""
    import pickle

    if refs is None:
        return
    hosts: dict[str, float] = {}
    for part in ray.get(refs["hosts"]):
        hosts.update(part)
    snaps = {"seen": ray.get(refs["seen"]), "content": ray.get(refs["content"]),
             "hosts": hosts, "docsim": ray.get(refs["docsim"])}
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump(snaps, f, protocol=4)
    os.replace(tmp, path)


def _load_seen_snapshot(path: str) -> dict:
    import pickle

    with open(path, "rb") as f:
        return pickle.load(f)
