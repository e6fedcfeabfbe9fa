"""The crawl round driver — iterative BFS over Dataset rounds with
per-epoch checkpointing (SURVEY.md §3 "Ray-Data restatement").

Each round (epoch) is one body, ``CrawlJob._round``:

  link blocks ─ _filter_and_split              canonicalize+filter (M1-M3, M8, O2,
                (fused filter + key split)       T5) once per distinct URL; block
                                                 cut to its min-rank row per key
                                                 + per-seen-shard key parts
              ─ seen-shard gate_parts          within-round dedup D1 across
                (one fused call per shard)       blocks + cross-round gate T1,
                                                 deterministic min-rank
                                                 winners; only COUNTS hit the driver
              ─ _rank_block per rank unit      every winner numbered offset +
                (no sort: blocks arrive in       arange (O1) — link blocks are
                rank order by construction)      emitted in (parent_seq, link_idx)
                                                 order; the request budget A2 keeps
                                                 the top winners by (priority desc,
                                                 enqueue_seq) from per-unit counts
              ─ politeness partitions          per-host crawl-delay schedule (T7),
                (hash(host) partitions)          ledger walk off the driver
              ─ persistent fetch pool          fused fetch+extract — bodies never
                (plasma-shared page store)       leave the worker; each batch's
                                                 output returns as one Arrow
                                                 IPC buffer (stages/fetchpool.py)
              ─ _split_links                   links checkpoint + forward refs;
                                                 per-shard content-key parts
              ─ content-shard gate_parts +     content dedup D2/D3/D4 + J3 sim
                sim band shards                  gate — sharded like the URL-seen
                (_doc_stage2, _doc_stage3        set; 3 tasks per block, 1 per
                per block, _image_dup_task       round; winner rows travel by ref
                per round)
              ─ _finalize_block tasks          one per block: images (with
                (deferred)                       near_dup_of), docs after the J3
                                                 resolve, attachments; the writes
                                                 overlap the next round

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
chains).  Each step above is written once, and round size only picks whether
the filter, rank and split run as a plain call on one block or as a task per
block.  A round of at most ``spec.local_round_threshold`` candidates is
filtered in-process on the driver (no task hop), a larger one in a
``_filter_extract`` task per coalesced group.  A gate that leaves at most
that many winners makes a driver-ranked round: its winners are merged into
one rank unit, ranked in-process, fetched by the pool as one block and split
once, in-process, over the pooled output.  A larger one runs as the block
graph — a ``_rank_sched_write_block`` task per rank unit, a ``_split_sink``
task per fetch batch as it lands — whose scheduling cost only pays off at
size.  Every round fetches on the pool, so the workers' client state
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
            warm_dir, 0, kc, to_wire(OUT_SCHEMA.empty_table())
        )
        wb = _finalize_block.remote(ws[4], ws[5], ws[6], {}, (warm_dir,) * 3, 0, kc,
                                    {"row": np.zeros(0, np.int64)})
        ray.get([wf[0], wm, wr[0], wb])
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
        matter how many workers exist) — target ``_BATCHES_PER_WORKER``
        batches per worker so the depth-2 stealing queue stays non-empty."""
        return max(16, min(self.spec.fetch_batch_size,
                           -(-n // (_BATCHES_PER_WORKER * self.fetch_pool.k))))

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

    def _resume_point(self) -> tuple[int, list, int | None]:
        done = sorted(
            int(d.split("=")[1])
            for d in os.listdir(self.job_dir)
            if d.startswith("epoch=")
            and os.path.isfile(os.path.join(self.job_dir, d, "_EPOCH_DONE"))
            and os.path.isfile(os.path.join(self.job_dir, d, "seen.npz"))
        )
        if not done:
            return 0, [self._seed_table()], self.seeds.num_rows
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
        """One round: candidate filter, seen gate, rank, fetch, split, then
        ``_sink_round`` (or ``_empty_round``), which finishes the PREVIOUS
        epoch and leaves this one to the next drain.

        Each step is written once; round size only picks whether it runs as
        a plain call on one block or as a task per block.  A round of at
        most ``local_round_threshold`` candidates is filtered in-process as
        one block (unless the previous round already speculated its filter
        tasks), a larger one in a ``_filter_extract`` task per coalesced
        group.  A gate that leaves at most that many winners makes a
        driver-ranked round: one rank unit (``_rank_groups``), merged and
        ranked in-process, fetched by the pool as one block and split once
        over the pooled output.  A larger one runs the block graph: a rank
        task per unit, a ``_split_sink`` task per fetch batch as it lands
        and, once content is found, the next round's filter speculated on
        each batch's links.  Either way every winner is numbered before the
        request budget keeps its top rows.

        ``candidates`` is a list of link blocks in (parent_seq, link_idx)
        order, each a Table or an ObjectRef: the seeds, the previous round's
        links (the block graph's stay in the object store — no re-read) or
        the resumed epoch's links parts.  A bare Table is one block."""
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
        if isinstance(candidates, pa.Table):
            candidates = [candidates]
        k, P, kc = self.seen.k, self.sched.p, self.content_seen.k
        small = n_hint is not None and n_hint <= spec.local_round_threshold
        # filter: per block, the filtered rows followed by k seen-key parts
        pf, self._prefilter = self._prefilter, None
        if pf is not None and pf["links"] is candidates:
            # the previous round speculated these filter tasks against its
            # in-flight link refs — they are done (or finishing) by now
            filt = pf["filt"]
        elif small:
            tables = [t for t in _gather(candidates) if t.num_rows] or [_empty_links_table()]
            filt = [_filter_and_split(spec, self.robots, k, self._content_seq,
                                      self._lazy_robots, *tables)]
        else:
            filt = [_filter_extract.options(num_returns=1 + k).remote(
                        spec, self.robots_ref, k, self._content_seq, self._lazy_robots, *grp)
                    for grp in _coalesce_groups(candidates, n_hint)]
        if not filt:
            return self._empty_round(epoch, ed)
        # each seen shard answers the whole round in ONE gate_parts call,
        # returning only per-block counts to the driver while the winner row
        # arrays stay in the object store
        counts_refs, wins = self.seen.gate_round([[f[1 + s] for f in filt] for s in range(k)])
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

        def step(fn, task, *args, n: int = 1):
            # one rank step on one unit: in-process, or as its task twin
            return fn(*args) if local else task.options(num_returns=n).remote(*args)

        # rank units (_rank_groups): a lone block-graph block keeps its
        # per-shard winner rows; any other group's winners are merged into
        # one block, so a driver-ranked round ranks one merged block
        groups = _rank_groups(counts, local)
        units = []
        for g in groups:
            flat = [x for b in g for x in (filt[b][0], *[wins[s][b] for s in range(k)])]
            if local:
                flat = _gather(flat)
            units.append([step(_merge_winner_blocks, _merge_winner_task, k, *flat)]
                         if local or len(g) > 1 else flat)
        # blocks hold disjoint ascending (parent_seq, link_idx) ranges, so a
        # unit's winners are numbered from seq0 plus the winners before it
        take = np.array([int(counts[g].sum()) for g in groups], dtype=np.int64)
        offsets = seq0 + np.concatenate([[0], np.cumsum(take)[:-1]])
        quotas = [None] * len(units)
        if n_frontier < n_win:
            quotas, take = _budget_quotas(
                _gather([step(_level_counts, _level_counts_task, *u) for u in units]), n_frontier)
        frontier_dir = os.path.join(ed, "frontier")
        os.makedirs(frontier_dir, exist_ok=True)
        sel = np.nonzero(take)[0]
        ranked = [step(_rank_block, _rank_sched_write_block, units[i][0], int(offsets[i]),
                       quotas[i], frontier_dir, part, P, *units[i][1:], n=1 + P)
                  for part, i in enumerate(sel)]
        # politeness ledger (T7): hash(host)-partitioned shard walk over the
        # rank units' schedule parts; futures drain with the other deferred
        # sinks (actor mailboxes keep rounds ordered, so the next round may
        # queue behind this one safely)
        sched_futs = self.sched.schedule_round(os.path.join(ed, "schedule"),
                                               bool(spec.priority_rules), [r[1:] for r in ranked])
        self._mark("tail_collapse" if local else "rank+sched_launch")

        # fetch+extract on the persistent pool (work-stealing dispatch), then
        # the split.  The block graph splits each batch in a _split_sink task
        # as it lands, so the sink wave pipelines inside the fetch wave, and
        # speculates the NEXT round's filter on the batch's links: pure tasks
        # hiding under the wave on the otherwise-idle task CPUs (r5: filters
        # launched after the wave left a 5.4 s gate_counts wait at the next
        # round's head).  M9: never speculate while redirect-only may apply.
        # A driver-ranked round splits once, in-process, over the pooled output.
        links_dir = os.path.join(ed, "links")
        os.makedirs(links_dir, exist_ok=True)
        speculate = self._content_found and not local
        batch_splits, batch_filt = {}, {}

        def on_done(i: int, ref) -> None:
            rets = batch_splits[i] = _split_sink.options(
                num_returns=_SPLIT_META + 3 * kc).remote(links_dir, i, kc, ref)
            if speculate:
                batch_filt[i] = _filter_extract.options(num_returns=1 + k).remote(
                    spec, self.robots_ref, k, -1, self._lazy_robots, rets[_SPLIT_META - 1])

        fronts = [ray.put(r[0].select(FRONTIER_COLS)) if local else r[0] for r in ranked]
        out = self.fetch_pool.submit(fronts, [int(take[i]) for i in sel],
                                     self._batch_size(n_frontier),
                                     on_done=None if local else on_done)
        splits = ([_split_links(links_dir, 0, kc, *ray.get(out))] if local
                  else [batch_splits[i] for i in range(len(out))])
        links = [s[_SPLIT_META - 1] for s in splits]
        if speculate:
            self._prefilter = {"links": links, "filt": [batch_filt[i] for i in range(len(out))]}
        return n_frontier, links, self._sink_round(epoch, ed, splits, gate, sched_futs,
                                                   n_frontier)

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

    def _sink_round(self, epoch: int, ed: str, splits: list, gate: tuple[int, int],
                    sched_futs: list, n_frontier: int) -> int:
        """Every fetched round's tail, from the split on: the content flow,
        the previous epoch's drain, one ``_finalize_block`` task per fetched
        block (its images, docs and attachments), and the stash its own
        drain finishes (metrics, snapshot, done marker) while the next round
        filters and gates.  ``splits`` holds the ``_split_links`` returns
        per fetched block: ``_split_sink`` refs per batch in the block graph,
        the driver-ranked round's one in-process tuple.  Counts the round's
        fetches and bytes and returns its link count."""
        fetch_small = pa.concat_tables(_gather([s[0] for s in splits]))
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
        cols = list(zip(*splits))
        # content dedup verdicts (D2/D3/D4, J2/J3) — sharded off the driver:
        # key parts flow split → content shard → finalize by ref; the driver
        # only wires the task graph (no verdict rows, no barrier)
        dup_ref, verdicts = self._content_flow(
            cols[1], cols[2], *[cols[_SPLIT_META + i * kc:_SPLIT_META + (i + 1) * kc]
                                for i in range(3)]
        )
        dirs = tuple(os.path.join(ed, name) for name in ("images", "docs", "attachments"))
        for d in dirs:
            os.makedirs(d, exist_ok=True)
        # the previous epoch's deferred writes have had this whole round to
        # finish — drain them now, BEFORE stashing ours (done markers must
        # land in epoch order for resume correctness)
        self._drain_pending()
        writes = [_finalize_block.remote(*payload, dup_ref, dirs, b, kc, *verdicts[b])
                  for b, payload in enumerate(zip(*cols[4:7]))]

        # state snapshots are SUBMITTED now (actor mailboxes pin them to
        # exactly this epoch's position) but GATHERED in the next round's
        # drain — the payload writes + metrics + done marker defer the same
        # way, so nothing verdict-shaped blocks this round
        self._pending = dict(
            ed=ed, epoch=epoch, writes=writes, sched_futs=sched_futs,
            dirs=[*dirs, os.path.join(ed, "schedule")], fetch_small=fetch_small, gate=gate,
            snap_refs=self._snapshot_refs(epoch), meta=self._done_meta(n_frontier, n_links),
        )
        # the mark closes the round: only the return to run() is unmarked
        self._mark("sinks")
        return n_links

    def _content_flow(self, img_metas, doc_metas, img_parts, doc_parts, att_parts):
        """Content-dedup verdicts (D2/D3/D4, J2/J3) with NO round-sized state
        on the driver — the SeenShard pattern applied to content keys.

        Per content shard s (one fused ``gate_parts`` call per kind per
        round, the actor mailbox keeping kinds in the reference's probe
        order images → doc_id → doc_ori_no → attachments,
        DaoXlegalLawContentRecord.class.php:98-101):

          images  key = content md5   → keep-first winners        (D2/J2)
                  → one ``_image_dup_task`` per round annotates
                  near-dups among the round's winners
          docs    key = doc_id        → stage-2 task extracts the
                  surviving rows' namespaced doc_ori_no keys      (D4)
                  → stage-3 task merges the ori winners and feeds
                  the sim band shards; ``_finalize_block`` applies
                  the near-dup + doc_ori_no-override rule        (D3/J3)
          attach  key = content md5   → keep-first winners

        ``*_metas`` are per block, ``*_parts`` per shard then block.
        Returns the round's image near-dup map ref and, per block, the
        ``_finalize_block`` verdict args: its stage-3 doc part, kc image
        winner refs, kc attachment winner refs, then its sim band hit refs
        (none when J3 is off).  Three tasks per block and one per round;
        the driver only wires the graph."""
        kc, nb = self.content_seen.k, len(img_metas)
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
        band_hits = self.docsim.query_parts_refs(h, sim_parts) if h >= 0 else []
        dup_ref = _image_dup_task.remote(
            kc, *[x for b in range(nb) for x in (img_metas[b], *[img_w[s][b] for s in range(kc)])]
        )
        verdicts = [(sim_parts[b], *[w[b] for w in (*img_w, *att_w, *band_hits)])
                    for b in range(nb)]
        return dup_ref, verdicts

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
            metrics = _metrics_from_table(p["fetch_small"], int(sum(res[:len(p["writes"])])),
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
# adaptive fetch batch sizing targets this many batches per pool worker on
# sub-cap rounds; at 2, the depth-2 work-stealing queue is fully drained by
# the initial fill (nothing left to steal — a straggler's second batch can't
# migrate), so 4 keeps half the round stealable
_BATCHES_PER_WORKER = 4


def _coalesce_groups(refs: list, n_hint: int | None) -> list[list]:
    """Contiguous groups of link-block refs sized so each filter task sees
    ~_COALESCE_ROWS candidate rows (rank order is preserved because groups
    are contiguous ranges of the already-ordered block list)."""
    if not n_hint or len(refs) <= 1:
        return [[r] for r in refs]
    target = max(1, -(-n_hint // _COALESCE_ROWS))  # ceil
    groups = np.array_split(np.arange(len(refs)), min(len(refs), target))
    return [[refs[i] for i in g] for g in groups if g.size]


def _rank_groups(counts: np.ndarray, one: bool) -> list[list[int]]:
    """A round's rank units: contiguous groups, in block order, of the
    blocks whose gate ``counts`` are non-zero, each block in exactly one.
    A driver-ranked round (``one``) is one group.  The block graph ranks
    each block alone unless a dedup-heavy gate after a huge round left many
    tiny winner blocks (r5 profile: 9,841 winners across 1,220 blocks ≈
    8/block — each its own rank task and a sub-minimum fetch batch); then
    consecutive blocks group up to ``_COALESCE_ROWS`` winners or 32 blocks.
    Contiguous groups keep (parent_seq, link_idx) order, so rank order is
    preserved."""
    live = [int(b) for b in np.nonzero(counts)[0]]
    if one:
        return [live]
    if len(live) <= 2 * max(1, -(-int(counts.sum()) // _COALESCE_ROWS)):
        return [[b] for b in live]
    groups, cur, acc = [], [], 0
    for b in live:
        cur.append(b)
        acc += int(counts[b])
        if acc >= _COALESCE_ROWS or len(cur) >= 32:
            groups.append(cur)
            cur, acc = [], 0
    return groups + [cur] if cur else groups


def _gather(xs: list) -> list:
    """``xs`` with each ObjectRef replaced by its value (one batched get);
    other items pass through."""
    got = iter(ray.get([x for x in xs if isinstance(x, ray.ObjectRef)]))
    return [next(got) if isinstance(x, ray.ObjectRef) else x for x in xs]


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
    still in (parent_seq, link_idx) order: the one block of a rank unit of
    several blocks (``_rank_groups``) or of a driver-ranked round."""
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
    """Every round's rank step over one rank unit of gate winners in
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
    """Split a fetch-output table by kind and project it for the sinks
    (``_split_links``).  Returns the fetch, image, doc and attachment metas, the full
    image/doc/attachment tables for ``_finalize_block`` as ``to_wire``
    buffers (one blob each through Ray, not its per-column ``pa.Table``
    reducer), the links table, then the metas' per-content-shard gate parts
    (kc image, kc doc, kc attachment), so the dedup verdicts never need the
    payload rows."""
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
    return (fetch_meta, img_meta, doc_meta, att_meta,
            to_wire(images), to_wire(docs), to_wire(atts), links,
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


def _split_links(links_dir: str, part: int, kc: int, *bufs: pa.Buffer) -> tuple:
    """Every round's split: ``_split_project`` over the fetch-output wire
    buffers ``bufs`` (``FetchWorker.process``), writing the links as
    checkpoint part ``part``.  A driver-ranked round calls it once over its
    pooled output; the block graph runs it as a ``_split_sink`` task per
    fetch batch, whose links ref the next round consumes — no re-read."""
    rets = _split_project(from_wire(*bufs), kc)
    _write_part(rets[_SPLIT_META - 1], links_dir, part)
    return rets


@ray.remote
def _split_sink(*args):
    """``_split_links`` as a task (``num_returns=_SPLIT_META + 3*kc`` at
    the call site)."""
    _limit_arrow_threads()
    return _split_links(*args)


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


def _doc_resolve(part: dict, *band_hits) -> np.ndarray:
    """J3: the doc rows ``_finalize_block`` writes — near-dups are dropped
    unless numbered (the doc_ori_no override); a doc is a near-dup when ANY
    sim band reported a stored hit."""
    if not band_hits:
        return part["row"]
    h = np.stack([np.asarray(b, dtype=np.int64) for b in band_hits])
    is_dup = (h != -1).any(axis=0)
    return part["row"][~is_dup | part["override"]]


@ray.remote
def _image_dup_task(kc: int, *flat) -> dict:
    """Round-level image near-dup ANNOTATION (D3 for the image sink): banded
    phash LSH over the round's kept images.  ``flat`` packs, per block in
    seq order, its image metas followed by its kc content-gate winner row
    arrays (``_merge_winner_blocks``), so the kept rows concatenate in seq
    order.  Per band bucket the earliest (min-seq) member is canonical;
    later members within hamming ≤ 8 of it map to it, multi-band hits
    resolving to the earliest canonical.  Pure within-round metadata → one
    task per round, never the driver; the cross-ROUND image dedup is the
    exact md5 content gate (images are annotated, not dropped, matching the
    sink's near_dup_of column contract)."""
    kept = _merge_winner_blocks(kc, *flat)
    if not kept.num_rows:
        return {}
    ids = kept.column("image_id").to_pylist()
    ph = np.asarray(kept.column("phash").to_numpy(zero_copy_only=False), dtype=np.int64).view(np.uint64)
    seqs = np.asarray(kept.column("enqueue_seq").to_numpy(zero_copy_only=False), dtype=np.int64)
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
def _finalize_block(images: pa.Buffer, docs: pa.Buffer, atts: pa.Buffer, dup_map: dict,
                    dirs: tuple, part: int, kc: int, doc_part: dict, *winners) -> int:
    """One fetched block's sink tail, the reference's per-document sink
    (DaoXlegalLawContentRecord.class.php:98-101) over a block: write the
    content-gate winning images with the round's ``near_dup_of``
    (``_image_dup_task``), the docs the J3 resolve keeps (``_doc_resolve``
    over the stage-3 ``doc_part``) and the winning attachments, each as
    part ``part`` of its ``dirs`` entry (images, docs, attachments).  The
    payloads are ``_split_project``'s wire buffers; ``winners`` packs the
    kc image winner row arrays, the kc attachment ones, then the block's
    sim band hits.  Returns the block's image count for the metrics row."""
    t = from_wire(images).take(pa.array(_merge_winner_rows(winners[:kc]), pa.int64()))
    col = pa.array([dup_map.get(i, "") for i in t.column("image_id").to_pylist()], pa.string())
    n_img = _write_part(t.append_column("near_dup_of", col), dirs[0], part)
    for buf, rows, d in ((docs, _doc_resolve(doc_part, *winners[2 * kc:]), dirs[1]),
                         (atts, _merge_winner_rows(winners[kc:2 * kc]), dirs[2])):
        _write_part(_hydrate_spilled(from_wire(buf).take(pa.array(rows, pa.int64()))), d, part)
    return n_img


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
