"""Per-host politeness scheduling (T7 upgraded per the north_rule).

The reference serializes ALL requests behind one global last-request-time
with a spin-wait (PHPCrawler.class.php:906-925, 5 s default) — ≤0.2 req/s for
the whole job.  The north_rule upgrades this to per-host budgets: each host h
has a crawl delay d(h) (robots crawl-delay when present, else the spec
default), and fetches against h must be spaced ≥ d(h) apart while different
hosts proceed independently.

Deterministic virtual-clock formulation (recorded, replayable): walk the
round's frontier in pop order (priority desc, enqueue_seq asc); row i on host
h gets

    sched_ms[i] = max(clock[h], round_t0) + d(h);  clock[h] = sched_ms[i]

``clock`` persists across rounds (part of the epoch checkpoint), so budgets
carry over crawl-round boundaries exactly like the reference's global
timestamp carries over documents.  The schedule is a *budget ledger*: the
synthetic fetcher doesn't sleep (the sandbox has no wire), but the ledger is
what a production fetch worker would sleep against, and the recorded values
make politeness auditable (`assert_polite`) and replay-deterministic
(north_rule lineage).

Scale note: the ledger walk is hash(host)-partitioned (``ScheduleShard``
partitions, partition p on state actor ``p % n`` beside partition p of the
seen tables and the sim bands, ``state/pool.py``): each rank task splits its
block's (host, seq, priority) triples by ``host_shard``, and each partition
concatenates its parts, sorts them into pop order, walks ONLY its own hosts'
clocks and writes its schedule part directly to the epoch sink.  A host
never spans partitions, so the per-partition walk is exact, no per-row data
ever crosses the driver, and the actor mailbox serializes rounds — the next
round's call simply queues behind the current one (no driver barrier).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import ray

from ..state.pool import Partitioned, StatePool


class HostClock:
    """The per-host virtual-time ledger (driver/partition-local state)."""

    def __init__(self, default_delay_ms: float = 0.0, robots: dict | None = None):
        self.default_delay_ms = default_delay_ms
        self.robots = robots or {}
        self.clock: dict[str, float] = {}

    def delay_of(self, host: str) -> float:
        r = self.robots.get(host)
        if r and r.get("delay_ms", 0):
            return float(r["delay_ms"])
        return self.default_delay_ms

    def schedule(self, hosts: list[str], round_t0: float = 0.0) -> np.ndarray:
        """sched_ms for rows already in pop order; mutates the ledger."""
        out = np.empty(len(hosts), dtype=np.float64)
        clock = self.clock
        for i, h in enumerate(hosts):
            t = max(clock.get(h, 0.0), round_t0) + self.delay_of(h)
            clock[h] = t
            out[i] = t
        return out

    def snapshot(self) -> dict[str, float]:
        return dict(self.clock)

    def restore(self, snap: dict[str, float]) -> None:
        self.clock = dict(snap)


def schedule_table(hosts: list[str], seqs: list[int], clock: HostClock,
                   round_t0: float = 0.0) -> pa.Table:
    """(enqueue_seq, host, sched_ms) sidecar rows for an epoch checkpoint."""
    sched = clock.schedule(hosts, round_t0)
    return pa.table(
        {
            "enqueue_seq": pa.array(seqs, pa.int64()),
            "host": pa.array(hosts, pa.string()),
            "sched_ms": pa.array(sched, pa.float64()),
        }
    )


def host_shard(host: str, p: int) -> int:
    """Stable shard index for a host (md5 top 32 bits mod P) — every rank
    step splits by it, in-process or as a task, so a host never spans
    shards."""
    return int(hashlib.md5(host.encode()).hexdigest()[:8], 16) % p


def split_sched_parts(hosts: list[str], seqs, prios, p: int) -> list[tuple]:
    """Partition a block's (host, seq, prio) triples into P shard parts."""
    seqs = np.asarray(seqs, dtype=np.int64)
    prios = np.asarray(prios, dtype=np.int64)
    sh = np.fromiter((host_shard(h, p) for h in hosts), dtype=np.int64, count=len(hosts))
    out = []
    for s in range(p):
        rows = np.nonzero(sh == s)[0]
        out.append(([hosts[i] for i in rows], seqs[rows], prios[rows]))
    return out


class ScheduleShard:
    """One politeness partition: owns the clocks for hosts with
    ``host_shard(h, P) == p``.  ``schedule_parts`` is the per-round ledger
    walk; the hosting actor's mailbox serializes rounds so callers never
    barrier on it (T7 at north_rule scale — the driver gather this replaces
    was O(round)).
    """

    def __init__(self, shard_id: int, default_delay_ms: float, robots: dict,
                 fetch_ctx: tuple | None = None, robots_ttl_s: float | None = None):
        self.shard_id = shard_id
        # the shard OWNS its hosts' robots dict — Crawl-delay updates land
        # exactly where the delay is enforced (the ledger walk below)
        self.clock = HostClock(default_delay_ms, dict(robots))
        self._fetch_ctx = fetch_ctx
        self._fetcher = None
        self._robots_ts: dict[str, float] = {}
        self.robots_ttl_s = robots_ttl_s

    # -- lazy per-host robots (S4 at north_rule scale) ----------------------
    def robots_for(self, hostports: list[tuple[str, int]]) -> dict[str, dict]:
        """Rules per host for ``(host, port)`` origins, fetching+parsing the
        origin's robots.txt (``fetch.fetch_robots``) the first time a host
        is seen (and again after ``robots_ttl_s``).  The shard also owns
        these hosts' politeness clocks (same hash), so a Crawl-delay takes
        effect for the host's very first scheduled round."""
        import time as _time

        out: dict[str, dict] = {}
        for h, port in dict.fromkeys(hostports):
            now = _time.time()
            ts = self._robots_ts.get(h)
            if ts is None or (self.robots_ttl_s is not None and now - ts > self.robots_ttl_s):
                self._robots_ts[h] = now
                from .fetch import fetch_robots, make_fetcher

                if self._fetcher is None:
                    self._fetcher = make_fetcher(*self._fetch_ctx)
                rules = fetch_robots(self._fetcher, h, port)
                if rules:
                    self.clock.robots[h] = rules
                else:
                    self.clock.robots.pop(h, None)
            r = self.clock.robots.get(h)
            if r:
                out[h] = r
        return out

    def schedule_parts(self, out_path: str, use_priority: bool, *parts) -> int:
        """Concatenate this shard's parts (one per block, already in seq
        order), sort into pop order, walk the ledger, write the schedule
        part.  Returns rows written."""
        hosts: list[str] = []
        seqs_l, prios_l = [], []
        for h, s, q in parts:
            hosts.extend(h)
            seqs_l.append(s)
            prios_l.append(q)
        if not hosts:
            return 0
        seqs = np.concatenate(seqs_l)
        prios = np.concatenate(prios_l)
        order = np.lexsort((seqs, -prios)) if use_priority else np.argsort(seqs, kind="stable")
        hosts = [hosts[i] for i in order]
        seqs = seqs[order]
        sched = self.clock.schedule(hosts)
        t = pa.table({
            "enqueue_seq": pa.array(seqs, pa.int64()),
            "host": pa.array(hosts, pa.string()),
            "sched_ms": pa.array(sched, pa.float64()),
        })
        import pyarrow.parquet as pq

        os.makedirs(out_path, exist_ok=True)
        pq.write_table(t, os.path.join(out_path, f"part-{self.shard_id:05d}.parquet"))
        return t.num_rows

    def snapshot(self) -> dict[str, float]:
        return self.clock.snapshot()

    def restore(self, snap: dict[str, float], p: int) -> None:
        self.clock.restore(
            {h: v for h, v in snap.items() if host_shard(h, p) == self.shard_id}
        )


class SchedulePool(Partitioned):
    """Driver facade over P ``ScheduleShard`` partitions, held under
    ``"sched"`` on the state actors of ``pool`` (its own pool when None)."""

    def __init__(self, p: int, default_delay_ms: float, robots: dict,
                 fetch_ctx: tuple | None = None, robots_ttl_s: float | None = None,
                 pool: StatePool | None = None):
        self.p = p
        super().__init__("sched", ScheduleShard, [
            (i, default_delay_ms, robots, fetch_ctx, robots_ttl_s) for i in range(p)
        ], pool)

    def schedule_round(self, out_path: str, use_priority: bool,
                       part_matrix: list[list]) -> list:
        """``part_matrix[b][p]`` = (refs to) block b's part for shard p.
        Returns one future per shard; callers may defer the gather — actor
        mailboxes keep rounds ordered."""
        return [self._call(s, "schedule_parts", out_path, use_priority,
                           *[row[s] for row in part_matrix])
                for s in range(self.p)]

    def robots_for(self, hostports: list[tuple[str, int]]) -> dict[str, dict]:
        """Robots rules per host for ``(host, port)`` origins, each asked of
        the partition that owns the host (``ScheduleShard.robots_for``:
        fetched on first sight)."""
        futs = []
        for s in range(self.p):
            hs = [hp for hp in hostports if host_shard(hp[0], self.p) == s]
            if hs:
                futs.append(self._call(s, "robots_for", hs))
        merged: dict = {}
        for d in ray.get(futs):
            merged.update(d)
        return merged

    def snapshot_refs(self) -> list:
        """Mailbox-pinned snapshot submission (see SeenSet.snapshot_refs);
        the caller merges the per-shard dicts when it gathers."""
        return self._each("snapshot")

    def restore(self, snap: dict[str, float]) -> None:
        ray.get(self._each("restore", snap, self.p))


def assert_polite(tables: list[pa.Table], clock: HostClock) -> None:
    """Audit: within each host, consecutive scheduled fetches are spaced by at
    least the host's delay (raises AssertionError otherwise)."""
    if not tables:
        return
    t = pa.concat_tables(tables)
    if t.num_rows == 0:
        return
    import pandas as pd

    df = t.to_pandas().sort_values(["host", "sched_ms"], kind="stable")
    for host, g in df.groupby("host", sort=False):
        d = clock.delay_of(host)
        if d <= 0 or len(g) < 2:
            continue
        gaps = np.diff(g["sched_ms"].to_numpy())
        assert (gaps >= d - 1e-6).all(), f"politeness violated for {host}"
