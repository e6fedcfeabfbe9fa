"""Journey / reporting analytics over the events and orders tables —
graph ranking, funnel and retention measurement, CUBE reporting, global
rank assignment (ntile), Pareto frontiers, and per-partition output
checksums.

Every operator here is an exact distributed algorithm with a bit-exact
DuckDB replay (see ``__ray_entry__.oracle_sql``):

- floats never enter an aggregation — money is int64 cents
  (``np.rint(x*100)``, the corpus-proven round rule), timestamps are
  epoch-microsecond int64, and PageRank runs in scaled-integer arithmetic
  (floor divisions only) so three iterations replay as three unrolled
  HUGEINT CTE stages;
- the heavy work (transition extraction, funnel chaining, retention
  self-match, rank assignment) is the sessionize coarse-partition shape:
  one ``co_partition`` exchange on the key, then pure-numpy segmented
  kernels inside each partition — no per-key Python calls;
- what reaches the driver is bounded by a DOMAIN, never by the data:
  |event_types|² edges for PageRank, |types|×7 cells for CUBE, 2^14
  bucket counts for the ntile prefix sum, ≤|distinct sizes| frontier
  candidates per block for Pareto, 64 checksum rows.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Sum

from ..copartition import co_partition

_PARTITIONS = 32

_DAY_US = 86_400_000_000
_WEEK_US = 7 * _DAY_US


def _pq(sf_dir: str, table: str, columns: list[str]) -> rd.Dataset:
    from .. import storage

    return storage.read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _ts_us(col: pa.ChunkedArray) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)


# --------------------------------------------------------------------------
# PageRank over the event-transition graph
# --------------------------------------------------------------------------

_PR_SCALE = 10**12
_PR_ITERS = 3


def pagerank_transitions(sf_dir: str) -> pd.DataFrame:
    """Integer PageRank (Page et al. 1999) over the user-journey
    transition graph: nodes are event types, edge (src → dst) weighted by
    how often dst immediately follows src inside one user's timeline.

    This is the crawl-priority primitive (SURVEY O1: rank pages by link
    structure) expressed over the events table.  Scale shape in two
    regimes:

    - EDGE AGGREGATION is the data-sized part and is fully distributed:
      one coarse shuffle on ``user % P``, then a per-partition lexsort +
      adjacent-pair count (pure numpy; each partition owns complete
      users), emitting ≤|types|² weighted edges per partition.
    - ITERATION runs on the CONDENSED graph, bounded by the type domain
      (≤25 edge rows), in driver-side Python arbitrary-precision ints.

    All arithmetic is scaled-integer with floor division —
    ``r' = (0.15·S)//n + (85·Σ (r_u·w_uv)//W_u)//100`` — so the oracle
    unrolls the same three iterations as HUGEINT CTEs and hash-compares
    bit-for-bit (no float damping anywhere)."""
    ds = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def edges(g: pa.Table) -> pa.Table:
        et = g.column("event_type").dictionary_encode().combine_chunks()
        codes = et.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_us(g.column("ts"))
        eid = g.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, ts, u))
        us, cs = u[order], codes[order]
        same = us[1:] == us[:-1]
        src, dst = cs[:-1][same], cs[1:][same]
        key = src * 64 + dst
        uk, cnt = np.unique(key, return_counts=True)
        dic = et.dictionary.to_pylist()
        return pa.table({
            "src": pa.array([dic[int(k) // 64] for k in uk], pa.string()),
            "dst": pa.array([dic[int(k) % 64] for k in uk], pa.string()),
            "c": pa.array(cnt.astype(np.int64)),
        })

    w = (
        co_partition(ds, "user_id", _PARTITIONS, edges)
        .groupby(["src", "dst"]).aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # ≤ |types|² rows
    )

    def uniq_types(t: pa.Table) -> pa.Table:
        return pa.table({"v": pc.unique(t["event_type"])})

    nodes = sorted(
        ds.map_batches(uniq_types, batch_format="pyarrow")
        .groupby("v").count().to_pandas()["v"]
    )  # ≤ |types| rows
    n = len(nodes)
    wout: dict[str, int] = {}
    for s, c in zip(w["src"], w["c"]):
        wout[s] = wout.get(s, 0) + int(c)
    rank = {v: _PR_SCALE // n for v in nodes}
    base = (15 * _PR_SCALE // 100) // n
    for _ in range(_PR_ITERS):
        contrib = {v: 0 for v in nodes}
        for s, d, c in zip(w["src"], w["dst"], w["c"]):
            contrib[d] += (rank[s] * int(c)) // wout[s]
        rank = {v: base + (85 * contrib[v]) // 100 for v in nodes}
    return pd.DataFrame({
        "event_type": nodes,
        "rank_scaled": np.array([rank[v] for v in nodes], np.int64),
    })


# --------------------------------------------------------------------------
# Funnel: first view → first click after it → first purchase after that
# --------------------------------------------------------------------------

_INF = np.int64(1) << 62


def funnel_steps(sf_dir: str, partitions: int = _PARTITIONS) -> rd.Dataset:
    """Ordered three-step funnel per user (view → click → purchase): the
    first view, the first click STRICTLY after it, the first purchase
    strictly after that; ``stage`` counts how deep the user got.

    The chained mins are stateful per user, so this is the sessionize
    shape: ONE shuffle on ``user % P``, then per-partition masked
    ``np.minimum.reduceat`` chains over user segments (each partition owns
    complete users; per-event work is pure numpy).  Missing steps emit -1
    sentinels so the int64 columns hash-compare against COALESCE in the
    SQL replay."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_type"])

    def chain(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_us(g.column("ts"))
        et = g.column("event_type").dictionary_encode().combine_chunks()
        codes = et.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dic = {v: i for i, v in enumerate(et.dictionary.to_pylist())}
        order = np.lexsort((ts, u))
        us, tss, cs = u[order], ts[order], codes[order]
        new_user = np.ones(us.size, dtype=bool)
        new_user[1:] = us[1:] != us[:-1]
        bounds = np.nonzero(new_user)[0]
        seg = np.cumsum(new_user) - 1

        def first_after(code: int, after_row: np.ndarray) -> np.ndarray:
            mask = (cs == code) & (tss > after_row) if code >= 0 else np.zeros(us.size, bool)
            vals = np.where(mask, tss, _INF)
            return np.minimum.reduceat(vals, bounds)

        zero = np.full(us.size, np.int64(-1))
        t1 = first_after(dic.get("view", -1), zero)
        t2 = first_after(dic.get("click", -1), t1[seg])
        t3 = first_after(dic.get("purchase", -1), t2[seg])
        stage = (t1 < _INF).astype(np.int64) + (t2 < _INF) + (t3 < _INF)
        sent = np.int64(-1)
        return pa.table({
            "user_id": pa.array(us[bounds], pa.int64()),
            "first_view_us": pa.array(np.where(t1 < _INF, t1, sent), pa.int64()),
            "first_click_us": pa.array(np.where(t2 < _INF, t2, sent), pa.int64()),
            "first_purchase_us": pa.array(np.where(t3 < _INF, t3, sent), pa.int64()),
            "stage": pa.array(stage, pa.int64()),
        })

    return co_partition(ds, "user_id", partitions, chain)


# --------------------------------------------------------------------------
# Weekly retention
# --------------------------------------------------------------------------

def retention_weekly(sf_dir: str, partitions: int = _PARTITIONS) -> rd.Dataset:
    """Week-over-week retention: per epoch-week, how many distinct users
    were active, and how many of those were also active the NEXT week.

    Scale shape: per-batch distinct (user, week) partials (np.unique on a
    packed ``user·2³² + week`` composite — retention is then just "is
    key+1 present", one searchsorted), one coarse ``user % P`` shuffle so
    each partition owns complete users, per-week partial counts, and a
    final tiny groupby bounded by |weeks|."""
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        week = _ts_us(t.column("ts")) // _WEEK_US
        key = np.unique(u * (1 << 32) + week)
        return pa.table({
            "user_id": pa.array(key >> 32, pa.int64()),
            "week": pa.array(key & ((1 << 32) - 1), pa.int64()),
        })

    def per_week(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        wk = g.column("week").to_numpy(zero_copy_only=False).astype(np.int64)
        key = np.unique(u * (1 << 32) + wk)  # merge cross-batch partials
        nxt = np.zeros(key.size, dtype=bool)
        idx = np.searchsorted(key, key + 1)
        ok = idx < key.size
        nxt[ok] = key[idx[ok]] == key[ok] + 1
        weeks = (key & ((1 << 32) - 1)).astype(np.int64)
        uw, inv = np.unique(weeks, return_inverse=True)
        return pa.table({
            "week": pa.array(uw, pa.int64()),
            "n_active": pa.array(np.bincount(inv), pa.int64()),
            "n_retained": pa.array(
                np.bincount(inv, weights=nxt.astype(np.int64)).astype(np.int64)),
        })

    return (
        co_partition(ds.map_batches(partial, batch_format="pyarrow"), "user_id",
                     partitions, per_week)
        .groupby("week")
        .aggregate(Sum("n_active", alias_name="n_active"),
                   Sum("n_retained", alias_name="n_retained"))
    )


# --------------------------------------------------------------------------
# CUBE reporting
# --------------------------------------------------------------------------

def cube_event_stats(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE (event_type, iso-dow): all four grouping levels with
    '*' / -1 roll-up sentinels, counts + int-cent value sums.

    Like ``rollup_events``: the corpus is scanned ONCE into per-batch
    integer partials at the FINEST level (≤|types|×7 rows per batch), one
    tiny groupby, and the three coarser cube levels derive from the
    aggregated table on the driver — bounded by the type×dow domain,
    never by row count.  iso-dow computes as ``(days+3) % 7 + 1`` (the
    epoch was a Thursday), matching DuckDB ``isodow``."""
    ds = _pq(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t.column("event_type").dictionary_encode().combine_chunks()
        codes = et.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        days = _ts_us(t.column("ts")) // _DAY_US
        dow = (days + 3) % 7 + 1
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        key = codes * 8 + dow
        u, inv = np.unique(key, return_inverse=True)
        dic = et.dictionary.to_pylist()
        return pa.table({
            "event_type": pa.array([dic[int(k) // 8] for k in u], pa.string()),
            "isodow": pa.array(u % 8, pa.int64()),
            "n": pa.array(np.bincount(inv), pa.int64()),
            "cents": pa.array(np.bincount(inv, weights=cents).astype(np.int64)),
        })

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "isodow"])
        .aggregate(Sum("n", alias_name="n"), Sum("cents", alias_name="cents"))
        .to_pandas()  # ≤ |types| × 7 rows
    )
    by_type = (fine.groupby("event_type", as_index=False)[["n", "cents"]].sum()
               .assign(isodow=-1))
    by_dow = (fine.groupby("isodow", as_index=False)[["n", "cents"]].sum()
              .assign(event_type="*"))
    grand = pd.DataFrame({"event_type": ["*"], "isodow": [-1],
                          "n": [int(fine["n"].sum())],
                          "cents": [int(fine["cents"].sum())]})
    cols = ["event_type", "isodow", "n", "cents"]
    out = pd.concat([fine[cols], by_type[cols], by_dow[cols], grand[cols]],
                    ignore_index=True)
    out["total_value"] = out.pop("cents").astype(np.int64) / 100.0
    out = out.rename(columns={"n": "n_events"})
    out["isodow"] = out["isodow"].astype(np.int64)
    return out.sort_values(["event_type", "isodow"]).reset_index(drop=True)


# --------------------------------------------------------------------------
# ntile: global rank + quartile without a global sort
# --------------------------------------------------------------------------

_NTILE_BUCKETS = 1 << 14
_NTILE_SHIFT = 16  # bucket = spend_cents >> 16; order-preserving coarse key


def ntile_spend(sf_dir: str, tiles: int = 4) -> rd.Dataset:
    """Global rank + ntile(4) of every customer by total order spend —
    the eval-slice / curriculum-bucketing primitive.

    A global rank normally means a global sort; here it is the
    ``shuffle_ranks`` distributed-prefix-sum shape instead: (1) spend per
    customer via per-batch int-cent partial sums + one groupby; (2) rows
    bucket by the HIGH BITS of spend (order-preserving, so bucket b's
    ranks all precede bucket b+1's); (3) per-bucket counts → a 2^14-entry
    driver cumsum → broadcast offsets; (4) one coarse shuffle on bucket,
    lexsort + arange inside each partition.  Tile boundaries replicate
    DuckDB ``ntile`` exactly (first ``n mod t`` tiles one row larger)."""
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def spend_partial(t: pa.Table) -> pa.Table:
        k = t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        u, inv = np.unique(k, return_inverse=True)
        return pa.table({
            "o_custkey": pa.array(u, pa.int64()),
            "spend_cents": pa.array(np.bincount(inv, weights=cents).astype(np.int64)),
        })

    spend = (
        ds.map_batches(spend_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("spend_cents", alias_name="spend_cents"))
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        s = t.column("spend_cents").to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.minimum(s >> _NTILE_SHIFT, _NTILE_BUCKETS - 1)
        return t.append_column("bucket", pa.array(b, pa.int32()))

    bucketed = spend.map_batches(add_bucket, batch_format="pyarrow")
    counts = bucketed.groupby("bucket").count().to_pandas()  # ≤ 2^14 rows
    sizes = np.zeros(_NTILE_BUCKETS, np.int64)
    sizes[counts["bucket"].to_numpy()] = counts["count()"].to_numpy()
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    n_total = int(sizes.sum())
    q, m = divmod(n_total, tiles)

    def rank_partition(g: pa.Table) -> pa.Table:
        s = g.column("spend_cents").to_numpy(zero_copy_only=False).astype(np.int64)
        k = g.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        b = g.column("bucket").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((k, s))  # bucket is a prefix of spend's bits
        r = offsets[b[order[0]]] + np.arange(s.size, dtype=np.int64)  # 0-based
        head = m * (q + 1)
        tile = np.where(r < head, r // max(q + 1, 1) + 1,
                        m + (r - head) // max(q, 1) + 1)
        return pa.table({
            "o_custkey": pa.array(k[order], pa.int64()),
            "spend_cents": pa.array(s[order], pa.int64()),
            "spend_rank": pa.array(r + 1, pa.int64()),
            "quartile": pa.array(tile.astype(np.int64), pa.int64()),
        })

    # stays a Dataset: the ranked table is customer-sized — at corpus scale
    # it must stream to its sink, never collect on the driver
    return bucketed.groupby("bucket").map_groups(
        rank_partition, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Pareto frontier
# --------------------------------------------------------------------------

def _frontier(price: np.ndarray, size: np.ndarray, key: np.ndarray):
    """Non-dominated rows for (minimize price, maximize size); exact tie
    semantics: a row survives iff no other row is ≤ on price AND ≥ on size
    with at least one strict.  Vectorized: sort (price asc, size desc),
    then a run-max prefix scan over price groups."""
    order = np.lexsort((key, -size, price))
    p, s = price[order], size[order]
    new_run = np.ones(p.size, dtype=bool)
    new_run[1:] = p[1:] != p[:-1]
    run_id = np.cumsum(new_run) - 1
    run_max = s[np.nonzero(new_run)[0]]  # head of each run = max size (desc sort)
    prev_best = np.concatenate(([np.int64(-1)], np.maximum.accumulate(run_max)))[run_id]
    keep = (s == run_max[run_id]) & (s > prev_best)
    return order[keep]


def pareto_front_parts(sf_dir: str) -> pd.DataFrame:
    """Pareto-optimal parts: minimize retail price (int cents), maximize
    size; rows tied on BOTH axes all survive (neither dominates).

    Frontier-of-frontiers is ASSOCIATIVE — a globally non-dominated point
    is non-dominated in any subset containing it — so each batch emits
    only its partial frontier (≤ |distinct sizes| + ties rows) and one
    final pass over the tiny candidate union is exact.  The corpus never
    shuffles; comparisons only (no float arithmetic), so the NOT EXISTS
    SQL replay is bit-exact."""
    ds = _pq(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])

    def partial(t: pa.Table) -> pa.Table:
        key = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            t.column("p_retailprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        size = t.column("p_size").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = _frontier(cents, size, key)
        return pa.table({
            "p_partkey": pa.array(key[keep], pa.int64()),
            "price_cents": pa.array(cents[keep], pa.int64()),
            "p_size": pa.array(size[keep], pa.int64()),
        })

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    keep = _frontier(cand["price_cents"].to_numpy(np.int64),
                     cand["p_size"].to_numpy(np.int64),
                     cand["p_partkey"].to_numpy(np.int64))
    return (cand.iloc[np.sort(keep)].reset_index(drop=True))


# --------------------------------------------------------------------------
# Per-partition output checksums (resume / lineage verification)
# --------------------------------------------------------------------------

_CK_PARTS = 64
_CK_MOD = (1 << 61) - 1  # Mersenne prime; additive checksum survives int64
_CK_LO_BITS = 30


def partition_checksums(sf_dir: str) -> pd.DataFrame:
    """Order-insensitive per-partition (row count, additive content
    checksum) over the documents table — the verification primitive a
    resumable 100 TB writer needs: each output partition can be re-read
    and its checksum compared independently, and checksums MERGE (addition
    mod a Mersenne prime) so re-shards verify against re-aggregated sums.

    Partition = md5-low64(doc_id) % 64; checksum = Σ md5-low64("id:text")
    mod 2⁶¹-1.  Per-batch partials fold mod p, then ship as two int64
    limbs (hi = ck >> 30, lo) so Ray's int64 groupby-sum cannot overflow
    across any number of blocks (the corr_qty_price limb pattern); the
    driver recombines ≤64 rows in Python arbitrary-precision ints."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t.column("text").to_pylist()
        part = np.empty(ids.size, np.int64)
        hval = np.empty(ids.size, np.uint64)
        for i, (d, x) in enumerate(zip(ids, texts)):
            part[i] = int.from_bytes(
                hashlib.md5(str(int(d)).encode()).digest()[8:], "little") % _CK_PARTS
            hval[i] = int.from_bytes(
                hashlib.md5(f"{int(d)}:{x}".encode()).digest()[8:], "little") % _CK_MOD
        u, inv = np.unique(part, return_inverse=True)
        n = np.bincount(inv)
        ck = [0] * u.size
        for i, g in enumerate(inv):
            ck[g] = (ck[g] + int(hval[i])) % _CK_MOD
        ck_arr = np.array(ck, np.int64)
        return pa.table({
            "part": pa.array(u, pa.int64()),
            "n": pa.array(n.astype(np.int64)),
            "ck_hi": pa.array(ck_arr >> _CK_LO_BITS, pa.int64()),
            "ck_lo": pa.array(ck_arr & ((1 << _CK_LO_BITS) - 1), pa.int64()),
        })

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .aggregate(Sum("n", alias_name="n"),
                   Sum("ck_hi", alias_name="hi"), Sum("ck_lo", alias_name="lo"))
        .to_pandas()  # ≤ 64 rows
    )
    cks = [
        ((int(h) << _CK_LO_BITS) + int(lo)) % _CK_MOD
        for h, lo in zip(agg["hi"], agg["lo"])
    ]
    return (
        pd.DataFrame({
            "part": agg["part"].astype(np.int64),
            "n_rows": agg["n"].astype(np.int64),
            "checksum": np.array(cks, np.int64),
        })
        .sort_values("part").reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# percent_rank within group — the ntile prefix-sum pattern, segmented
# --------------------------------------------------------------------------

import zlib as _zlib


def percent_rank_orders(sf_dir: str) -> rd.Dataset:
    """Per-group window rank: each order's row_number and percent_rank
    within its o_orderpriority, ordered by (int-cent price, orderkey) —
    the grading-curve primitive, without a global (or even per-group)
    sort.

    The ``ntile_spend`` distributed prefix sum, segmented by group: rows
    bucket on (priority, high bits of cents) — order-preserving within
    each priority — per-cell counts flow to a domain-bounded driver
    cumsum (|priorities| × 2^14 cells max), and ONE shuffle on the cell
    id gives each partition its exact global offset; lexsort + arange
    inside.  percent_rank = (rank-1)/(n_g-1) is the same int÷int double
    DuckDB computes (ORDER BY includes the unique key, so ties cannot
    split ranks)."""
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def tag(t: pa.Table) -> pa.Table:
        cents = np.rint(t.column("o_totalprice").to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        pri = t.column("o_orderpriority").to_pylist()
        bucket = np.minimum(cents >> _NTILE_SHIFT, _NTILE_BUCKETS - 1)
        cell = np.array(
            [(_zlib.crc32(p.encode()) << 14) | int(b) for p, b in zip(pri, bucket)],
            np.int64)
        return pa.table({
            "cell": pa.array(cell, pa.int64()),
            "o_orderkey": t["o_orderkey"],
            "o_orderpriority": pa.array(pri, pa.string()),
            "cents": pa.array(cents, pa.int64()),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    counts = tagged.groupby("cell").count().to_pandas()  # ≤ |pri|×2^14 rows
    cells = counts["cell"].to_numpy(np.int64)
    ns = counts["count()"].to_numpy(np.int64)
    order = np.argsort(cells, kind="stable")  # bucket asc within each priority
    cells, ns = cells[order], ns[order]
    grp = cells >> 14
    new_g = np.ones(cells.size, dtype=bool)
    new_g[1:] = grp[1:] != grp[:-1]
    run_start = np.maximum.accumulate(np.where(new_g, np.arange(cells.size), 0))
    cum = np.cumsum(ns) - ns
    offsets = dict(zip(cells.tolist(), (cum - cum[run_start]).tolist()))
    n_g = {int(g): int(n) for g, n in zip(
        grp[new_g], np.add.reduceat(ns, np.nonzero(new_g)[0]))}

    def rank_cell(t: pa.Table) -> pa.Table:
        cell = int(t.column("cell")[0].as_py())
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("cents").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((k, c))
        rnk = offsets[cell] + np.arange(k.size, dtype=np.int64) + 1
        ng = n_g[cell >> 14]
        pct = (rnk - 1) / max(ng - 1, 1)
        return pa.table({
            "o_orderkey": pa.array(k[o], pa.int64()),
            "o_orderpriority": t.column("o_orderpriority").take(pa.array(o)),
            "cents": pa.array(c[o], pa.int64()),
            "rnk": pa.array(rnk, pa.int64()),
            "pct": pa.array(pct.astype(np.float64), pa.float64()),
        })

    return tagged.groupby("cell").map_groups(rank_cell, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Event-time watermark audit (late-data accounting under bounded delay)
# --------------------------------------------------------------------------

_DELAY_MOD_US = 2 * _DAY_US   # simulated network delay ∈ [0, 2 days)
_LATENESS_US = _DAY_US        # allowed lateness before an event counts late


def late_event_audit(sf_dir: str) -> rd.Dataset:
    """Watermark/late-event accounting — the streaming-ingest primitive:
    events ARRIVE out of event-time order (simulated bounded network delay:
    ``arrival = ts + md5low64(event_id) % 2d``, deterministic both sides),
    the watermark is the running max event-time over arrival order, and an
    event is late when it trails the watermark by more than the allowed
    lateness (1 day).

    Scale shape — a GLOBAL ordered scan without a global sort: arrival
    weeks are the ordered range partitions (data-independent calendar
    buckets, the natural event-stream layout); phase 1 reduces each week
    to its max event-time (one groupby, ≤|weeks| rows — TIME-bounded, the
    ntile-prefix-sum precedent); the driver folds those into per-week
    exclusive seeds; phase 2 is one vectorized cummax per week seeded by
    its predecessor weeks.  Every row is touched exactly twice, nothing
    data-sized reaches the driver."""
    from ray.data.aggregate import Max

    from ..functions.hashing import _tok_hash

    ds = _pq(sf_dir, "events", ["event_id", "ts"])

    def keyed(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tsu = _ts_us(t.column("ts"))
        delay = np.fromiter(
            (_tok_hash(str(int(e))) % _DELAY_MOD_US for e in eid),
            dtype=np.int64, count=eid.size)
        arr = tsu + delay
        return pa.table({
            "event_id": pa.array(eid), "tsu": pa.array(tsu),
            "arr": pa.array(arr),
            "bucket": pa.array(arr // _WEEK_US),
        })

    rows = ds.map_batches(keyed, batch_format="pyarrow")
    bmax = rows.groupby("bucket").aggregate(Max("tsu", alias_name="m")).to_pandas()
    bmax = bmax.sort_values("bucket")
    seeds: dict[int, int] = {}
    run = None
    for b, m in zip(bmax["bucket"], bmax["m"]):
        seeds[int(b)] = -(1 << 62) if run is None else run
        run = int(m) if run is None else max(run, int(m))

    def audit(g: pa.Table) -> pa.Table:
        eid = g.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tsu = g.column("tsu").to_numpy(zero_copy_only=False).astype(np.int64)
        arr = g.column("arr").to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = int(g.column("bucket")[0].as_py())
        order = np.lexsort((eid, arr))
        eid, tsu = eid[order], tsu[order]
        run_ = np.maximum.accumulate(tsu)
        wm_excl = np.empty_like(run_)
        wm_excl[0] = seeds[bucket]
        wm_excl[1:] = run_[:-1]
        wm_excl = np.maximum(wm_excl, seeds[bucket])
        sentinel = wm_excl <= -(1 << 61)
        wm = np.where(sentinel, tsu, wm_excl)
        lateness = np.maximum(wm - tsu, 0)
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "wm_us": pa.array(wm, pa.int64()),
            "lateness_us": pa.array(lateness, pa.int64()),
            "is_late": pa.array(lateness > _LATENESS_US, pa.bool_()),
        })

    return rows.groupby("bucket").map_groups(audit, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Trending items (count delta between time halves, k-bounded driver merge)
# --------------------------------------------------------------------------

_TREND_SPLIT_US = 1_705_363_200_000_000  # 2024-01-16 00:00:00 UTC


def trending_items(sf_dir: str, k: int = 10,
                   partitions: int = _PARTITIONS) -> pd.DataFrame:
    """Top-k trending items: biggest event-count RISE from the early half
    of the time range to the late half (fixed calendar split) — the
    what-changed monitoring primitive.  Counting is partial-per-batch then
    ONE (item) groupby with both halves as parallel sums; each partition
    emits only its local top-k so the driver merge is bounded by k × P
    (the q3 pattern), never |items|."""
    ds = _pq(sf_dir, "events", ["ts", "props"])

    def partial(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column("props"), r'"k": (?P<k>\d+)')
        item = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        late = _ts_us(t.column("ts")) >= _TREND_SPLIT_US
        t2 = pa.table({
            "item": item,
            "cnt_early": pa.array((~late).astype(np.int64)),
            "cnt_late": pa.array(late.astype(np.int64)),
        })
        g = pa.TableGroupBy(t2, "item").aggregate(
            [("cnt_early", "sum"), ("cnt_late", "sum")])
        return g.rename_columns(["item", "cnt_early", "cnt_late"])

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("item").aggregate(Sum("cnt_early", alias_name="cnt_early"),
                                         Sum("cnt_late", alias_name="cnt_late")))

    def local_topk(g: pa.Table) -> pa.Table:
        item = g.column("item").to_numpy(zero_copy_only=False).astype(np.int64)
        ce = g.column("cnt_early").to_numpy(zero_copy_only=False).astype(np.int64)
        cl = g.column("cnt_late").to_numpy(zero_copy_only=False).astype(np.int64)
        delta = cl - ce
        order = np.lexsort((item, -delta))[:k]
        return pa.table({
            "item": pa.array(item[order], pa.int64()),
            "cnt_early": pa.array(ce[order], pa.int64()),
            "cnt_late": pa.array(cl[order], pa.int64()),
            "delta": pa.array(delta[order], pa.int64()),
        })

    cand = co_partition(counts, "item", partitions, local_topk).to_pandas()  # ≤ k × P rows
    cand = cand.sort_values(["delta", "item"],
                            ascending=[False, True]).head(k).reset_index(drop=True)
    cand["rnk"] = np.arange(1, len(cand) + 1, dtype=np.int64)
    return cand


def ab_test_lift(sf_dir: str) -> pd.DataFrame:
    """A/B experiment readout over the event log: assign every user to a
    deterministic arm (md5-low64(user_id) % 2 — the ``train_split`` hash
    rule, so assignment is stable under repartitioning and needs no RNG
    state), then per event_type report per-arm counts/means, absolute and
    relative lift, and the Welch t statistic — the
    experimentation-analytics primitive next to ``funnel_steps`` /
    ``retention_weekly``.

    Scale shape: identical to ``regression_by_group`` — the per-(metric,
    arm) sufficient statistics (n, Σcents, Σcents² as two int64 limbs so
    nothing overflows short of >10 PB) sum per batch inside map_batches,
    ONE tiny groupby moves O(metrics × arms × blocks) rows, and the
    finalize recombines exact Python ints with the same double-op order as
    the DuckDB HUGEINT oracle — bit-identical, block-order independent.
    Per-batch md5s are computed once per DISTINCT user in the batch
    (np.unique + inverse), not per row."""
    ds = _pq(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(uid, return_inverse=True)
        arms_u = np.array([
            int.from_bytes(hashlib.md5(str(u).encode()).digest()[8:16], "little") % 2
            for u in uniq
        ], dtype=np.int64)
        arm = arms_u[inv]
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        yy = cents * cents
        t2 = pa.table({
            "metric": t["event_type"],
            "arm": pa.array(arm),
            "n": pa.array(np.ones(len(arm), np.int64)),
            "sy": pa.array(cents),
            "syy_hi": pa.array(yy >> 30), "syy_lo": pa.array(yy & ((1 << 30) - 1)),
        })
        g = pa.TableGroupBy(t2, ["metric", "arm"]).aggregate(
            [(c, "sum") for c in ("n", "sy", "syy_hi", "syy_lo")]
        )
        return g.rename_columns(["metric", "arm", "n", "sy", "syy_hi", "syy_lo"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["metric", "arm"])
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sy", "syy_hi", "syy_lo")])
        .to_pandas()  # O(metrics × 2) rows
    )
    sides: dict[str, dict[int, tuple[int, int, int]]] = {}
    for r in agg.itertuples(index=False):
        syy = (int(r.syy_hi) << 30) + int(r.syy_lo)
        sides.setdefault(r.metric, {})[int(r.arm)] = (int(r.n), int(r.sy), syy)
    out = []
    for metric in sorted(sides):
        arms = sides[metric]
        if arms.get(0, (0,))[0] < 2 or arms.get(1, (0,))[0] < 2:
            continue  # an arm missing or n<2 — variance undefined
        (nc, syc, syyc), (nt, syt, syyt) = arms[0], arms[1]
        # same double-op order as the oracle: exact-int differences →
        # one double division each, /100 at the very end
        mean_c = float(syc) / float(nc) / 100.0
        mean_t = float(syt) / float(nt) / 100.0
        s2_c = float(nc * syyc - syc * syc) / float(nc * (nc - 1)) / 10000.0
        s2_t = float(nt * syyt - syt * syt) / float(nt * (nt - 1)) / 10000.0
        se = math.sqrt(s2_c / float(nc) + s2_t / float(nt))
        lift_abs = mean_t - mean_c
        out.append((metric, nc, nt, mean_c, mean_t, lift_abs,
                    lift_abs / mean_c, lift_abs / se))
    return pd.DataFrame(out, columns=[
        "metric", "n_c", "n_t", "mean_c", "mean_t",
        "lift_abs", "lift_rel", "t_welch",
    ])
