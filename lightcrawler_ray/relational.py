"""Relational operator pipelines over the driver testdata — the DuckDB-
oracled face of SURVEY.md §2.

Every function takes ``sf_dir`` and returns a Dataset / pandas DataFrame /
Arrow table whose row-set matches the paired SQL in ``__ray_entry__.
oracle_sql()`` (column names included).  Each docstring names the SURVEY
operator(s) the pipeline exercises and the scale pattern it demonstrates
(broadcast vs shuffle, partial aggregation, pruned reads).

Ray is assumed initialised by the caller (driver contract) — nothing here
calls ray.init().
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from .copartition import co_partition


def _pq(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    # prune at the read: only requested columns leave storage
    from . import storage

    return storage.read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------


def crawl_report(sf_dir: str) -> pd.DataFrame:
    """A1 — the crawler's global report (links_followed / bytes / averages) as
    a one-row aggregate; partial-per-block then tiny final combine is what
    ``Dataset.aggregate`` does internally.  Sums accumulate in integer cents
    (values are 2-decimal) so the result is block-order independent and
    bit-identical to the decimal oracle."""
    ds = _pq(sf_dir, "events", ["event_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        v = np.rint(t.column("value").to_numpy() * 100).astype(np.int64)
        return pa.table({"value_c": pa.array(v, pa.int64())})

    agg = ds.map_batches(cents, batch_format="pyarrow").aggregate(
        Count(alias_name="links_followed"),
        Sum("value_c", alias_name="sum_c"),
        Max("value_c", alias_name="max_c"),
    )
    n = agg["links_followed"]
    total = float(agg["sum_c"]) / 100.0
    return pd.DataFrame([{
        "links_followed": n,
        "bytes_received": total,
        "avg_ms": total / n,
        "max_ms": float(agg["max_c"]) / 100.0,
    }])


def status_gate(sf_dir: str) -> rd.Dataset:
    """M12/M8 — vectorized predicate filter inside map_batches (the
    status==200 && bytes>100 gate shape)."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t["event_type"], "purchase"), pc.greater(t["value"], 50.0))
        ).select(["event_id", "user_id", "value"]),
        batch_format="pyarrow",
    )


def priority_topk(sf_dir: str) -> rd.Dataset:
    """O1 — pop-order sort: (value desc, event_id asc) top 100, the frontier
    max-priority-FIFO discipline as a distributed sort + limit."""
    ds = _pq(sf_dir, "events", ["event_id", "value"])
    return ds.sort(["value", "event_id"], descending=[True, False]).limit(100)


def exact_dedup_first(sf_dir: str) -> rd.Dataset:
    """D1/D2 — content-hash dedup keep-first: md5(text) added vectorized in
    map_batches, then a groupby-min shuffle keyed on the hash."""
    import hashlib

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        h = [hashlib.md5(x.encode()).hexdigest() for x in t.column("text").to_pylist()]
        return pa.table({"doc_hash": pa.array(h), "doc_id": t.column("doc_id")})

    return ds.map_batches(add_hash, batch_format="pyarrow").groupby("doc_hash").aggregate(
        Min("doc_id", alias_name="first_doc")
    )


def anti_join_new(sf_dir: str) -> rd.Dataset:
    """J1 — frontier∖seen anti-join: the small side (supplier keys) is
    broadcast via ray.put once and probed per batch with searchsorted; no
    shuffle.  (Suppliers, not customers: the customer key space covers every
    event user at all scale factors, which would make the result empty.)"""
    import pyarrow.parquet as pq

    keys = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"]).column(
        "s_suppkey"
    )
    keys_ref = ray.put(np.unique(keys.to_numpy().astype(np.int64)))
    ds = _pq(sf_dir, "events", ["event_id", "user_id"])

    def probe(t: pa.Table) -> pa.Table:
        karr = ray.get(keys_ref)
        uid = t.column("user_id").to_numpy()
        idx = np.searchsorted(karr, uid)
        idx = np.clip(idx, 0, len(karr) - 1)
        hit = karr[idx] == uid
        return t.filter(pa.array(~hit))

    return ds.map_batches(probe, batch_format="pyarrow")


def dim_enrich(sf_dir: str) -> rd.Dataset:
    """J5 — dimension broadcast hash join (cause-of-action / court lookup
    analog): nation is tiny → dict in the object store, mapped per batch;
    aggregation is a partial sum inside map_batches before the key shuffle."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nkeys = nation.column("n_nationkey").to_numpy().astype(np.int64)
    order = np.argsort(nkeys)
    # broadcast the sorted (key, name) arrays once; probed with searchsorted
    nmap_ref = ray.put((nkeys[order],
                        np.array(nation.column("n_name").to_pylist(), dtype=object)[order]))
    ds = _pq(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def enrich_partial(t: pa.Table) -> pa.Table:
        # all-Arrow/numpy partial: vectorized dimension lookup + exact
        # integer-cent block combine via the C++ hash-groupby kernel
        keys, names = ray.get(nmap_ref)
        nk = t.column("c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(keys, nk)  # FK guarantees every key resolves
        bal_c = np.rint(t.column("c_acctbal").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        t2 = pa.table({
            "nation": pa.array(names[idx].tolist(), pa.string()),
            "bal_c": pa.array(bal_c, pa.int64()),
        })
        g = pa.TableGroupBy(t2, "nation").aggregate([("bal_c", "sum"), ("bal_c", "count")])
        return pa.table({"nation": g["nation"], "bal_c": g["bal_c_sum"],
                         "n_customers": g["bal_c_count"]})

    agg = (
        ds.map_batches(enrich_partial, batch_format="pyarrow")
        .groupby("nation")
        .aggregate(Sum("n_customers", alias_name="n_customers"),
                   Sum("bal_c", alias_name="bal_c"))
    )
    return agg.map_batches(
        lambda t: pa.table({
            "nation": t["nation"], "n_customers": t["n_customers"],
            "total_bal": pc.divide(pc.cast(t["bal_c"], pa.float64()), 100.0),
        }),
        batch_format="pyarrow",
    )


def pricing_summary(sf_dir: str) -> rd.Dataset:
    """A1 at TPC-H Q1 shape — pre-aggregate per batch inside map_batches
    (partial combiner), then groupby-sum over the tiny partials: the
    shuffle moves O(groups × blocks) rows instead of O(n).

    Numerics: TPC-H prices/discounts are 2-decimal decimals, so partial sums
    accumulate in exact integer units (cents for qty/base, 10^-4 dollars for
    disc_price) and convert to float only in the final projection — the
    result is block-order independent and bit-identical to the decimal
    oracle, where a float partial-sum tree would drift ~1e-5 across runs."""
    ds = _pq(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        # all-Arrow partial: numpy for the exact-unit conversion, the C++
        # hash-groupby kernel for the in-block combine — no pandas round-trip
        qty_u = np.rint(t.column("l_quantity").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        base_u = np.rint(t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        disc_h = np.rint(t.column("l_discount").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        t2 = pa.table({
            "l_returnflag": t["l_returnflag"], "l_linestatus": t["l_linestatus"],
            "qty_u": pa.array(qty_u, pa.int64()),
            "base_u": pa.array(base_u, pa.int64()),
            "disc_u": pa.array(base_u * (100 - disc_h), pa.int64()),
        })
        g = pa.TableGroupBy(t2, ["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_u", "sum"), ("base_u", "sum"), ("disc_u", "sum"), ("qty_u", "count")]
        )
        return pa.table({
            "l_returnflag": g["l_returnflag"], "l_linestatus": g["l_linestatus"],
            "qty_u": g["qty_u_sum"], "base_u": g["base_u_sum"],
            "disc_u": g["disc_u_sum"], "count_order": g["qty_u_count"],
        })

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_u", alias_name="qty_u"),
            Sum("base_u", alias_name="base_u"),
            Sum("disc_u", alias_name="disc_u"),
            Sum("count_order", alias_name="count_order"),
        )
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"], "l_linestatus": t["l_linestatus"],
            "sum_qty": pc.divide(pc.cast(t["qty_u"], pa.float64()), 100.0),
            "sum_base": pc.divide(pc.cast(t["base_u"], pa.float64()), 100.0),
            "sum_disc_price": pc.divide(pc.cast(t["disc_u"], pa.float64()), 10000.0),
            "count_order": t["count_order"],
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def top_revenue(sf_dir: str) -> rd.Dataset:
    """O1+A1 — aggregate then top-k: revenue per customer, top 10
    (deterministic tie-break on the key).  Per-customer sums accumulate in
    integer cents (prices are 2-decimal) — block-order independent, matching
    the decimal oracle bit-for-bit."""
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        v = np.rint(t.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        return pa.table({"o_custkey": t.column("o_custkey"),
                         "rev_c": pa.array(v, pa.int64())})

    agg = (
        ds.map_batches(cents, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("rev_c", alias_name="rev_c"))
    )
    top = agg.sort(["rev_c", "o_custkey"], descending=[True, False]).limit(10)
    return top.map_batches(
        lambda t: pa.table({
            "o_custkey": t.column("o_custkey"),
            "revenue": pc.divide(pc.cast(t.column("rev_c"), pa.float64()), 100.0),
        }),
        batch_format="pyarrow",
    )


def union_seeds(sf_dir: str) -> rd.Dataset:
    """D5 — seed-list union (duplicates preserved, as UNION ALL)."""
    a = status_gate(sf_dir).map_batches(
        lambda t: t.select(["event_id"]), batch_format="pyarrow"
    )
    b = _pq(sf_dir, "events", ["event_id", "value"]).map_batches(
        lambda t: t.filter(pc.greater(t["value"], 90.0)).select(["event_id"]),
        batch_format="pyarrow",
    )
    return a.union(b)


def distinct_langs(sf_dir: str) -> pd.DataFrame:
    """A5 — distinct values of one column (shuffle on the column)."""
    vals = _pq(sf_dir, "documents", ["lang"]).unique("lang")
    return pd.DataFrame({"lang": sorted(vals)})


def tumbling_window(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Streaming shape (SURVEY.md §2.9) — tumbling 1-hour window per user.

    Key cardinality ≈ row count here ((user, hour) is nearly unique), so a
    map-side partial combiner reduces nothing and a fine-keyed
    ``groupby(["user_id","hour_bucket"]).aggregate(...)`` pays a full
    sort-based exchange over every row.  Instead: ``co_partition`` on
    ``user_id`` (every (user, hour) group lands whole in exactly one of P
    partitions), then the in-partition aggregate is a numpy lexsort +
    segmented ``reduceat`` — P Python calls total, same shape as
    ``sessionize``."""
    ds = _pq(sf_dir, "events", ["user_id", "ts", "value"])

    def agg_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hour = (
            g.column("ts").to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view(np.int64) // 3_600_000_000
        )
        # values are 2-decimal money — accumulate in exact integer cents so
        # the sum is association-order independent and bit-identical to the
        # decimal oracle (same trick as pricing_summary)
        v = np.rint(g.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        order = np.lexsort((hour, u))
        us, hs, vs = u[order], hour[order], v[order]
        new = np.ones(us.size, dtype=bool)
        new[1:] = (us[1:] != us[:-1]) | (hs[1:] != hs[:-1])
        bounds = np.nonzero(new)[0]
        return pa.table({
            "user_id": pa.array(us[bounds], pa.int64()),
            "hour_bucket": pa.array(hs[bounds], pa.int64()),
            "n_events": pa.array(
                np.diff(np.append(bounds, us.size)).astype(np.int64), pa.int64()
            ),
            "sum_value": pa.array(
                np.add.reduceat(vs, bounds).astype(np.float64) / 100.0, pa.float64()
            ),
        })

    return co_partition(ds, "user_id", partitions, agg_partition)


def quantiles_price(sf_dir: str, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> pd.DataFrame:
    """Exact distributed quantiles WITHOUT a global sort: values are
    2-decimal money, so the value domain in integer cents is bounded (~10⁷
    distinct) regardless of row count.  Each batch emits its np.unique
    (cents, count) partial histogram; one groupby-Sum over the tiny
    histogram key space merges them; the driver cumsums a table bounded by
    the VALUE DOMAIN, not the data — at 100 TB the shuffle moves ≤10⁷ rows
    while ``Dataset.sort`` would move every row.  Quantile definition:
    value of the row at 1-based rank ``ceil(q * n)`` in ascending order
    (matching the oracle's row_number arithmetic, no interpolation)."""
    ds = _pq(sf_dir, "lineitem", ["l_extendedprice"])

    def hist(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        u, c = np.unique(cents, return_counts=True)
        return pa.table({"cents": pa.array(u, pa.int64()),
                         "n": pa.array(c, pa.int64())})

    merged = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby("cents").aggregate(Sum("n")).to_pandas()
        .sort_values("cents").reset_index(drop=True)
    )
    cum = merged["sum(n)"].cumsum().to_numpy()
    if not len(cum):
        return pd.DataFrame({"q": pd.Series([], dtype=float),
                             "value": pd.Series([], dtype=float)})
    n = int(cum[-1])
    vals = []
    for q in qs:
        target = int(np.ceil(q * n))
        i = int(np.searchsorted(cum, target, side="left"))
        vals.append(float(merged["cents"].iloc[i]) / 100.0)
    return pd.DataFrame({"q": list(qs), "value": vals})


def topk_per_group(sf_dir: str, k: int = 3, partitions: int = 32) -> rd.Dataset:
    """Top-k per group (the per-group head of a window rank) without a
    per-group Python call: coarse user%P shuffle co-locates each user's
    events, then the per-partition rank is lexsort + run-position
    arithmetic (rank = index − own group start) — P Python calls total.
    Ties: value desc, event_id asc."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "value"])

    def head_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        v = g.column("value").to_numpy(zero_copy_only=False)
        e = g.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((e, -v, u))
        us, vs, es = u[order], v[order], e[order]
        n = us.size
        new = np.ones(n, dtype=bool)
        new[1:] = us[1:] != us[:-1]
        group_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        rank = np.arange(n) - group_start + 1
        keep = rank <= k
        return pa.table({
            "user_id": pa.array(us[keep], pa.int64()),
            "event_id": pa.array(es[keep], pa.int64()),
            "value": pa.array(vs[keep], pa.float64()),
            "rank": pa.array(rank[keep].astype(np.int64), pa.int64()),
        })

    return co_partition(ds, "user_id", partitions, head_partition)


def range_join_events(sf_dir: str, window_us: int = 7_200_000_000,
                      partitions: int = 32) -> rd.Dataset:
    """Range join — the second primitive Ray Data lacks natively: every pair
    of same-user events (a, b) with ``b.ts`` in ``[a.ts, a.ts + window)``
    and ``b != a`` (forward-looking co-occurrence; at equal timestamps both
    orderings emit — deterministic, no id inequality in the bound).

    Scale shape — ``co_partition`` on the user co-locates each
    user's events, then the per-partition interval match is fully
    vectorized: rows sorted by (key, ts, id); each row's window START is its
    equal-(key, ts) run start (a segment-start propagation, no search); the
    window END comes from one merged lexsort of the rows with per-row
    end-markers at ``ts + window`` (markers order before equal-ts rows, so
    the bound is exclusive and key-segment clamping falls out of the
    key-major sort).  Pair expansion is repeat/arange arithmetic.  The
    window bounds the blow-up: output is sum of per-row window occupancy,
    never |key|²."""

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["user_id"],
            "ts": pc.cast(t["ts"], pa.int64()),
            "eid": t["event_id"],
        })

    def match_partition(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "event_a": pa.array([], pa.int64()),
            "event_b": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
        })
        n = g.num_rows
        if n == 0:
            return empty
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g.column("ts").to_numpy(zero_copy_only=False).astype(np.int64)
        eid = g.column("eid").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, ts, key))
        key, ts, eid = key[order], ts[order], eid[order]
        # window start: global index of this row's equal-(key, ts) run start
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (key[1:] != key[:-1]) | (ts[1:] != ts[:-1])
        lo = np.maximum.accumulate(np.where(new_run, np.arange(n), 0))
        # window end: merged sort of rows (tag 1) + end markers (tag 0)
        key_all = np.concatenate([key, key])
        ts_all = np.concatenate([ts, ts + window_us])
        tag_all = np.concatenate([np.ones(n, np.int8), np.zeros(n, np.int8)])
        owner = np.concatenate([np.zeros(n, np.int64), np.arange(n)])
        morder = np.lexsort((tag_all, ts_all, key_all))
        evcount = np.cumsum(tag_all[morder] == 1)
        is_marker = tag_all[morder] == 0
        hi = np.empty(n, np.int64)
        hi[owner[morder][is_marker]] = evcount[is_marker]
        counts = hi - lo  # includes the row itself
        total = int(counts.sum())
        if total == 0:
            return empty
        a_idx = np.repeat(np.arange(n), counts)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        b_idx = np.arange(total) - np.repeat(offsets, counts) + np.repeat(lo, counts)
        keep = a_idx != b_idx  # self-pair out
        a_idx, b_idx = a_idx[keep], b_idx[keep]
        return pa.table({
            "event_a": pa.array(eid[a_idx], pa.int64()),
            "event_b": pa.array(eid[b_idx], pa.int64()),
            "user_id": pa.array(key[a_idx], pa.int64()),
        })

    tagged = _pq(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        tag, batch_format="pyarrow")
    return co_partition(tagged, "key", partitions, match_partition)


def hopping_window(sf_dir: str, window_us: int = 3_600_000_000,
                   hop_us: int = 900_000_000, partitions: int = 32) -> rd.Dataset:
    """Hopping (sliding) window aggregate: per-user event count + value sum
    over 1-hour windows advancing every 15 min — each event lands in
    ``window/hop`` overlapping windows.

    Scale shape — the window assignment is a map-side flat-map (np.repeat +
    tile, rows × window/hop, no Python loop), then the aggregate reuses the
    ``tumbling_window`` pattern: ``co_partition`` on the user and an
    in-partition lexsort + segmented reduceat.  Sums accumulate in integer
    cents so the result is combine-order independent."""
    k = window_us // hop_us
    ds = _pq(sf_dir, "events", ["user_id", "ts", "value"])

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            t.column("ts").to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view(np.int64)
        )
        v = np.rint(t.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        base = (ts // hop_us) * hop_us
        starts = (
            np.repeat(base, k) - np.tile(np.arange(k, dtype=np.int64) * hop_us, n)
        )
        uu = np.repeat(u, k)
        return pa.table({
            "user_id": pa.array(uu, pa.int64()),
            "win_start": pa.array(starts, pa.int64()),
            "cents": pa.array(np.repeat(v, k), pa.int64()),
        })

    def agg_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        w = g.column("win_start").to_numpy(zero_copy_only=False).astype(np.int64)
        v = g.column("cents").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((w, u))
        us, ws, vs = u[order], w[order], v[order]
        new = np.ones(us.size, dtype=bool)
        new[1:] = (us[1:] != us[:-1]) | (ws[1:] != ws[:-1])
        bounds = np.nonzero(new)[0]
        return pa.table({
            "user_id": pa.array(us[bounds], pa.int64()),
            "win_start": pa.array(ws[bounds], pa.int64()),
            "n_events": pa.array(
                np.diff(np.append(bounds, us.size)).astype(np.int64), pa.int64()
            ),
            "sum_value": pa.array(
                np.add.reduceat(vs, bounds).astype(np.float64) / 100.0, pa.float64()
            ),
        })

    return co_partition(ds.map_batches(explode, batch_format="pyarrow"), "user_id",
                        partitions, agg_partition)


def asof_latest_order(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """As-of join — a primitive Ray Data has no native operator for: each
    event matches the LATEST order by the same customer at or before the
    event time (ties on order time broken by highest o_orderkey; inner —
    events with no prior order drop).

    Scale shape — distributed sort-merge: ``co_partition`` keys both sides
    on the user/customer (every customer's events and orders land whole in
    one partition);
    within the partition the match is pure numpy: orders pre-sorted by
    (key, ts, okey), both sides lexsorted together with orders ordered
    before events at equal (key, ts) (inclusive <=), then one segmented
    running-maximum pass over order positions — per-key segments are offset
    by ``seg_id * (n_orders + 1)`` so a single ``np.maximum.accumulate``
    resolves every event's predecessor without a Python loop.  P Python
    calls total, same shape as ``sessionize``/``tumbling_window``."""

    def tag_events(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "key": t["user_id"],
            "ts": pc.cast(t["ts"], pa.int64()),
            "okey": pa.array(np.zeros(n, np.int64)),
            "price": pa.array(np.zeros(n, np.float64)),
            "eid": t["event_id"],
            "side": pa.array(np.ones(n, np.int8)),
        })

    def tag_orders(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "key": t["o_custkey"],
            "ts": pc.cast(t["o_orderdate"], pa.int64()),
            "okey": t["o_orderkey"],
            "price": t["o_totalprice"],
            "eid": pa.array(np.zeros(n, np.int64)),
            "side": pa.array(np.zeros(n, np.int8)),
        })

    def merge_partition(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g.column("ts").to_numpy(zero_copy_only=False).astype(np.int64)
        is_o = side == 0
        okeys, ots = key[is_o], ts[is_o]
        oid = g.column("okey").to_numpy(zero_copy_only=False)[is_o]
        oprice = g.column("price").to_numpy(zero_copy_only=False)[is_o]
        ekeys, ets = key[~is_o], ts[~is_o]
        eid = g.column("eid").to_numpy(zero_copy_only=False)[~is_o]
        n_o = okeys.size
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "o_orderkey": pa.array([], pa.int64()),
            "o_totalprice": pa.array([], pa.float64()),
        })
        if n_o == 0 or ekeys.size == 0:
            return empty
        o_order = np.lexsort((oid, ots, okeys))
        okeys, ots, oid, oprice = okeys[o_order], ots[o_order], oid[o_order], oprice[o_order]
        key_all = np.concatenate([okeys, ekeys])
        ts_all = np.concatenate([ots, ets])
        tag = np.concatenate([np.zeros(n_o, np.int8), np.ones(ekeys.size, np.int8)])
        payload = np.concatenate([np.arange(1, n_o + 1), np.zeros(ekeys.size, np.int64)])
        order = np.lexsort((tag, ts_all, key_all))
        sk, spay, stag = key_all[order], payload[order], tag[order]
        seg = np.zeros(sk.size, np.int64)
        seg[1:] = sk[1:] != sk[:-1]
        seg = np.cumsum(seg)
        run = np.maximum.accumulate(seg * (n_o + 1) + spay) - seg * (n_o + 1)
        ev = stag == 1
        matched = ev & (run > 0)
        oidx = run[matched] - 1
        eidx = order[matched] - n_o  # position in the events arrays
        return pa.table({
            "event_id": pa.array(eid[eidx], pa.int64()),
            "user_id": pa.array(ekeys[eidx], pa.int64()),
            "o_orderkey": pa.array(oid[oidx], pa.int64()),
            "o_totalprice": pa.array(oprice[oidx], pa.float64()),
        })

    ev = _pq(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        tag_events, batch_format="pyarrow"
    )
    od = _pq(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    ).map_batches(tag_orders, batch_format="pyarrow")
    return co_partition([ev, od], "key", partitions, merge_partition)


def sessionize(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Stateful per-key ordering: sessions split at >30 min gaps.

    Scale shape — hash-repartition by key, then vectorize WITHIN the
    partition: a per-user ``map_groups`` costs one Python call per user
    (~2 ms each → hours at 10⁷ users), so ``co_partition`` groups by the
    COARSE partition of the user instead.  One shuffle, P Python calls
    total; each call owns complete users and counts session starts with a
    lexsort + segmented reduce — per-event work is pure numpy.  P sizes to
    ~2× the cluster's cores (rows per call = n/P)."""
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def count_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        order = np.lexsort((ts, u))
        us, tss = u[order], ts[order]
        starts = np.ones(us.size, dtype=bool)
        starts[1:] = (us[1:] != us[:-1]) | (tss[1:] - tss[:-1] > 1_800_000_000)
        new_user = np.ones(us.size, dtype=bool)
        new_user[1:] = us[1:] != us[:-1]
        bounds = np.nonzero(new_user)[0]
        return pa.table({
            "user_id": pa.array(us[bounds], pa.int64()),
            "n_sessions": pa.array(np.add.reduceat(starts.astype(np.int64), bounds), pa.int64()),
        })

    return co_partition(ds, "user_id", partitions, count_partition)


def latest_per_key(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Latest-version-per-key dedup — the "keep the newest crawl of each
    URL" primitive (the reference keeps one row per doc key, newest wins —
    DaoXlegalLawContentRecord's replace-on-key upsert): here the latest
    event per user by ts, ties broken by highest event_id.

    Scale shape — partial reduce BEFORE the shuffle: each batch first
    collapses to one winner row per user (lexsort + run-end pick, pure
    numpy), so the groupby shuffle moves at most |keys ∩ batch| rows per
    batch rather than every event — the combiner pattern ``pricing_summary``
    uses, applied to an argmax instead of a sum.  The same run-end pick
    then merges the partials inside each ``co_partition`` user partition
    (P Python calls total, complete users per call)."""
    ds = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def pick_last(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = t.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        e = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((e, ts, u))
        us = u[order]
        run_end = np.ones(us.size, dtype=bool)
        run_end[:-1] = us[1:] != us[:-1]
        keep = order[run_end]
        return pa.table({
            "user_id": pa.array(u[keep], pa.int64()),
            "last_ts_us": pa.array(ts[keep], pa.int64()),
            "last_event_id": pa.array(e[keep], pa.int64()),
            "last_event_type": t.column("event_type").take(pa.array(keep)),
            "last_value": pc.cast(t.column("value").take(pa.array(keep)), pa.float64()),
        })

    def merge_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("last_ts_us").to_numpy(zero_copy_only=False)
        e = g.column("last_event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, ts, u))
        us = u[order]
        run_end = np.ones(us.size, dtype=bool)
        run_end[:-1] = us[1:] != us[:-1]
        keep = pa.array(order[run_end])
        return g.take(keep)

    return co_partition(
        ds.map_batches(pick_last, batch_format="pyarrow"), "user_id", partitions,
        merge_partition,
    ).select_columns(["user_id", "last_ts_us", "last_event_id",
                      "last_event_type", "last_value"])


def quantiles_by_group(sf_dir: str, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> pd.DataFrame:
    """Per-group exact quantiles — ``quantiles_price``'s bounded-domain
    histogram trick, keyed: each batch emits its (event_type, cents)
    partial histogram, one groupby-Sum merges them, and the driver cumsums
    a table bounded by |groups| × value-domain (never by row count — the
    property that keeps this exact at 100 TB while ``Dataset.sort`` would
    move every row).  Quantile = value at 1-based rank ``ceil(q · n)``
    within the group, matching the oracle's row_number arithmetic."""
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def hist(t: pa.Table) -> pa.Table:
        et = t.column("event_type").dictionary_encode().combine_chunks()
        codes = et.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        key = codes * (1 << 32) + cents  # cents domain ≪ 2^32
        u, c = np.unique(key, return_counts=True)
        dic = et.dictionary.to_pylist()
        return pa.table({
            "event_type": pa.array([dic[int(k >> 32)] for k in u], pa.string()),
            "cents": pa.array(u & ((1 << 32) - 1), pa.int64()),
            "n": pa.array(c, pa.int64()),
        })

    merged = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(["event_type", "cents"]).aggregate(Sum("n")).to_pandas()
        .sort_values(["event_type", "cents"]).reset_index(drop=True)
    )
    out_g, out_q, out_v = [], [], []
    for g, part in merged.groupby("event_type", sort=True):
        cum = part["sum(n)"].cumsum().to_numpy()
        n = int(cum[-1])
        for q in qs:
            target = int(np.ceil(q * n))
            i = int(np.searchsorted(cum, target, side="left"))
            out_g.append(g)
            out_q.append(q)
            out_v.append(float(part["cents"].iloc[i]) / 100.0)
    return pd.DataFrame({"event_type": out_g, "q": out_q, "value": out_v})


def length_gate(sf_dir: str, lo_q: float = 0.05, hi_q: float = 0.95) -> rd.Dataset:
    """Percentile-derived outlier filter — the "drop the shortest/longest
    5% per language" curation gate, with the thresholds COMPUTED from the
    data (a two-pass derived-threshold pipeline, the shape every adaptive
    quality gate shares).

    Pass 1 reuses the bounded-domain histogram-quantile trick keyed by
    lang (the shuffle carries |langs| × |length-domain| partial rows, never
    documents); the tiny {lang: (lo, hi)} map broadcasts via ``ray.put``
    and pass 2 streams the corpus through one vectorized filter.  Exact
    integer thresholds → bit-exact SQL replay via window row_number."""
    ds = _pq(sf_dir, "documents", ["lang", "n_chars"])

    def hist(t: pa.Table) -> pa.Table:
        lang = t.column("lang").dictionary_encode().combine_chunks()
        codes = lang.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nch = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        key = codes * (1 << 32) + nch
        u, c = np.unique(key, return_counts=True)
        dic = lang.dictionary.to_pylist()
        return pa.table({
            "lang": pa.array([dic[int(k >> 32)] for k in u], pa.string()),
            "n_chars": pa.array(u & ((1 << 32) - 1), pa.int64()),
            "n": pa.array(c, pa.int64()),
        })

    merged = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(["lang", "n_chars"]).aggregate(Sum("n")).to_pandas()
        .sort_values(["lang", "n_chars"]).reset_index(drop=True)
    )
    bounds: dict[str, tuple[int, int]] = {}
    for g, part in merged.groupby("lang", sort=True):
        cum = part["sum(n)"].cumsum().to_numpy()
        n = int(cum[-1])
        vals = part["n_chars"].to_numpy()
        lo = int(vals[np.searchsorted(cum, int(np.ceil(lo_q * n)), side="left")])
        hi = int(vals[np.searchsorted(cum, int(np.ceil(hi_q * n)), side="left")])
        bounds[g] = (lo, hi)
    b_ref = ray.put(bounds)

    def gate(t: pa.Table) -> pa.Table:
        bb = ray.get(b_ref)
        langs = t.column("lang").to_pylist()
        nch = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        lo = np.array([bb[x][0] for x in langs], dtype=np.int64)
        hi = np.array([bb[x][1] for x in langs], dtype=np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "lang": t.column("lang"),
            "n_chars": pa.array(nch, pa.int64()),
            "lo": pa.array(lo, pa.int64()),
            "hi": pa.array(hi, pa.int64()),
            "keep": pa.array((nch >= lo) & (nch <= hi)),
        })

    return _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        gate, batch_format="pyarrow"
    )


def window_active_users(sf_dir: str, window_us: int = 3_600_000_000) -> rd.Dataset:
    """Distinct users per tumbling window — the count-distinct aggregate,
    done as two bounded exchanges: per-batch (window, user) uniques first
    (the partial), one groupby collapses duplicates across batches, a
    second tiny groupby counts per window.  Both shuffles carry at most one
    row per (window, user) — never one per event."""
    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = t.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        win = ts // window_us
        key = np.unique(win * (1 << 32) + u)  # user_id domain ≪ 2^32
        return pa.table({
            "win": pa.array(key >> 32, pa.int64()),
            "user_id": pa.array(key & ((1 << 32) - 1), pa.int64()),
        })

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["win" if c == "win" else "n_users" if c == "count()" else c
             for c in t.column_names]
        )

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby(["win", "user_id"]).aggregate(Count())
        .map_batches(lambda t: t.select(["win", "user_id"]), batch_format="pyarrow")
        .groupby("win").aggregate(Count())
        .map_batches(rename, batch_format="pyarrow")
    )


def rollup_events(sf_dir: str) -> pd.DataFrame:
    """ROLLUP aggregation — (event_type, day) totals plus per-type subtotals
    plus the grand total, the reporting shape warehouses produce with
    GROUP BY ROLLUP.  The corpus is scanned ONCE: per-batch integer-cent
    partials collapse to the fine (event_type, day) level through one tiny
    groupby, and the coarser levels derive from the AGGREGATED table on the
    driver (bounded by |types| × |days|, never by row count).  Rolled-up
    keys use '*' / -1 sentinels so the SQL replay (COALESCE over ROLLUP)
    hash-compares exactly."""
    ds = _pq(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t.column("event_type").dictionary_encode().combine_chunks()
        codes = et.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ts = t.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        day = ts // 86_400_000_000
        cents = np.rint(t.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        key = codes * (1 << 32) + day  # day domain ≪ 2^32
        u, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv)
        c = np.bincount(inv, weights=cents).astype(np.int64)
        dic = et.dictionary.to_pylist()
        return pa.table({
            "event_type": pa.array([dic[int(k >> 32)] for k in u], pa.string()),
            "day": pa.array(u & ((1 << 32) - 1), pa.int64()),
            "n": pa.array(n, pa.int64()),
            "cents": pa.array(c, pa.int64()),
        })

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "day"]).aggregate(Sum("n"), Sum("cents"))
        .to_pandas()
        .rename(columns={"sum(n)": "n", "sum(cents)": "cents"})
    )
    sub = (
        fine.groupby("event_type", as_index=False)[["n", "cents"]].sum()
        .assign(day=-1)
    )
    grand = pd.DataFrame({
        "event_type": ["*"], "day": [-1],
        "n": [int(fine["n"].sum())], "cents": [int(fine["cents"].sum())],
    })
    out = pd.concat(
        [fine[["event_type", "day", "n", "cents"]], sub[["event_type", "day", "n", "cents"]], grand],
        ignore_index=True,
    )
    out["total_value"] = out.pop("cents").astype(np.int64) / 100.0
    return out.rename(columns={"n": "n_events"}).sort_values(
        ["event_type", "day"]).reset_index(drop=True)


def corr_qty_price(sf_dir: str) -> pd.DataFrame:
    """Grouped Pearson correlation (l_quantity vs l_extendedprice per
    l_returnflag) as an EXACT distributed algebraic aggregate.

    Scale pattern: the five sufficient statistics (n, Σx, Σy, Σxy, Σx², Σy²)
    are summed per batch inside map_batches, so the shuffle moves
    O(groups × blocks) rows.  Σy² of int64 cents overflows int64 across a
    big corpus, so each batch emits it as two int64 limbs (hi = v >> 30,
    lo = v & (2^30-1)); the limbs sum safely through Ray's int64 groupby
    (hi ≤ 9.1e8/batch → ~10^7 batches before overflow, i.e. >10 PB) and are
    recombined driver-side in Python arbitrary-precision ints.  The final
    correlation is computed from exact integers with the same double-op
    order as the DuckDB HUGEINT oracle — bit-identical, block-order
    independent."""
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.rint(t.column("l_quantity").to_numpy(zero_copy_only=False)).astype(np.int64)
        y = np.rint(t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        yy = y * y  # ≤ ~1.2e14 per row; safe for batches ≤ ~7e4 rows
        t2 = pa.table({
            "l_returnflag": t["l_returnflag"],
            "n": pa.array(np.ones(len(x), np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x),
            "syy_hi": pa.array(yy >> 30), "syy_lo": pa.array(yy & ((1 << 30) - 1)),
        })
        g = pa.TableGroupBy(t2, "l_returnflag").aggregate(
            [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy_hi", "syy_lo")]
        )
        return g.rename_columns(["l_returnflag", "n", "sx", "sy", "sxy", "sxx", "syy_hi", "syy_lo"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("l_returnflag")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxy", "sxx", "syy_hi", "syy_lo")])
        .to_pandas()  # O(groups) rows
    )
    out = []
    for r in agg.itertuples(index=False):
        n, sx, sy, sxy, sxx = (int(r.n), int(r.sx), int(r.sy), int(r.sxy), int(r.sxx))
        syy = (int(r.syy_hi) << 30) + int(r.syy_lo)
        # same op order as the oracle: double(numerator) / sqrt / sqrt
        corr = float(n * sxy - sx * sy) / math.sqrt(float(n * sxx - sx * sx)) / math.sqrt(
            float(n * syy - sy * sy)
        )
        out.append((r.l_returnflag, n, corr))
    return (
        pd.DataFrame(out, columns=["l_returnflag", "n_rows", "corr_qp"])
        .sort_values("l_returnflag").reset_index(drop=True)
    )


def regression_by_group(sf_dir: str) -> pd.DataFrame:
    """Grouped simple OLS (l_extendedprice-cents on l_quantity per
    l_returnflag): slope, intercept and R² as an EXACT distributed
    algebraic aggregate — the per-cohort drift/trend fit a curation
    pipeline runs over quality metrics at corpus scale.

    Same scale pattern as ``corr_qty_price``: the six sufficient statistics
    sum per batch inside map_batches (shuffle moves O(groups × blocks)
    rows); Σy² rides as two int64 limbs so nothing overflows short of
    >10 PB; the finalize recombines exact Python ints and evaluates
    slope/intercept/R² with the same double-op order as the DuckDB HUGEINT
    oracle — bit-identical, block-order independent."""
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.rint(t.column("l_quantity").to_numpy(zero_copy_only=False)).astype(np.int64)
        y = np.rint(t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        yy = y * y
        t2 = pa.table({
            "l_returnflag": t["l_returnflag"],
            "n": pa.array(np.ones(len(x), np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x),
            "syy_hi": pa.array(yy >> 30), "syy_lo": pa.array(yy & ((1 << 30) - 1)),
        })
        g = pa.TableGroupBy(t2, "l_returnflag").aggregate(
            [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy_hi", "syy_lo")]
        )
        return g.rename_columns(["l_returnflag", "n", "sx", "sy", "sxy", "sxx", "syy_hi", "syy_lo"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("l_returnflag")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxy", "sxx", "syy_hi", "syy_lo")])
        .to_pandas()  # O(groups) rows
    )
    out = []
    for r in agg.itertuples(index=False):
        n, sx, sy, sxy, sxx = (int(r.n), int(r.sx), int(r.sy), int(r.sxy), int(r.sxx))
        syy = (int(r.syy_hi) << 30) + int(r.syy_lo)
        cov_n, var_x, var_y = n * sxy - sx * sy, n * sxx - sx * sx, n * syy - sy * sy
        # same op order as the oracle: exact-int differences → one double
        # division each
        slope = float(cov_n) / float(var_x)
        intercept = (float(sy) - slope * float(sx)) / float(n)
        # r2 as a product of two double ratios — cov² would overflow the
        # oracle's HUGEINT at full scale, this shape never squares an int
        r2 = slope * (float(cov_n) / float(var_y))
        out.append((r.l_returnflag, n, slope, intercept, r2))
    return (
        pd.DataFrame(out, columns=["l_returnflag", "n_rows", "slope", "intercept", "r2"])
        .sort_values("l_returnflag").reset_index(drop=True)
    )


def price_histogram(sf_dir: str, width_cents: int = 100_000) -> rd.Dataset:
    """Equal-width histogram of l_extendedprice ($1000 bins): per-batch
    int-cents bucketing + in-block combine, then a tiny groupby — the
    standard partial-aggregation shape; counts and sums exact int64."""
    ds = _pq(sf_dir, "lineitem", ["l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.rint(t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        t2 = pa.table({
            "bin": pa.array(cents // width_cents),
            "n": pa.array(np.ones(len(cents), np.int64)),
            "cents": pa.array(cents),
        })
        g = pa.TableGroupBy(t2, "bin").aggregate([("n", "sum"), ("cents", "sum")])
        return g.rename_columns(["bin", "n", "cents"])

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "bin": t["bin"], "n_items": t["n"],
            "sum_price": pc.divide(pc.cast(t["cents"], pa.float64()), 100.0),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n"), Sum("cents", alias_name="cents"))
        .map_batches(finalize, batch_format="pyarrow")
    )


def json_field_stats(sf_dir: str) -> rd.Dataset:
    """Per-event-type stats of the numeric ``k`` field inside the JSON
    ``props`` column — the semi-structured-extraction primitive of an event
    pipeline.  Extraction is the vectorized Arrow C++ RE2 kernel
    (pc.extract_regex), NOT a per-row json.loads; the aggregate is the usual
    partial-combine.  All-integer → exact; the oracle replays the same regex
    in DuckDB (also RE2)."""
    ds = _pq(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column("props"), r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        t2 = pa.table({
            "event_type": t["event_type"],
            "n": pa.array(np.ones(len(t), np.int64)),
            "sum_k": k, "min_k": k, "max_k": k,
        })
        g = pa.TableGroupBy(t2, "event_type").aggregate(
            [("n", "sum"), ("sum_k", "sum"), ("min_k", "min"), ("max_k", "max")]
        )
        return g.rename_columns(["event_type", "n", "sum_k", "min_k", "max_k"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n_events"), Sum("sum_k", alias_name="sum_k"),
            Min("min_k", alias_name="min_k"), Max("max_k", alias_name="max_k"),
        )
    )


def running_total(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Per-user running total (SUM OVER ROWS UNBOUNDED PRECEDING, ordered by
    ts then event_id) — the windowed prefix sum of a feature pipeline.
    Same ``co_partition`` shape as sessionize (one shuffle on the user),
    then a lexsort + segmented cumsum inside each partition
    (per-event work is pure numpy; cents-exact int64)."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def cumsum_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        eid = g.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(g.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        order = np.lexsort((eid, ts, u))
        us, cs = u[order], np.cumsum(cents[order])
        new_user = np.ones(us.size, dtype=bool)
        new_user[1:] = us[1:] != us[:-1]
        bounds = np.nonzero(new_user)[0]
        counts = np.diff(np.append(bounds, us.size))
        seg_base = np.repeat(cs[bounds] - cents[order][bounds], counts)
        return pa.table({
            "event_id": pa.array(eid[order], pa.int64()),
            "user_id": pa.array(us, pa.int64()),
            "running_value": pa.array((cs - seg_base) / 100.0, pa.float64()),
        })

    return co_partition(ds, "user_id", partitions, cumsum_partition)


def running_max_drawdown(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Per-user running MAX and drawdown (peak value so far minus current,
    ordered by ts then event_id) — the prefix-extremum window primitive
    running_total's cumsum can't express.  Same ONE-shuffle coarse-partition
    shape; the segmented cummax is a single ``np.maximum.accumulate`` over
    segment-offset-shifted values (each user's run rides at
    ``seg_id * 2^42``, far above the int-cents span, so the accumulate
    resets itself at every user boundary — no per-user Python, no scan
    loop).  Cents-exact int64 until the final /100 both sides share."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    _SEG = np.int64(1) << 42  # > any |cents| span; ~2e6 users/partition max

    def cummax_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        eid = g.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(g.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        order = np.lexsort((eid, ts, u))
        us, v = u[order], cents[order]
        new_user = np.ones(us.size, dtype=bool)
        new_user[1:] = us[1:] != us[:-1]
        seg_id = np.cumsum(new_user) - 1
        run_max = np.maximum.accumulate(v + seg_id * _SEG) - seg_id * _SEG
        return pa.table({
            "event_id": pa.array(eid[order], pa.int64()),
            "user_id": pa.array(us, pa.int64()),
            "running_max": pa.array(run_max.astype(np.float64) / 100.0, pa.float64()),
            "drawdown": pa.array((run_max - v).astype(np.float64) / 100.0, pa.float64()),
        })

    return co_partition(ds, "user_id", partitions, cummax_partition)


def event_gaps(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Per-user LAG: microseconds since the user's previous event (-1 for
    the first), ordered by (ts, event_id) — the lag/lead window primitive,
    coarse-partitioned and vectorized like running_total."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])

    def lag_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        eid = g.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, ts, u))
        us, tss = u[order], ts[order]
        gap = np.empty(us.size, np.int64)
        gap[0] = -1
        gap[1:] = np.where(us[1:] == us[:-1], tss[1:] - tss[:-1], -1)
        return pa.table({
            "event_id": pa.array(eid[order], pa.int64()),
            "user_id": pa.array(us, pa.int64()),
            "gap_us": pa.array(gap, pa.int64()),
        })

    return co_partition(ds, "user_id", partitions, lag_partition)


def pivot_event_counts(sf_dir: str) -> rd.Dataset:
    """PIVOT: per-user event-type counts as fixed columns — per-batch
    indicator columns + in-block combine, then the tiny groupby-sum (the
    partial-aggregation shape; the wide row never exists pre-aggregation)."""
    types = ("click", "view", "purchase", "signup", "error")
    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        for ty in types:
            cols[f"n_{ty}"] = pc.cast(pc.equal(t["event_type"], ty), pa.int64())
        t2 = pa.table(cols)
        g = pa.TableGroupBy(t2, "user_id").aggregate([(f"n_{ty}", "sum") for ty in types])
        return g.rename_columns(["user_id"] + [f"n_{ty}" for ty in types])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*[Sum(f"n_{ty}", alias_name=f"n_{ty}") for ty in types])
    )


def left_enrich_events(sf_dir: str) -> rd.Dataset:
    """Broadcast LEFT OUTER join: events × supplier on user_id = s_suppkey,
    misses null-filled with 'none' — same ray.put-once / searchsorted-probe
    shape as dim_enrich but preserving unmatched rows (outer semantics)."""
    import pyarrow.parquet as pq

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    sk = sup.column("s_suppkey").to_numpy().astype(np.int64)
    order = np.argsort(sk)
    side_ref = ray.put((sk[order],
                        np.array(sup.column("s_name").to_pylist(), dtype=object)[order]))
    ds = _pq(sf_dir, "events", ["event_id", "user_id"])

    def probe(t: pa.Table) -> pa.Table:
        keys, names = ray.get(side_ref)
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.clip(np.searchsorted(keys, uid), 0, len(keys) - 1)
        hit = keys[idx] == uid
        out = np.where(hit, names[idx], "none")
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "supp_name": pa.array(out.tolist(), pa.string()),
        })

    return ds.map_batches(probe, batch_format="pyarrow")


def order_revenue_join(sf_dir: str, partitions: int = 64) -> rd.Dataset:
    """Large-×-large co-partitioned equi-join — the shuffle hash join the
    broadcast pattern can't do: lineitem revenue per order joined with
    orders on orderkey, aggregated to revenue per order priority.

    Scale shape: lineitem first collapses per (batch, orderkey) — the
    partial-agg combiner — so the join input is one row per order per
    block, not one per line.  ``co_partition`` unions both sides keyed on
    orderkey and co-locates matching keys; inside a partition the probe is
    a numpy searchsorted, and only O(priorities) partial rows leave each
    partition.  ONE shuffle total, no driver-side table.  Revenue
    accumulates in exact 10^-4-dollar int64 units (same as
    pricing_summary)."""
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def li_partial(t: pa.Table) -> pa.Table:
        base_u = np.rint(t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        disc_h = np.rint(t.column("l_discount").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        t2 = pa.table({
            "key": t["l_orderkey"],
            "rev_u": pa.array(base_u * (100 - disc_h), pa.int64()),
        })
        g = pa.TableGroupBy(t2, "key").aggregate([("rev_u", "sum")])
        k = g["key"]
        return pa.table({
            "key": k, "rev_u": g["rev_u_sum"],
            "priority": pa.nulls(len(g), pa.string()),
        })

    def orders_tag(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"]
        return pa.table({
            "key": k, "rev_u": pa.nulls(len(t), pa.int64()),
            "priority": t["o_orderpriority"],
        })

    def join_partition(g: pa.Table) -> pa.Table:
        pr = g.column("priority").to_numpy(zero_copy_only=False)
        is_order = pd.notna(pr)
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        rev = g.column("rev_u").to_numpy(zero_copy_only=False)
        okey, opri = key[is_order], pr[is_order]
        o_order = np.argsort(okey, kind="stable")
        okey, opri = okey[o_order], opri[o_order]
        lkey = key[~is_order]
        lrev = rev[~is_order].astype(np.int64)
        idx = np.clip(np.searchsorted(okey, lkey), 0, max(len(okey) - 1, 0))
        hit = (okey[idx] == lkey) if len(okey) else np.zeros(len(lkey), bool)
        t2 = pa.table({
            "o_orderpriority": pa.array(opri[idx[hit]].tolist(), pa.string()),
            "rev_u": pa.array(lrev[hit]),
            "key": pa.array(lkey[hit]),
        })
        gp = pa.TableGroupBy(t2, "o_orderpriority").aggregate(
            [("rev_u", "sum"), ("key", "count_distinct")]
        )
        return gp.rename_columns(["o_orderpriority", "rev_u", "n_orders"])

    both = [li.map_batches(li_partial, batch_format="pyarrow"),
            orders.map_batches(orders_tag, batch_format="pyarrow")]
    agg = (
        co_partition(both, "key", partitions, join_partition)
        .groupby("o_orderpriority")
        .aggregate(Sum("rev_u", alias_name="rev_u"), Sum("n_orders", alias_name="n_orders"))
    )
    return agg.map_batches(
        lambda t: pa.table({
            "o_orderpriority": t["o_orderpriority"], "n_orders": t["n_orders"],
            "revenue": pc.divide(pc.cast(t["rev_u"], pa.float64()), 10000.0),
        }),
        batch_format="pyarrow",
    )


def moving_avg(sf_dir: str, window: int = 5, partitions: int = 32) -> rd.Dataset:
    """Trailing-window moving average (ROWS BETWEEN 4 PRECEDING AND CURRENT
    ROW) of event value per user — coarse-partitioned like running_total;
    the window sum is a cumsum difference with the window start clamped to
    the user segment (pure numpy, cents-exact)."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def mavg_partition(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = g.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        eid = g.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(g.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        order = np.lexsort((eid, ts, u))
        us, c = u[order], cents[order]
        new_user = np.ones(us.size, dtype=bool)
        new_user[1:] = us[1:] != us[:-1]
        seg_start = np.maximum.accumulate(np.where(new_user, np.arange(us.size), 0))
        lo = np.maximum(seg_start, np.arange(us.size) - (window - 1))
        cs = np.concatenate(([0], np.cumsum(c)))
        ws = cs[np.arange(us.size) + 1] - cs[lo]
        n = np.arange(us.size) - lo + 1
        return pa.table({
            "event_id": pa.array(eid[order]),
            "user_id": pa.array(us),
            "mavg": pa.array(ws.astype(np.float64) / 100.0 / n, pa.float64()),
        })

    return co_partition(ds, "user_id", partitions, mavg_partition)


def interval_overlap_join(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Interval OVERLAP join with VARIABLE durations — the third join
    primitive Ray Data lacks natively (``asof_latest_order`` is point-vs-
    latest, ``range_join_events`` is point-vs-fixed-window; this one is
    interval-vs-interval): pair every open ('O') order interval with every
    finished ('F') order interval of the SAME customer that overlaps it,
    where an order's interval is [o_orderdate, o_orderdate +
    (o_orderkey % 30 + 1) days] — a data-dependent duration, so it does NOT
    reduce to a shifted range join.

    Scale shape — ONE shuffle on the coarse ``custkey % P`` key co-locates
    each customer's intervals; within a partition the candidate set is the
    per-key A×B cross product expanded by repeat/arange arithmetic and
    masked by the overlap predicate — no Python per group.  Partitioning
    assumption: per-key interval counts are bounded (orders per customer
    here; salt hot keys + dedup when they are not), so the expansion is
    O(Σ|A_k||B_k|), never |partition|².  At equal boundaries the overlap is
    CLOSED (a.start <= b.end AND b.start <= a.end), matching the SQL."""
    DAY_US = 86_400_000_000

    def tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["o_orderstatus"], value_set=pa.array(["O", "F"])))
        okey = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        s = pc.cast(t["o_orderdate"], pa.int64()).to_numpy(zero_copy_only=False)
        e = s + (okey % 30 + 1) * DAY_US
        side = pc.equal(t["o_orderstatus"], "F").to_numpy(zero_copy_only=False).astype(np.int8)
        cust = t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(cust), "side": pa.array(side),
            "okey": pa.array(okey), "s": pa.array(s), "e": pa.array(e),
        })

    def match_partition(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "o_custkey": pa.array([], pa.int64()),
            "a_orderkey": pa.array([], pa.int64()),
            "b_orderkey": pa.array([], pa.int64()),
        })
        n = g.num_rows
        if n == 0:
            return empty
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        side = g.column("side").to_numpy(zero_copy_only=False).astype(np.int64)
        okey = g.column("okey").to_numpy(zero_copy_only=False).astype(np.int64)
        s = g.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        e = g.column("e").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((okey, s, side, key))
        key, side, okey, s, e = key[order], side[order], okey[order], s[order], e[order]
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = key[1:] != key[:-1]
        seg = np.cumsum(new_key) - 1           # segment id per row
        nseg = int(seg[-1]) + 1
        seg_rows = np.bincount(seg, minlength=nseg)
        n_a = np.bincount(seg, weights=(side == 0), minlength=nseg).astype(np.int64)
        n_b = (seg_rows - n_a).astype(np.int64)
        seg_start = np.zeros(nseg, np.int64)
        seg_start[1:] = np.cumsum(seg_rows)[:-1]
        a_start, b_start = seg_start, seg_start + n_a  # A sorts before B (side 0 < 1)
        ppseg = n_a * n_b                       # candidate pairs per segment
        total = int(ppseg.sum())
        if total == 0:
            return empty
        pair_seg = np.repeat(np.arange(nseg), ppseg)
        offs = np.concatenate(([0], np.cumsum(ppseg)[:-1]))
        within = np.arange(total) - np.repeat(offs, ppseg)
        a_idx = a_start[pair_seg] + within // n_b[pair_seg]
        b_idx = b_start[pair_seg] + within % n_b[pair_seg]
        ok = (s[a_idx] <= e[b_idx]) & (s[b_idx] <= e[a_idx])
        a_idx, b_idx = a_idx[ok], b_idx[ok]
        return pa.table({
            "o_custkey": pa.array(key[a_idx]),
            "a_orderkey": pa.array(okey[a_idx]),
            "b_orderkey": pa.array(okey[b_idx]),
        })

    tagged = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus",
                                    "o_orderdate"]).map_batches(tag, batch_format="pyarrow")
    return co_partition(tagged, "key", partitions, match_partition)


def outlier_flags(sf_dir: str) -> rd.Dataset:
    """EXACT per-group z-score outlier flags (|x − μ| > 1.5σ over
    ``o_totalprice`` cents per ``o_orderpriority``) with no float anywhere
    in the decision — the quality-gate shape of a curation pipeline where a
    float threshold would make the kept-set block-order dependent.  (1.5σ,
    not 2σ: a bounded-support distribution like this table's uniform prices
    has NO mass beyond 2σ ≈ 0.58·range, so a 2σ gate is vacuous on it.)

    Scale shape — two streaming passes: pass 1 is the corr_qty_price
    algebraic-aggregate pattern (per-batch partial n/Σx/Σx² with Σx² as
    int64 hi/lo limbs, one O(groups) shuffle); the driver recombines limbs
    in Python big ints and turns each group's variance into an INTEGER
    threshold T = isqrt(9(nΣx² − (Σx)²)) — 2·|xn − Σx| > T is then exactly
    (x−μ)² > (1.5σ)² because both sides are integers (⌊√C⌋ < a ⟺ a² > C
    with a = 2|dev|).  Pass 2 streams the corpus through a stateless
    vectorized comparison against the 5-entry broadcast table.
    ``dev_scaled`` (= xn − Σx) stays int64-safe (with the ×2 headroom) up
    to ~7e10 rows per group at max cents; past that the flag math moves to
    limbs the same way Σx² already does."""
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.rint(t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        xx = x * x
        t2 = pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "n": pa.array(np.ones(len(x), np.int64)),
            "sx": pa.array(x),
            "sxx_hi": pa.array(xx >> 30),
            "sxx_lo": pa.array(xx & ((1 << 30) - 1)),
        })
        g = pa.TableGroupBy(t2, "o_orderpriority").aggregate(
            [(c, "sum") for c in ("n", "sx", "sxx_hi", "sxx_lo")]
        )
        return g.rename_columns(["o_orderpriority", "n", "sx", "sxx_hi", "sxx_lo"])

    stats = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("o_orderpriority")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sxx_hi", "sxx_lo")])
        .to_pandas()  # O(groups) rows
    )
    thr: dict[str, tuple[int, int, int]] = {}
    for r in stats.itertuples(index=False):
        n, sx = int(r.n), int(r.sx)
        sxx = (int(r.sxx_hi) << 30) + int(r.sxx_lo)
        thr[r.o_orderpriority] = (n, sx, math.isqrt(9 * (n * sxx - sx * sx)))

    def flag(t: pa.Table) -> pa.Table:
        x = np.rint(t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        pr = t.column("o_orderpriority").to_pylist()
        n_arr = np.fromiter((thr[p][0] for p in pr), np.int64, len(pr))
        sx_arr = np.fromiter((thr[p][1] for p in pr), np.int64, len(pr))
        t_arr = np.fromiter((thr[p][2] for p in pr), np.int64, len(pr))
        dev = x * n_arr - sx_arr
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_orderpriority": t["o_orderpriority"],
            "dev_scaled": pa.array(dev),
            "is_outlier": pa.array(2 * np.abs(dev) > t_arr),
        })

    return ds.map_batches(flag, batch_format="pyarrow")


def order_line_concat(sf_dir: str, partitions: int = 64) -> rd.Dataset:
    """Ordered within-group string aggregation (per order: its line numbers
    joined '-' in line order) — the collect_list/string_agg primitive, done
    WITHOUT per-group Python: one coarse ``orderkey % P`` shuffle, a
    partition-wide lexsort, then the group strings are built in a single
    Arrow kernel call (``ListArray.from_arrays`` over the group offsets +
    ``pc.binary_join``) — the same segment arithmetic as sessionize, but
    producing variable-length string state instead of counts.  The sort key
    (orderkey, linenumber) is total for this table; a table with duplicate
    sort keys would need one more tie-break column to stay deterministic."""

    def concat_partition(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({
                "l_orderkey": pa.array([], pa.int64()),
                "n_lines": pa.array([], pa.int64()),
                "line_sig": pa.array([], pa.string()),
            })
        ok = g.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ln = g.column("l_linenumber").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ln, ok))
        ok, ln = ok[order], ln[order]
        new = np.ones(ok.size, dtype=bool)
        new[1:] = ok[1:] != ok[:-1]
        starts = np.nonzero(new)[0]
        offsets = np.concatenate((starts, [ok.size])).astype(np.int32)
        la = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pc.cast(pa.array(ln), pa.string())
        )
        return pa.table({
            "l_orderkey": pa.array(ok[starts]),
            "n_lines": pa.array(np.diff(offsets).astype(np.int64)),
            "line_sig": pc.binary_join(la, "-"),
        })

    return co_partition(_pq(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"]),
                        "l_orderkey", partitions, concat_partition)


# (column, canonicalization) pairs profiled by profile_columns: strings keep
# identity for distinctness (hashed to int63 for the shuffle key) and carry
# no min/max; numerics canonicalize to exact int64 (cents / rounded units /
# epoch-us) so min/max and distinctness are float-free on both sides.
_PROFILE_COLS = (
    ("l_returnflag", "str"),
    ("l_linestatus", "str"),
    ("l_quantity", "unit"),
    ("l_extendedprice", "cents"),
    ("l_shipdate", "ts"),
)


def profile_columns(sf_dir: str) -> pd.DataFrame:
    """Column profiling (the dataset-card step): per column — row count,
    null count, EXACT distinct count, and min/max (numerics only) over
    ``lineitem``, computed without ever materializing a column.

    Scale shape — pass 1 collapses each batch to its distinct
    (col, value, is_null) partial counts, so the only shuffle moves
    Σ|distinct| rows, never the corpus; pass 2 re-aggregates the distinct
    table per column DISTRIBUTED (count of value rows = exact distinct, sum
    of counts = rows, min/max over canonical ints) so the driver receives
    exactly one row per profiled column.  String values travel as their
    md5-low63 (distinctness is hash-faithful; min/max for strings is NULL
    by contract — lexical order of a hash is meaningless)."""
    import hashlib

    def _low63(sv: str) -> int:
        return int.from_bytes(hashlib.md5(sv.encode()).digest()[8:], "little") >> 1

    def partial(t: pa.Table) -> pa.Table:
        cols, vals, cnts, nulls = [], [], [], []
        for name, kind in _PROFILE_COLS:
            arr = t[name]
            n_null = arr.null_count
            a = arr.drop_null()
            if kind == "str":
                u, c = np.unique(np.asarray(a.to_pylist(), dtype=object), return_counts=True)
                v = np.fromiter((_low63(sv) for sv in u), np.int64, len(u))
            else:
                if kind == "cents":
                    raw = np.rint(a.to_numpy(zero_copy_only=False) * 100).astype(np.int64)
                elif kind == "unit":
                    raw = np.rint(a.to_numpy(zero_copy_only=False)).astype(np.int64)
                else:  # ts → epoch us
                    raw = pc.cast(a, pa.int64()).to_numpy(zero_copy_only=False)
                v, c = np.unique(raw, return_counts=True)
            k = len(v) + (1 if n_null else 0)
            cols.append(np.full(k, name, dtype=object))
            vals.append(np.concatenate((v, [0])) if n_null else v)
            cnts.append(np.concatenate((c, [n_null])) if n_null else c)
            nulls.append(np.concatenate((np.zeros(len(v), np.int8), [1])) if n_null
                         else np.zeros(len(v), np.int8))
        return pa.table({
            "col_name": pa.array(np.concatenate(cols), pa.string()),
            "v": pa.array(np.concatenate(vals), pa.int64()),
            "is_null": pa.array(np.concatenate(nulls), pa.int8()),
            "cnt": pa.array(np.concatenate(cnts).astype(np.int64)),
        })

    def per_col_partial(t: pa.Table) -> pa.Table:
        # operates on the distinct table: one partial row per column per block
        col = np.asarray(t.column("col_name").to_pylist(), dtype=object)
        v = t.column("v").to_numpy(zero_copy_only=False)
        isn = t.column("is_null").to_numpy(zero_copy_only=False).astype(bool)
        cnt = t.column("cnt").to_numpy(zero_copy_only=False)
        names, nd, nr, nn, mn, mx = [], [], [], [], [], []
        for name in np.unique(col):
            m = col == name
            mv, mc, mnul = v[m], cnt[m], isn[m]
            names.append(str(name))
            nd.append(int((~mnul).sum()))
            nr.append(int(mc.sum()))
            nn.append(int(mc[mnul].sum()))
            live = mv[~mnul]
            # neutral sentinels so an all-null slice can't corrupt Min/Max
            mn.append(int(live.min()) if live.size else np.iinfo(np.int64).max)
            mx.append(int(live.max()) if live.size else np.iinfo(np.int64).min)
        return pa.table({
            "col_name": pa.array(names, pa.string()),
            "nd": pa.array(nd, pa.int64()), "nr": pa.array(nr, pa.int64()),
            "nn": pa.array(nn, pa.int64()),
            "mn": pa.array(mn, pa.int64()), "mx": pa.array(mx, pa.int64()),
        })

    agg = (
        _pq(sf_dir, "lineitem", [c for c, _ in _PROFILE_COLS])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["col_name", "v", "is_null"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(per_col_partial, batch_format="pyarrow")
        .groupby("col_name")
        .aggregate(
            Sum("nd", alias_name="n_distinct"), Sum("nr", alias_name="n_rows"),
            Sum("nn", alias_name="n_nulls"),
            Min("mn", alias_name="min_v"), Max("mx", alias_name="max_v"),
        )
        .to_pandas()  # exactly one row per profiled column
    )
    kinds = dict(_PROFILE_COLS)
    is_str = agg["col_name"].map(kinds) == "str"
    agg["min_v"] = np.where(is_str, np.nan, agg["min_v"].astype(np.float64))
    agg["max_v"] = np.where(is_str, np.nan, agg["max_v"].astype(np.float64))
    return (
        agg[["col_name", "n_rows", "n_nulls", "n_distinct", "min_v", "max_v"]]
        .sort_values("col_name").reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# TPC-H Q3-shaped two-stage co-partitioned join pipeline
# --------------------------------------------------------------------------

_Q3_CUT_US = 897_868_800_000_000  # 1998-06-15 epoch-us; both date predicates


def q3_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                         k: int = 10, partitions: int = 64) -> pd.DataFrame:
    """TPC-H Q3 (shipping priority): top-k unshipped BUILDING orders by
    outstanding lineitem revenue — the classic three-table analytics shape
    (filter → join → join → group → top-k) run as ONE streaming pipeline
    with exactly TWO co-partitioned shuffles and a k-bounded driver merge.

    Scale shape: stage A co-partitions customer (filtered to the segment)
    and orders (filtered o_orderdate < cut) on custkey — the
    ``order_revenue_join`` ``co_partition`` + searchsorted hash join, no
    broadcast (both sides scale with SF).  Stage B re-keys the surviving
    orders on ``orderkey`` and co-partitions them with lineitem partials
    (revenue pre-summed per (batch, orderkey) in exact 10^-4-dollar int64
    units BEFORE the shuffle; l_shipdate > cut pruned at the batch).  Each
    partition emits only its local top-k, so the driver merge is bounded
    by k × P rows.  Ties break (rev desc, o_orderdate, l_orderkey) in pure
    integers — bit-exact against the SQL replay."""
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])
    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def cust_tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["c_mktsegment"], segment))
        k_ = t["c_custkey"]
        return pa.table({
            "key": k_,
            "okey": pa.nulls(len(t), pa.int64()),
            "odate": pa.nulls(len(t), pa.int64()),
            "opri": pa.nulls(len(t), pa.string()),
        })

    def orders_tag(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").view(np.int64)
        t = t.filter(pa.array(od < _Q3_CUT_US))
        od = od[od < _Q3_CUT_US]
        return pa.table({
            "key": t["o_custkey"],
            "okey": t["o_orderkey"],
            "odate": pa.array(od, pa.int64()),
            "opri": t["o_orderpriority"],
        })

    def semi_join_orders(g: pa.Table) -> pa.Table:
        okey_col = g.column("okey").to_numpy(zero_copy_only=False)
        is_cust = pd.isna(okey_col)
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        ck = np.sort(key[is_cust])
        okeys = key[~is_cust]
        idx = np.clip(np.searchsorted(ck, okeys), 0, max(ck.size - 1, 0))
        hit = (ck[idx] == okeys) if ck.size else np.zeros(okeys.size, bool)
        keep = np.nonzero(~is_cust)[0][hit]
        return pa.table({
            "okey": g.column("okey").take(pa.array(keep)),
            "odate": g.column("odate").take(pa.array(keep)),
            "opri": g.column("opri").take(pa.array(keep)),
        })

    building_orders = co_partition(
        [cust.map_batches(cust_tag, batch_format="pyarrow"),
         orders.map_batches(orders_tag, batch_format="pyarrow")],
        "key", partitions, semi_join_orders)

    def orders_rekey(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["okey"],
            "rev_u": pa.nulls(len(t), pa.int64()),
            "odate": t["odate"], "opri": t["opri"],
        })

    def li_partial(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").view(np.int64)
        t = t.filter(pa.array(sd > _Q3_CUT_US))
        base_u = np.rint(t.column("l_extendedprice").to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        disc_h = np.rint(t.column("l_discount").to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        t2 = pa.table({"key": t["l_orderkey"],
                       "rev_u": pa.array(base_u * (100 - disc_h), pa.int64())})
        g = pa.TableGroupBy(t2, "key").aggregate([("rev_u", "sum")])
        kk = g["key"]
        return pa.table({
            "key": kk, "rev_u": g["rev_u_sum"],
            "odate": pa.nulls(len(g), pa.int64()),
            "opri": pa.nulls(len(g), pa.string()),
        })

    def join_topk(g: pa.Table) -> pa.Table:
        opri = g.column("opri").to_numpy(zero_copy_only=False)
        is_order = pd.notna(opri)
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        rev = g.column("rev_u").to_numpy(zero_copy_only=False)
        odate = g.column("odate").to_numpy(zero_copy_only=False)
        okey, od, op = key[is_order], odate[is_order].astype(np.int64), opri[is_order]
        o_order = np.argsort(okey, kind="stable")
        okey, od, op = okey[o_order], od[o_order], op[o_order]
        lkey = key[~is_order]
        lrev = rev[~is_order].astype(np.int64)
        # per-order revenue completes HERE: all of an order's partials and
        # its orders row share the partition (both keyed on orderkey)
        u, inv = np.unique(lkey, return_inverse=True)
        total = np.bincount(inv, weights=lrev).astype(np.int64)
        idx = np.clip(np.searchsorted(okey, u), 0, max(okey.size - 1, 0))
        hit = (okey[idx] == u) if okey.size else np.zeros(u.size, bool)
        u, total, idx = u[hit], total[hit], idx[hit]
        top = np.lexsort((u, od[idx], -total))[:k]  # local top-k partial
        return pa.table({
            "l_orderkey": pa.array(u[top], pa.int64()),
            "rev_u": pa.array(total[top], pa.int64()),
            "o_orderdate_us": pa.array(od[idx][top], pa.int64()),
            "o_orderpriority": pa.array(op[idx][top].tolist(), pa.string()),
        })

    cand = co_partition(
        [building_orders.map_batches(orders_rekey, batch_format="pyarrow"),
         li.map_batches(li_partial, batch_format="pyarrow")],
        "key", partitions, join_topk,
    ).to_pandas()  # ≤ k × P rows
    order = np.lexsort((cand["l_orderkey"].to_numpy(np.int64),
                        cand["o_orderdate_us"].to_numpy(np.int64),
                        -cand["rev_u"].to_numpy(np.int64)))[:k]
    out = cand.iloc[order].reset_index(drop=True)
    out["revenue"] = out.pop("rev_u").astype(np.int64) / 10000.0
    return out[["l_orderkey", "revenue", "o_orderdate_us", "o_orderpriority"]]


# --------------------------------------------------------------------------
# Daily OHLC — associative first/last/min/max partials
# --------------------------------------------------------------------------

def ohlc_daily(sf_dir: str) -> pd.DataFrame:
    """Per-day OHLC bars over events.value: open/close are the values at
    the earliest/latest (ts, event_id) of the day, high/low the int-cent
    extremes — the time-series compaction every metrics store runs.

    Open/close are ARGMIN/ARGMAX aggregates, which Ray Data lacks natively;
    they carry as associative partials instead: each batch emits one row
    per day holding (open_key, open_cents, close_key, close_cents, hi, lo,
    n), and partials merge by the same keyed-extreme rule inside a tiny
    groupby(day).map_groups (bounded by |days| groups, ≤ blocks rows each).
    The corpus itself never shuffles."""
    ds = _pq(sf_dir, "events", ["event_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column("ts").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").view(np.int64)
        eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(t.column("value").to_numpy(zero_copy_only=False) * 100
                        ).astype(np.int64)
        day = ts // 86_400_000_000
        order = np.lexsort((eid, ts, day))
        d, tss, eids, cs = day[order], ts[order], eid[order], cents[order]
        head = np.ones(d.size, dtype=bool)
        head[1:] = d[1:] != d[:-1]
        bounds = np.nonzero(head)[0]
        tail = np.append(bounds[1:], d.size) - 1
        inv = np.cumsum(head) - 1
        return pa.table({
            "day": pa.array(d[bounds], pa.int64()),
            "o_ts": pa.array(tss[bounds], pa.int64()),
            "o_eid": pa.array(eids[bounds], pa.int64()),
            "o_cents": pa.array(cs[bounds], pa.int64()),
            "c_ts": pa.array(tss[tail], pa.int64()),
            "c_eid": pa.array(eids[tail], pa.int64()),
            "c_cents": pa.array(cs[tail], pa.int64()),
            "hi": pa.array(np.maximum.reduceat(cs, bounds), pa.int64()),
            "lo": pa.array(np.minimum.reduceat(cs, bounds), pa.int64()),
            "n": pa.array(np.bincount(inv).astype(np.int64)),
        })

    def merge(g: pa.Table) -> pa.Table:
        gp = g.to_pandas()
        first = gp.loc[np.lexsort((gp["o_eid"], gp["o_ts"]))[0]]
        last = gp.loc[np.lexsort((gp["c_eid"], gp["c_ts"]))[-1]]
        return pa.table({
            "day": pa.array([int(gp["day"].iloc[0])], pa.int64()),
            "open": pa.array([int(first["o_cents"]) / 100.0], pa.float64()),
            "high": pa.array([int(gp["hi"].max()) / 100.0], pa.float64()),
            "low": pa.array([int(gp["lo"].min()) / 100.0], pa.float64()),
            "close": pa.array([int(last["c_cents"]) / 100.0], pa.float64()),
            "n_events": pa.array([int(gp["n"].sum())], pa.int64()),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("day").map_groups(merge, batch_format="pyarrow")
        .to_pandas()  # ≤ |days| rows
        .sort_values("day").reset_index(drop=True)
    )


def mad_per_group(sf_dir: str) -> pd.DataFrame:
    """Robust dispersion per group: median and median-absolute-deviation of
    l_extendedprice (exact cents) per l_returnflag.

    Scale shape: ONE distributed pass builds the per-(group, cents)
    histogram (the ``quantiles_by_group`` bounded-domain trick — the merged
    table is bounded by |groups| × price domain, never by row count); the
    driver then derives BOTH order statistics from that same histogram:
    the median at 1-based rank ceil(n/2), and the MAD by folding the
    histogram around the median (|cents − med| re-aggregated, counts
    summed where deviations collide) and ranking again.  No second data
    pass, no sort, integer-exact."""
    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def hist(t: pa.Table) -> pa.Table:
        flag = t.column("l_returnflag").dictionary_encode().combine_chunks()
        codes = flag.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        key = codes * (1 << 32) + cents
        u, c = np.unique(key, return_counts=True)
        dic = flag.dictionary.to_pylist()
        return pa.table({
            "l_returnflag": pa.array([dic[int(k >> 32)] for k in u], pa.string()),
            "cents": pa.array(u & ((1 << 32) - 1), pa.int64()),
            "n": pa.array(c, pa.int64()),
        })

    merged = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(["l_returnflag", "cents"]).aggregate(Sum("n")).to_pandas()
        .sort_values(["l_returnflag", "cents"]).reset_index(drop=True)
    )
    out_g, out_med, out_mad = [], [], []
    for g, part in merged.groupby("l_returnflag", sort=True):
        vals = part["cents"].to_numpy(np.int64)
        cnts = part["sum(n)"].to_numpy(np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        target = int(np.ceil(0.5 * n))
        med = int(vals[np.searchsorted(cum, target, side="left")])
        dev = np.abs(vals - med)
        order = np.argsort(dev, kind="stable")
        dev_s, cnt_s = dev[order], cnts[order]
        # collapse colliding deviations (x below and above the median fold)
        uniq = np.ones(len(dev_s), bool)
        uniq[1:] = dev_s[1:] != dev_s[:-1]
        run_id = np.cumsum(uniq) - 1
        dcnt = np.bincount(run_id, weights=cnt_s).astype(np.int64)
        dcum = np.cumsum(dcnt)
        mad = int(dev_s[uniq][np.searchsorted(dcum, target, side="left")])
        out_g.append(g)
        out_med.append(med / 100.0)
        out_mad.append(mad / 100.0)
    return pd.DataFrame({"l_returnflag": out_g, "median": out_med, "mad": out_mad})


def robust_outliers(sf_dir: str) -> rd.Dataset:
    """Robust (median/MAD) outlier gate — the quality-filter variant of
    ``outlier_flags`` that survives heavy tails: keep lineitems whose
    price deviates from the group median by more than 1.5×MAD
    (integer-exact as ``2·|cents − med| > 3·mad``).

    Scale shape: the per-group (med, mad) state comes from the ONE
    bounded-histogram pass of ``mad_per_group`` (|groups| rows on the
    driver), broadcast into a vectorized filter ``map_batches`` — the
    data itself streams once and never shuffles."""
    stats = mad_per_group(sf_dir)
    med = {g: int(round(m * 100)) for g, m in
           zip(stats["l_returnflag"], stats["median"])}
    mad = {g: int(round(m * 100)) for g, m in
           zip(stats["l_returnflag"], stats["mad"])}

    ds = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice"])

    def gate(t: pa.Table) -> pa.Table:
        flags = t.column("l_returnflag").to_numpy(zero_copy_only=False)
        cents = np.rint(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uniq, inv = np.unique(flags, return_inverse=True)  # |groups| lookups
        meds = np.array([med[u] for u in uniq], np.int64)[inv]
        mads = np.array([mad[u] for u in uniq], np.int64)[inv]
        keep = 2 * np.abs(cents - meds) > 3 * mads
        return t.filter(pa.array(keep))

    return ds.map_batches(gate, batch_format="pyarrow")


def key_skew_gini(sf_dir: str) -> pd.DataFrame:
    """Key-skew diagnostic for shuffle planning: the exact Gini coefficient
    of the rows-per-key distribution for candidate partitioning keys
    (``lineitem.l_orderkey``, ``orders.o_custkey``).  Gini ≈ 0 means
    uniform group sizes (safe to hash-partition on that key); Gini → 1
    means a few hot keys own the table — salt before any groupby/join on
    it (the measurement ``skew_salted_join`` acts on).

    Scale shape: per-batch ``np.unique`` partials collapse each block to
    its distinct keys, ONE groupby(key) sum yields group sizes, then a
    SECOND reduction folds the sizes into a {size → n_keys} histogram —
    group sizes repeat heavily, so that table is tiny regardless of corpus
    scale — and the exact rank-sum Gini is finished from the histogram
    with integer arithmetic: for a run of f equal sizes spanning ranks
    a..b, sum(2i−n−1) telescopes to f·((a+b)−(n+1)).  No global sort and
    nothing data-sized ever reaches the driver.  SQL-oracled via the
    row_number rank-sum window formula (tie rank assignment is
    sum-invariant within equal sizes)."""
    from ray.data.aggregate import Sum as _Sum

    def _gini(table: str, key: str) -> dict:
        ds = _pq(sf_dir, table, [key])

        def key_partial(t: pa.Table) -> pa.Table:
            k, c = np.unique(
                t.column(key).to_numpy(zero_copy_only=False).astype(np.int64),
                return_counts=True,
            )
            return pa.table({"k": pa.array(k), "c": pa.array(c.astype(np.int64))})

        sizes = (
            ds.map_batches(key_partial, batch_format="pyarrow")
            .groupby("k").aggregate(_Sum("c", alias_name="sz"))
        )

        def size_partial(t: pa.Table) -> pa.Table:
            s, f = np.unique(
                t.column("sz").to_numpy(zero_copy_only=False), return_counts=True
            )
            return pa.table({"sz": pa.array(s.astype(np.int64)),
                             "f": pa.array(f.astype(np.int64))})

        hist = (
            sizes.map_batches(size_partial, batch_format="pyarrow")
            .groupby("sz").aggregate(_Sum("f", alias_name="f"))
            .to_pandas()  # |distinct sizes| rows — tiny at any scale
            .sort_values("sz").reset_index(drop=True)
        )
        sz = hist["sz"].to_numpy(np.int64)
        f = hist["f"].to_numpy(np.int64)
        n = int(f.sum())
        tot = int((sz * f).sum())
        b = np.cumsum(f)            # run end ranks (1-based)
        a = b - f + 1               # run start ranks
        s = int((sz * f * ((a + b) - (n + 1))).sum())
        return {"key_name": f"{table}.{key}", "n_keys": n,
                "total_rows": tot, "gini": s / (n * tot)}

    rows = [_gini("lineitem", "l_orderkey"), _gini("orders", "o_custkey")]
    return pd.DataFrame(rows)
