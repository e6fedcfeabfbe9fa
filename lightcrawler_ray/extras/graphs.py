"""Graph analytics over the item co-visitation graph derived from the
events table — co-occurrence recommendation edges (top-k "users who
touched X also touched Y") and distributed per-node triangle counting.

The graph: node = the integer ``k`` inside the JSON ``props`` column (the
item/page a user touched); undirected edge (a, b) weighted by how many
distinct users touched both.  This is the co-visitation structure a
crawl-corpus curation pipeline mines for related-page clusters (reference
semantics: the per-site link-neighborhood statistics of SpiderFrame's
list/detail graph, generalized to a user-item stream).

Scale shape — nothing here is ever quadratic in users or items globally:

- EDGE DERIVATION is the sessionize coarse-partition pattern: ONE shuffle
  on ``user % P`` co-locates each user's rows, the per-user distinct-item
  sets come from one ``np.unique`` over packed (user, item) int64 keys,
  and the all-pairs expansion inside each user segment is repeat/arange
  arithmetic (output is Σ C(m_u, 2), bounded by per-user activity, never
  |items|²).  Pair counts partial-aggregate inside the partition before
  the global (a, b) groupby — the shuffle moves counted edges, not raw
  pairs.
- TRIANGLE COUNTING is the classic degree-oriented wedge-check (Cohen
  2009, "Graph twiddling in a MapReduce world"): each edge is oriented
  from its (degree, id)-smaller endpoint to the larger, so every node's
  out-neighborhood is O(sqrt(m)) and every triangle has exactly ONE
  wedge-center (its (degree, id)-minimum).  Degrees are attached by TWO
  co-partitioned union+searchsorted merges (the q3_shipping_priority
  join shape — no broadcast: the degree table scales with |V|), wedges
  expand per-center with the same segmented arithmetic, and the final
  wedge∈edges membership check is a third co-partitioned merge on the
  packed (v, w) key.  Five bounded shuffles total; no stage holds more
  than one partition.

All keys and counts are int64 — every operator here hash-compares
bit-exact against its DuckDB replay (see ``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Sum

from ..copartition import co_partition

_PARTITIONS = 32
_PACK = np.int64(1) << 32  # (hi, lo) int64 packing for sub-2^31 ids

# the RE2 pattern json_field_stats established for the props payload —
# DuckDB's regexp_extract replays it verbatim
_ITEM_RE = r'"k": (?P<k>\d+)'


def _items(sf_dir: str) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "props"])

    def extract(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column("props"), _ITEM_RE)
        return pa.table({
            "user_id": t["user_id"],
            "item": pc.cast(pc.struct_field(ex, "k"), pa.int64()),
        })

    return ds.map_batches(extract, batch_format="pyarrow")


def _run_expand(rep: np.ndarray) -> np.ndarray:
    """offsets 1..rep[i] for each run i, concatenated (the range-join
    expansion trick: one arange minus the repeated run starts)."""
    total = int(rep.sum())
    starts = np.cumsum(rep) - rep
    return np.arange(total, dtype=np.int64) - np.repeat(starts, rep) + 1


def _pair_edges(kv: rd.Dataset, key_col: str, item_col: str,
                partitions: int = _PARTITIONS) -> rd.Dataset:
    """Undirected weighted edge list (a, b, cnt) with a < b over any
    (key, item) dataset: cnt = number of distinct keys containing both
    items (users co-visiting pages, orders co-containing parts, ...)."""

    def pairs(g: pa.Table) -> pa.Table:
        u = g.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        i = g.column(item_col).to_numpy(zero_copy_only=False).astype(np.int64)
        s = np.unique(u * _PACK + i)  # distinct (user, item), user-major
        items = s % _PACK
        users = s // _PACK
        n = users.size
        if n == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        new = np.ones(n, dtype=bool)
        new[1:] = users[1:] != users[:-1]
        seg_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        seg_len = np.repeat(
            np.diff(np.append(np.nonzero(new)[0], n)), np.diff(np.append(np.nonzero(new)[0], n)))
        pos = np.arange(n) - seg_start
        rep = seg_len - 1 - pos           # each row pairs with all later rows
        a_idx = np.repeat(np.arange(n), rep)
        b_idx = a_idx + _run_expand(rep)
        t2 = pa.table({"key": pa.array(items[a_idx] * _PACK + items[b_idx]),
                       "c": pa.array(np.ones(a_idx.size, np.int64))})
        gb = pa.TableGroupBy(t2, "key").aggregate([("c", "sum")])
        key = gb["key"].to_numpy(zero_copy_only=False)
        return pa.table({
            "a": pa.array(key // _PACK, pa.int64()),
            "b": pa.array(key % _PACK, pa.int64()),
            "c": pc.cast(gb["c_sum"], pa.int64()),
        })

    return (
        co_partition(kv, key_col, partitions, pairs)
        .groupby(["a", "b"]).aggregate(Sum("c", alias_name="cnt"))
    )


def cooccur_edges(sf_dir: str, partitions: int = _PARTITIONS) -> rd.Dataset:
    """Co-visitation edges over the events stream: cnt = distinct users
    touching both items."""
    return _pair_edges(_items(sf_dir), "user_id", "item", partitions)


def _edges_topk(edges: rd.Dataset, k: int,
                partitions: int = _PARTITIONS) -> rd.Dataset:
    """Per-item top-k strongest co-occurrence partners.  Ties break
    (count desc, other asc); rank is run-position arithmetic after one
    coarse item % P shuffle."""

    def sym(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        item = np.concatenate([a, b])
        other = np.concatenate([b, a])
        cc = np.concatenate([c, c])
        return pa.table({
            "item": pa.array(item), "other": pa.array(other), "cnt": pa.array(cc),
        })

    def head(g: pa.Table) -> pa.Table:
        item = g.column("item").to_numpy(zero_copy_only=False)
        other = g.column("other").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        order = np.lexsort((other, -cnt, item))
        it, ot, ct = item[order], other[order], cnt[order]
        n = it.size
        new = np.ones(n, dtype=bool)
        new[1:] = it[1:] != it[:-1]
        seg_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        rank = np.arange(n) - seg_start + 1
        keep = rank <= k
        return pa.table({
            "item": pa.array(it[keep], pa.int64()),
            "other": pa.array(ot[keep], pa.int64()),
            "cnt": pa.array(ct[keep], pa.int64()),
            "rnk": pa.array(rank[keep].astype(np.int64), pa.int64()),
        })

    return co_partition(edges.map_batches(sym, batch_format="pyarrow"), "item",
                        partitions, head)


def item_cooccurrence_topk(sf_dir: str, k: int = 5,
                           partitions: int = _PARTITIONS) -> rd.Dataset:
    """Per-item top-k co-visited items over the events stream — the
    "related pages" / recommendation primitive."""
    return _edges_topk(cooccur_edges(sf_dir, partitions), k, partitions)


def basket_pairs_topk(sf_dir: str, k: int = 5,
                      partitions: int = _PARTITIONS) -> rd.Dataset:
    """Market-basket co-order pairs: per part, the top-k parts most often
    ordered together with it (distinct co-containing orders) — the same
    pair-expansion engine as the co-visitation graph, over the much wider
    (order, part) bipartite structure of lineitem.  Per-order line counts
    bound the expansion (Σ C(m_o, 2)), never |parts|²."""
    from .. import storage

    kv = storage.read_parquet_clean(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    return _edges_topk(
        _pair_edges(kv, "l_orderkey", "l_partkey", partitions), k, partitions)


def _merge_deg(g: pa.Table) -> pa.Table:
    """Co-partitioned degree attach: deg rows (other is null) map node → d;
    edge rows look their keyed endpoint up via searchsorted."""
    other = g.column("other").to_numpy(zero_copy_only=False)
    is_deg = pd.isna(other)
    node = g.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
    d = g.column("d").to_numpy(zero_copy_only=False)
    dn, dd = node[is_deg], d[is_deg].astype(np.int64)
    o = np.argsort(dn, kind="stable")
    dn, dd = dn[o], dd[o]
    en = node[~is_deg]
    idx = np.clip(np.searchsorted(dn, en), 0, max(dn.size - 1, 0))
    got = dd[idx] if dn.size else np.zeros(en.size, np.int64)
    carry = g.column("carry").to_numpy(zero_copy_only=False)[~is_deg]
    prev = g.column("prev_d").to_numpy(zero_copy_only=False)[~is_deg]
    return pa.table({
        "node": pa.array(en, pa.int64()),
        "carry": pa.array(carry.astype(np.int64), pa.int64()),
        "this_d": pa.array(got, pa.int64()),
        "prev_d": pa.array(np.nan_to_num(prev).astype(np.int64), pa.int64()),
    })


def triangle_counts(sf_dir: str, min_count: int = 3,
                    partitions: int = _PARTITIONS) -> rd.Dataset:
    """Per-node triangle counts over the co-visitation graph thresholded
    at edge weight ≥ min_count — the clustering-coefficient numerator and
    the classic skew-hardened distributed graph kernel.

    Degree-oriented wedge-check: orient every edge from its (deg, id)-
    smaller endpoint; each node's wedge fan-out is then O(sqrt(m)) even
    under power-law skew, and each triangle is found exactly once (at its
    (deg, id)-minimum corner).  Output: (item, triangles), nodes in ≥1
    triangle."""
    edges = cooccur_edges(sf_dir, partitions)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["cnt"], min_count)).select(["a", "b"])

    e = edges.map_batches(keep, batch_format="pyarrow")

    # degree table: one partial per batch, one |V|-bounded groupby
    def deg_partial(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([a, b])
        t2 = pa.table({"node": pa.array(node),
                       "d": pa.array(np.ones(node.size, np.int64))})
        gb = pa.TableGroupBy(t2, "node").aggregate([("d", "sum")])
        return pa.table({"node": gb["node"], "d": pc.cast(gb["d_sum"], pa.int64())})

    deg = (e.map_batches(deg_partial, batch_format="pyarrow")
           .groupby("node").aggregate(Sum("d", alias_name="d")))

    def deg_tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"],
            "other": pa.nulls(len(t), pa.int64()),
            "d": t["d"],
            "carry": pa.nulls(len(t), pa.int64()),
            "prev_d": pa.nulls(len(t), pa.int64()),
        })

    def edge_tag_a(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["a"],
            "other": t["b"],
            "d": pa.nulls(len(t), pa.int64()),
            "carry": t["b"],
            "prev_d": pa.nulls(len(t), pa.int64()),
        })

    # merge 1: attach deg(a); edge travels keyed on a, carries b
    got_da = co_partition(
        [deg.map_batches(deg_tag, batch_format="pyarrow"),
         e.map_batches(edge_tag_a, batch_format="pyarrow")],
        "node", partitions, _merge_deg,
    )  # (node=a, carry=b, this_d=deg(a), prev_d=0)

    def rekey_b(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["carry"],           # now keyed on b
            "other": t["node"],
            "d": pa.nulls(len(t), pa.int64()),
            "carry": t["node"],           # carries a
            "prev_d": t["this_d"],        # deg(a) rides along
        })

    # merge 2: attach deg(b)
    got_db = co_partition(
        [deg.map_batches(deg_tag, batch_format="pyarrow"),
         got_da.map_batches(rekey_b, batch_format="pyarrow")],
        "node", partitions, _merge_deg,
    )  # (node=b, carry=a, this_d=deg(b), prev_d=deg(a))

    def orient(t: pa.Table) -> pa.Table:
        b = t.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        a = t.column("carry").to_numpy(zero_copy_only=False).astype(np.int64)
        db = t.column("this_d").to_numpy(zero_copy_only=False).astype(np.int64)
        da = t.column("prev_d").to_numpy(zero_copy_only=False).astype(np.int64)
        b_first = (db < da) | ((db == da) & (b < a))
        lo = np.where(b_first, b, a)
        hi = np.where(b_first, a, b)
        return pa.table({"lo": pa.array(lo), "hi": pa.array(hi)})

    oriented = got_db.map_batches(orient, batch_format="pyarrow")

    def wedges(g: pa.Table) -> pa.Table:
        lo = g.column("lo").to_numpy(zero_copy_only=False).astype(np.int64)
        hi = g.column("hi").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        n = lo.size
        empty = pa.table({"v": pa.array([], pa.int64()),
                          "w": pa.array([], pa.int64()),
                          "center": pa.array([], pa.int64())})
        if n == 0:
            return empty
        new = np.ones(n, dtype=bool)
        new[1:] = lo[1:] != lo[:-1]
        seg_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        seg_len = np.repeat(
            np.diff(np.append(np.nonzero(new)[0], n)), np.diff(np.append(np.nonzero(new)[0], n)))
        pos = np.arange(n) - seg_start
        rep = seg_len - 1 - pos
        a_idx = np.repeat(np.arange(n), rep)
        b_idx = a_idx + _run_expand(rep)
        v, w = hi[a_idx], hi[b_idx]
        flip = w < v  # canonical v < w by id (edge-set key order)
        return pa.table({
            "v": pa.array(np.where(flip, w, v)),
            "w": pa.array(np.where(flip, v, w)),
            "center": pa.array(lo[a_idx]),
        })

    wedge_ds = co_partition(oriented, "lo", partitions, wedges)

    def _vw_mix(v: pa.ChunkedArray, w: pa.ChunkedArray) -> pa.Array:
        """Partition key of the packed (v, w) pair: a multiplicative mix."""
        key = (v.to_numpy().astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               + w.to_numpy().astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F))
        return pa.array(key >> np.uint64(33))

    def wedge_tag(t: pa.Table) -> pa.Table:
        return t.append_column("vw_mix", _vw_mix(t["v"], t["w"]))

    def edge_tag_vw(t: pa.Table) -> pa.Table:
        return pa.table({
            "v": t["a"], "w": t["b"],
            "center": pa.nulls(len(t), pa.int64()),
            "vw_mix": _vw_mix(t["a"], t["b"]),
        })

    def close_wedges(g: pa.Table) -> pa.Table:
        center = g.column("center").to_numpy(zero_copy_only=False)
        is_edge = pd.isna(center)
        v = g.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        w = g.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        key = v * _PACK + w
        ekeys = np.sort(key[is_edge])
        wk = key[~is_edge]
        idx = np.clip(np.searchsorted(ekeys, wk), 0, max(ekeys.size - 1, 0))
        hit = (ekeys[idx] == wk) if ekeys.size else np.zeros(wk.size, bool)
        cv, cw = v[~is_edge][hit], w[~is_edge][hit]
        cc = center[~is_edge][hit].astype(np.int64)
        node = np.concatenate([cc, cv, cw])  # each triangle credits 3 nodes
        t2 = pa.table({"node": pa.array(node),
                       "t": pa.array(np.ones(node.size, np.int64))})
        gb = pa.TableGroupBy(t2, "node").aggregate([("t", "sum")])
        return pa.table({"item": gb["node"], "t": pc.cast(gb["t_sum"], pa.int64())})

    return (
        co_partition([wedge_ds.map_batches(wedge_tag, batch_format="pyarrow"),
                      e.map_batches(edge_tag_vw, batch_format="pyarrow")],
                     "vw_mix", partitions, close_wedges)
        .groupby("item").aggregate(Sum("t", alias_name="triangles"))
    )


def mode_item_per_user(sf_dir: str, partitions: int = _PARTITIONS) -> rd.Dataset:
    """Per-user modal item (most-frequent ``props.k``; ties break on the
    smaller item) — the per-entity dominant-category primitive.  Counting
    is partial-per-batch then ONE (user, item) groupby; the per-user argmax
    is the topk run-position head with k = 1."""
    ds = _items(sf_dir)

    def count_partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"user_id": t["user_id"], "item": t["item"],
                       "c": pa.array(np.ones(len(t), np.int64))})
        gb = pa.TableGroupBy(t2, ["user_id", "item"]).aggregate([("c", "sum")])
        return pa.table({"user_id": gb["user_id"], "item": gb["item"],
                         "c": pc.cast(gb["c_sum"], pa.int64())})

    counts = (ds.map_batches(count_partial, batch_format="pyarrow")
              .groupby(["user_id", "item"]).aggregate(Sum("c", alias_name="cnt")))

    def argmax(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        i = g.column("item").to_numpy(zero_copy_only=False).astype(np.int64)
        c = g.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((i, -c, u))
        us, is_, cs = u[order], i[order], c[order]
        first = np.ones(us.size, dtype=bool)
        first[1:] = us[1:] != us[:-1]
        return pa.table({
            "user_id": pa.array(us[first], pa.int64()),
            "item": pa.array(is_[first], pa.int64()),
            "cnt": pa.array(cs[first], pa.int64()),
        })

    return co_partition(counts, "user_id", partitions, argmax)
