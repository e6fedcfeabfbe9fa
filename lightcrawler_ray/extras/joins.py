"""Join-plan showcases the crawl engine's relational layer doesn't cover
elsewhere: an explicitly skew-salted fact×dim equi-join, a three-shuffle
TPC-H-Q5-shaped multiway join, and a co-partitioned EXISTS semi-join.

These exist because the north rule calls for "partitioning / shuffle /
skew handled explicitly": the crawl side already row-range-partitions hot
hosts (pipelines/crawl.py); this module is the same discipline applied to
relational joins, each oracle-checked bit-exact against DuckDB.

Scale shapes:

- ``skew_salted_join`` — the classic salted join: a bounded sample of the
  fact side (the head of every block, ``copartition.hot_keys``) nominates
  hot keys (anything above ``hot_frac`` of the sample), hot FACT rows
  fan out over ``n_salts`` deterministic salts while hot DIM rows are
  replicated once per salt, and the single co-partitioning shuffle keys
  on (key, salt) so a hot key's rows land on ``n_salts`` different
  partitions instead of one straggler.  Results are salt-invariant by
  construction — the DuckDB oracle (a plain join) is
  the proof.  The hot-key list is bounded by 1/hot_frac regardless of
  data size; it travels as one ``ray.put`` broadcast, never per batch.
- ``q5_local_supplier`` — customer ⋈ orders ⋈ lineitem ⋈ supplier ⋈
  nation ⋈ region (the TPC-H Q5 shape: revenue by nation where the
  customer's and the line's supplier's nation agree, one region, one
  date window).  Plan: nation/region are genuinely constant-size and
  ride a broadcast; the three data-sized joins are THREE co-partitioned
  union+searchsorted shuffles, re-keying custkey → orderkey → suppkey,
  with partial aggregation before every exchange (stage 2 collapses
  lineitem rows to (suppkey, cust-nation) partials; stage 3 emits one
  row per nation per partition).  No stage broadcasts a data-sized side
  and no stage holds more than one partition.
- ``semi_join_parts`` — EXISTS semi-join: part rows kept iff at least one
  qualifying lineitem references them.  The probe side collapses to
  per-batch distinct keys before the ONE shuffle (the exchange moves at
  most |part| probe keys per block, never lineitem rows), and the
  partition-local membership test is a sorted searchsorted.

Reference semantics being generalized: SpiderFrame's per-site
detail⋈dimension enrichments (DaoXlegalLawContentRecord joins content
rows to site/category dimensions before sinking) — here rebuilt as
explicit Ray Data exchange plans.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from lightcrawler_ray.copartition import co_partition, hot_keys
from lightcrawler_ray.relational import _pq as _pq_default

_TARGET_READ_BLOCK = 32 << 20  # 32 MiB


def _pq(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    """Byte-sized read blocks for the barrier-heavy exchange plans here.

    Ray's default read parallelism (>= 2x CPUs) over-splits small files into
    dozens of KB blocks; every sort-shuffle downstream then pays per-block
    task overhead at each barrier.  Splitting by bytes (~32 MiB/block) gives
    the identical many-block layout at 100 TB but collapses toy-scale inputs
    to a handful of blocks (measured: q5_local_supplier 14.1 s -> 5.0 s at
    sf0.1).  Falls back to the shared reader when the file size is unknown.
    """
    import os

    path = f"{sf_dir}/{table}.parquet"
    try:
        size = os.path.getsize(path)
    except OSError:
        return _pq_default(sf_dir, table, columns)
    from lightcrawler_ray import storage

    blocks = max(1, -(-size // _TARGET_READ_BLOCK))
    return storage.read_parquet_clean(path, columns=columns,
                                      override_num_blocks=blocks)


_Q5_LO = np.datetime64("1996-01-01", "us")
_Q5_HI = np.datetime64("1998-01-01", "us")
_SEMI_LO = np.datetime64("2000-01-01", "us")


def _rev_u(t: pa.Table, price_col: str = "l_extendedprice",
           disc_col: str = "l_discount") -> np.ndarray:
    """Exact 10^-4-dollar revenue units (same contract as pricing_summary)."""
    base_u = np.rint(t.column(price_col).to_numpy(zero_copy_only=False) * 100).astype(np.int64)
    disc_h = np.rint(t.column(disc_col).to_numpy(zero_copy_only=False) * 100).astype(np.int64)
    return base_u * (100 - disc_h)


# ---------------------------------------------------------------------------
# skew-salted fact×dim join
# ---------------------------------------------------------------------------

def skew_salted_join(sf_dir: str, partitions: int = 64, n_salts: int = 8,
                     sample_rows: int = 4096, hot_frac: float = 0.004) -> rd.Dataset:
    """lineitem ⋈ part on partkey → (p_brand, n_lines, revenue), with hot
    partkeys salted across ``n_salts`` partitions.

    The sample pass is bounded (the first ``sample_rows`` rows of every
    block, keys above ``hot_frac`` of the sample nominated — at most
    1/hot_frac keys, see ``copartition.hot_keys``); salting changes only
    WHERE rows meet, never the result, which is what the plain-SQL oracle
    certifies.
    """
    assert n_salts <= 16  # packed key = partkey * 16 + salt
    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_partkey", "l_extendedprice", "l_discount"])
    dim = _pq(sf_dir, "part", ["p_partkey", "p_brand"])

    hot_ref = ray.put(hot_keys(li, "l_partkey", sample_rows, hot_frac))

    mask = np.int64(n_salts - 1)

    def fact_partial(t: pa.Table) -> pa.Table:
        hotset = ray.get(hot_ref)
        key = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        okey = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        lno = t.column("l_linenumber").to_numpy(zero_copy_only=False).astype(np.int64)
        salt = (okey * np.int64(2654435761) + lno) & mask
        if hotset:
            hot_arr = np.fromiter(hotset, dtype=np.int64, count=len(hotset))
            salt = np.where(np.isin(key, hot_arr), salt, 0)
        else:
            salt = np.zeros(len(key), np.int64)
        packed = key * 16 + salt
        t2 = pa.table({"packed": pa.array(packed), "rev_u": pa.array(_rev_u(t)),
                       "n": pa.array(np.ones(len(key), np.int64))})
        g = pa.TableGroupBy(t2, "packed").aggregate([("rev_u", "sum"), ("n", "sum")])
        return pa.table({
            "packed": g["packed"], "rev_u": g["rev_u_sum"], "n": g["n_sum"],
            "brand": pa.nulls(len(g), pa.string()),
        })

    def dim_replicate(t: pa.Table) -> pa.Table:
        hotset = ray.get(hot_ref)
        key = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        brand = t.column("p_brand").to_numpy(zero_copy_only=False)
        if hotset:
            hot_arr = np.fromiter(hotset, dtype=np.int64, count=len(hotset))
            is_hot = np.isin(key, hot_arr)
        else:
            is_hot = np.zeros(len(key), bool)
        reps = np.where(is_hot, n_salts, 1).astype(np.int64)
        ridx = np.repeat(np.arange(len(key)), reps)
        # salt runs 0..reps-1 within each replicated row
        offs = np.concatenate(([0], np.cumsum(reps)[:-1]))
        salts = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(offs, reps)
        packed = key[ridx] * 16 + salts
        return pa.table({
            "packed": pa.array(packed),
            "rev_u": pa.nulls(len(packed), pa.int64()),
            "n": pa.nulls(len(packed), pa.int64()),
            "brand": pa.array(brand[ridx].tolist(), pa.string()),
        })

    def join_partition(g: pa.Table) -> pa.Table:
        br = g.column("brand").to_numpy(zero_copy_only=False)
        is_dim = pd.notna(br)
        packed = g.column("packed").to_numpy(zero_copy_only=False).astype(np.int64)
        dkey, dbrand = packed[is_dim], br[is_dim]
        order = np.argsort(dkey, kind="stable")
        dkey, dbrand = dkey[order], dbrand[order]
        fkey = packed[~is_dim]
        frev = g.column("rev_u").to_numpy(zero_copy_only=False)[~is_dim].astype(np.int64)
        fn = g.column("n").to_numpy(zero_copy_only=False)[~is_dim].astype(np.int64)
        if len(dkey) == 0 or len(fkey) == 0:
            return pa.table({"p_brand": pa.array([], pa.string()),
                             "rev_u": pa.array([], pa.int64()),
                             "n_lines": pa.array([], pa.int64())})
        idx = np.clip(np.searchsorted(dkey, fkey), 0, len(dkey) - 1)
        hit = dkey[idx] == fkey
        t2 = pa.table({
            "p_brand": pa.array(dbrand[idx[hit]].tolist(), pa.string()),
            "rev_u": pa.array(frev[hit]), "n_lines": pa.array(fn[hit]),
        })
        gp = pa.TableGroupBy(t2, "p_brand").aggregate([("rev_u", "sum"), ("n_lines", "sum")])
        return gp.rename_columns(["p_brand", "rev_u", "n_lines"])

    both = [li.map_batches(fact_partial, batch_format="pyarrow"),
            dim.map_batches(dim_replicate, batch_format="pyarrow")]
    agg = (
        co_partition(both, "packed", partitions, join_partition)
        .groupby("p_brand")
        .aggregate(Sum("rev_u", alias_name="rev_u"), Sum("n_lines", alias_name="n_lines"))
    )
    return agg.map_batches(
        lambda t: pa.table({
            "p_brand": t["p_brand"], "n_lines": t["n_lines"],
            "revenue": pc.divide(pc.cast(t["rev_u"], pa.float64()), 10000.0),
        }),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# TPC-H-Q5-shaped multiway join
# ---------------------------------------------------------------------------

def q5_local_supplier(sf_dir: str, region: str = "ASIA",
                      partitions: int = 64) -> rd.Dataset:
    """Revenue per nation from lineitems whose customer and supplier share
    a nation inside ``region``, orders dated [1996-01-01, 1998-01-01).

    Three co-partitioned shuffles (custkey → orderkey → suppkey), partial
    aggregation before every exchange, constant-size nation/region
    broadcast only.  See module docstring for the plan.
    """
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet")  # 25 rows — constant dim
    reg = pq.read_table(f"{sf_dir}/region.parquet")   # 5 rows
    rkey = {r["r_name"]: r["r_regionkey"] for r in reg.to_pylist()}[region]
    nat_rows = [r for r in nat.to_pylist() if r["n_regionkey"] == rkey]
    region_nations = frozenset(int(r["n_nationkey"]) for r in nat_rows)
    nation_name = {int(r["n_nationkey"]): r["n_name"] for r in nat_rows}
    nat_arr = np.fromiter(region_nations, dtype=np.int64, count=len(region_nations))

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    supp = _pq(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    # --- stage 1: customer ⋈ orders on custkey --------------------------
    def cust_tag(t: pa.Table) -> pa.Table:
        ck = t.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        nk = t.column("c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(nk, nat_arr)
        ck, nk = ck[keep], nk[keep]
        return pa.table({
            "key": pa.array(ck), "nat": pa.array(nk),
            "okey": pa.nulls(len(ck), pa.int64()),
        })

    def orders_tag(t: pa.Table) -> pa.Table:
        dt = t.column("o_orderdate").to_numpy(zero_copy_only=False)
        keep = (dt >= _Q5_LO) & (dt < _Q5_HI)
        ck = t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        ok = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        return pa.table({
            "key": pa.array(ck), "nat": pa.nulls(len(ck), pa.int64()),
            "okey": pa.array(ok),
        })

    def join_cust(g: pa.Table) -> pa.Table:
        nat_col = g.column("nat").to_numpy(zero_copy_only=False)
        is_cust = pd.notna(nat_col)
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        ckey, cnat = key[is_cust], nat_col[is_cust].astype(np.int64)
        order = np.argsort(ckey, kind="stable")
        ckey, cnat = ckey[order], cnat[order]
        okey = g.column("okey").to_numpy(zero_copy_only=False)
        fkey, fok = key[~is_cust], okey[~is_cust].astype(np.int64)
        if len(ckey) == 0 or len(fkey) == 0:
            return pa.table({"okey": pa.array([], pa.int64()),
                             "cnat": pa.array([], pa.int64())})
        idx = np.clip(np.searchsorted(ckey, fkey), 0, len(ckey) - 1)
        hit = ckey[idx] == fkey
        return pa.table({"okey": pa.array(fok[hit]), "cnat": pa.array(cnat[idx[hit]])})

    s1 = co_partition([cust.map_batches(cust_tag, batch_format="pyarrow"),
                       orders.map_batches(orders_tag, batch_format="pyarrow")],
                      "key", partitions, join_cust)

    # --- stage 2: (okey, cnat) ⋈ lineitem on orderkey --------------------
    def s1_tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "okey": t["okey"], "cnat": t["cnat"],
            "suppkey": pa.nulls(len(t), pa.int64()),
            "rev_u": pa.nulls(len(t), pa.int64()),
        })

    def li_tag(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "okey": pa.array(ok), "cnat": pa.nulls(len(ok), pa.int64()),
            "suppkey": t["l_suppkey"], "rev_u": pa.array(_rev_u(t)),
        })

    def join_orders(g: pa.Table) -> pa.Table:
        cnat = g.column("cnat").to_numpy(zero_copy_only=False)
        is_ord = pd.notna(cnat)
        okey = g.column("okey").to_numpy(zero_copy_only=False).astype(np.int64)
        okeys, onat = okey[is_ord], cnat[is_ord].astype(np.int64)
        order = np.argsort(okeys, kind="stable")
        okeys, onat = okeys[order], onat[order]
        lkey = okey[~is_ord]
        lsupp = g.column("suppkey").to_numpy(zero_copy_only=False)[~is_ord].astype(np.int64)
        lrev = g.column("rev_u").to_numpy(zero_copy_only=False)[~is_ord].astype(np.int64)
        if len(okeys) == 0 or len(lkey) == 0:
            return pa.table({"suppkey": pa.array([], pa.int64()),
                             "cnat": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        idx = np.clip(np.searchsorted(okeys, lkey), 0, len(okeys) - 1)
        hit = okeys[idx] == lkey
        t2 = pa.table({"suppkey": pa.array(lsupp[hit]), "cnat": pa.array(onat[idx[hit]]),
                       "rev_u": pa.array(lrev[hit])})
        gp = pa.TableGroupBy(t2, ["suppkey", "cnat"]).aggregate([("rev_u", "sum")])
        return gp.rename_columns(["suppkey", "cnat", "rev_u"])

    s2 = co_partition([s1.map_batches(s1_tag, batch_format="pyarrow"),
                       li.map_batches(li_tag, batch_format="pyarrow")],
                      "okey", partitions, join_orders)

    # --- stage 3: partials ⋈ supplier on suppkey -------------------------
    def supp_tag(t: pa.Table) -> pa.Table:
        sk = t.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "suppkey": pa.array(sk),
            "snat": pc.cast(t["s_nationkey"], pa.int64()),
            "cnat": pa.nulls(len(sk), pa.int64()),
            "rev_u": pa.nulls(len(sk), pa.int64()),
        })

    def s2_tag(t: pa.Table) -> pa.Table:
        sk = t.column("suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "suppkey": pa.array(sk), "snat": pa.nulls(len(sk), pa.int64()),
            "cnat": t["cnat"], "rev_u": t["rev_u"],
        })

    def join_supp(g: pa.Table) -> pa.Table:
        snat = g.column("snat").to_numpy(zero_copy_only=False)
        is_supp = pd.notna(snat)
        sk = g.column("suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        skeys, snats = sk[is_supp], snat[is_supp].astype(np.int64)
        order = np.argsort(skeys, kind="stable")
        skeys, snats = skeys[order], snats[order]
        fkey = sk[~is_supp]
        fcnat = g.column("cnat").to_numpy(zero_copy_only=False)[~is_supp].astype(np.int64)
        frev = g.column("rev_u").to_numpy(zero_copy_only=False)[~is_supp].astype(np.int64)
        if len(skeys) == 0 or len(fkey) == 0:
            return pa.table({"nat": pa.array([], pa.int64()),
                             "rev_u": pa.array([], pa.int64())})
        idx = np.clip(np.searchsorted(skeys, fkey), 0, len(skeys) - 1)
        hit = (skeys[idx] == fkey) & (snats[idx] == fcnat)
        t2 = pa.table({"nat": pa.array(fcnat[hit]), "rev_u": pa.array(frev[hit])})
        gp = pa.TableGroupBy(t2, "nat").aggregate([("rev_u", "sum")])
        return gp.rename_columns(["nat", "rev_u"])

    partials = co_partition([supp.map_batches(supp_tag, batch_format="pyarrow"),
                             s2.map_batches(s2_tag, batch_format="pyarrow")],
                            "suppkey", partitions, join_supp)

    # join_supp emits <= partitions * |region nations| partial rows (bounded
    # by plan parameters, not data), so the final merge is a single-block
    # coalesce + local sum instead of a fourth sort-shuffle.
    def finish(t: pa.Table) -> pa.Table:
        gp = pa.TableGroupBy(t, "nat").aggregate([("rev_u", "sum")])
        gp = gp.rename_columns(["nat", "rev_u"])
        nats = gp.column("nat").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n_name": pa.array([nation_name[int(n)] for n in nats], pa.string()),
            "revenue": pc.divide(pc.cast(gp["rev_u"], pa.float64()), 10000.0),
        })

    return partials.repartition(1).map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# co-partitioned EXISTS semi-join
# ---------------------------------------------------------------------------

def semi_join_parts(sf_dir: str, partitions: int = 32,
                    min_discount: float = 0.05) -> rd.Dataset:
    """Parts with at least one lineitem shipped on/after 2000-01-01 at
    discount ≥ ``min_discount`` — EXISTS semi-join, probe side collapsed
    to per-batch distinct keys before the single shuffle."""
    dim = _pq(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    li = _pq(sf_dir, "lineitem", ["l_partkey", "l_discount", "l_shipdate"])

    def probe_partial(t: pa.Table) -> pa.Table:
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        ship = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        keep = (disc >= min_discount) & (ship >= _SEMI_LO)
        keys = np.unique(
            t.column("l_partkey").to_numpy(zero_copy_only=False)[keep].astype(np.int64))
        return pa.table({
            "key": pa.array(keys),
            "p_brand": pa.nulls(len(keys), pa.string()),
            "p_size": pa.nulls(len(keys), pa.int32()),
        })

    def dim_tag(t: pa.Table) -> pa.Table:
        k = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(k), "p_brand": t["p_brand"], "p_size": t["p_size"],
        })

    def semi_partition(g: pa.Table) -> pa.Table:
        brand = g.column("p_brand").to_numpy(zero_copy_only=False)
        is_dim = pd.notna(brand)
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        probe = np.unique(key[~is_dim])
        dkey = key[is_dim]
        if len(probe) == 0 or len(dkey) == 0:
            return pa.table({"p_partkey": pa.array([], pa.int64()),
                             "p_brand": pa.array([], pa.string()),
                             "p_size": pa.array([], pa.int32())})
        idx = np.clip(np.searchsorted(probe, dkey), 0, len(probe) - 1)
        hit = probe[idx] == dkey
        sizes = g.column("p_size").to_numpy(zero_copy_only=False)[is_dim][hit]
        return pa.table({
            "p_partkey": pa.array(dkey[hit]),
            "p_brand": pa.array(brand[is_dim][hit].tolist(), pa.string()),
            "p_size": pa.array(sizes.astype(np.int32)),
        })

    return co_partition([li.map_batches(probe_partial, batch_format="pyarrow"),
                         dim.map_batches(dim_tag, batch_format="pyarrow")],
                        "key", partitions, semi_partition)


# ---------------------------------------------------------------------------
# SCD2 validity intervals
# ---------------------------------------------------------------------------

def scd2_intervals(sf_dir: str, partitions: int = 32) -> rd.Dataset:
    """Type-2 slowly-changing-dimension build: each customer's order
    stream becomes validity intervals — row k valid from its own
    o_orderdate until the customer's next order (NULL for the current
    row).  ONE coarse shuffle on custkey % P, then a partition-local
    lexsort + shifted-array merge (the sessionize pattern); ties on equal
    dates break by orderkey, matching the oracle's ORDER BY."""
    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderdate"])

    def intervals(g: pa.Table) -> pa.Table:
        ck = g.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ok = g.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        dt = g.column("o_orderdate").to_numpy(zero_copy_only=False)
        st = g.column("o_orderstatus").to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, dt.astype("int64"), ck))
        ck, ok, dt, st = ck[order], ok[order], dt[order], st[order]
        nxt = np.empty_like(dt)
        nxt[:-1] = dt[1:]
        same = np.zeros(len(ck), bool)
        if len(ck):
            same[:-1] = ck[1:] == ck[:-1]
        # SCD2 convention: the current (open) interval ends at 9999-12-31,
        # a concrete sentinel rather than NULL so the row hash-compares
        vals = np.where(same, nxt, np.datetime64("9999-12-31", "us"))
        valid_to = pa.array(vals, pa.timestamp("us"))
        return pa.table({
            "o_custkey": pa.array(ck), "o_orderkey": pa.array(ok),
            "o_orderstatus": pa.array(st.tolist(), pa.string()),
            "valid_from": pa.array(dt, pa.timestamp("us")),
            "valid_to": valid_to,
        })

    return co_partition(orders, "o_custkey", partitions, intervals)
