"""Deterministic sampling / ordering primitives for training-data prep:
fixed-quota stratified sampling and the global pseudorandom shuffle every
pretraining run needs — both pure functions of the row key (md5-low64), so
they need no RNG state, survive repartitioning and resume, and replay
bit-exact in DuckDB (``md5_number_lower``).

Scale shapes:
- ``stratified_sample``: per-batch PARTIAL top-k per source (vectorized
  lexsort + run-head slice — the candidate set leaving each batch is at
  most k rows per source present in it), then ONE coarse shuffle on
  hash(source) % P and a final run-head slice.  Quota k bounds what
  shuffles, never the corpus.
- ``shuffle_ranks``: the pack_sequences distributed prefix sum over hash
  buckets — per-bucket counts (tiny groupby), driver cumsum over 4096
  rows, one coarse shuffle, within-partition lexsort + arange.  A global
  pseudorandom total order WITHOUT a global sort.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..copartition import co_partition

_PARTITIONS = 32
_BUCKET_BITS = 12  # 4096 prefix-sum buckets (one i64 per bucket on driver)


def _h64(ids) -> np.ndarray:
    """md5-low64 little-endian of str(id) — the value DuckDB's
    ``md5_number_lower`` computes (uint64)."""
    return np.array(
        [int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:16], "little")
         for i in ids],
        dtype=np.uint64,
    )


def _docs(sf_dir: str, cols: list[str]) -> rd.Dataset:
    from .. import storage

    return storage.read_parquet_clean(f"{sf_dir}/documents.parquet", columns=cols)


def stratified_sample(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """The k hash-smallest docs of every source — fixed-quota stratified
    sampling (eval-slice carving, per-domain spot-check sets).  Rank is
    1-based within the source, ordered by (md5-low64(doc_id), doc_id)."""

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        srcs = np.asarray(t.column("source").to_pylist(), dtype=object)
        h = _h64(ids)
        order = np.lexsort((ids, h, srcs))
        ids, srcs, h = ids[order], srcs[order], h[order]
        new_run = np.ones(len(ids), dtype=bool)
        new_run[1:] = srcs[1:] != srcs[:-1]
        pos = np.arange(len(ids)) - np.maximum.accumulate(
            np.where(new_run, np.arange(len(ids)), 0))
        keep = pos < k
        return pa.table({
            "source_crc": pa.array([zlib.crc32(s.encode()) for s in srcs[keep]], pa.uint32()),
            "source": pa.array(srcs[keep].astype(str), pa.string()),
            "doc_id": pa.array(ids[keep]),
            "h": pa.array(h[keep]),
        })

    def final(g: pd.DataFrame) -> pa.Table:
        ids = g["doc_id"].to_numpy(np.int64)
        srcs = g["source"].to_numpy().astype(str)
        h = g["h"].to_numpy(np.uint64)
        order = np.lexsort((ids, h, srcs))
        ids, srcs, h = ids[order], srcs[order], h[order]
        new_run = np.ones(len(ids), dtype=bool)
        new_run[1:] = srcs[1:] != srcs[:-1]
        pos = np.arange(len(ids)) - np.maximum.accumulate(
            np.where(new_run, np.arange(len(ids)), 0))
        keep = pos < k
        return pa.table({
            "source": pa.array(srcs[keep], pa.string()),
            "doc_id": pa.array(ids[keep]),
            "rank": pa.array((pos[keep] + 1).astype(np.int64)),
        })

    df = co_partition(
        _docs(sf_dir, ["doc_id", "source"]).map_batches(partial, batch_format="pyarrow"),
        "source_crc", _PARTITIONS, final, batch_format="pandas",
    ).to_pandas()
    return df.sort_values(["source", "rank"]).reset_index(drop=True)


def shuffle_ranks(sf_dir: str) -> pd.DataFrame:
    """Every doc's position in the deterministic global shuffle order
    (ascending (md5-low64(doc_id), doc_id)) — the reshuffle step of a
    pretraining data pipeline, as a total order computed WITHOUT a global
    sort: bucket by the hash's top 12 bits, per-bucket counts → driver
    cumsum (4096 i64s) → one coarse shuffle + within-partition lexsort."""
    from ray.data.aggregate import Sum

    def keyed(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = _h64(ids)
        bucket = (h >> np.uint64(64 - _BUCKET_BITS)).astype(np.int64)
        return pa.table({
            "bucket": pa.array(bucket),
            "doc_id": pa.array(ids),
            "h": pa.array(h),
            "one": pa.array(np.ones(len(ids), dtype=np.int64)),
        })

    keys = _docs(sf_dir, ["doc_id"]).map_batches(keyed, batch_format="pyarrow").materialize()
    bc = keys.groupby("bucket").aggregate(Sum("one", alias_name="n")).to_pandas()
    bc = bc.sort_values("bucket").reset_index(drop=True)
    base = np.concatenate(([0], np.cumsum(bc["n"].to_numpy(np.int64))[:-1]))
    base_ref = ray.put({int(b): int(o) for b, o in zip(bc["bucket"], base)})

    def assign(g: pd.DataFrame) -> pa.Table:
        bases = ray.get(base_ref)
        ids = g["doc_id"].to_numpy(np.int64)
        h = g["h"].to_numpy(np.uint64)
        bucket = g["bucket"].to_numpy(np.int64)
        order = np.lexsort((ids, h, bucket))
        ids, h, bucket = ids[order], h[order], bucket[order]
        new_run = np.ones(len(ids), dtype=bool)
        new_run[1:] = bucket[1:] != bucket[:-1]
        within = np.arange(len(ids)) - np.maximum.accumulate(
            np.where(new_run, np.arange(len(ids)), 0))
        off = np.array([bases[int(b)] for b in bucket[new_run]], dtype=np.int64)
        run_id = np.cumsum(new_run) - 1
        return pa.table({
            "doc_id": pa.array(ids),
            "shuffle_rank": pa.array(off[run_id] + within),
        })

    df = co_partition(keys, "bucket", _PARTITIONS, assign, batch_format="pandas").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


_WS_MOD = 1_000_000_000  # p = weight_cents / 10^9 (≤ ~5% on this corpus)


def weighted_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic weighted Bernoulli sampling — each order is kept with
    probability proportional to its total price (importance sampling for
    data mixing / debiased spot-checks), plus the inverse-probability
    weight a downstream unbiased estimator needs.

    The keep rule is a pure function of the row key: keep iff
    ``md5-low64(str(o_orderkey)) % 10^9 < weight_cents`` — no RNG state,
    so the sample is identical across repartitions, retries and resume,
    and replays bit-exact in SQL (``md5_number_lower``).  Embarrassingly
    parallel: one map_batches, no shuffle, no driver state."""
    from .. import storage

    ds = storage.read_parquet_clean(f"{sf_dir}/orders.parquet",
                                    columns=["o_orderkey", "o_totalprice"])

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        h = (_h64(ids) % np.uint64(_WS_MOD)).astype(np.int64)
        m = h < cents
        return pa.table({
            "o_orderkey": pa.array(ids[m], pa.int64()),
            "weight_cents": pa.array(cents[m], pa.int64()),
            "ip_weight": pa.array(float(_WS_MOD) / cents[m], pa.float64()),
        })

    return ds.map_batches(keep, batch_format="pyarrow")
