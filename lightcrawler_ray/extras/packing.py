"""Sequence packing — the training-data prep step that lays tokenized
documents end-to-end into fixed-capacity training sequences (the
"concat-and-chunk" packing used by LLM pretraining pipelines): every doc
gets a global token offset (prefix sum over doc_id order) and the sequence
id / in-sequence offset that follow from it.

Scale shape — a distributed prefix sum, NOT a global sort:
  pass 1: map_batches emits per-doc (gid, doc_id, n_tokens) with a coarse
          group key gid = doc_id // GROUP; a tiny groupby(gid).Sum gives
          one row per group (O(N/GROUP) rows — 2.4 M at 10^10 docs with
          GROUP=4096), whose driver-side cumsum yields each group's global
          start offset.  Only group totals touch the driver, never docs.
  pass 2: ONE coarse shuffle on gid % P; within each partition a lexsort
          by (gid, doc_id) + a segmented cumsum (total cumsum minus each
          run's start, pure numpy) assigns every doc its offset = group
          base + within-group prefix; seq_id/offset_in_seq are integer
          div/mod.  No per-group Python, no global sort, corpus text never
          leaves pass 1's narrow projection.

SQL-oracled: DuckDB replays it as a window-function running sum over
doc_id order — the semantics the two-pass pipeline implements.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..copartition import co_partition

GROUP = 4096  # docs per prefix-sum group (driver holds one i64 per group)
PARTITIONS = 32  # coarse shuffle width for pass 2


def _counts(sf_dir: str, block: int) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def f(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = [len((x or "").split()) for x in t.column("text").to_pylist()]
        return pa.table({
            "gid": pa.array(ids // GROUP, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n, pa.int64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def pack_sequences(sf_dir: str, block: int = 256) -> pd.DataFrame:
    """(doc_id, n_tokens, tok_offset, seq_id, offset_in_seq) for every doc:
    tok_offset = total tokens of all lower-doc_id docs, seq_id =
    tok_offset // block, offset_in_seq = tok_offset % block."""
    from ray.data.aggregate import Sum

    counts = _counts(sf_dir, block)

    # pass 1: group totals -> driver cumsum -> broadcast base offsets
    gt = counts.groupby("gid").aggregate(Sum("n_tokens", alias_name="tot")).to_pandas()
    gt = gt.sort_values("gid").reset_index(drop=True)
    gids = gt["gid"].to_numpy(dtype=np.int64)
    base = np.concatenate(([0], np.cumsum(gt["tot"].to_numpy(dtype=np.int64))[:-1]))
    base_ref = ray.put({int(g): int(b) for g, b in zip(gids, base)})

    # pass 2: one coarse shuffle, segmented prefix sums inside each partition
    def assign(g: pd.DataFrame) -> pa.Table:
        if g.empty:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "tok_offset": pa.array([], pa.int64()),
                "seq_id": pa.array([], pa.int64()),
                "offset_in_seq": pa.array([], pa.int64()),
            })
        bases = ray.get(base_ref)
        gid = g["gid"].to_numpy(dtype=np.int64)
        did = g["doc_id"].to_numpy(dtype=np.int64)
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        order = np.lexsort((did, gid))
        gid, did, n = gid[order], did[order], n[order]
        csum = np.cumsum(n) - n  # exclusive prefix within the partition
        new_run = np.ones(len(gid), dtype=bool)
        new_run[1:] = gid[1:] != gid[:-1]
        run_start = np.maximum.accumulate(np.where(new_run, csum, 0))
        within = csum - run_start
        off = np.array([bases[int(x)] for x in gid[new_run]], dtype=np.int64)
        run_id = np.cumsum(new_run) - 1
        tok_offset = off[run_id] + within
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "n_tokens": pa.array(n, pa.int64()),
            "tok_offset": pa.array(tok_offset, pa.int64()),
            "seq_id": pa.array(tok_offset // block, pa.int64()),
            "offset_in_seq": pa.array(tok_offset % block, pa.int64()),
        })

    df = co_partition(counts, "gid", PARTITIONS, assign, batch_format="pandas").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)
