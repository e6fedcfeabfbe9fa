"""The co-partition exchange shared by the operator suite (``relational.py``
and ``extras/``).

Every wide step there has one shape: give each row a coarse partition id,
run one sort-based ``groupby(id).map_groups`` exchange so each id's rows
arrive together, and run a vectorised kernel once per partition.  That is
``n`` Python calls in total, never one per key.  ``co_partition`` is that
shape; ``hot_keys`` is the bounded hot-key sample the salted joins share.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

PART = "part"


def _tag(key: str, n: int) -> Callable[[pa.Table], pa.Table]:
    def tag(t: pa.Table) -> pa.Table:
        col = t.column(key)
        if col.null_count:
            col = pc.fill_null(col, 0)
        # two's-complement view: for a power-of-two n this is key & (n - 1)
        k = col.to_numpy().astype(np.int64, copy=False).view(np.uint64)
        return t.append_column(PART, pa.array((k % np.uint64(n)).astype(np.int32)))

    return tag


def co_partition(parts: rd.Dataset | Sequence[rd.Dataset], key: str, n: int,
                 fn: Callable, *, batch_format: str = "pyarrow") -> rd.Dataset:
    """Co-locate rows by ``key mod n`` and run ``fn`` once per partition.

    ``parts`` is one Dataset or a list of them; a list is unioned, which is
    the join / as-of shape (every side keyed the same way meets in one
    partition).  ``key`` names an integer column present in every part.
    Its value is read as unsigned 64-bit (negative int64 by its two's
    complement), so for a power-of-two ``n`` the partition is
    ``key & (n - 1)``.  A null key goes to partition 0.  A site whose
    partition is a hash or a composite computes that integer as a column
    first and passes its name.

    The ``"part"`` column is added to each input before the union, so it
    fuses into the input's own map stage; ``fn`` sees it too.  ``fn`` runs
    at most ``n`` times and never on an empty partition.

    Do not use it for a grouping on a real key with a bounded number of
    groups (a histogram bucket, a calendar day, an event type): there
    ``groupby(key).map_groups`` already gives one call per group, and the
    group count, not the data, bounds the calls.
    """
    if isinstance(parts, rd.Dataset):
        parts = [parts]
    tagged = [d.map_batches(_tag(key, n), batch_format="pyarrow") for d in parts]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return ds.groupby(PART).map_groups(fn, batch_format=batch_format)


def hot_keys(ds: rd.Dataset, col: str, sample_rows: int, hot_frac: float) -> frozenset:
    """The keys of ``col`` that hold at least ``hot_frac`` of a bounded sample.

    The sample is the first ``sample_rows`` rows of EVERY block, so a hot key
    that first appears deep in the input is still seen (a prefix sample of
    the dataset is not).  A block is what a map stage over ``ds`` receives:
    a Parquet read hands over one per reader batch.  Deterministic: no RNG,
    same blocks → same keys.
    Over a sample of n rows a key is hot at ``max(2, int(n * hot_frac))``
    occurrences.  Each block sends only the keys that reach that share of
    its own head (a key at ``hot_frac`` of the whole sample does so in at
    least one block), so the driver receives at most 1/hot_frac keys per
    block; a key's count is summed over the blocks that sent it.
    """
    def head_counts(t: pa.Table) -> pa.Table:
        head = t.column(col).slice(0, sample_rows)
        vc = pc.value_counts(head.drop_null())
        counts = vc.field("counts")
        keep = pc.greater_equal(counts, max(2, int(len(head) * hot_frac)))
        return pa.table({
            "rows": pa.array([len(head)], pa.int64()),
            "keys": pa.array([vc.field("values").filter(keep).to_pylist()],
                             pa.list_(head.type)),
            "counts": pa.array([counts.filter(keep).to_pylist()], pa.list_(pa.int64())),
        })

    per_block = ds.map_batches(head_counts, batch_format="pyarrow").take_all()
    hot_min = max(2, int(sum(b["rows"] for b in per_block) * hot_frac))
    total: Counter = Counter()
    for b in per_block:
        total.update(dict(zip(b["keys"], b["counts"])))
    return frozenset(k for k, c in total.items() if c >= hot_min)
