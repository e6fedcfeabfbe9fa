"""Columnar table storage: Lance when importable, Parquet otherwise.

BASELINE.json mandates Lance tables as the payload store; this container has
no ``lance`` wheel, so every read/write goes through this thin seam.  The
on-disk unit is a *table directory* (many part files, one per output block —
the Ray-native replacement for the reference's one-KV-file-per-worker-PID
pattern, libs/DSKVStorage.lib.php:137-147).

Resumability: writers write to ``<dir>.tmp-<token>`` then atomically rename,
and drop a ``_SUCCESS`` manifest; ``is_complete`` lets a resumed run skip
finished partitions (SURVEY.md T10).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from typing import TYPE_CHECKING, Any

import pyarrow as pa
import pyarrow.parquet as pq

if TYPE_CHECKING:
    import ray.data

try:  # pragma: no cover - lance is absent in this container
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False

FORMAT = "lance" if HAVE_LANCE else "parquet"
_SUCCESS = "_SUCCESS"


def write_dataset(ds: "ray.data.Dataset", path: str, **kwargs: Any) -> None:
    """Write a Ray Dataset to a table directory (one file per block).

    Uses ``Dataset.write_lance`` when lance is available, else
    ``Dataset.write_parquet``.  Not atomic across blocks by itself — callers
    that need all-or-nothing semantics use :func:`commit_table` on a
    driver-side Arrow table, or wrap this in tmp-dir + rename themselves.
    """
    os.makedirs(path, exist_ok=True)  # zero-row datasets write no part files
    if HAVE_LANCE and hasattr(ds, "write_lance"):  # pragma: no cover
        ds.write_lance(path, **kwargs)
    else:
        ds.write_parquet(path, **kwargs)
    mark_complete(path)


def read_dataset(path: str, columns: list[str] | None = None,
                 empty_schema: pa.Schema | None = None, **kwargs: Any) -> "ray.data.Dataset":
    """Read a table directory as a Ray Dataset with column pruning.

    ``empty_schema``: schema to use for a committed zero-row table (a dir with
    a _SUCCESS manifest but no part files)."""
    import ray.data as rd

    if HAVE_LANCE and os.path.isdir(path) and path.endswith(".lance"):  # pragma: no cover
        return rd.read_lance(path, columns=columns, **kwargs)
    if (
        os.path.isdir(path)
        and not any(f.endswith(".parquet") for f in os.listdir(path))
        and is_complete(path)
    ):
        return rd.from_arrow((empty_schema or pa.schema([])).empty_table())
    return rd.read_parquet(path, columns=columns, **kwargs)


def read_parquet_clean(path: str, columns: list[str] | None = None,
                       **kwargs: Any) -> "ray.data.Dataset":
    """read_parquet with the pandas schema metadata stripped AT THE READ:
    pandas-written parquet embeds a b'pandas' metadata dict that makes block
    schemas unhashable, so every operator (including the read itself) logs
    'Failed to hash the schemas' per task and skips the schema-dedup fast
    path.  Passing an explicit clean ``schema=`` fixes the blocks at the
    source — no scrub stage, no warning."""
    import ray.data as rd

    if "schema" not in kwargs:
        f = path
        if os.path.isdir(path):
            parts = [p for p in sorted(os.listdir(path)) if p.endswith(".parquet")]
            f = os.path.join(path, parts[0]) if parts else path
        try:
            schema = pq.read_schema(f).remove_metadata()
            if columns:
                schema = pa.schema([schema.field(c) for c in columns])
            kwargs["schema"] = schema
        except (OSError, KeyError):
            pass  # unreadable/missing columns: let read_parquet handle it
    return rd.read_parquet(path, columns=columns, **kwargs)


def commit_table(table: pa.Table, path: str) -> None:
    """Atomically write a small driver-side Arrow table (checkpoint metadata,
    frontier snapshots): write to a tmp dir, fsync-rename over the target."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    if HAVE_LANCE:  # pragma: no cover
        lance.write_dataset(table, os.path.join(tmp, "data.lance"))
    else:
        pq.write_table(table, os.path.join(tmp, "part-0.parquet"))
    mark_complete(tmp)
    if os.path.exists(path):
        shutil.rmtree(path)
    os.replace(tmp, path)


def load_table(path: str, columns: list[str] | None = None) -> pa.Table:
    """Load a table directory (or single file) into one Arrow table."""
    if os.path.isfile(path):
        return pq.read_table(path, columns=columns)
    if HAVE_LANCE:  # pragma: no cover
        sub = os.path.join(path, "data.lance")
        if os.path.isdir(sub):
            return lance.dataset(sub).to_table(columns=columns)
    parts = sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )
    if not parts:
        if is_complete(path):  # a committed zero-row table
            return pa.table({})
        raise FileNotFoundError(f"no table files under {path}")
    return pa.concat_tables([pq.read_table(p, columns=columns) for p in parts])


def mark_complete(path: str, meta: dict[str, Any] | None = None) -> None:
    with open(os.path.join(path, _SUCCESS), "w", encoding="utf-8") as f:
        json.dump(meta or {}, f)


def is_complete(path: str) -> bool:
    return os.path.isfile(os.path.join(path, _SUCCESS))
