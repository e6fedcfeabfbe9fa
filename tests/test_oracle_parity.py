"""Emulate the driver's correctness gate: run each queries() entry and its
oracle_sql() twin on the same parquet tables, compare row-count, schema
(column names) and order-insensitive values."""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd
import pytest

from tools.sweep_oracle import _norm, _type_gaps

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    yield con
    con.close()


def _pairs():
    import __ray_entry__ as e

    q = e.queries()
    o = e.oracle_sql()
    missing = set(o) - set(q)
    assert not missing, f"oracle without query: {missing}"
    return [(name, q[name], o[name]) for name in sorted(o)]


@pytest.mark.parametrize("name,qfn,sql", _pairs(), ids=[p[0] for p in _pairs()])
def test_query_matches_oracle(ray_session, oracle_con, name, qfn, sql):
    raw_ray, raw_ora = _to_pandas(qfn(SF_DIR)), oracle_con.sql(sql).df()
    # _norm coerces ints/bools to int64; the raw dtype kinds must agree first
    gaps = _type_gaps(raw_ray, raw_ora)
    assert not gaps, f"{name}: dtype kinds differ: {gaps}"
    ray_df, ora_df = _norm(raw_ray), _norm(raw_ora)
    assert list(ray_df.columns) == list(ora_df.columns), (
        f"{name}: columns {list(ray_df.columns)} vs {list(ora_df.columns)}"
    )
    assert len(ray_df) == len(ora_df), f"{name}: rows {len(ray_df)} vs {len(ora_df)}"
    for c in ray_df.columns:
        if np.issubdtype(ray_df[c].dtype, np.floating):
            assert np.allclose(
                ray_df[c].to_numpy(), ora_df[c].to_numpy(), rtol=1e-9, atol=1e-9, equal_nan=True
            ), f"{name}.{c} float mismatch"
        else:
            mism = (ray_df[c].to_numpy() != ora_df[c].to_numpy()).sum()
            assert mism == 0, f"{name}.{c}: {mism} mismatching values"


def test_rows_only_queries_run(ray_session):
    """Queries without oracles must still run and return a stable shape."""
    import __ray_entry__ as e

    q = e.queries()
    o = e.oracle_sql()
    for name in sorted(set(q) - set(o)):
        df = _to_pandas(q[name](SF_DIR))
        assert df is not None and len(df.columns) > 0, name


def test_entry_runs(ray_session):
    import __ray_entry__ as e

    out = _to_pandas(e.entry())
    assert len(out) > 0
    assert "lang_pred" in out.columns and "simhash" in out.columns
