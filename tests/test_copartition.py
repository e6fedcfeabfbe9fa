"""``co_partition`` (the operator suite's one exchange) and ``hot_keys``
(the salted joins' hot-key sample)."""

from __future__ import annotations

import re
import uuid
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lightcrawler_ray.copartition import co_partition, hot_keys

PKG = Path(__file__).resolve().parent.parent / "lightcrawler_ray"

_INT64 = [np.array([-(2**63), -1, -2, -31, -32, -33, 0, 1, 5, 31, 32, 33], np.int64),
          np.arange(-300, 300, 7, dtype=np.int64)]
_UINT64 = [np.array([2**64 - 1, 2**63, 2**63 + 5, 0, 3], np.uint64),
           (np.arange(200, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))]


def _parts(keys: list[np.ndarray]):
    import ray.data as rd

    # each key repeats so "every row of a key in one call" is a real check
    return [rd.from_arrow(pa.table({"k": pa.array(np.repeat(k, 3)),
                                    "side": pa.array(np.full(3 * k.size, i, np.int8))}))
            for i, k in enumerate(keys)]


def _recorder():
    # nested, so Ray workers receive it by value (they cannot import tests)
    def record(g):
        """One output row per input row, stamped with this call's id."""
        call = uuid.uuid4().hex
        if isinstance(g, pd.DataFrame):
            return pd.DataFrame({"k": g["k"], "part": g["part"], "call": call})
        return pa.table({"k": g["k"], "part": g["part"],
                         "call": pa.array([call] * g.num_rows, pa.string())})

    return record


@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
@pytest.mark.parametrize("n", [1, 3, 32])
@pytest.mark.parametrize("keys", [_INT64, _UINT64], ids=["int64", "uint64"])
def test_co_partition_routes_each_key_to_one_call(ray_session, keys, n, batch_format):
    out = co_partition(_parts(keys), "k", n, _recorder(), batch_format=batch_format).to_pandas()
    assert len(out) == 3 * sum(k.size for k in keys)  # the union kept every row
    assert (out.groupby("k")["call"].nunique() == 1).all()
    assert out["call"].nunique() <= n
    assert (out.groupby("call")["part"].nunique() == 1).all()
    assert set(out["part"]) == set(range(n))  # non-power-of-two n uses all n ids
    ku = out["k"].to_numpy().astype(np.int64).view(np.uint64)
    assert (out["part"].to_numpy() == ku % np.uint64(n)).all()
    if n == 32:  # the mask every site used before: same row → same partition
        assert [int(p) for p in out["part"]] == [int(k) & 31 for k in out["k"]]


@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
def test_co_partition_empty_input_makes_no_call(ray_session, batch_format):
    import ray.data as rd

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    out = co_partition([empty, empty], "k", 3, _recorder(), batch_format=batch_format)
    assert out.count() == 0


def test_no_hand_written_part_exchange_outside_copartition():
    """The operator suite partitions through ``co_partition`` only; a real-key
    ``groupby(col).map_groups`` and ``groupby("part").aggregate`` are fine."""
    pat = re.compile(r"""groupby\(\s*["']part\w*["']\s*\)\s*\.map_groups""")
    files = [PKG / "relational.py", *sorted((PKG / "extras").glob("*.py"))]
    hits = [f"{f.name}: {m.group(0)}" for f in files
            for m in pat.finditer(f.read_text())]
    assert not hits, hits


def _clustered_keys(cold_rows: int, hot_rows: int, block: int) -> list[pa.Table]:
    """Key-clustered blocks: ``cold_rows`` distinct keys first, then the one
    hot key mixed with fresh cold keys."""
    cold = np.arange(cold_rows, dtype=np.int64)
    tail = np.where(np.arange(hot_rows) % 4 == 0,
                    cold_rows + np.arange(hot_rows), 7777).astype(np.int64)
    keys = np.concatenate([cold, tail])
    return [pa.table({"k": keys[i:i + block]}) for i in range(0, keys.size, block)]


def test_hot_key_after_row_4096_is_nominated(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_clustered_keys(4096, 4096, 1024))
    assert hot_keys(ds, "k", 4096, 0.004) == {7777}
    # the shape that used to hide it: the first 4096 rows hold no hot key
    assert hot_keys(ds.limit(4096), "k", 4096, 0.004) == frozenset()


def test_hot_keys_is_bounded_per_block_and_deterministic(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_clustered_keys(256, 256, 64))
    # a 4-row head per block: 8 blocks → 32 sampled rows, hot at 2
    assert hot_keys(ds, "k", 4, 0.05) == hot_keys(ds, "k", 4, 0.05) == {7777}
    assert hot_keys(rd.from_arrow(pa.table({"k": pa.array([], pa.int64())})),
                    "k", 16, 0.1) == frozenset()
    strings = rd.from_arrow([pa.table({"s": ["a", None, "b"]}),
                             pa.table({"s": ["a", "a", "c"]})])
    assert hot_keys(strings, "s", 16, 0.3) == {"a"}


def _oracle(sql: str, views: dict[str, str]) -> pd.DataFrame:
    con = duckdb.connect()
    for name, path in views.items():
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM '{path}'")
    return con.sql(sql).df()


def test_ngram_salting_sees_a_late_hot_source(ray_session, tmp_path, monkeypatch):
    """The hot source first appears after the sample's worth of rows; the
    per-block sample still nominates it, and salting leaves the pairs equal
    to the oracle's."""
    import __ray_entry__ as entry
    from lightcrawler_ray.extras import dedupe

    words = "alpha bravo charlie delta echo foxtrot golf hotel india juliet".split()
    rows = [{"doc_id": i, "source": f"cold{i}", "text": " ".join(words[i % 4:])}
            for i in range(32)]
    rows += [{"doc_id": i, "source": "hot",
              "text": " ".join(words[i % 5:] + words[:i % 5] + [f"tail{i % 7}"])}
             for i in range(32, 80)]
    d = tmp_path / "documents.parquet"
    d.mkdir()
    for i in range(0, len(rows), 16):  # one file, hence one block, per 16 docs
        pq.write_table(pa.Table.from_pylist(rows[i:i + 16]), d / f"part-{i // 16}.parquet")

    nominated = []

    def spy(*args):
        nominated.append(hot_keys(*args))
        return nominated[-1]

    monkeypatch.setattr(dedupe, "hot_keys", spy)
    got = dedupe.ngram_jaccard_pairs(str(tmp_path), threshold=0.2, n_salts=4,
                                     sample_rows=32, hot_frac=0.1)
    assert nominated == [{"hot"}]
    want = _oracle(entry.oracle_sql()["ngram_jaccard_pairs"],
                   {"documents": f"{d}/*.parquet"})
    want = want.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert got[["doc_a", "doc_b"]].values.tolist() == want[["doc_a", "doc_b"]].values.tolist()
    assert np.allclose(got["jaccard"], want["jaccard"], rtol=1e-9, atol=1e-9)
    assert sum(1 for a in got["doc_a"] if a >= 32) > 20  # pairs inside the hot block


def test_skew_salted_join_matches_oracle_with_a_hot_key(ray_session, tmp_path, monkeypatch):
    import __ray_entry__ as entry
    from lightcrawler_ray.extras import joins

    n = 2000
    rng = np.random.default_rng(3)
    partkey = np.where(np.arange(n) % 3 == 0, 17, rng.integers(0, 400, n)).astype(np.int64)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.arange(n) // 4, pa.int64()),
        "l_linenumber": pa.array(np.arange(n) % 4 + 1, pa.int32()),
        "l_partkey": pa.array(partkey),
        "l_extendedprice": pa.array(np.round(rng.uniform(1, 1000, n), 2)),
        "l_discount": pa.array(np.round(rng.uniform(0, 0.1, n), 2)),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array(np.arange(400), pa.int64()),
        "p_brand": pa.array([f"Brand#{k % 7}" for k in range(400)]),
    }), tmp_path / "part.parquet")

    nominated = []

    def spy(*args):
        nominated.append(hot_keys(*args))
        return nominated[-1]

    monkeypatch.setattr(joins, "hot_keys", spy)
    got = joins.skew_salted_join(str(tmp_path)).to_pandas()
    assert 17 in nominated[0]  # the salting path ran
    want = _oracle(entry.oracle_sql()["skew_salted_join"],
                   {"lineitem": tmp_path / "lineitem.parquet",
                    "part": tmp_path / "part.parquet"})
    got = got.sort_values("p_brand").reset_index(drop=True)
    want = want.sort_values("p_brand").reset_index(drop=True)
    assert got["p_brand"].tolist() == want["p_brand"].tolist()
    assert got["n_lines"].tolist() == want["n_lines"].tolist()
    assert np.allclose(got["revenue"], want["revenue"], rtol=1e-9, atol=1e-9)
