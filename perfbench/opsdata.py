"""Seeded star-schema tables for the operator suite.

Same table names, columns, types, row counts and value distributions as the
repository's ``sfX`` test data (``region nation customer supplier part
orders lineitem events documents embeddings``), as measured on its sf0.01
and sf0.001 tables: uniform foreign keys (about 4 lines per order), events
on a 30-day exponential clock, one document in 20 a copy of another plus
" dup", no near-duplicate embeddings, at least 500 documents and
embeddings.  One deliberate difference: ``l_partkey`` is Zipf(1) over a
shuffled part order instead of uniform, so that ``skew_salted_join``'s
4096-row sample nominates hot keys and its salting path runs (on the
uniform tables no key reaches the hot threshold).  Every value comes from
one ``numpy`` generator seeded by the benchmark seed.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_PTYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_ADJ = ["blue", "cold", "hot", "large", "new", "old", "red", "small"]
_NOUN = ["anvil", "bolt", "gear", "gizmo", "plate", "ring", "rod", "widget"]
_EVENTS = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["en", "en", "en", "zh", "es", "de", "fr"]
# part of the cache directory name: bump it whenever ``build`` changes, so
# tables cached by an older generator are not reused
_VERSION = 3
_VOCAB = ("a agg batch big column customer data fast filter group hash join key "
          "line merge order part query row scan slow small sort spark stream "
          "table the value vector window").split()


def _days(rng, n, start, span_days):
    base = np.datetime64(start, "us")
    return base + rng.integers(0, span_days, n).astype("timedelta64[D]")


def _zipf_keys(rng, n_keys: int, n: int) -> np.ndarray:
    """``n`` draws over ``0..n_keys-1``; the rank-r key has weight 1/r."""
    w = 1.0 / np.arange(1, n_keys + 1)
    return rng.permutation(n_keys)[rng.choice(n_keys, n, p=w / w.sum())]


def build(sf: float, seed: int) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    n_cust = max(15, int(150_000 * sf))
    n_supp = max(10, int(10_000 * sf))
    n_part = max(20, int(200_000 * sf))
    n_ord = max(150, int(1_500_000 * sf))
    n_li = max(600, int(6_000_000 * sf))
    n_ev = max(1000, int(1_000_000 * sf))
    n_doc = max(500, int(50_000 * sf))
    n_emb = min(2000, max(500, int(50_000 * sf)))
    t: dict[str, pa.Table] = {}
    t["region"] = pa.table({"r_regionkey": pa.array(range(5), pa.int32()),
                            "r_name": _REGIONS})
    t["nation"] = pa.table({
        "n_nationkey": pa.array(range(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
    })
    t["customer"] = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_cust), 2),
        "c_mktsegment": np.array(_SEGMENTS)[rng.integers(0, 5, n_cust)],
    })
    t["supplier"] = pa.table({
        "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
        "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n_supp), 2),
    })
    names = [f"{a} {b}" for a in _ADJ for b in _NOUN]
    t["part"] = pa.table({
        "p_partkey": pa.array(np.arange(n_part), pa.int64()),
        "p_name": np.array(names)[rng.integers(0, len(names), n_part)],
        "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, n_part)],
        "p_type": np.array(_PTYPES)[rng.integers(0, len(_PTYPES), n_part)],
        "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
        "p_retailprice": np.round(900.0 + (np.arange(n_part) % 1000) / 10.0, 2),
    })
    t["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
        "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)],
        "o_totalprice": np.round(rng.uniform(1000.0, 500_000.0, n_ord), 2),
        "o_orderdate": _days(rng, n_ord, "1995-01-01", 2400),
        "o_orderpriority": np.array(_PRIORITIES)[rng.integers(0, 5, n_ord)],
    })
    t["lineitem"] = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n_ord, n_li), pa.int64()),
        "l_partkey": pa.array(_zipf_keys(rng, n_part, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_li), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n_li), pa.int32()),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900.0, 105_000.0, n_li), 2),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)],
        "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, n_li)],
        "l_shipdate": _days(rng, n_li, "1995-01-02", 2500),
    })
    gaps = rng.exponential(30 * 86400e6 / n_ev, n_ev).astype(np.int64)
    t["events"] = pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "ts": np.datetime64("2024-01-01", "us") + np.cumsum(gaps).astype("timedelta64[us]"),
        "user_id": pa.array(rng.integers(0, max(15, int(15_000 * sf)), n_ev), pa.int64()),
        "event_type": np.array(_EVENTS)[rng.integers(0, 5, n_ev)],
        "value": np.round(np.clip(rng.exponential(50.0, n_ev), 0.01, None), 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)],
    })
    texts = [" ".join(np.array(_VOCAB)[rng.integers(0, len(_VOCAB), int(rng.integers(10, 100)))])
             for _ in range(n_doc)]
    # one doc in 20 is another doc (anywhere in the table) plus " dup"
    for i in rng.choice(n_doc, n_doc // 20, replace=False):
        src = (int(i) + int(rng.integers(1, n_doc))) % n_doc
        texts[i] = texts[src] + " dup"
    t["documents"] = pa.table({
        "doc_id": pa.array(np.arange(n_doc), pa.int64()),
        "text": texts,
        "lang": np.array(_LANGS)[rng.integers(0, len(_LANGS), n_doc)],
        "source": [f"src{i % 20}" for i in range(n_doc)],
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    vec = rng.normal(size=(n_emb, 64)).astype(np.float32)
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    t["embeddings"] = pa.table({
        "vec_id": pa.array(np.arange(n_emb), pa.int64()),
        "embedding": pa.array(list(vec), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n_emb), pa.int32()),
    })
    return t


def ensure(root: str, sf: float, seed: int) -> str:
    """Write the tables once per ``(sf, seed)``; returns the directory."""
    d = os.path.join(root, f"v{_VERSION}_sf{sf}_s{seed}")
    done = os.path.join(d, "_DONE")
    if not os.path.exists(done):
        os.makedirs(d, exist_ok=True)
        for name, table in build(sf, seed).items():
            pq.write_table(table, os.path.join(d, f"{name}.parquet"))
        open(done, "w").close()
    return d
