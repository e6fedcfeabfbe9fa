"""Driver-style correctness sweep: run EVERY ``__ray_entry__.queries()``
entry and its ``oracle_sql()`` twin over the same parquet tables and
compare column names, row count, and order-insensitive values (floats to
1e-9) — the same gate ``tests/test_oracle_parity.py`` applies at sf0.001,
runnable standalone at any scale factor.

On top of the parity gate, the sweep flags *raw dtype-kind* mismatches
between the engine frame and the oracle frame BEFORE normalization —
the r04 red row (`key_skew_gini`) was a DuckDB HUGEINT (`sum()` over
BIGINT) surfacing as float64 against an int64 engine column: values
equal after coercion, hashes unequal under the driver's stricter gate.
`_norm`'s int64 coercion hides exactly that class of bug, so it is now
reported separately as `TYPE` (and fails the sweep); `--json` records it
per query as `dtype_ok`.  `tests/test_oracle_parity.py` asserts the same
`_type_gaps` rule at sf0.001.

Usage:  python tools/sweep_oracle.py [--json OUT.json] [sf_dir] [query ...]
        (defaults: /root/testdata/sf0.01, all queries)
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif np.issubdtype(df[c].dtype, np.integer) or df[c].dtype == bool:
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _kind(dtype) -> str:
    """Collapse a dtype to a comparison kind: i(nt), f(loat), b(ool), o(ther).

    bool folds into int (the engine emits both interchangeably for flag
    columns and the driver's value hash treats True == 1); everything
    non-numeric folds into 'o'.
    """
    k = getattr(dtype, "kind", "O")
    if k in ("i", "u", "b"):
        return "i"
    if k == "f":
        return "f"
    return "o"


def _type_gaps(engine: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    """Columns whose raw dtype kind differs engine-vs-oracle (pre-_norm)."""
    gaps = []
    for c in engine.columns:
        if c in oracle.columns and _kind(engine[c].dtype) != _kind(oracle[c].dtype):
            gaps.append(f"{c}: engine {engine[c].dtype} vs oracle {oracle[c].dtype}")
    return gaps


def main() -> int:
    import ray

    argv = list(sys.argv[1:])
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        del argv[i : i + 2]
    sys.argv = [sys.argv[0]] + argv

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    q, o = e.queries(), e.oracle_sql()
    names = sys.argv[2:] or sorted(q)
    fails, n_ok, n_rows_only = [], 0, 0
    records: dict[str, dict] = {}
    for name in names:
        t0 = time.time()
        try:
            res = q[name](sf_dir)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            if name not in o:
                n_rows_only += 1
                records[name] = {"status": "rows_only", "rows": len(df),
                                 "sec": round(time.time() - t0, 2)}
                print(f"{name}: rows_only {len(df)} ({time.time() - t0:.1f}s)", flush=True)
                continue
            raw_oracle = con.sql(o[name]).df()
            a, b = _norm(df), _norm(raw_oracle)
            gaps = _type_gaps(df, raw_oracle)
            bad = [f"TYPE {gap}" for gap in gaps]
            if list(a.columns) != list(b.columns):
                bad.append(f"cols {list(a.columns)} vs {list(b.columns)}")
            elif len(a) != len(b):
                bad.append(f"rows {len(a)} vs {len(b)}")
            else:
                for c in a.columns:
                    av, bv = a[c].to_numpy(), b[c].to_numpy()
                    if np.issubdtype(a[c].dtype, np.floating):
                        if not np.allclose(av, bv, rtol=1e-9, atol=1e-9, equal_nan=True):
                            bad.append(c)
                    elif (av != bv).sum():
                        bad.append(c)
            if bad:
                fails.append((name, bad))
                records[name] = {"status": "fail", "bad": bad, "rows": len(a),
                                 "dtype_ok": not gaps, "sec": round(time.time() - t0, 2)}
                print(f"{name}: FAIL {bad} ({time.time() - t0:.1f}s)", flush=True)
            else:
                n_ok += 1
                records[name] = {"status": "ok", "rows": len(a),
                                 "dtype_ok": True, "sec": round(time.time() - t0, 2)}
                print(f"{name}: ok {len(a)} rows ({time.time() - t0:.1f}s)", flush=True)
        except Exception as ex:  # noqa: BLE001 — sweep must survive one bad query
            fails.append((name, repr(ex)[:200]))
            records[name] = {"status": "error", "err": repr(ex)[:200],
                             "sec": round(time.time() - t0, 2)}
            print(f"{name}: ERROR {ex!r}"[:300], flush=True)
    print(f"SWEEP DONE ok: {n_ok} rows_only: {n_rows_only} fail: {len(fails)}", flush=True)
    for f in fails:
        print("  FAIL:", f, flush=True)
    if json_out:
        summary = {"sf_dir": sf_dir, "n_ok": n_ok, "n_rows_only": n_rows_only,
                   "n_fail": len(fails), "queries": records}
        Path(json_out).write_text(json.dumps(summary, indent=1, sort_keys=True))
        print(f"wrote {json_out}", flush=True)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
