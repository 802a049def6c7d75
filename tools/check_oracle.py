"""Local replica of the driver's correctness gate: run every queries()
entry at a given sf_dir and compare against oracle_sql() via DuckDB —
row count, column names, and order-insensitive value comparison.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import logging
import sys

import duckdb
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> bool:
    a, b = normalize(ray_df), normalize(sql_df)
    if list(a.columns) != list(b.columns):
        print(f"  [{name}] SCHEMA MISMATCH: ray={list(a.columns)} sql={list(b.columns)}")
        return False
    if len(a) != len(b):
        print(f"  [{name}] ROWCOUNT MISMATCH: ray={len(a)} sql={len(b)}")
        return False
    for c in a.columns:
        av, bv = a[c], b[c]
        # The driver hashes typed values, so an int64-vs-float64 split
        # between engine and oracle is a hash FAIL even when every value
        # matches numerically. Flag dtype-kind divergence loudly.
        if av.dtype.kind != bv.dtype.kind and {av.dtype.kind, bv.dtype.kind} \
                <= {"i", "u", "f"}:
            print(f"  [{name}] DTYPE MISMATCH col={c}: "
                  f"ray={av.dtype} sql={bv.dtype} (driver hash would fail)")
            return False
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            ok = ((av.astype(float) - bv.astype(float)).abs() < 1e-12) | \
                 (av.isna() & bv.isna())
        else:
            eq_dtype = av.dtype == bv.dtype
            if not eq_dtype:
                av, bv = av.astype(str), bv.astype(str)
            ok = (av == bv) | (av.isna() & bv.isna())
        if not ok.all():
            bad = (~ok).idxmax()
            print(f"  [{name}] VALUE MISMATCH col={c} row={bad}: "
                  f"ray={a[c][bad]!r} sql={b[c][bad]!r} "
                  f"({int((~ok).sum())} rows differ)")
            return False
    return True


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import os

    import ray

    # GRAFT_ORACLE_CPUS=32 replicates the driver/bench host shape — the
    # round-4 empty-hash-range bug only reproduced at high core counts
    ncpu = int(os.environ.get("GRAFT_ORACLE_CPUS", "8"))
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from geetiles_ray.ray_tuning import tune

    tune(ncpu)

    import __ray_entry__ as mod

    con = duckdb.connect()
    # Spill to /tmp, not cwd — DuckDB's default in-memory temp dir is
    # ./.tmp, which once landed 22 GB of spill files inside the repo.
    con.sql("SET temp_directory='/tmp/duckdb_spill'")
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = mod.queries()
    oracles = mod.oracle_sql()
    passed = failed = 0
    import time
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"  [{name}] RAY ERROR: {type(e).__name__}: {e}")
            failed += 1
            continue
        if name not in oracles:
            print(f"✓ {name}: rows-only ({len(ray_df)} rows, {time.time()-t0:.1f}s)")
            passed += 1
            continue
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"  [{name}] SQL ERROR: {type(e).__name__}: {e}")
            failed += 1
            continue
        if compare(name, ray_df, sql_df):
            print(f"✓ {name} ({len(ray_df)} rows, {time.time()-t0:.1f}s)")
            passed += 1
        else:
            failed += 1
    print(f"\n{passed} passed, {failed} failed")
    ray.shutdown()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
