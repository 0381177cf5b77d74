"""Local simulation of the driver's correctness gate: run each
``queries()`` entry and its ``oracle_sql()`` on the same sf dir, compare
row count, schema, and order-insensitive values.

Usage: python tools/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(got: pd.DataFrame, want: pd.DataFrame) -> list:
    """The mismatches of an entry's ``canon`` result against its oracle's
    (empty when they agree): row count, schema, then each column's
    values — floats bit for bit in the same dtype, integers by value
    whatever their width, anything else in the same dtype."""
    if len(got) != len(want) or list(got.columns) != list(want.columns):
        return [
            f"rows={len(got)}/{len(want)} "
            f"schema={list(got.columns)}/{list(want.columns)}"
        ]
    bad = []
    for c in got.columns:
        g, w = got[c].values, want[c].values
        if np.issubdtype(got[c].dtype, np.floating):
            ok = got[c].dtype == want[c].dtype and np.array_equal(
                g, w.astype(got[c].dtype)
            )
        elif np.issubdtype(got[c].dtype, np.integer) and np.issubdtype(
            want[c].dtype, np.integer
        ):
            # integer WIDTH differences (int64 engine vs DuckDB int32
            # literals) hash-match in the driver — evidenced by green
            # r2/r3 rows for these exact pairs; only conversions that
            # change the value representation (HUGEINT → float64) ever
            # failed
            ok = np.array_equal(g.astype(np.int64), w.astype(np.int64))
        elif got[c].dtype != want[c].dtype:
            # cross-kind dtype changes (e.g. DuckDB HUGEINT→float64 vs
            # engine int64) DO fail the driver's value-hash
            bad.append(f"  col {c}: dtype {got[c].dtype} vs {want[c].dtype}")
            continue
        else:
            ok = bool((g == w).all())
        if not ok:
            diffs = np.flatnonzero(~(g == w))[:5]
            bad.append(
                f"  col {c}: first diffs at {diffs}\n"
                f"    got  {g[diffs]}\n    want {w[diffs]}"
            )
    return bad


def check_entry(name: str, fn, sql, con, sf_dir: str) -> tuple:
    """Run one gate entry on ``sf_dir`` and its oracle SQL (None: rows
    only) on the DuckDB connection ``con`` → ``(ok, report)``, the
    report being the tool's line for the entry."""
    try:
        got = canon(to_pandas(fn(sf_dir)))
    except Exception as e:
        return False, f"{name}: RAY FAILED: {type(e).__name__}: {e}"
    if sql is None:
        return True, f"{name}: rows-only check, {len(got)} rows"
    try:
        want = canon(con.execute(sql).df())
    except Exception as e:
        return False, f"{name}: SQL FAILED: {type(e).__name__}: {e}"
    try:
        bad = compare(got, want)
    except Exception as e:
        bad = [f"  compare failed: {type(e).__name__}: {e}"]
    if bad:
        return False, "\n".join([f"{name}: MISMATCH"] + bad)
    return True, f"{name}: OK ({len(got)} rows)"


def connect(sf_dir: str):
    """A DuckDB connection with a view per table of ``sf_dir``."""
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"create view {t} as select * from '{p}'")
    return con


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    con = connect(sf_dir)
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        ok, report = check_entry(name, fn, sqls.get(name), con, sf_dir)
        failures += not ok
        print(report)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
