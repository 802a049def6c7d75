"""The engine's one key-hash co-location plan (stages/temporal.grouped_apply
and _union_bucketed): every row of a key meets in one bucket whatever block,
null mask or integer width it arrives with; kernels emit typed blocks; and
no public function asks its caller for a bucket count."""

import importlib
import inspect
import pkgutil
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

import geetiles_ray
from geetiles_ray.pipelines import dedup
from geetiles_ray.stages import joins, temporal


# two int64 blocks; only the second has a null in ``k``, so a numpy-dtype
# hash sees 5 as int64 in one block and float64 in the other
_B1 = pa.table({"k": pa.array([5, 7], pa.int64()),
                "ts": pa.array([1, 1], pa.int64())})
_B2 = pa.table({"k": pa.array([5, None], pa.int64()),
                "ts": pa.array([2, 2], pa.int64())})


def _split_key_blocks() -> ray.data.Dataset:
    return ray.data.from_arrow([_B1, _B2])


def _rows(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    out = df[cols].astype(object).where(df[cols].notna(), None)
    return sorted(map(tuple, out.itertuples(index=False)),
                  key=lambda r: tuple((v is None, v) for v in r))


def _dedup():
    return _rows(dedup.dedup_exact(_split_key_blocks(), "k", "ts")
                 .to_pandas(), ["k", "ts"])


def _dedup_ranges():
    # the same fold with every non-empty input split into key-hash ranges
    with mock.patch.object(dedup, "ONE_TASK_FOLD_ROWS", 0):
        return _dedup()


def _dedup_broadcast():
    return _rows(dedup.dedup_exact_broadcast(_split_key_blocks(), "k", "ts")
                 .to_pandas(), ["k", "ts"])


def _lag():
    return _rows(temporal.lag_deltas(_split_key_blocks(), key="k", ts="ts")
                 .to_pandas(), ["k", "ts", "delta"])


def _sessions():
    return _rows(temporal.session_windows(_split_key_blocks(), key="k",
                                          ts="ts", gap=0).to_pandas(),
                 ["k", "ts", "session_id"])


def _join():
    left = ray.data.from_arrow(pa.table({"k": pa.array([5, 7], pa.int64())}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([5, None], pa.int64()),
                                          "r": pa.array([10, 20], pa.int64())}))
    return _rows(joins.join_on_identifier(left, right, key="k").to_pandas(),
                 ["k", "r"])


def _upsert():
    return _rows(dedup.upsert(ray.data.from_arrow(_B1),
                              ray.data.from_arrow(_B2), "k", "ts")
                 .to_pandas(), ["k", "ts"])


def _asof():
    right = ray.data.from_arrow(pa.table({"k": pa.array([5], pa.int64()),
                                          "rts": pa.array([0], pa.int64()),
                                          "rv": pa.array([100], pa.int64())}))
    return _rows(temporal.asof_join(_split_key_blocks(), right, key="k",
                                    on="ts", right_on="rts").to_pandas(),
                 ["k", "ts", "rv"])


def _join_widths():
    left = ray.data.from_arrow(pa.table({"k": pa.array([-1], pa.int32())}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([-1], pa.int64()),
                                          "r": pa.array([10], pa.int64())}))
    return _rows(joins.join_on_identifier(left, right, key="k").to_pandas(),
                 ["k", "r"])


@pytest.mark.parametrize("run,want", [
    (_dedup, [(5, 1), (7, 1), (None, 2)]),
    (_dedup_ranges, [(5, 1), (7, 1), (None, 2)]),
    (_dedup_broadcast, [(5, 1), (7, 1), (None, 2)]),
    (_lag, [(5, 1, -1), (5, 2, 1), (7, 1, -1), (None, 2, -1)]),
    (_sessions, [(5, 1, 0), (5, 2, 1), (7, 1, 0), (None, 2, 0)]),
    (_join, [(5, 10), (7, None)]),
    (_upsert, [(5, 2), (7, 1), (None, 2)]),
    (_asof, [(5, 1, 100), (5, 2, 100)]),
    (_join_widths, [(-1, 10)]),
], ids=["dedup_exact", "dedup_exact_ranges", "dedup_exact_broadcast",
        "lag_deltas", "session_windows", "join_on_identifier", "upsert",
        "asof_join", "join_int32_int64"])
def test_key_meets_itself_across_blocks(run, want):
    """A key lands in one bucket whatever block, null mask or integer
    width it arrives with, so every operator sees all of its rows."""
    assert run() == want


def test_string_key_hashes_as_before():
    """Widening integer keys leaves other key types as ``to_pandas()``
    converts them, so a url key (the flagship's dedup key) hashes exactly
    as the numpy-dtype conversion did, nulls included."""
    from geetiles_ray.functions.arrowio import key_frame, key_hash
    t = pa.table({"url": pa.array(["https://a.example/1", None, "", "ü"])})
    old = t.to_pandas()
    np.testing.assert_array_equal(
        key_hash(t, ["url"]),
        pd.util.hash_pandas_object(old, index=False).to_numpy())
    for new_h, old_h in zip(dedup._hash128(key_frame(t, ["url"])),
                            dedup._hash128(old)):
        np.testing.assert_array_equal(new_h, old_h)


def test_join_blocks_typed_when_buckets_hold_only_right_rows():
    """Most buckets hold right rows only; their empty outputs keep the
    output dtypes, so no block carries an object or null-typed column."""
    left = ray.data.from_pandas(pd.DataFrame({"k": np.arange(3)}))
    right = ray.data.from_pandas(pd.DataFrame({"k": np.arange(300),
                                               "r": np.arange(300) * 2}))
    out = joins.join_on_identifier(left, right, key="k").materialize()
    blocks = [pa.Table.from_pandas(b, preserve_index=False)
              if isinstance(b, pd.DataFrame) else b
              for b in ray.get(out.get_internal_block_refs())]
    types = {(str(b.schema.field("k").type), str(b.schema.field("r").type))
             for b in blocks}
    assert types == {("int64", "int64")}
    got = out.to_pandas().sort_values("k")
    assert got["k"].tolist() == [0, 1, 2]
    assert got["r"].tolist() == [0, 2, 4]


def _public_functions():
    for info in pkgutil.walk_packages(geetiles_ray.__path__,
                                      geetiles_ray.__name__ + "."):
        mod = importlib.import_module(info.name)
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == mod.__name__:
                yield f"{mod.__name__}.{name}", fn


def test_no_public_function_takes_a_bucket_count():
    """Exchange widths are derived (temporal.bucket_count), never asked of
    the caller. dedup_exact_broadcast keeps an ignored ``nbuckets`` for
    one caller that still passes it."""
    takers = {name for name, fn in _public_functions()
              if "nbuckets" in inspect.signature(fn).parameters}
    assert takers == {"geetiles_ray.pipelines.dedup.dedup_exact_broadcast"}
