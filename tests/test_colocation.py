"""The engine's one key-hash co-location plan (stages/temporal.grouped_apply
and _union_bucketed): every row of a key meets in one bucket whatever block,
null mask or integer width it arrives with; one- and two-sided kernels emit
typed Arrow blocks; and no public function asks its caller for a bucket
count."""

import importlib
import inspect
import pkgutil
import tempfile
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data

import geetiles_ray
from geetiles_ray.pipelines import analytics, dedup, snapshots
from geetiles_ray.stages import joins, temporal
from geetiles_ray.state import manifest


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


def _running_total():
    return _rows(analytics.running_total(_split_key_blocks(), key="k",
                                         order_cols=["ts"], value_col="ts")
                 .to_pandas(), ["k", "ts", "running_sum"])


def _topn():
    return _rows(analytics.grouped_topn(_split_key_blocks(), keys=["k"],
                                        order_col="ts", n=1).to_pandas(),
                 ["k", "ts", "rank"])


def _transitions():
    # event type "a" at ts 1, "b" at ts 2: only key 5 has a transition
    def typed(t: pa.Table) -> pa.Table:
        return t.append_column("etype", pc.if_else(
            pc.equal(t["ts"], 1), "a", "b")).append_column("eid", t["ts"])

    ds = _split_key_blocks().map_batches(typed, batch_format="pyarrow")
    return _rows(temporal.event_transitions(
        ds, key="k", ts="ts", type_col="etype", order_col="eid")
        .to_pandas(), ["cur_type", "next_type", "n"])


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


def _hash_join():
    right = ray.data.from_arrow(pa.table({"k": pa.array([5, None], pa.int64()),
                                          "r": pa.array([10, 20], pa.int64())}))
    return _rows(joins.hash_join(_split_key_blocks(), right, on="k")
                 .to_pandas(), ["k", "ts", "r"])


def _interval():
    windows = ray.data.from_arrow(pa.table({
        "k": pa.array([5], pa.int64()), "lo": pa.array([0], pa.int64()),
        "hi": pa.array([10], pa.int64()), "iid": pa.array([0], pa.int64())}))
    return _rows(temporal.interval_join(_split_key_blocks(), windows, key="k",
                                        ts="ts", lo="lo", hi="hi",
                                        bin_width=100).to_pandas(),
                 ["k", "ts", "iid"])


def _upsert_patch():
    patch = ray.data.from_arrow(pa.table({"k": pa.array([5], pa.int64()),
                                          "v": pa.array([9], pa.int64())}))
    return _rows(dedup.upsert_patch(_split_key_blocks(), patch, "k")
                 .to_pandas(), ["k", "ts", "v"])


def _prior_snapshot(keys: pa.Array, out: str) -> list[str]:
    manifest.checkpointed_write(ray.data.from_arrow(pa.table({"k": keys})),
                                out, key_col="k", n_partitions=2)
    return [out]


def _snapshot_dedup():
    with tempfile.TemporaryDirectory() as d:
        prior = _prior_snapshot(pa.array([5], pa.int64()), d)
        # 64 bits: every key is a Bloom hit, so all rows take the exchange
        return _rows(snapshots.dedup_against_snapshots(
            _split_key_blocks(), prior, key="k", nbits=64).to_pandas(),
            ["k", "ts"])


@pytest.mark.parametrize("run,want", [
    (_dedup, [(5, 1), (7, 1), (None, 2)]),
    (_dedup_ranges, [(5, 1), (7, 1), (None, 2)]),
    (_dedup_broadcast, [(5, 1), (7, 1), (None, 2)]),
    (_lag, [(5, 1, -1), (5, 2, 1), (7, 1, -1), (None, 2, -1)]),
    (_sessions, [(5, 1, 0), (5, 2, 1), (7, 1, 0), (None, 2, 0)]),
    (_running_total, [(5, 1, 1), (5, 2, 3), (7, 1, 1), (None, 2, 2)]),
    (_topn, [(5, 2, 1), (7, 1, 1), (None, 2, 1)]),
    (_transitions, [("a", "b", 1)]),
    (_join, [(5, 10), (7, None)]),
    (_upsert, [(5, 2), (7, 1), (None, 2)]),
    (_asof, [(5, 1, 100), (5, 2, 100)]),
    (_join_widths, [(-1, 10)]),
    (_hash_join, [(5, 1, 10), (5, 2, 10)]),
    (_interval, [(5, 1, 0), (5, 2, 0)]),
    (_upsert_patch, [(5, 1, 9), (5, 2, 9), (7, 1, None), (None, 2, None)]),
    (_snapshot_dedup, [(7, 1), (None, 2)]),
], ids=["dedup_exact", "dedup_exact_ranges", "dedup_exact_broadcast",
        "lag_deltas", "session_windows", "running_total", "grouped_topn",
        "event_transitions", "join_on_identifier", "upsert",
        "asof_join", "join_int32_int64", "hash_join", "interval_join",
        "upsert_patch", "dedup_against_snapshots"])
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


# left keys 0, 1, 2 match; 1000 does not. The right side holds keys
# 0..299, so most buckets hold right rows only.
_LEFT = pd.DataFrame({"k": np.array([0, 1, 2, 1000]), "ts": np.full(4, 5)})
_RIGHT = pa.table({"k": np.arange(300), "r": np.arange(300) * 2})


def _typed_join_on_identifier():
    right = _RIGHT.append_column("sh", pa.array(
        [[i, i + 1] for i in range(300)], pa.list_(pa.uint64())))
    return joins.join_on_identifier(ray.data.from_pandas(_LEFT),
                                    ray.data.from_arrow(right), key="k")


def _typed_hash_join():
    return joins.hash_join(ray.data.from_pandas(_LEFT),
                           ray.data.from_arrow(_RIGHT), on="k")


def _typed_asof():
    right = _RIGHT.append_column("rts", pa.array(np.zeros(300, np.int64)))
    return temporal.asof_join(ray.data.from_pandas(_LEFT),
                              ray.data.from_arrow(right), key="k", on="ts",
                              right_on="rts")


def _typed_interval():
    windows = _RIGHT.append_column("lo", pa.array(np.zeros(300, np.int64))) \
        .append_column("hi", pa.array(np.full(300, 10)))
    return temporal.interval_join(ray.data.from_pandas(_LEFT),
                                  ray.data.from_arrow(windows), key="k",
                                  ts="ts", lo="lo", hi="hi", bin_width=100)


def _typed_upsert_patch():
    return dedup.upsert_patch(ray.data.from_pandas(_LEFT),
                              ray.data.from_arrow(_RIGHT), "k")


def _typed_snapshot_dedup(tmp_path):
    prior = _prior_snapshot(_RIGHT["k"], str(tmp_path / "prior"))
    return snapshots.dedup_against_snapshots(ray.data.from_pandas(_LEFT),
                                             prior, key="k", nbits=64)


@pytest.mark.parametrize("run,rows,null_col", [
    (_typed_join_on_identifier, 4, "r"),
    (_typed_hash_join, 3, None),
    (_typed_asof, 3, None),
    (_typed_interval, 3, None),
    (_typed_upsert_patch, 4, "r"),
    (_typed_snapshot_dedup, 1, None),
], ids=["join_on_identifier", "hash_join", "asof_join", "interval_join",
        "upsert_patch", "dedup_against_snapshots"])
def test_join_blocks_typed_when_buckets_hold_only_right_rows(
        run, rows, null_col, tmp_path):
    """Most buckets hold right rows only. Every two-sided operator still
    emits Arrow blocks of one schema; an int column the unmatched left
    key leaves empty stays int64 with a null; and a list payload (which
    Acero's join rejects) rides through join_on_identifier."""
    args = (tmp_path,) if run is _typed_snapshot_dedup else ()
    blocks = ray.get(run(*args).materialize().get_internal_block_refs())
    assert all(isinstance(b, pa.Table) for b in blocks)
    schema = blocks[0].schema
    assert all(b.schema.equals(schema) for b in blocks)
    assert sum(len(b) for b in blocks) == rows
    for c in ("k", "ts", "r"):
        if c in schema.names:
            assert schema.field(c).type == pa.int64()
    if null_col:
        assert sum(b[null_col].null_count for b in blocks) == 1
    if run is _typed_join_on_identifier:
        assert schema.field("sh").type == pa.list_(pa.uint64())
        got = pa.concat_tables(blocks).sort_by("k")
        assert got["sh"].to_pylist() == [[0, 1], [1, 2], [2, 3], None]


# 200 keys with one event each, so most buckets hold a few keys and
# kernels that keep nothing of a bucket (transitions, quota-0 strata)
# return empty tables
_EVENTS = pa.table({"k": np.arange(200), "ts": np.arange(200) * 10,
                    "eid": np.arange(200),
                    "etype": np.full(200, "view"),
                    "lang": np.take(["en", "es", "de", "fr", "zh"],
                                    np.arange(200) % 5)})


def _one_sided_outputs(run) -> list:
    """The materialized ``grouped_apply`` outputs of ``run()``: the
    kernel's blocks, before any fold or driver collect."""
    real, got = temporal.grouped_apply, []

    def spy(*args, **kwargs):
        got.append(real(*args, **kwargs).materialize())
        return got[-1]

    with mock.patch.object(temporal, "grouped_apply", spy):
        run(ray.data.from_arrow(_EVENTS))
    return got


@pytest.mark.parametrize("run", [
    lambda ds: temporal.session_windows(ds, key="k", ts="ts", gap=5),
    lambda ds: analytics.running_total(ds, key="k", order_cols=["ts"],
                                       value_col="ts"),
    lambda ds: analytics.grouped_topn(ds, keys=["lang"], order_col="ts",
                                      n=2),
    lambda ds: analytics.grouped_quantiles(ds, "lang", "ts", [0.5]),
    lambda ds: temporal.event_transitions(ds, key="k", ts="ts",
                                          type_col="etype", order_col="eid"),
    lambda ds: analytics.stratified_take(ds, "k", "lang", {"en": 3}),
    lambda ds: analytics.apportion_budget(ds, "k", "ts", budget=1000),
], ids=["session_windows", "running_total", "grouped_topn",
        "grouped_quantiles", "event_transitions", "stratified_take",
        "apportion_budget"])
def test_one_sided_blocks_typed(run):
    """Every one-sided kernel emits Arrow blocks of one schema, ints as
    int64 and no null-typed column, also from buckets whose output is
    empty (every key has one event; most strata have quota 0)."""
    outputs = _one_sided_outputs(run)
    assert outputs
    for out in outputs:
        blocks = ray.get(out.get_internal_block_refs())
        assert blocks and all(isinstance(b, pa.Table) for b in blocks)
        schema = blocks[0].schema
        assert all(b.schema.equals(schema) for b in blocks)
        for f in schema:
            assert not pa.types.is_null(f.type), f
            if pa.types.is_integer(f.type):
                assert f.type == pa.int64(), f


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
