"""Deduplication operators (SURVEY.md §2.7 + the training-data extensions).

The reference dedups implicitly — identifiers are content hashes, re-runs
skip existing outputs (gee.py:267-274). For web pages the equivalent
first-class operators share one contract (keep one row per key, earliest
by an order column) and one kernel:

- ``dedup_table``: the in-memory Arrow kernel — one row per exact key
  value, ties at the minimum broken on the remaining columns, so the
  kept row never depends on arrival order. Every dedup below runs it;
  on its own it dedups any table whose keys are already co-located, such
  as one url-hash partition of the flagship's checkpoint
  (state/manifest.map_checkpointed).
- ``dedup_exact``: the size-placed fold. ``dedup_table`` per batch
  inside ``map_batches`` (kills most duplicates where they sit), then
  ``dedup_table`` once more over the materialized partials, placed as
  every fold is (``_fold_placed``, below): one task for a small input,
  one task per key-hash range above — no exchange, no rows on the
  driver. The flagship's url dedup when it has no checkpoint.
- ``dedup_exact_broadcast``: broadcast-min for low-duplicate corpora held
  in memory — two narrow scans build per-duplicate-key minima, one
  map-side filter keeps the minimum rows, and only tie keys ride
  ``dedup_exact``. Kept for ``q_dedup_events_broadcast`` and
  ``perfbench/layers.py``. Its per-key statistics are gathered on the
  driver, so the driver's heap grows with the number of duplicated keys.
- near-duplicate detection (MinHash-LSH, SimHash) lives in
  pipelines/neardup.py.

Every aggregate in the engine (key censuses, counts, sums, vocabularies,
rollups) has one shape: per-block combiner partials, then one fold —
``partial_aggregate`` (count, sum, min, max and mean by key) or, for
partials a caller builds itself, ``fold_partials``. Folds and
``dedup_exact`` share one placement (``_fold_placed``), picked by size:
at or below ``ONE_TASK_FOLD_ROWS`` materialized partial rows the kernel
runs once, in one task; above, once per hash range in its own task.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions import arrowio
from ..functions.arrowio import key_frame, key_hash


def dedup_table(table: pa.Table, keys: list[str], orders: list[str] = (),
               keep: str = "first") -> pa.Table:
    """One row per distinct ``keys`` value of ``table``: the first by
    ``orders`` ascending (``keep="last"``: the last). Rows tied on
    ``orders`` are ranked by the remaining columns (ascending, nested
    columns excepted), so the row kept depends only on the rows, never on
    the order they arrive in — applying this per block and again per
    bucket gives the same row as applying it once. Keys compare by value:
    exact strings, not hashes; nulls form one key."""
    if table.num_rows < 2:
        return table
    keys, orders = list(keys), list(orders)
    view = {}
    for c in table.column_names:
        col = table[c]
        if pa.types.is_dictionary(col.type):    # Arrow cannot sort these
            col = col.cast(col.type.value_type)
        if c in keys or c in orders or not pa.types.is_nested(col.type):
            view[c] = col
    by = pa.table(view)
    rest = [c for c in by.column_names if c not in keys and c not in orders]
    order = pc.sort_indices(by, sort_keys=[(c, "ascending")
                                           for c in orders + rest]) \
        if orders + rest else pa.array(np.arange(table.num_rows))
    ranked = by.select(keys).take(order).append_column(
        "__rank", pa.array(np.arange(table.num_rows)))
    agg = "min" if keep == "first" else "max"
    picks = ranked.group_by(keys, use_threads=False) \
        .aggregate([("__rank", agg)])[f"__rank_{agg}"]
    return table.take(order.take(picks))


def dedup_exact(
    ds: ray.data.Dataset,
    key: str | list[str],
    order_col: str | list[str] | None = None,
    keep: str = "first",
) -> ray.data.Dataset:
    """One row per ``key`` (column or list of columns); among duplicates keep
    the first by ``order_col`` ascending (ties: see ``dedup_table``).
    A fold: ``dedup_table`` per batch, then once more over the partials
    wherever ``_fold_placed`` puts them (one task, or one per key-hash
    range). Eager: the partials are materialized to be counted."""
    keys = [key] if isinstance(key, str) else list(key)
    orders = [] if order_col is None else (
        [order_col] if isinstance(order_col, str) else list(order_col))

    def local(table: pa.Table) -> pa.Table:
        return dedup_table(table, keys, orders, keep)

    return _fold_placed(ds.map_batches(local, batch_format="pyarrow"),
                        local, keys)


def dup_key_set(ds: ray.data.Dataset, key: str | list[str]) -> "object":
    """Sorted uint64 hashes of key values whose GLOBAL count ≥ 2, as a
    broadcast ``ray.put`` ref. The scan is column-pruned (only the key
    column leaves each block) and pre-aggregated per block, so the data
    moved is |distinct keys per block| × 16 B; ``fold_partials`` sums the
    partials and only the duplicated hashes reach the driver. Hash
    collisions only ever send extra rows to the 128-bit check (false
    positive = harmless), never lose a duplicate (same key ⇒ same hash)."""
    keys = [key] if isinstance(key, str) else list(key)

    def local(batch: pa.Table) -> pa.Table:
        u, c = np.unique(key_hash(batch, keys), return_counts=True)
        return pa.table({"__h": pa.array(u, type=pa.uint64()),
                         "__partial": pa.array(c.astype(np.int64))})

    partial = ds.select_columns(keys).map_batches(local, batch_format="pyarrow")
    folded = fold_partials(partial, ["__h"], [("__partial", "sum")],
                           fallback_schema=pa.schema([
                               ("__h", pa.uint64()), ("__partial", pa.int64())]))
    (h,) = frequent_keys(folded, ["__h"], "__partial", 2)
    return ray.put(np.sort(h))


def _hash128(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit key hashes (≈128-bit key identity) of a
    :func:`key_frame` (the first equals ``key_hash``): the
    broadcast-min dedup DROPS rows by hash identity, so a 64-bit collision
    (≈n²/2⁶⁴ — real at 10⁹ keys) could delete a wrong row. At 128 bits the
    probability is ~10⁻²⁰ per corpus."""
    h1 = pd.util.hash_pandas_object(df, index=False).to_numpy()
    h2 = pd.util.hash_pandas_object(df, index=False,
                                    hash_key="b9967a2d9f0a4a32").to_numpy()
    return h1, h2


def sorted_member(sorted_h: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Membership of each ``h`` in the sorted uint64 array ``sorted_h``
    (one ``searchsorted`` probe)."""
    if not len(sorted_h):
        return np.zeros(len(h), dtype=bool)
    i = np.searchsorted(sorted_h, h)
    return (i < len(sorted_h)) \
        & (sorted_h[np.minimum(i, len(sorted_h) - 1)] == h)


def probe128(h1d: np.ndarray, h2d: np.ndarray, b1: np.ndarray,
             b2: np.ndarray) -> np.ndarray:
    """Index of each (b1, b2) pair in the (h1, h2)-lexsorted arrays
    ``h1d``/``h2d``, −1 on a miss: locate the h1 run with
    ``searchsorted``, then probe each slot for the h2 match (runs are
    length 1 except 64-bit h1 collisions)."""
    idx = np.full(len(b1), -1, dtype=np.int64)
    if not len(h1d) or not len(b1):
        return idx
    left = np.searchsorted(h1d, b1, side="left")
    right = np.searchsorted(h1d, b1, side="right")
    for off in range(int((right - left).max())):
        in_run = off < (right - left)
        j = np.minimum(left + off, len(h1d) - 1)
        hit = in_run & (idx < 0) & (h1d[j] == b1) & (h2d[j] == b2)
        idx = np.where(hit, j, idx)
    return idx


def dup_key_minima(ds: ray.data.Dataset, key: str | list[str],
                   order_col: str, dup_ref=None):
    """Per-duplicate-key global minimum statistics, broadcast as a
    ``ray.put`` ref of (h1 sorted-pair, h2, keep_order, is_tie):

    - (h1, h2): 128-bit key hash of every key with global count ≥ 2
    - keep_order: the global minimum of ``order_col`` for that key
    - is_tie: >1 row carries that minimum (needs ``dedup_exact`` to pick one)

    Two narrow scans: the cheap 64-bit ``dup_key_set`` pass prunes to the
    few-% duplicated keys (its false positives are filtered out below — a
    non-dup key never reaches the stats table, so classify keeps its rows),
    then the minima pass computes 128-bit per-key stats over ONLY those
    rows — the driver folds |dup keys| rows, not |distinct keys| (folding
    every distinct key single-threaded was the measured bottleneck: 9.7 s
    of a 20 s flagship at 4M mostly-unique urls)."""
    keys = [key] if isinstance(key, str) else list(key)
    if dup_ref is None:
        dup_ref = dup_key_set(ds, key)

    def local(batch: pa.Table) -> pa.Table:
        kf = key_frame(batch, keys)
        ts = batch.select([order_col]).to_pandas()[order_col].to_numpy()
        if len(kf):
            m = sorted_member(ray.get(dup_ref), pd.util.hash_pandas_object(
                kf, index=False).to_numpy())
            kf, ts = kf[m], ts[m]
        if len(kf) == 0:
            e = np.empty(0, dtype=np.uint64)
            z = np.empty(0, dtype=np.int64)
            return pa.table({"__h1": pa.array(e), "__h2": pa.array(e),
                             "__cnt": pa.array(z), "__min": pa.array(ts),
                             "__nmin": pa.array(z)})
        h1, h2 = _hash128(kf)
        order = np.lexsort((ts, h2, h1))
        h1s, h2s, tss = h1[order], h2[order], ts[order]
        new = np.empty(len(kf), dtype=bool)
        new[0] = True
        new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        starts = np.nonzero(new)[0]
        counts = np.diff(np.append(starts, len(kf)))
        min_ts = tss[starts]
        eq = tss == np.repeat(min_ts, counts)
        n_at_min = np.add.reduceat(eq, starts)
        return pa.table({
            "__h1": pa.array(h1s[starts], type=pa.uint64()),
            "__h2": pa.array(h2s[starts], type=pa.uint64()),
            "__cnt": pa.array(counts.astype(np.int64)),
            "__min": pa.array(min_ts),
            "__nmin": pa.array(n_at_min.astype(np.int64)),
        })

    parts = {"h1": [], "h2": [], "cnt": [], "mn": [], "nm": []}
    for b in ds.select_columns(keys + [order_col]) \
            .map_batches(local, batch_format="pyarrow") \
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        parts["h1"].append(b["__h1"].to_numpy())
        parts["h2"].append(b["__h2"].to_numpy())
        parts["cnt"].append(b["__cnt"].to_numpy())
        parts["mn"].append(b["__min"].to_numpy())
        parts["nm"].append(b["__nmin"].to_numpy())
    if not parts["h1"]:
        e = np.empty(0, dtype=np.uint64)
        return ray.put((e, e, np.empty(0), np.empty(0, dtype=bool)))
    h1 = np.concatenate(parts["h1"]); h2 = np.concatenate(parts["h2"])
    cnt = np.concatenate(parts["cnt"]); mn = np.concatenate(parts["mn"])
    nm = np.concatenate(parts["nm"])
    order = np.lexsort((h2, h1))
    h1, h2, cnt, mn, nm = h1[order], h2[order], cnt[order], mn[order], nm[order]
    new = np.empty(len(h1), dtype=bool)
    new[0] = True
    new[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
    starts = np.nonzero(new)[0]
    runs = np.diff(np.append(starts, len(h1)))
    total = np.add.reduceat(cnt, starts)
    gmin = np.minimum.reduceat(mn, starts)
    at_min = nm * (mn == np.repeat(gmin, runs))
    n_at_gmin = np.add.reduceat(at_min, starts)
    dup = total >= 2
    return ray.put((h1[starts][dup], h2[starts][dup], gmin[dup],
                    (n_at_gmin[dup] >= 2)))


def dedup_exact_broadcast(
    ds: ray.data.Dataset,
    key: str | list[str],
    order_col: str,
    nbuckets: int | None = None,
    stats_ref=None,
) -> ray.data.Dataset:
    """Exchange-free exact dedup for low-duplicate corpora: pass 1 is the
    narrow ``dup_key_minima`` scan; pass 2 is ONE map-side filter — a row
    survives iff its key is not duplicated, or it carries the key's global
    minimum ``order_col`` (and the minimum is unique). Only TIE keys (>1
    row at the minimum — usually none when order is a crawl timestamp)
    go through ``dedup_exact``, and when the tie set is empty that fold
    is skipped entirely.

    This removes the all-to-all leg from the dedup path: both passes scale
    like map work (~0.93 on this host) instead of the single-store
    exchange (~0.45) — see BENCH/BASELINE.md. ``ds`` is scanned more than
    once, so it MUST re-scan deterministically with identical rows (a
    materialized dataset or a file source): a non-deterministic upstream
    (samples, unseeded shuffles, time-dependent transforms) breaks
    correctness here, not just speed. keep="first" ascending only (the
    flagship contract); a composite ``order_col`` needs per-key
    lexicographic minima the broadcast stats don't carry, so it runs
    ``dedup_exact`` instead.

    ``nbuckets`` is ignored (the fold places itself by size); it stays
    only because ``perfbench/layers.py`` passes it."""
    if not isinstance(order_col, str):
        return dedup_exact(ds, key, order_col)

    keys = [key] if isinstance(key, str) else list(key)
    if stats_ref is None:
        dup_ref = dup_key_set(ds, key)
        stats_ref = dup_key_minima(ds, key, order_col, dup_ref=dup_ref)
    else:
        dup_ref = None
    h1d, h2d, gmin, tie = ray.get(stats_ref)
    has_ties = bool(tie.any())

    def classify(batch: pa.Table, want: str) -> pa.Table:
        df = key_frame(batch, keys)
        n = len(df)
        ts = batch[order_col].to_numpy(zero_copy_only=False)
        # cheap 64-bit membership prefilter: only the few-% rows of
        # possibly-duplicated keys pay the 128-bit hash + stats lookup
        if dup_ref is not None and len(h1d):
            h64 = pd.util.hash_pandas_object(df, index=False).to_numpy()
            member = sorted_member(ray.get(dup_ref), h64)
        else:
            member = np.full(n, bool(len(h1d)))
        idx = np.full(n, -1, dtype=np.int64)
        sub = np.nonzero(member)[0]
        if len(h1d) and len(sub):
            idx[sub] = probe128(h1d, h2d, *_hash128(df.iloc[sub]))
        found = idx >= 0
        idx_c = np.maximum(idx, 0)
        if want == "keep":
            m = ~found
            if len(h1d):
                m |= found & (ts == gmin[idx_c]) & ~tie[idx_c]
        else:  # tie-key minimum rows → the (tiny) dedup_exact fold
            m = found & (ts == gmin[idx_c]) & tie[idx_c] if len(h1d) \
                else np.zeros(n, dtype=bool)
        return batch.filter(pa.array(m))

    kept = ds.map_batches(lambda b: classify(b, "keep"),
                          batch_format="pyarrow")
    if not has_ties:
        return kept
    tied = ds.map_batches(lambda b: classify(b, "tie"),
                          batch_format="pyarrow")
    return kept.union(dedup_exact(tied, key, order_col))


# Partial-row count at or below which a fold runs once, in one task: the
# range fold's split tasks and per-range task startup (~2-4 s of task
# latency) dwarf a sub-second fold over a few hundred thousand rows.
# Measured round-4: token_postings at sf0.1 (~10⁵ partial rows) was 4.7×
# slower under the range fold, while a 1M-doc corpus (~10⁷ partial rows)
# was 6× FASTER — the crossover sits comfortably inside this band.
ONE_TASK_FOLD_ROWS = 400_000


def _as_arrow(block) -> pa.Table:
    return pa.Table.from_pandas(block, preserve_index=False) \
        if isinstance(block, pd.DataFrame) else block


def _partial_schema(mat: ray.data.Dataset, cols: list[str] | None,
                    fallback) -> pa.Schema:
    """Arrow types of ``cols`` (None: every column) for a fold with no
    rows: from the dataset's schema; when Ray reports none, from the first
    block that has the columns, then ``fallback`` (a schema, or a
    function returning one, called only here), then null types."""
    sch = mat.schema()
    if sch is not None and set(cols or ()) <= set(sch.names):
        return arrowio.dataset_arrow_schema(mat, cols or sch.names)
    for ref in mat.get_internal_block_refs():
        t = _as_arrow(ray.get(ref))
        if set(cols or ()) <= set(t.column_names):
            return t.select(cols or t.column_names).schema
    if callable(fallback):
        fallback = fallback()
    return fallback or pa.schema([(c, pa.null()) for c in cols or ()])


def _select(block, cols: list[str] | None) -> pa.Table:
    t = _as_arrow(block)
    return t.select(cols or t.column_names)


@ray.remote(num_cpus=1)
def _fold_task(kernel, cols: list[str] | None, *blocks) -> pa.Table:
    """``kernel`` over the ``cols`` (None: all) of ``blocks`` as one
    table. Blocks may disagree (a column all null in one block is typed
    null, a pandas block may carry int32); the permissive concat promotes
    each column to one type — the same in every range, as every range
    holds a slice, empty or not, of every block."""
    return kernel(pa.concat_tables([_select(b, cols) for b in blocks],
                                   promote_options="permissive"))


@ray.remote(num_cpus=0.5)
def _split_task(cols: list[str] | None, where, cuts: np.ndarray,
                block) -> tuple:
    """The ``cols`` of ``block`` split into the ranges of ``where(t)``
    between ``cuts``: the row count of each range, then one table each."""
    t = _select(block, cols)
    h = where(t)
    order = np.argsort(h, kind="stable")
    bounds = np.concatenate([[0], np.searchsorted(h[order], cuts), [len(h)]])
    # take, not slice: each range ships its own rows, never a view pinning
    # the whole block
    return (np.diff(bounds), *(t.take(order[lo:hi])
                               for lo, hi in zip(bounds[:-1], bounds[1:])))


def _fold_placed(ds: ray.data.Dataset, kernel, route: list[str],
                 cols: list[str] | None = None,
                 fallback=None) -> ray.data.Dataset:
    """Run the table ``kernel`` over the ``cols`` (None: all) of every
    row of ``ds`` so that all rows of a ``route`` key meet in one call.
    Placement is picked by measured size, never by the caller: ``ds`` is
    materialized and counted. At or below ``ONE_TASK_FOLD_ROWS`` rows the
    kernel runs once, in one task (one output block). Above, each block
    is split by ``key_hash(route)`` into one slice per range (one task per
    block, co-located with it, each slice its own object), and the kernel
    runs once per range in its own task — the reduce-input split of
    FP-Hadoop. The driver holds object refs only, never rows; with no
    rows the kernel sees an empty table (types: ``_partial_schema``).

    Empty blocks are left out: Ray skips map fns on them, so one may
    still hold the UPSTREAM columns."""
    mat = ds.materialize()
    refs = [r for b in mat.iter_internal_ref_bundles()
            for r, meta in b.blocks if meta.num_rows != 0]
    if not refs:
        return ray.data.from_arrow(kernel(
            _partial_schema(mat, cols, fallback).empty_table()))
    if mat.count() <= ONE_TASK_FOLD_ROWS:
        return ray.data.from_arrow_refs(
            [_fold_task.remote(kernel, cols, *refs)])
    nranges = max(4, min(64, int(ray.cluster_resources().get("CPU", 8))))
    cuts = np.arange(1, nranges, dtype=np.uint64) \
        * np.uint64((1 << 64) // nranges)
    srefs = [_split_task.options(num_returns=nranges + 1)
             .remote(cols, lambda t: key_hash(t, route), cuts, r)
             for r in refs]
    return ray.data.from_arrow_refs(
        [_fold_task.remote(kernel, cols, *[s[r + 1] for s in srefs])
         for r in range(nranges)])


def per_value_apply(ds: ray.data.Dataset, col: str, n: int,
                    kernel) -> list:
    """Run the table ``kernel`` once per value of the int column ``col``
    (in ``[0, n)``) that has rows, on every row with that value as one
    table; returns the result refs, one table per task. The placement of
    a sink whose rows carry their payload (a checkpoint partition, a
    canvas block). The values are cut into as many contiguous ranges as
    ``ds`` has blocks (at most ``n``), each block is split by range
    (``_split_task``), and each range runs in its own task on the slices
    that hold it, so a task holds about one input block's rows, or one
    value's if that is more, however large the input or ``n`` is."""
    refs = [r for b in ds.iter_internal_ref_bundles()
            for r, meta in b.blocks if meta.num_rows != 0]
    nr = min(n, len(refs))
    cuts = np.arange(1, nr, dtype=np.int64) * n // max(nr, 1)
    # a whole CPU per split: at half a CPU twice as many run at once, and
    # the worker processes they start cost more than the splits (the
    # first checkpointed_write of 100k rows, 4 Ray CPUs on one core:
    # 1.0 s against 0.27 s)
    srefs = [_split_task.options(num_cpus=1, num_returns=nr + 1)
             .remote(None, lambda t: t[col].to_numpy(), cuts, r)
             for r in refs]
    counts = ray.get([s[0] for s in srefs])

    def per_value(t: pa.Table) -> pa.Table:
        return pa.concat_tables([kernel(v)
                                 for v in arrowio.key_runs(t, [col])])

    return [_fold_task.remote(per_value, None,
                              *[s[i + 1] for s, c in zip(srefs, counts)
                                if c[i]])
            for i in range(nr) if any(c[i] for c in counts)]


def fold_partials(partial: ray.data.Dataset, group_cols: list[str],
                  aggs: list[tuple[str, str]],
                  range_by: list[str] | None = None,
                  out_names: list[str] | None = None,
                  fallback_schema: pa.Schema | None = None
                  ) -> ray.data.Dataset:
    """The engine's one fold of per-block partial aggregates (the
    reference's combiner shape, partitions.py:447-468): sum, min or max
    each ``aggs`` (value_col, op) by ``group_cols``. One Arrow
    ``group_by`` kernel, placed by ``_fold_placed``; null keys form a
    group (SQL ``GROUP BY``). Output columns are
    ``group_cols + [value_col...]``, renamed positionally to
    ``out_names``; every key lives in exactly ONE output block, so
    per-block top-k / filters downstream are globally safe.

    ``range_by``: a subset of ``group_cols`` to route ranges by, so e.g.
    all of a tile's tokens share a range (range_by=[tile]) and a per-block
    per-tile top-k is the final answer. A skewed ``range_by`` key skews
    the fold tasks.

    ``fallback_schema``: Arrow types for ``group_cols + value_cols``,
    used only when every block is empty and none carries the partial
    columns (see ``_partial_schema``)."""
    group_cols = list(group_cols)
    cols = group_cols + [c for c, _ in aggs]
    names = list(out_names) if out_names else cols
    return _fold_placed(
        partial, lambda t: _group_fold(t, group_cols, aggs)
        .rename_columns(names), list(range_by or group_cols), cols,
        fallback_schema)


def _group_fold(t: pa.Table, group_cols: list[str],
                aggs: list[tuple]) -> pa.Table:
    """The one Arrow group-by kernel of the combiners and folds: ``t``
    grouped by ``group_cols``, each ``aggs`` (value_col, op[, options])
    into a column named value_col, after the keys."""
    g = t.group_by(group_cols, use_threads=False).aggregate(list(aggs))
    return g.select(group_cols + [f"{a[0]}_{a[1]}" for a in aggs]) \
        .rename_columns(group_cols + [a[0] for a in aggs])


def frequent_keys(folded: ray.data.Dataset, key_cols: list[str],
                  count_col: str, min_count: int) -> list[np.ndarray]:
    """``key_cols`` of the ``fold_partials`` rows whose ``count_col`` is
    ≥ ``min_count``, as numpy arrays. The filter runs where the folded
    rows are, so only the kept keys reach the driver."""
    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t[count_col], min_count)) \
            .select(key_cols)

    kept = list(folded.map_batches(keep, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow", batch_size=None))
    return [np.concatenate([b[c].to_numpy() for b in kept]
                           or [np.empty(0, np.uint64)]) for c in key_cols]


def partial_aggregate(ds: ray.data.Dataset, group_cols: list[str],
                      aggs: list[tuple[str | None, str, str]]
                      ) -> ray.data.Dataset:
    """Grouped aggregate in the combiner shape: each batch emits one row
    per key present (an Arrow ``group_by`` partial), then
    ``_fold_placed`` merges the partials — only |keys| rows per block
    leave the map stage (SURVEY.md §4 skew note); the fold is
    ``fold_partials``' kernel. ``aggs`` holds
    ``(value_col, op, out_name)`` with op ``count`` (rows; value_col
    None), ``sum``, ``min``, ``max`` or ``mean`` (a sum and a count of
    the non-null values, divided after the fold). Output columns are
    ``group_cols + out_names``. Null keys form a group; the value ops skip
    nulls, as SQL does. With no rows the output is empty but typed from
    ``ds``'s schema."""
    group_cols = list(group_cols)
    parts = []      # (value column, per-batch op, fold op)
    for col, op, _ in aggs:
        if op == "count":
            parts.append((None, "count", "sum"))
        elif op == "mean":
            parts += [(col, "sum", "sum"), (col, "count", "sum")]
        else:
            parts.append((col, op, op))
    names = [f"__p{i}" for i in range(len(parts))]

    def combine(batch: pa.Table) -> pa.Table:
        t = pa.table([batch[k] for k in group_cols]
                     + [batch[c or group_cols[0]] for c, _, _ in parts],
                     names=group_cols + names)
        return _group_fold(t, group_cols, [
            (n, op, pc.CountOptions("all")) if c is None else (n, op)
            for n, (c, op, _) in zip(names, parts)])

    folds = [(n, fop) for n, (_, _, fop) in zip(names, parts)]

    def fold(t: pa.Table) -> pa.Table:     # then means divide sum by count
        t = _group_fold(t, group_cols, folds)
        folded = iter(t[n] for n in names)
        out = {k: t[k] for k in group_cols}
        for _, op, name in aggs:
            out[name] = next(folded)
            if op == "mean":
                out[name] = pc.divide(out[name].cast(pa.float64()),
                                      next(folded).cast(pa.float64()))
        return pa.table(out)

    src = ds.select_columns(list(dict.fromkeys(
        group_cols + [c for c, _, _ in aggs if c is not None])))

    def typed_empty():      # the partial types of an input with no rows
        sch = src.schema()
        return sch and combine(arrowio.dataset_arrow_schema(
            src, sch.names).empty_table()).schema

    return _fold_placed(src.map_batches(combine, batch_format="pyarrow"),
                        fold, group_cols, group_cols + names, typed_empty)


def partial_counts(ds: ray.data.Dataset, group_cols: list[str],
                   count_alias: str = "n") -> ray.data.Dataset:
    """Row count by ``group_cols`` (``partial_aggregate``)."""
    return partial_aggregate(ds, group_cols, [(None, "count", count_alias)])


def partial_sums(ds: ray.data.Dataset, group_cols: list[str], value_col: str,
                 sum_alias: str) -> ray.data.Dataset:
    """Sum of ``value_col`` by ``group_cols`` (``partial_aggregate``)."""
    return partial_aggregate(ds, group_cols, [(value_col, "sum", sum_alias)])


def upsert(base: ray.data.Dataset, updates: ray.data.Dataset,
           key: str | list[str], order_col: str | list[str] | None = None
           ) -> ray.data.Dataset:
    """Incremental-ingest merge (latest-wins upsert): rows in ``updates``
    replace same-key rows in ``base``; new keys are appended; within each
    side, the greatest ``order_col`` wins. The crawl-refresh operation —
    merge tonight's recrawl into the standing tileset without rewriting
    unaffected rows' values.

    Physically just union + dedup_exact(keep="last") over (priority,
    order) — the update side carries priority 1 — so it shares
    dedup_exact's size-placed fold and its combiner-shaped local
    pre-dedup.
    Schemas must match (``updates`` may be a subset of columns ONLY if
    identical — no partial-column patches; that is a different operator)."""
    keys = [key] if isinstance(key, str) else list(key)
    orders = [] if order_col is None else (
        [order_col] if isinstance(order_col, str) else list(order_col))

    def tag(pri: int):
        def f(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "__pri", pa.array(np.full(len(batch), pri, dtype=np.int8)))
        return f

    cols = base.schema().names
    u = base.map_batches(tag(0), batch_format="pyarrow").union(
        updates.select_columns(cols).map_batches(tag(1),
                                                 batch_format="pyarrow"))
    merged = dedup_exact(u, keys, order_col=["__pri"] + orders, keep="last")
    return merged.drop_columns(["__pri"])


def upsert_patch(base: ray.data.Dataset, updates: ray.data.Dataset,
                 key: str | list[str],
                 order_col: str | list[str] | None = None
                 ) -> ray.data.Dataset:
    """Partial-column patch merge — the operator :func:`upsert` documents
    as out of its scope: ``updates`` carries the key plus a SUBSET of
    columns; matched base rows take each patch column's value WHERE IT IS
    NON-NULL (SQL ``COALESCE(u.c, b.c)`` semantics — a NULL patch cell
    leaves the base value), unmatched base rows flow through untouched,
    and update keys absent from base are dropped (pure patch, no insert —
    that is :func:`upsert`). Patch columns not present in base become new
    columns (NULL for unpatched rows). Multiple updates per key resolve
    by greatest ``order_col``; rows TIED on (key, order_col) resolve
    arbitrarily — the pre-exchange row order is not preserved through the
    shuffle, so callers needing determinism must provide an order column
    that is unique per key (the usual version/timestamp contract,
    identical to SQL's nondeterministic pick under ROW_NUMBER ties).

    Physical plan: both sides co-locate by key hash in ONE exchange
    (``temporal.grouped_apply`` on the pair; update rows with a null key
    patch nothing and are dropped); the per-bucket Arrow kernel takes the
    latest update row per key, matches it to the base rows
    (``joins._index_join``) and coalesces. Base columns keep their type
    (a patch column is cast to it); new columns take the update side's."""
    from ..stages.joins import _index_join
    from ..stages.temporal import grouped_apply

    keys = [key] if isinstance(key, str) else list(key)
    orders = [] if order_col is None else (
        [order_col] if isinstance(order_col, str) else list(order_col))
    patch_cols = [c for c in updates.schema().names
                  if c not in keys and c not in orders]

    def kern(b: pa.Table, u: pa.Table) -> pa.Table:
        # the latest update per key: its last row in order_col order
        if orders:
            u = u.sort_by([(c, "ascending") for c in orders])
        u = u.append_column("__i", pa.array(np.arange(len(u))))
        u = u.take(u.group_by(keys).aggregate([("__i", "max")])["__i_max"])
        u = u.select(keys + patch_cols).rename_columns(
            keys + [c + "__u" for c in patch_cols])
        m = _index_join(b, u, keys, u.column_names[len(keys):], "left outer")
        out = {c: m[c] for c in b.column_names}
        for c in patch_cols:
            p = m[c + "__u"]
            out[c] = pc.coalesce(p.cast(out[c].type), out[c]) \
                if c in out else p
        return pa.table(out)

    return grouped_apply((base, updates), keys, kern)
