"""Temporal join / window operators Ray Data lacks natively: as-of join,
interval (range) join, hopping-window expansion, and the per-key window
operators (sessions, lags, funnels, cohorts, rolling actives, transitions).

This module also holds the engine's one co-location step,
``grouped_apply``, one of its two group-by operators (the other is the
aggregate fold, ``pipelines/dedup.partial_aggregate`` and
``fold_partials``). Rows are tagged with a hash of their key
(``functions/arrowio.key_hash``) modulo ``bucket_count()`` and exchanged
by one Ray ``groupby``/``map_groups`` on that tag: ONE exchange whose
traffic is the pruned columns, never the payload, and the package's only
Ray grouped call (``tests/test_stateful_stages.py`` lints for others).
A vectorized kernel then runs per bucket. Every kernel returns an Arrow
table. A one-sided kernel gets the bucket as one Arrow table and works
with ``sort_by``, ``group_by`` and numpy over columns (group boundaries
from ``arrowio.run_starts``; a kernel that must run once per key loops
over ``arrowio.key_runs``); a two-sided one gets a (left, right) pair of
Arrow tables, each in its side's own schema (equi-joins match through
``joins._index_join``). No global sort, no driver-side row loops;
a bucket holds about 1/64 of the keys or less, and the interval join also
splits a hot key across time bins.

Partitioning assumptions (documented per the custom-operator contract):
- asof_join: all rows of one key land in one bucket → per-key time order is
  established by an in-bucket sort, not a global one. A single pathological
  key bigger than worker heap would need time-sliced sub-bucketing (the
  interval join's bin trick); crawl-shaped keys (user, domain) are far
  below that.
- interval_join: matches only ever cross (key, time-bin) pairs, so both
  sides co-locate on the hash of (key, bin); each point lives in exactly
  one bin so no output dedup pass is needed. Intervals replicate to the
  bins they cover — pick bin_us ≈ the typical interval length so that
  factor stays O(1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions import arrowio
from .joins import _index_join


def bucket_count() -> int:
    """Hash buckets per co-location exchange: many more buckets than
    workers, so one hot bucket is a small share of any worker's load (the
    reduce-skew defence of FP-Hadoop), derived from the cluster's CPUs
    and never asked of the caller. At least 64, the widest default any
    operator had before the width was derived."""
    import ray as _ray
    ncpu = int(_ray.cluster_resources().get("CPU", 0)) \
        if _ray.is_initialized() else 0
    return max(64, 2 * ncpu)


def _bucket_tag(keys: list[str]):
    """map_batches fn appending ``__bucket`` = ``key_hash(keys) mod
    bucket_count()`` to an Arrow batch."""
    from ..functions.arrowio import key_hash

    nb = np.uint64(bucket_count())

    def tag(batch: pa.Table) -> pa.Table:
        b = (key_hash(batch, keys) % nb).astype(np.int64)
        # pandas metadata (parquet written from pandas) breaks schema hashing
        return batch.replace_schema_metadata(None) \
            .append_column("__bucket", pa.array(b))

    return tag


def grouped_apply(ds, keys: str | list[str], kernel) -> ray.data.Dataset:
    """Run ``kernel`` once per co-located bucket of ``ds``: rows are
    tagged with ``key_hash(keys) mod bucket_count()`` and exchanged by
    ``groupby("__bucket").map_groups`` — the engine's one co-location
    plan. The kernel sees every row of a bucket, hence every row of each
    key, together, and is never called on an empty group. It returns a
    ``pa.Table``.

    ``ds`` is one dataset, and the kernel gets the bucket as a
    ``pa.Table`` without the ``__bucket`` tag; or it is the (left, right)
    pair of a two-sided operator: ``_union_bucketed`` then tags each side
    before the union, and the kernel is called as ``kernel(left, right)``
    with each side's rows of the bucket as a ``pa.Table`` in that side's
    own schema (one side may be empty)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if isinstance(ds, tuple):
        tagged, schemas = _union_bucketed(*ds, keys)

        def untagged(group: pa.Table) -> pa.Table:
            right = pc.equal(group["__side"], 1)
            return kernel(*(group.filter(m).select(s.names).cast(s)
                            for m, s in zip((pc.invert(right), right),
                                            schemas)))
    else:
        tagged = ds.map_batches(_bucket_tag(keys), batch_format="pyarrow")

        def untagged(group: pa.Table) -> pa.Table:
            return kernel(group.drop_columns(["__bucket"]))

    return tagged.groupby("__bucket").map_groups(untagged,
                                                 batch_format="pyarrow")


def _union_bucketed(left: ray.data.Dataset, right: ray.data.Dataset,
                    keys: list[str]) -> tuple[ray.data.Dataset, list]:
    """The engine's one two-sided tag, pad and union step, behind
    ``grouped_apply((left, right), keys, kernel)``: pad both sides to ONE
    schema with typed nulls (a column both sides carry takes the promoted
    type, so an int32 key meets an int64 one), tag each row with
    ``__side`` (0 left, 1 right) and its ``__bucket``, and union. Right
    rows with a null key are dropped — no join matches a null key.
    Returns the union and the two sides' own Arrow schemas.

    A side whose unexecuted plan runs an all-to-all exchange is
    materialized first and that copy is unioned: ``Dataset.schema()``
    runs a plan up to its first block, which for an exchange is all of
    it, and the union would run it again. Other sides stay lazy, so a
    map-only side still fuses with the pad map."""
    left, right = (d.materialize() if d.schema(fetch_if_missing=False)
                   is None and _runs_exchange(d) else d
                   for d in (left, right))
    sides = [arrowio.dataset_arrow_schema(d, d.schema().names)
             for d in (left, right)]
    target = pa.unify_schemas(sides, promote_options="permissive") \
        .append(pa.field("__side", pa.int8()))
    tag = _bucket_tag(keys)

    def pad(side: int):
        def f(batch: pa.Table) -> pa.Table:
            if side:
                for k in keys:
                    batch = batch.filter(pc.is_valid(batch[k]))
            n = len(batch)
            cols = [batch[c.name].cast(c.type) if c.name in batch.column_names
                    else pa.nulls(n, c.type) for c in target]
            cols[-1] = pa.array(np.full(n, side, dtype=np.int8))
            return tag(pa.Table.from_arrays(cols, schema=target))
        return f

    return left.map_batches(pad(0), batch_format="pyarrow").union(
        right.map_batches(pad(1), batch_format="pyarrow")), sides


def _runs_exchange(d: ray.data.Dataset) -> bool:
    """Whether ``d``'s logical plan, which for a materialized dataset
    starts at its blocks, holds an all-to-all operator (a sort, shuffle,
    repartition or aggregate)."""
    from ray.data._internal.logical.operators.all_to_all_operator import \
        AbstractAllToAll

    return any(isinstance(op, AbstractAllToAll)
               for op in d._logical_plan.dag.post_order_iter())


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset, key: str,
              on: str, right_on: str | None = None,
              tiebreak: str | None = None, direction: str = "backward"
              ) -> ray.data.Dataset:
    """Inner as-of join: each left row matches the right row (same ``key``)
    with the greatest ``right_on`` ≤ ``left[on]`` (direction="backward";
    "forward" = least ≥). Ties on equal ``right_on`` break to the greatest
    ``tiebreak`` — pass one whenever right timestamps can repeat, or the
    match is undefined. Lefts with no match are dropped (inner semantics —
    they'd force nullable upcasts on every right column).

    Plan: hash-bucket both sides on ``key`` (one exchange, pruned columns
    only) → per bucket, sort right by (right_on, tiebreak) and run pandas
    ``merge_asof(by=key)`` — C-vectorized, and its "last row wins on equal
    on-values" rule is exactly the (ts, tiebreak)-max contract. Right
    payload columns must not collide with left's (rename upstream)."""
    right_on = right_on or on
    l_names = list(left.schema().names)
    r_names = list(right.schema().names)
    clash = (set(l_names) & set(r_names)) - {key, on}
    if clash:
        raise ValueError(f"right payload columns collide with left: {clash}; "
                         "rename them upstream")
    if direction not in ("backward", "forward"):
        raise ValueError(direction)
    r_payload = [c for c in r_names if c not in (key, right_on)]
    probe = r_payload[0] if r_payload else None
    if probe is None:
        raise ValueError("right side needs at least one payload column "
                         "(to carry the matched right timestamp, duplicate "
                         "it into a new column upstream)")

    sort_cols = [right_on] + ([tiebreak] if tiebreak else [])
    # ties on right_on break to the GREATEST tiebreak in both directions:
    # merge_asof takes the LAST equal-on row backward but the FIRST
    # forward, so the tiebreak sort flips with direction
    asc = [True] + ([direction == "backward"] if tiebreak else [])

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        out = pa.schema(list(lt.schema) + [rt.schema.field(c)
                                           for c in r_payload])
        # a null key never matches (right ones never reach the kernel)
        lt = lt.filter(pc.is_valid(lt[key]))
        if not len(lt) or not len(rt):
            return out.empty_table()
        # nullable dtypes: an int column keeps its values, nulls or not
        lg = lt.to_pandas(types_mapper=arrowio._NULLABLE.get) \
            .sort_values(on, kind="mergesort")
        rg = rt.to_pandas(types_mapper=arrowio._NULLABLE.get) \
            .sort_values(sort_cols, ascending=asc, kind="mergesort")
        if right_on != on:
            rg = rg.rename(columns={right_on: on})
        m = pd.merge_asof(lg, rg, on=on, by=key, direction=direction)
        # without the pandas metadata, which would restore nullable dtypes
        return pa.Table.from_pandas(m.dropna(subset=[probe]), schema=out,
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    return grouped_apply((left, right), key, kernel)


def interval_join(points: ray.data.Dataset, intervals: ray.data.Dataset,
                  key: str, ts: str, lo: str, hi: str, bin_width: int
                  ) -> ray.data.Dataset:
    """Inner range join: (point, interval) pairs with equal ``key`` and
    ``lo ≤ ts < hi``. ``ts``/``lo``/``hi`` are int64 (e.g. epoch µs —
    convert timestamps upstream); ``bin_width`` is in the same unit.

    Plan (bin decomposition): each point maps to its single time bin
    ``ts // bin_width``; each interval flat-maps to every bin it covers
    (``lo//w .. (hi-1)//w`` — intervals replicate by ceil(len/w)+1, so pick
    w ≈ the typical interval length). Both sides co-locate on
    hash(key, bin) — the one exchange — then an in-bucket equi-merge on
    (key, bin) plus the exact containment filter. Each pair matches in
    exactly the point's bin, so no dedup pass. This turns an inequality
    join (quadratic per key under a naive plan) into an equi-join whose
    traffic is |points| + Σ ceil(interval_len/w)."""
    w = int(bin_width)
    if w <= 0:
        raise ValueError("bin_width must be positive")
    p_names = list(points.schema().names)
    i_names = list(intervals.schema().names)
    clash = (set(p_names) & set(i_names)) - {key}
    if clash:
        raise ValueError(f"interval columns collide with point columns: "
                         f"{clash}; rename upstream")

    def with_bin_points(batch: pa.Table) -> pa.Table:
        b = batch[ts].to_numpy() // w
        return batch.append_column("__bin", pa.array(b, type=pa.int64()))

    def explode_intervals(batch: pa.Table) -> pa.Table:
        lo_b = batch[lo].to_numpy() // w
        hi_v = batch[hi].to_numpy()
        # hi exclusive: last covered bin is (hi-1)//w; empty intervals → 0
        n = np.maximum((hi_v - 1) // w - lo_b + 1, 0)
        idx = np.repeat(np.arange(len(batch)), n)
        # per-row 0..n-1 offsets without a Python loop
        off = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        t = batch.take(pa.array(idx))
        return t.append_column("__bin", pa.array(lo_b[idx] + off,
                                                 type=pa.int64()))

    p_binned = points.map_batches(with_bin_points, batch_format="pyarrow")
    i_binned = intervals.map_batches(explode_intervals, batch_format="pyarrow")
    p_payload = [c for c in p_names if c != key]

    def kernel(pt: pa.Table, it: pa.Table) -> pa.Table:
        m = _index_join(it, pt, [key, "__bin"], p_payload)
        inside = pc.and_(pc.less_equal(m[lo], m[ts]), pc.less(m[ts], m[hi]))
        return m.filter(inside).select(i_names + p_payload)

    return grouped_apply((p_binned, i_binned), [key, "__bin"], kernel)


def hopping_windows(ds: ray.data.Dataset, ts: str, length: int, hop: int,
                    out_col: str = "window_start") -> ray.data.Dataset:
    """Hopping (sliding) window expansion: each row replicates once per
    window [w, w+length) containing its ``ts`` (int64 units; window starts
    on the ``hop`` grid). ``length`` must be a multiple of ``hop`` so every
    row lands in exactly length/hop windows — the expansion factor is a
    compile-time constant, and the downstream aggregate stays a combiner
    (partial_counts) rather than a shuffle. length == hop degenerates to a
    tumbling window (events_hourly)."""
    if length % hop or length <= 0 or hop <= 0:
        raise ValueError("length must be a positive multiple of hop")
    nw = length // hop

    def expand(batch: pa.Table) -> pa.Table:
        t = batch[ts].to_numpy()
        base = np.floor_divide(t, hop) * hop
        idx = np.repeat(np.arange(len(batch)), nw)
        k = np.tile(np.arange(nw, dtype=np.int64), len(batch))
        out = batch.take(pa.array(idx))
        return out.append_column(out_col,
                                 pa.array(base[idx] - k * hop, type=pa.int64()))

    return ds.map_batches(expand, batch_format="pyarrow")


def session_windows(ds: ray.data.Dataset, key: str, ts: str,
                    gap: int, order_tiebreak: str | None = None,
                    out_col: str = "session_id") -> ray.data.Dataset:
    """Sessionization: assign every row a 0-based per-key session id,
    incremented whenever the gap to the previous event of the same key
    exceeds ``gap`` (same units as ``ts`` — keep ``ts`` integer so the
    comparison is engine-exact). The streaming-window operator behind
    user_sessions, promoted to a first-class stage: one key-hash exchange
    (``grouped_apply``), then a
    vectorized sort + diff + cumsum kernel per bucket; no per-row Python,
    no state actor (the exchange co-locates each key's whole timeline,
    which is the partitioning assumption — a key's events must fit one
    task, true for user/host timelines at any corpus size)."""
    order = [(c, "ascending") for c in
             [key, ts] + ([order_tiebreak] if order_tiebreak else [])]

    def kernel(t: pa.Table) -> pa.Table:
        d = t.sort_by(order)
        brk = np.zeros(len(d), dtype=np.int64)
        brk[1:] = np.diff(d[ts].to_numpy()) > gap
        new = arrowio.run_starts(d, [key])
        brk[new] = 0
        return d.append_column(out_col, pa.array(arrowio.run_cumsum(brk, new)))

    return grouped_apply(ds, key, kernel)


def lag_deltas(ds: ray.data.Dataset, key: str, ts: str,
               order_tiebreak: str | None = None,
               out_col: str = "delta", first_value: int = -1
               ) -> ray.data.Dataset:
    """Per-key LAG window: every row gets ``ts - LAG(ts)`` over
    (PARTITION BY key ORDER BY ts, tiebreak) — inter-arrival deltas, the
    lead/lag window operator session_windows' cumsum cannot express. The
    first row of each key gets ``first_value`` (an integer sentinel, not
    NULL, so the output column stays non-nullable int64 end to end).
    Same plan as session_windows: one key-hash exchange co-locating each
    key's whole timeline, then a vectorized sort + diff kernel per bucket
    (keep ``ts`` integer so the subtraction is engine-exact)."""
    order = [(c, "ascending") for c in
             [key, ts] + ([order_tiebreak] if order_tiebreak else [])]

    def kernel(t: pa.Table) -> pa.Table:
        d = t.sort_by(order)
        delta = np.empty(len(d), dtype=np.int64)
        delta[1:] = np.diff(d[ts].to_numpy())
        delta[arrowio.run_starts(d, [key])] = first_value
        return d.append_column(out_col, pa.array(delta))

    return grouped_apply(ds, key, kernel)


def _key_codes(col: pa.ChunkedArray) -> tuple[pa.Array, np.ndarray]:
    """The distinct values of ``col`` (a null is one value) and each
    row's index into them."""
    enc = col.combine_chunks().dictionary_encode(null_encoding="encode")
    return enc.dictionary, enc.indices.to_numpy()


def _epoch_us(col: pa.ChunkedArray) -> np.ndarray:
    """An integer or timestamp column as int64 numpy, timestamps as epoch
    microseconds (finer units truncate)."""
    if pa.types.is_timestamp(col.type):
        col = pc.cast(col, pa.timestamp("us", col.type.tz), safe=False)
    return pc.cast(col, pa.int64()).to_numpy()


def funnel_steps(ds: ray.data.Dataset, steps: list[str],
                 key: str = "user_id", ts: str = "ts",
                 type_col: str = "event_type") -> ray.data.Dataset:
    """Ordered funnel progression per key: how many of ``steps`` the key
    completed IN ORDER — step i+1 must occur strictly after the chosen
    step-i event. The match rule is chained earliest-first (first step-0
    event, then the first step-1 event after it, …), which is both the
    standard funnel SQL (chained ``MIN(ts) … ts > prev`` CTEs) and
    provably equivalent to "an ordered subsequence exists" (matching
    earliest never forecloses a later step). Ties at the same timestamp
    do NOT advance (strict >), identically in both engines.

    One key-hash exchange; the kernel is vectorized across keys (one
    masked per-key min per funnel step, no per-user loop). Output:
    (key, steps_reached) for EVERY key present — the zeros are the
    funnel's drop-off report."""

    def kernel(t: pa.Table) -> pa.Table:
        keys, k = _key_codes(t[key])
        t64 = _epoch_us(t[ts])
        etype = t[type_col]
        reached = np.zeros(len(keys), dtype=np.int64)
        # each key's chosen previous-step time; int64 min: every key may
        # take step 0, int64 max: the key dropped out
        frontier = np.full(len(keys), np.iinfo(np.int64).min)
        for i, step in enumerate(steps):
            m = pc.fill_null(pc.equal(etype, step), False).to_numpy() \
                & (t64 > frontier[k])
            if not m.any():
                break
            frontier = np.full(len(keys), np.iinfo(np.int64).max)
            np.minimum.at(frontier, k[m], t64[m])
            reached[frontier < np.iinfo(np.int64).max] = i + 1
        return pa.table({key: keys, "steps_reached": reached})

    return grouped_apply(ds.select_columns([key, ts, type_col]), key, kernel)


def cohort_retention(ds: ray.data.Dataset, anchor_type: str = "signup",
                     key: str = "user_id", ts: str = "ts",
                     type_col: str = "event_type",
                     week_us: int = 7 * 86400 * 1_000_000
                     ) -> ray.data.Dataset:
    """Cohort retention matrix: users cohorted by the epoch-week of
    their FIRST ``anchor_type`` event; a user counts as retained in
    week-offset w if ANY of their events lands in
    ``[t0 + w·week, t0 + (w+1)·week)``. Users with no anchor event are
    excluded. Output (cohort_week, week_offset, n_users) — the classic
    retention triangle, all integer arithmetic on epoch-microseconds.

    One key-hash exchange co-locates each user's events; the kernel
    dedups (user, offset) locally (a user lives in exactly one bucket,
    so local distinct IS global distinct) and ships only
    (cohort, offset, partial-count) rows into ``dedup.fold_partials``."""
    from ..pipelines.dedup import fold_partials

    def kernel(t: pa.Table) -> pa.Table:
        # a null user never joins its anchor (SQL JOIN semantics)
        t = t.filter(pc.is_valid(t[key]))
        keys, k = _key_codes(t[key])
        t64 = _epoch_us(t[ts])
        anchor = pc.fill_null(pc.equal(t[type_col], anchor_type),
                              False).to_numpy()
        t0 = np.full(len(keys), np.iinfo(np.int64).max)
        np.minimum.at(t0, k[anchor], t64[anchor])
        t0 = t0[k]
        m = t64 >= t0
        # distinct (user, offset) — the cohort is a function of the user
        users = pa.table({"k": k[m], "cohort_week": t0[m] // week_us,
                          "week_offset": (t64[m] - t0[m]) // week_us}) \
            .group_by(["k", "cohort_week", "week_offset"],
                      use_threads=False).aggregate([])
        return users.group_by(["cohort_week", "week_offset"],
                              use_threads=False) \
            .aggregate([([], "count_all")]) \
            .select(["cohort_week", "week_offset", "count_all"]) \
            .rename_columns(["cohort_week", "week_offset", "__n"])

    partial = grouped_apply(ds.select_columns([key, ts, type_col]), key,
                            kernel)
    return fold_partials(partial, ["cohort_week", "week_offset"],
                         [("__n", "sum")],
                         out_names=["cohort_week", "week_offset", "n_users"],
                         fallback_schema=pa.schema([
                             (c, pa.int64()) for c in
                             ("cohort_week", "week_offset", "__n")]))


def rolling_active(ds: ray.data.Dataset, key: str = "user_id",
                   ts: str = "ts", window_days: int = 7) -> ray.data.Dataset:
    """Rolling N-day active users (the WAU/MAU metric), EXACT: for each
    epoch-day d, how many distinct keys had at least one event in
    ``[d − N + 1, d]``. Sliding distinct counts resist sketch-free
    streaming; the exact plan here is interval explosion — each
    distinct (key, active-day) contributes to the N window-ends it can
    satisfy, then (key, window-end) dedups. Under key-hash bucketing
    local distinct is global, so only (window_end, partial-count) rows
    leave the exchange; the explosion factor is N on the DEDUPED
    (key, day) table, not on raw events. Output
    (window_end_day, n_active), only windows with ≥ 1 active key."""
    from ..pipelines.dedup import fold_partials

    day_us = 86400 * 1_000_000

    def kernel(t: pa.Table) -> pa.Table:
        kd = pa.table({"k": t[key], "d": _epoch_us(t[ts]) // day_us}) \
            .group_by(["k", "d"], use_threads=False).aggregate([])
        rep = np.repeat(np.arange(len(kd)), window_days)
        off = np.tile(np.arange(window_days, dtype=np.int64), len(kd))
        kw = pa.table({"k": kd["k"].take(rep),
                       "window_end_day": kd["d"].to_numpy()[rep] + off}) \
            .group_by(["k", "window_end_day"], use_threads=False) \
            .aggregate([])
        # a null key is no active user (SQL COUNT(DISTINCT) skips it)
        return kw.group_by("window_end_day", use_threads=False) \
            .aggregate([("k", "count")]) \
            .select(["window_end_day", "k_count"]) \
            .rename_columns(["window_end_day", "__n"])

    partial = grouped_apply(ds.select_columns([key, ts]), key, kernel)
    return fold_partials(partial, ["window_end_day"], [("__n", "sum")],
                         out_names=["window_end_day", "n_active"],
                         fallback_schema=pa.schema([
                             ("window_end_day", pa.int64()),
                             ("__n", pa.int64())]))


def event_transitions(ds: ray.data.Dataset, key: str = "user_id",
                      ts: str = "ts", type_col: str = "event_type",
                      order_col: str = "event_id") -> ray.data.Dataset:
    """First-order transition counts over each key's event sequence
    (the empirical Markov matrix behind next-action models and bot
    detection): sort each key's events by (ts, order_col) — the
    explicit tie-break makes same-timestamp order engine-exact — and
    count adjacent (current → next) type pairs corpus-wide. One
    key-hash exchange, vectorized shift kernel, type²-sized output
    through ``dedup.fold_partials``. SQL twin: LEAD() OVER the same
    window."""
    from ..pipelines.dedup import fold_partials

    order = [(c, "ascending") for c in (key, ts, order_col)]

    def kernel(t: pa.Table) -> pa.Table:
        d = t.sort_by(order)
        cur, nxt = d[type_col].slice(0, len(d) - 1), d[type_col].slice(1)
        # LEAD() within the key; a null next type is no transition
        same = ~arrowio.run_starts(d, [key])[1:] & pc.is_valid(nxt).to_numpy()
        return pa.table({"cur_type": cur, "next_type": nxt}).filter(same) \
            .group_by(["cur_type", "next_type"], use_threads=False) \
            .aggregate([([], "count_all")]) \
            .select(["cur_type", "next_type", "count_all"]) \
            .rename_columns(["cur_type", "next_type", "__n"])

    typ = arrowio.dataset_arrow_schema(ds, [type_col]).field(0).type
    partial = grouped_apply(
        ds.select_columns([key, ts, type_col, order_col]), key, kernel)
    return fold_partials(partial, ["cur_type", "next_type"],
                         [("__n", "sum")],
                         out_names=["cur_type", "next_type", "n"],
                         fallback_schema=pa.schema([
                             ("cur_type", typ), ("next_type", typ),
                             ("__n", pa.int64())]))
