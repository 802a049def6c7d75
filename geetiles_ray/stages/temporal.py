"""Temporal join / window operators Ray Data lacks natively: as-of join,
interval (range) join, hopping-window expansion.

All three follow the same scale discipline as stages/joins.py: co-locate by
a deterministic key-hash bucket (groupby on a small int column — ONE
exchange whose traffic is the pruned join columns, never the payload), then
a vectorized pandas/numpy kernel per bucket. No global sort, no driver-side
row loops; skew is bounded by nbuckets and, for the interval join, by the
bin width (a hot key still splits across time bins).

Partitioning assumptions (documented per the custom-operator contract):
- asof_join: all rows of one key land in one bucket → per-key time order is
  established by an in-bucket sort, not a global one. A single pathological
  key bigger than worker heap would need time-sliced sub-bucketing (the
  interval join's bin trick); crawl-shaped keys (user, domain) are far
  below that.
- interval_join: matches only ever cross (key, time-bin) pairs, so both
  sides co-locate on hash(key, bin); each point lives in exactly one bin so
  no output dedup pass is needed. Intervals replicate to the bins they
  cover — pick bin_us ≈ the typical interval length so that factor stays
  O(1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd → bijective mod 2^64


def _key_hash(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic uint64 hash of a key column. Numeric keys hash on
    their native numpy dtype (vectorized C path in hash_array — ~40x the
    per-element object path); strings fall back to object hashing."""
    try:
        arr = col.to_numpy(zero_copy_only=False)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        arr = np.asarray(col.to_pylist(), dtype=object)
    if arr.dtype == object:
        arr = np.asarray(col.to_pylist(), dtype=object)
    return pd.util.hash_array(arr)


def _union_bucketed(left: ray.data.Dataset, right: ray.data.Dataset,
                    bucket_of_left, bucket_of_right) -> ray.data.Dataset:
    """Tag each side with __bucket/__side, pad to a shared schema with typed
    nulls, union. The groupby("__bucket") downstream is the one exchange.
    (Same skeleton as joins.join_on_identifier; the dtype-restore happens in
    each caller's kernel because null padding upcasts ints to float64.)"""
    def tag(side: int, bucket_of):
        def f(batch: pa.Table) -> pa.Table:
            b = bucket_of(batch).astype(np.int64)
            return batch.append_column("__bucket", pa.array(b)) \
                .append_column("__side",
                               pa.array([side] * len(batch), type=pa.int8()))
        return f

    l_tagged = left.map_batches(tag(0, bucket_of_left), batch_format="pyarrow")
    r_tagged = right.map_batches(tag(1, bucket_of_right), batch_format="pyarrow")

    l_schema = dict(zip(left.schema().names, left.schema().types))
    r_schema = dict(zip(right.schema().names, right.schema().types))

    def pad(missing: dict):
        def f(batch: pa.Table) -> pa.Table:
            out = {n: batch[n] for n in batch.column_names}
            for n, t in missing.items():
                out[n] = pa.nulls(len(batch), t)
            return pa.table(out)
        return f

    l_missing = {c: t for c, t in r_schema.items() if c not in l_schema}
    r_missing = {c: t for c, t in l_schema.items() if c not in r_schema}
    ordered = list(l_schema) + list(l_missing) + ["__bucket", "__side"]
    l_full = l_tagged.map_batches(pad(l_missing), batch_format="pyarrow") \
        .select_columns(ordered)
    r_full = r_tagged.map_batches(pad(r_missing), batch_format="pyarrow") \
        .select_columns(ordered)
    return l_full.union(r_full)


def grouped_apply(tagged: ray.data.Dataset, kernel) -> ray.data.Dataset:
    """Run ``kernel`` (pandas frame → pandas frame) once per co-located
    bucket of ``tagged`` (which carries an int64 ``__bucket`` column), via
    ``groupby("__bucket").map_groups`` — the engine's one co-location plan.
    The kernel sees every row of a bucket, hence every row of each key,
    together, and is never called on an empty group."""
    return tagged.groupby("__bucket").map_groups(kernel,
                                                 batch_format="pandas")


def _pd_dtypes(ds: ray.data.Dataset) -> dict:
    out = {}
    for n, t in zip(ds.schema().names, ds.schema().types):
        try:
            out[n] = t.to_pandas_dtype()
        except (NotImplementedError, pa.ArrowNotImplementedError):
            out[n] = object
    return out


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset, key: str,
              on: str, right_on: str | None = None,
              tiebreak: str | None = None, direction: str = "backward",
              nbuckets: int = 32) -> ray.data.Dataset:
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

    l_dtypes = _pd_dtypes(left)
    r_dtypes = _pd_dtypes(right)

    def b_left(batch: pa.Table) -> np.ndarray:
        return _key_hash(batch[key]) % np.uint64(nbuckets)

    unioned = _union_bucketed(left, right, b_left, b_left)
    out_cols = l_names + r_payload
    # typed empty frame for one-sided buckets: an object-dtype empty would
    # make Ray's schema unification treat the block as a new schema
    out_dtypes = {**{c: l_dtypes[c] for c in l_names},
                  **{c: r_dtypes[c] for c in r_payload}}
    empty = pd.DataFrame(columns=out_cols).astype(out_dtypes)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == 0][l_names]
        rg = g[g["__side"] == 1][[key, right_on] + r_payload]
        if not len(lg) or not len(rg):
            return empty.copy()
        lg = lg.astype({c: l_dtypes[c] for c in l_names}, copy=False) \
            .sort_values(on, kind="mergesort")
        # ties on right_on break to the GREATEST tiebreak in both
        # directions: merge_asof takes the LAST equal-on row backward but
        # the FIRST forward, so the tiebreak sort flips with direction
        sort_cols = [right_on] + ([tiebreak] if tiebreak else [])
        asc = [True] + ([direction == "backward"] if tiebreak else [])
        rg = rg.astype({c: r_dtypes[c] for c in [key, right_on] + r_payload},
                       copy=False).sort_values(sort_cols, ascending=asc,
                                               kind="mergesort")
        if right_on != on:
            rg = rg.rename(columns={right_on: on})
        m = pd.merge_asof(lg, rg, on=on, by=key, direction=direction)
        m = m.dropna(subset=[probe])
        # NaN rows (now dropped) upcast int right columns to float64
        return m.astype({c: r_dtypes[c] for c in r_payload}, copy=False)

    return grouped_apply(unioned, kernel)


def _pool_size() -> tuple:
    """Autoscaling actor-pool bounds for a standalone broadcast-join stage:
    floor 2, ceiling most of the cluster (these stages run alone, not in a
    deep chain where per-operator reservations starve each other)."""
    import ray as _ray
    ncpu = int(_ray.cluster_resources().get("CPU", 8)) \
        if _ray.is_initialized() else 8
    return (2, max(2, ncpu - 2))


def asof_join_broadcast(left: ray.data.Dataset, right: pd.DataFrame,
                        key: str, on: str, right_on: str | None = None,
                        tiebreak: str | None = None,
                        direction: str = "backward",
                        broadcast_limit: int = 5_000_000,
                        concurrency: int | tuple | None = None
                        ) -> ray.data.Dataset:
    """Exchange-free as-of join for a small (dimension-sized) right side:
    the right table ships to the object store ONCE (``ray.put``) and every
    left batch runs ``merge_asof`` against it map-side — the left side
    never shuffles, the same broadcast duality dedup has
    (dedup_exact_broadcast vs the exchange plans). Same match contract as
    ``asof_join``; raises above ``broadcast_limit`` rows (beyond that, use
    the exchange plan — a broadcast table must fit every worker's heap)."""
    if len(right) > broadcast_limit:
        raise ValueError(
            f"right side has {len(right)} rows > broadcast_limit="
            f"{broadcast_limit}; use asof_join (the exchange plan)")
    right_on = right_on or on
    if direction not in ("backward", "forward"):
        raise ValueError(direction)
    r_payload = [c for c in right.columns if c not in (key, right_on)]
    if not r_payload:
        raise ValueError("right side needs at least one payload column")
    clash = (set(left.schema().names) & set(r_payload))
    if clash:
        raise ValueError(f"right payload columns collide with left: {clash}")
    sort_cols = [right_on] + ([tiebreak] if tiebreak else [])
    asc = [True] + ([direction == "backward"] if tiebreak else [])
    rsorted = right.sort_values(sort_cols, ascending=asc, kind="mergesort") \
        .reset_index(drop=True)
    if right_on != on:
        rsorted = rsorted.rename(columns={right_on: on})
    r_ref = ray.put(rsorted[[key, on] + r_payload])
    r_dtypes = {c: rsorted[c].dtype for c in r_payload}
    probe = r_payload[0]

    class Kernel:
        def __init__(self):
            self.r = ray.get(r_ref)  # one fetch per actor, zero-copy local

        def __call__(self, lg: pd.DataFrame) -> pd.DataFrame:
            m = pd.merge_asof(lg.sort_values(on, kind="mergesort"), self.r,
                              on=on, by=key, direction=direction)
            m = m.dropna(subset=[probe])
            return m.astype(r_dtypes, copy=False)

    return left.map_batches(Kernel, batch_format="pandas",
                            concurrency=concurrency or _pool_size())


def interval_join(points: ray.data.Dataset, intervals: ray.data.Dataset,
                  key: str, ts: str, lo: str, hi: str, bin_width: int,
                  nbuckets: int = 32) -> ray.data.Dataset:
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
    p_dtypes = _pd_dtypes(points)
    i_dtypes = _pd_dtypes(intervals)

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

    def bucket(batch: pa.Table) -> np.ndarray:
        h = _key_hash(batch[key])
        b = batch["__bin"].to_numpy().astype(np.uint64)
        return (h ^ (b * _MIX)) % np.uint64(nbuckets)

    unioned = _union_bucketed(p_binned, i_binned, bucket, bucket)
    out_cols = i_names + [c for c in p_names if c != key]
    empty = pd.DataFrame(columns=out_cols).astype(
        {**{c: i_dtypes[c] for c in i_names},
         **{c: p_dtypes[c] for c in p_names if c != key}})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        pg = g[g["__side"] == 0][p_names + ["__bin"]]
        ig = g[g["__side"] == 1][i_names + ["__bin"]]
        if not len(pg) or not len(ig):
            return empty.copy()
        pg = pg.astype({c: p_dtypes[c] for c in p_names}, copy=False)
        ig = ig.astype({c: i_dtypes[c] for c in i_names}, copy=False)
        m = ig.merge(pg, on=[key, "__bin"])
        m = m[(m[lo] <= m[ts]) & (m[ts] < m[hi])]
        return m[out_cols]

    return grouped_apply(unioned, kernel)


def interval_join_broadcast(points: ray.data.Dataset,
                            intervals: pd.DataFrame, key: str, ts: str,
                            lo: str, hi: str, bin_width: int,
                            broadcast_limit: int = 2_000_000,
                            concurrency: int | tuple | None = None
                            ) -> ray.data.Dataset:
    """Exchange-free interval join for a small interval set (campaign
    windows, rollout ranges): intervals are bin-exploded ONCE driver-side,
    broadcast via ``ray.put``, and every point batch equi-merges on
    (key, bin) map-side + the exact containment filter. Point traffic:
    zero shuffle. Raises above ``broadcast_limit`` exploded rows."""
    w = int(bin_width)
    if w <= 0:
        raise ValueError("bin_width must be positive")
    clash = (set(points.schema().names) & set(intervals.columns)) - {key}
    if clash:
        raise ValueError(f"interval columns collide with point columns: "
                         f"{clash}; rename upstream")
    lo_v = intervals[lo].to_numpy()
    hi_v = intervals[hi].to_numpy()
    n = np.maximum((hi_v - 1) // w - lo_v // w + 1, 0)
    if n.sum() > broadcast_limit:
        raise ValueError(
            f"intervals explode to {int(n.sum())} bin rows > "
            f"broadcast_limit={broadcast_limit}; use interval_join")
    idx = np.repeat(np.arange(len(intervals)), n)
    off = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
    exploded = intervals.iloc[idx].reset_index(drop=True)
    exploded["__bin"] = (lo_v // w)[idx] + off
    i_ref = ray.put(exploded)
    i_names = list(intervals.columns)

    class Kernel:
        def __init__(self):
            # build a sorted composite (key, bin) int64 index ONCE per
            # actor; each batch is then pure searchsorted — no per-batch
            # hash-table build (a pandas merge rebuilds the broadcast
            # side's hash every batch: measured 2.8x slower than the
            # exchange plan at 1.6M exploded rows, and join-on-MultiIndex
            # is slower still on non-unique keys)
            e = ray.get(i_ref)
            self.e = e
            self.keys = pd.Index(pd.unique(e[key]))
            kcodes = self.keys.get_indexer(e[key]).astype(np.int64)
            b = e["__bin"].to_numpy()
            self.bmin = int(b.min()) if len(b) else 0
            self.span = int(b.max()) - self.bmin + 1 if len(b) else 1
            comp = kcodes * self.span + (b - self.bmin)
            self.order = np.argsort(comp, kind="stable")
            self.comp = comp[self.order]
            self.lo_s = e[lo].to_numpy()[self.order]
            self.hi_s = e[hi].to_numpy()[self.order]

        def __call__(self, pg: pd.DataFrame) -> pd.DataFrame:
            t = pg[ts].to_numpy()
            kc = self.keys.get_indexer(pg[key]).astype(np.int64)
            pb = t // w - self.bmin
            ok = (kc >= 0) & (pb >= 0) & (pb < self.span)
            comp_p = kc[ok] * self.span + pb[ok]
            s = np.searchsorted(self.comp, comp_p, side="left")
            e_ = np.searchsorted(self.comp, comp_p, side="right")
            cnt = e_ - s
            prow = np.repeat(np.nonzero(ok)[0], cnt)
            tot = int(cnt.sum())
            islot = np.repeat(s, cnt) + \
                (np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt))
            keep = (self.lo_s[islot] <= t[prow]) & (t[prow] < self.hi_s[islot])
            prow, islot = prow[keep], islot[keep]
            left = self.e.iloc[self.order[islot]].reset_index(drop=True)
            right = pg.iloc[prow].reset_index(drop=True) \
                .drop(columns=[key])
            return pd.concat([left[i_names], right], axis=1)

    return points.map_batches(Kernel, batch_format="pandas",
                              concurrency=concurrency or _pool_size())


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
                    out_col: str = "session_id",
                    nbuckets: int = 32) -> ray.data.Dataset:
    """Sessionization: assign every row a 0-based per-key session id,
    incremented whenever the gap to the previous event of the same key
    exceeds ``gap`` (same units as ``ts`` — keep ``ts`` integer so the
    comparison is engine-exact). The streaming-window operator behind
    user_sessions, promoted to a first-class stage: one key-hash exchange
    (grouped_apply's ``groupby(bucket).map_groups``), then a
    vectorized sort + diff + cumsum kernel per bucket; no per-row Python,
    no state actor (the exchange co-locates each key's whole timeline,
    which is the partitioning assumption — a key's events must fit one
    task, true for user/host timelines at any corpus size)."""
    tb = [order_tiebreak] if order_tiebreak else []

    def tag(batch: pa.Table) -> pa.Table:
        b = (_key_hash(batch[key]) % np.uint64(nbuckets)).astype(np.int64)
        return batch.append_column("__bucket", pa.array(b))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.drop(columns=["__bucket"])
        d = df.sort_values([key, ts] + tb, kind="mergesort")
        kk = d[key].to_numpy()
        tt = d[ts].to_numpy()
        new_key = np.empty(len(d), dtype=bool)
        new_key[0] = True
        new_key[1:] = kk[1:] != kk[:-1]
        brk = np.empty(len(d), dtype=np.int64)
        brk[0] = 0
        brk[1:] = ((tt[1:] - tt[:-1]) > gap).astype(np.int64)
        brk[new_key] = 0
        sid = np.cumsum(brk)
        # restart the running count at each key boundary
        base = np.zeros(len(d), dtype=np.int64)
        starts = np.nonzero(new_key)[0]
        base[starts] = sid[starts]
        d[out_col] = sid - np.maximum.accumulate(base)
        return d.drop(columns=["__bucket"])

    return grouped_apply(tagged, kernel)


def lag_deltas(ds: ray.data.Dataset, key: str, ts: str,
               order_tiebreak: str | None = None,
               out_col: str = "delta", first_value: int = -1,
               nbuckets: int = 32) -> ray.data.Dataset:
    """Per-key LAG window: every row gets ``ts - LAG(ts)`` over
    (PARTITION BY key ORDER BY ts, tiebreak) — inter-arrival deltas, the
    lead/lag window operator session_windows' cumsum cannot express. The
    first row of each key gets ``first_value`` (an integer sentinel, not
    NULL, so the output column stays non-nullable int64 end to end).
    Same plan as session_windows: one key-hash exchange co-locating each
    key's whole timeline, then a vectorized sort + diff kernel per bucket
    (keep ``ts`` integer so the subtraction is engine-exact)."""
    tb = [order_tiebreak] if order_tiebreak else []

    def tag(batch: pa.Table) -> pa.Table:
        b = (_key_hash(batch[key]) % np.uint64(nbuckets)).astype(np.int64)
        return batch.append_column("__bucket", pa.array(b))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.drop(columns=["__bucket"])
        d = df.sort_values([key, ts] + tb, kind="mergesort")
        kk = d[key].to_numpy()
        tt = d[ts].to_numpy()
        delta = np.empty(len(d), dtype=np.int64)
        delta[0] = first_value
        delta[1:] = tt[1:] - tt[:-1]
        new_key = np.empty(len(d), dtype=bool)
        new_key[0] = True
        new_key[1:] = kk[1:] != kk[:-1]
        delta[new_key] = first_value
        d[out_col] = delta
        return d.drop(columns=["__bucket"])

    return grouped_apply(tagged, kernel)


def funnel_steps(ds: ray.data.Dataset, steps: list[str],
                 key: str = "user_id", ts: str = "ts",
                 type_col: str = "event_type",
                 nbuckets: int = 32) -> ray.data.Dataset:
    """Ordered funnel progression per key: how many of ``steps`` the key
    completed IN ORDER — step i+1 must occur strictly after the chosen
    step-i event. The match rule is chained earliest-first (first step-0
    event, then the first step-1 event after it, …), which is both the
    standard funnel SQL (chained ``MIN(ts) … ts > prev`` CTEs) and
    provably equivalent to "an ordered subsequence exists" (matching
    earliest never forecloses a later step). Ties at the same timestamp
    do NOT advance (strict >), identically in both engines.

    One key-hash exchange; the kernel is vectorized across keys (one
    filtered groupby-min per funnel step, no per-user loop). Output:
    (key, steps_reached) for EVERY key present — the zeros are the
    funnel's drop-off report."""

    def tag(batch: pa.Table) -> pa.Table:
        b = (_key_hash(batch[key]) % np.uint64(nbuckets)).astype(np.int64)
        return batch.append_column("__bucket", pa.array(b))

    tagged = ds.select_columns([key, ts, type_col]) \
        .map_batches(tag, batch_format="pyarrow")

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({key: pd.Series([], dtype="int64"),
                                 "steps_reached": pd.Series([],
                                                            dtype="int64")})
        t64 = df[ts].astype("int64")
        reached = pd.Series(0, index=pd.Index(df[key].unique(), name=key),
                            dtype="int64")
        frontier = pd.Series(np.iinfo(np.int64).min, index=reached.index)
        for i, step in enumerate(steps):
            sub = df[df[type_col] == step]
            if not len(sub):
                break
            # stay on exact int64: .map() with missing keys coerces to
            # float64, whose ~256 µs resolution at 2020s epochs can flip
            # strict comparisons near boundaries
            sub = sub[sub[key].isin(frontier.index)]
            if not len(sub):
                break
            tp = frontier.loc[sub[key]].to_numpy()
            sub = sub[t64[sub.index].to_numpy() > tp]
            if not len(sub):
                break
            first = t64[sub.index].groupby(sub[key].to_numpy()).min()
            reached.loc[first.index] = i + 1
            frontier = first
        out = reached.reset_index()
        out.columns = [key, "steps_reached"]
        return out.drop(columns=["__bucket"], errors="ignore")

    return grouped_apply(tagged, kernel)


def cohort_retention(ds: ray.data.Dataset, anchor_type: str = "signup",
                     key: str = "user_id", ts: str = "ts",
                     type_col: str = "event_type",
                     week_us: int = 7 * 86400 * 1_000_000,
                     nbuckets: int = 32) -> ray.data.Dataset:
    """Cohort retention matrix: users cohorted by the epoch-week of
    their FIRST ``anchor_type`` event; a user counts as retained in
    week-offset w if ANY of their events lands in
    ``[t0 + w·week, t0 + (w+1)·week)``. Users with no anchor event are
    excluded. Output (cohort_week, week_offset, n_users) — the classic
    retention triangle, all integer arithmetic on epoch-microseconds.

    One key-hash exchange co-locates each user's events; the kernel
    dedups (user, offset) locally (a user lives in exactly one bucket,
    so local distinct IS global distinct) and ships only
    (cohort, offset, partial-count) rows into a tiny final groupby."""
    from ray.data.aggregate import Sum

    def tag(batch: pa.Table) -> pa.Table:
        b = (_key_hash(batch[key]) % np.uint64(nbuckets)).astype(np.int64)
        return batch.append_column("__bucket", pa.array(b))

    tagged = ds.select_columns([key, ts, type_col]) \
        .map_batches(tag, batch_format="pyarrow")

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "cohort_week": pd.Series([], dtype="int64"),
            "week_offset": pd.Series([], dtype="int64"),
            "__n": pd.Series([], dtype="int64")})
        if not len(df):
            return empty
        t64 = df[ts].astype("datetime64[us]").astype("int64")
        anchors = t64[df[type_col] == anchor_type] \
            .groupby(df.loc[df[type_col] == anchor_type, key].to_numpy()) \
            .min()
        # exact int64 path — .map() with missing keys coerces to float64,
        # whose ~256 µs resolution at 2020s epochs can shift a boundary
        sub = df[df[key].isin(anchors.index)]
        if not len(sub):
            return empty
        t0v = anchors.loc[sub[key]].to_numpy()
        t64s = t64[sub.index].to_numpy()
        m = t64s >= t0v
        sub, t0v, t64s = sub[m], t0v[m], t64s[m]
        if not len(sub):
            return empty
        out = pd.DataFrame({
            key: sub[key].to_numpy(),
            "cohort_week": t0v // week_us,
            "week_offset": (t64s - t0v) // week_us}).drop_duplicates()
        g = out.groupby(["cohort_week", "week_offset"], sort=False) \
            .size().reset_index(name="__n")
        return g.astype({"cohort_week": "int64", "week_offset": "int64",
                         "__n": "int64"})

    partial = grouped_apply(tagged, kernel)
    agg = partial.groupby(["cohort_week", "week_offset"]) \
        .aggregate(Sum("__n"))

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["cohort_week", "week_offset", "n_users"])

    return agg.map_batches(rename, batch_format="pyarrow")


def rolling_active(ds: ray.data.Dataset, key: str = "user_id",
                   ts: str = "ts", window_days: int = 7,
                   nbuckets: int = 32) -> ray.data.Dataset:
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
    from ray.data.aggregate import Sum

    day_us = 86400 * 1_000_000

    def tag(batch: pa.Table) -> pa.Table:
        b = (_key_hash(batch[key]) % np.uint64(nbuckets)).astype(np.int64)
        return batch.append_column("__bucket", pa.array(b))

    tagged = ds.select_columns([key, ts]) \
        .map_batches(tag, batch_format="pyarrow")

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "window_end_day": pd.Series([], dtype="int64"),
                "__n": pd.Series([], dtype="int64")})
        day = (df[ts].astype("datetime64[us]").astype("int64")
               // day_us).to_numpy()
        kd = pd.DataFrame({key: df[key].to_numpy(), "d": day}) \
            .drop_duplicates()
        n = len(kd)
        off = np.tile(np.arange(window_days, dtype=np.int64), n)
        kw = pd.DataFrame({
            key: np.repeat(kd[key].to_numpy(), window_days),
            "w": np.repeat(kd["d"].to_numpy(), window_days) + off}) \
            .drop_duplicates()
        g = kw.groupby("w", sort=False).size().reset_index(name="__n")
        g.columns = ["window_end_day", "__n"]
        return g.astype({"window_end_day": "int64", "__n": "int64"})

    partial = grouped_apply(tagged, kernel)
    agg = partial.groupby("window_end_day").aggregate(Sum("__n"))

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["window_end_day", "n_active"])

    return agg.map_batches(rename, batch_format="pyarrow")


def event_transitions(ds: ray.data.Dataset, key: str = "user_id",
                      ts: str = "ts", type_col: str = "event_type",
                      order_col: str = "event_id",
                      nbuckets: int = 32) -> ray.data.Dataset:
    """First-order transition counts over each key's event sequence
    (the empirical Markov matrix behind next-action models and bot
    detection): sort each key's events by (ts, order_col) — the
    explicit tie-break makes same-timestamp order engine-exact — and
    count adjacent (current → next) type pairs corpus-wide. One
    key-hash exchange, vectorized shift kernel, type²-sized output
    through a tiny final groupby. SQL twin: LEAD() OVER the same
    window."""
    from ray.data.aggregate import Sum

    def tag(batch: pa.Table) -> pa.Table:
        b = (_key_hash(batch[key]) % np.uint64(nbuckets)).astype(np.int64)
        return batch.append_column("__bucket", pa.array(b))

    tagged = ds.select_columns([key, ts, type_col, order_col]) \
        .map_batches(tag, batch_format="pyarrow")

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "cur_type": pd.Series([], dtype="object"),
                "next_type": pd.Series([], dtype="object"),
                "__n": pd.Series([], dtype="int64")})
        d = df.sort_values([key, ts, order_col], kind="mergesort")
        nxt = d[type_col].shift(-1)
        same = d[key].to_numpy()[:-1] == d[key].to_numpy()[1:]
        pairs = pd.DataFrame({
            "cur_type": d[type_col].to_numpy()[:-1],
            "next_type": nxt.to_numpy()[:-1]})[same]
        g = pairs.groupby(["cur_type", "next_type"], sort=False) \
            .size().reset_index(name="__n")
        return g.astype({"__n": "int64"})

    # an all-single-event bucket yields an empty pandas frame whose
    # object columns would infer null-typed Arrow blocks — normalize
    from ..functions.arrowio import pandas_to_arrow_normalizer
    target = pa.schema([("cur_type", pa.string()),
                        ("next_type", pa.string()), ("__n", pa.int64())])
    partial = grouped_apply(tagged, kernel).map_batches(
        pandas_to_arrow_normalizer(target), batch_format="pandas")
    agg = partial.groupby(["cur_type", "next_type"]).aggregate(Sum("__n"))

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["cur_type", "next_type", "n"])

    return agg.map_batches(rename, batch_format="pyarrow")
