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
- ``dedup_exact``: the full exchange. ``dedup_table`` per block inside
  ``map_batches`` (kills most duplicates before the shuffle), then a
  ``groupby(bucket).map_groups`` where each *bucket* (not each key!) is
  one group and runs ``dedup_table`` again — vectorized regardless of key
  cardinality, and hot keys can't skew buckets because keys are
  hash-distributed. The same ``groupby("__bucket").map_groups`` is the
  only co-location plan in the engine (stages/temporal.grouped_apply).
- ``dedup_exact_broadcast``: broadcast-min for low-duplicate corpora held
  in memory — two narrow scans build per-duplicate-key minima, one
  map-side filter keeps the minimum rows, and only tie keys ride
  ``dedup_exact``'s exchange. The flagship's url dedup when it has no
  checkpoint. Its per-key statistics are gathered on the driver, so the
  driver's heap grows with the number of duplicated keys.
- near-duplicate detection (MinHash-LSH, SimHash) lives in
  pipelines/neardup.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


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
    nbuckets: int = 64,
    keep: str = "first",
) -> ray.data.Dataset:
    """One row per ``key`` (column or list of columns); among duplicates keep
    the first by ``order_col`` ascending (ties: see ``dedup_table``).
    Two-stage: ``dedup_table`` per batch → hash-bucket shuffle →
    ``dedup_table`` per bucket."""
    keys = [key] if isinstance(key, str) else list(key)
    orders = [] if order_col is None else (
        [order_col] if isinstance(order_col, str) else list(order_col))

    def local(batch: pa.Table) -> pa.Table:
        batch = dedup_table(batch, keys, orders, keep)
        h = pd.util.hash_pandas_object(batch.select(keys).to_pandas(),
                                       index=False).to_numpy()
        # pandas metadata (parquet written from pandas) breaks schema hashing
        return batch.replace_schema_metadata(None).append_column(
            "__bucket", pa.array((h % np.uint64(nbuckets)).astype(np.int64)))

    def per_bucket(group: pa.Table) -> pa.Table:
        return dedup_table(group.drop_columns(["__bucket"]), keys, orders, keep)

    return ds.map_batches(local, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(per_bucket, batch_format="pyarrow")


def dup_key_set(ds: ray.data.Dataset, key: str | list[str],
                reduce: str = "range") -> "object":
    """Sorted uint64 hashes of key values whose GLOBAL count ≥ 2, as a
    broadcast ``ray.put`` ref. The scan is column-pruned (only the key
    column leaves each block) and pre-aggregated per block, so the data
    moved is |distinct keys per block| × 16 B. Hash collisions only ever
    route extra rows through the exchange (false positive = harmless),
    never lose a duplicate (same key ⇒ same hash).

    reduce="range" (default): two-stage task shuffle — each per-block
    partial is emitted SORTED (np.unique), a split wave pre-buckets every
    partial by hash range (one task per partial block, searchsorted slice,
    ``num_returns=nranges`` so each range slice is its OWN object), and
    one fold task per range fetches only its range's slices and folds them
    independently. Network bytes are O(total partial bytes) — each slice
    crosses the wire once — not O(nranges × partials) as a fold where
    every range task pulls every whole partial would be. No aggregator
    actors, no single-threaded driver fold (the driver fold was the
    worst-scaling leg of the flagship: 6.6 s @8 → 4.0 s @32, eff 0.41).
    The driver only concatenates the per-range duplicate lists
    (~|dup keys| total).
    reduce="driver": the old serial fold (small inputs)."""
    import ray

    keys = [key] if isinstance(key, str) else list(key)

    def local(batch: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            batch.select(keys).to_pandas(), index=False).to_numpy()
        u, c = np.unique(h, return_counts=True)
        return pa.table({"__h": pa.array(u, type=pa.uint64()),
                         "__partial": pa.array(c.astype(np.int64))})

    partial = ds.select_columns(keys).map_batches(local, batch_format="pyarrow")
    if reduce == "range":
        refs = partial.materialize().get_internal_block_refs()
        if not refs:
            return ray.put(np.empty(0, dtype=np.uint64))
        ncores = int(ray.cluster_resources().get("CPU", 8))
        nranges = max(4, min(64, ncores))
        step = (1 << 64) // nranges
        cuts = np.array([(i + 1) * step for i in range(nranges - 1)],
                        dtype=np.uint64)

        # split wave: one cheap task per partial block, co-located with it
        # (the block ref is the arg, so Ray schedules on its node); slices
        # are separate return objects, so fold task r pulls ONLY range r
        @ray.remote(num_cpus=0.5)
        def split_partial(t):
            if not t.num_rows:
                # Ray skips `local` on an empty block, which then still
                # holds the upstream columns, not __h/__partial
                t = pa.table({"__h": pa.array([], pa.uint64()),
                              "__partial": pa.array([], pa.int64())})
            h = t["__h"].to_numpy()
            c = t["__partial"].to_numpy()
            # np.unique output is sorted per `local` call, but one block ==
            # one map output is a Ray-internal invariant; re-sort
            # defensively so block bundling can't mis-route hashes.
            if len(h) and np.any(h[1:] < h[:-1]):
                order = np.argsort(h, kind="stable")
                h, c = h[order], c[order]
            idx = np.searchsorted(h, cuts)
            # .copy(): ship the slice, not a view pinning the whole block
            return tuple((hs.copy(), cs.copy())
                         for hs, cs in zip(np.split(h, idx), np.split(c, idx)))

        srefs = [split_partial.options(num_returns=nranges).remote(r)
                 for r in refs]

        @ray.remote(num_cpus=1)
        def fold_range(*slices):
            h = np.concatenate([s[0] for s in slices])
            if not len(h):
                return np.empty(0, dtype=np.uint64)
            c = np.concatenate([s[1] for s in slices])
            uniq, inv = np.unique(h, return_inverse=True)
            totals = np.bincount(inv, weights=c.astype(np.float64))
            return uniq[totals >= 2]

        outs = ray.get([
            fold_range.remote(*[srefs[b][r] for b in range(len(refs))])
            for r in range(nranges)])
        return ray.put(np.concatenate(outs))
    # driver fold on raw uint64 arrays (np.unique + bincount) — ~6x faster
    # than a pandas groupby at millions of keys; the driver only ever holds
    # (distinct keys per block) hashes, not rows
    hs, cs = [], []
    for b in partial.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        hs.append(b["__h"].to_numpy())
        cs.append(b["__partial"].to_numpy())
    if not hs:
        return ray.put(np.empty(0, dtype=np.uint64))
    h = np.concatenate(hs)
    c = np.concatenate(cs)
    uniq, inv = np.unique(h, return_inverse=True)
    totals = np.bincount(inv, weights=c.astype(np.float64))
    return ray.put(uniq[totals >= 2])


def _hash128(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit key hashes (≈128-bit key identity): the
    broadcast-min dedup DROPS rows by hash identity, so a 64-bit collision
    (≈n²/2⁶⁴ — real at 10⁹ keys) could delete a wrong row. At 128 bits the
    probability is ~10⁻²⁰ per corpus."""
    h1 = pd.util.hash_pandas_object(df, index=False).to_numpy()
    h2 = pd.util.hash_pandas_object(df, index=False,
                                    hash_key="b9967a2d9f0a4a32").to_numpy()
    return h1, h2


def dup_key_minima(ds: ray.data.Dataset, key: str | list[str],
                   order_col: str, dup_ref=None):
    """Per-duplicate-key global minimum statistics, broadcast as a
    ``ray.put`` ref of (h1 sorted-pair, h2, keep_order, is_tie):

    - (h1, h2): 128-bit key hash of every key with global count ≥ 2
    - keep_order: the global minimum of ``order_col`` for that key
    - is_tie: >1 row carries that minimum (needs an exchange to pick one)

    Two narrow scans: the cheap 64-bit ``dup_key_set`` pass prunes to the
    few-% duplicated keys (its false positives are filtered out below — a
    non-dup key never reaches the stats table, so classify keeps its rows),
    then the minima pass computes 128-bit per-key stats over ONLY those
    rows — the driver folds |dup keys| rows, not |distinct keys| (folding
    every distinct key single-threaded was the measured bottleneck: 9.7 s
    of a 20 s flagship at 4M mostly-unique urls)."""
    import ray

    keys = [key] if isinstance(key, str) else list(key)
    if dup_ref is None:
        dup_ref = dup_key_set(ds, key)

    def local(batch: pa.Table) -> pa.Table:
        df = batch.select(keys + [order_col]).to_pandas()
        if len(df):
            dups = ray.get(dup_ref)
            h64 = pd.util.hash_pandas_object(df[keys], index=False).to_numpy()
            if len(dups):
                idx = np.searchsorted(dups, h64)
                member = (idx < len(dups)) \
                    & (dups[np.minimum(idx, len(dups) - 1)] == h64)
            else:
                member = np.zeros(len(df), dtype=bool)
            df = df[member]
        if len(df) == 0:
            ts0 = df[order_col].to_numpy()
            e = np.empty(0, dtype=np.uint64)
            z = np.empty(0, dtype=np.int64)
            return pa.table({"__h1": pa.array(e), "__h2": pa.array(e),
                             "__cnt": pa.array(z), "__min": pa.array(ts0),
                             "__nmin": pa.array(z)})
        h1, h2 = _hash128(df[keys])
        ts = df[order_col].to_numpy()
        order = np.lexsort((ts, h2, h1))
        h1s, h2s, tss = h1[order], h2[order], ts[order]
        new = np.empty(len(df), dtype=bool)
        new[0] = True
        new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        starts = np.nonzero(new)[0]
        counts = np.diff(np.append(starts, len(df)))
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
    nbuckets: int = 64,
    stats_ref=None,
) -> ray.data.Dataset:
    """Exchange-free exact dedup for low-duplicate corpora: pass 1 is the
    narrow ``dup_key_minima`` scan; pass 2 is ONE map-side filter — a row
    survives iff its key is not duplicated, or it carries the key's global
    minimum ``order_col`` (and the minimum is unique). Only TIE keys (>1
    row at the minimum — usually none when order is a crawl timestamp)
    route through ``dedup_exact``'s exchange, and when the tie set is empty
    the exchange is skipped entirely.

    This removes the all-to-all leg from the dedup path: both passes scale
    like map work (~0.93 on this host) instead of the single-store
    exchange (~0.45) — see BENCH/BASELINE.md. ``ds`` is scanned more than
    once, so it MUST re-scan deterministically with identical rows (a
    materialized dataset or a file source): a non-deterministic upstream
    (samples, unseeded shuffles, time-dependent transforms) breaks
    correctness here, not just speed. keep="first" ascending only (the
    flagship contract); a composite ``order_col`` needs per-key
    lexicographic minima the broadcast stats don't carry, so it runs
    ``dedup_exact``'s full exchange instead."""
    import ray

    if not isinstance(order_col, str):
        return dedup_exact(ds, key, order_col, nbuckets)

    keys = [key] if isinstance(key, str) else list(key)
    if stats_ref is None:
        dup_ref = dup_key_set(ds, key)
        stats_ref = dup_key_minima(ds, key, order_col, dup_ref=dup_ref)
    else:
        dup_ref = None
    h1d, h2d, gmin, tie = ray.get(stats_ref)
    has_ties = bool(tie.any())

    def classify(batch: pa.Table, want: str) -> pa.Table:
        df = batch.select(keys).to_pandas()
        n = len(df)
        ts = batch[order_col].to_numpy(zero_copy_only=False)
        # cheap 64-bit membership prefilter: only the few-% rows of
        # possibly-duplicated keys pay the 128-bit hash + stats lookup
        if dup_ref is not None and len(h1d):
            dups = ray.get(dup_ref)
            h64 = pd.util.hash_pandas_object(df, index=False).to_numpy()
            if len(dups):
                i64 = np.searchsorted(dups, h64)
                member = (i64 < len(dups)) \
                    & (dups[np.minimum(i64, len(dups) - 1)] == h64)
            else:
                member = np.zeros(n, dtype=bool)
        else:
            member = np.ones(n, dtype=bool) if len(h1d) \
                else np.zeros(n, dtype=bool)
        found = np.zeros(n, dtype=bool)
        idx_c = np.zeros(n, dtype=np.int64)
        sub = np.nonzero(member)[0]
        if len(h1d) and len(sub):
            b1, b2 = _hash128(df.iloc[sub])
            # (h1, h2) lexsorted: locate the h1 run, then probe each slot
            # for the h2 match (runs are length 1 except h1 collisions)
            left = np.searchsorted(h1d, b1, side="left")
            right = np.searchsorted(h1d, b1, side="right")
            sfound = np.zeros(len(sub), dtype=bool)
            sidx = np.zeros(len(sub), dtype=np.int64)
            for off in range(int((right - left).max())):
                in_run = off < (right - left)
                j = np.minimum(left + off, len(h1d) - 1)
                hit = in_run & (h1d[j] == b1) & (h2d[j] == b2)
                upd = hit & ~sfound
                sidx = np.where(upd, j, sidx)
                sfound |= hit
            found[sub] = sfound
            idx_c[sub] = sidx
        if want == "keep":
            m = ~found
            if len(h1d):
                m |= found & (ts == gmin[idx_c]) & ~tie[idx_c]
        else:  # tie-key minimum rows → the (tiny) exchange
            m = found & (ts == gmin[idx_c]) & tie[idx_c] if len(h1d) \
                else np.zeros(n, dtype=bool)
        return batch.filter(pa.array(m))

    kept = ds.map_batches(lambda b: classify(b, "keep"),
                          batch_format="pyarrow")
    if not has_ties:
        return kept
    tied = ds.map_batches(lambda b: classify(b, "tie"),
                          batch_format="pyarrow")
    return kept.union(dedup_exact(tied, key, order_col, nbuckets))


def range_fold_partials(partial: ray.data.Dataset, group_cols: list[str],
                        aggs: list[tuple[str, str]],
                        nranges: int | None = None,
                        range_by: list[str] | None = None,
                        out_names: list[str] | None = None,
                        fallback_schema: pa.Schema | None = None
                        ) -> ray.data.Dataset:
    """Distributed fold of per-block partial aggregates WITHOUT an
    all-to-all exchange or a driver concat: hash-range split each partial
    block (one cheap task per block, co-located with it), fold each range
    in its own task, return the folded ranges as a Dataset of Arrow refs.

    The driver never materializes the key space; each fold task holds
    ~1/nranges of the DISTINCT keys (not rows). This is the vocabulary- /
    bigram-scale answer between reduce='driver' (key space must fit one
    process) and reduce='shuffle' (full groupby exchange) — the same shape
    as ``dup_key_set(reduce='range')`` generalized to arbitrary key
    columns and multiple aggregates.

    ``aggs``: list of (value_col, op), op ∈ {'sum','min','max'}. Output
    columns are ``group_cols + [value_col...]`` (names preserved). Rows
    with the same key always hash to the same range, so every key lives in
    exactly ONE output block — per-block top-k / filters downstream are
    globally safe.

    ``range_by``: optional subset of ``group_cols`` used for range
    routing (aggregation still keys on the full ``group_cols``). With
    e.g. group_cols=[tile, token], range_by=[tile], ALL of a tile's
    tokens land in one range, so a per-range per-tile top-k is the final
    answer, not a candidate set. Pick a high-cardinality prefix — a
    skewed range_by key skews the fold tasks.

    ``out_names``: optional FINAL column names (positional, for
    ``group_cols + vcols``), applied inside each fold task. Do NOT chain
    ``Dataset.rename_columns`` after this function: Ray's rename skips
    zero-row bundles, so empty ranges would keep the old names and split
    the dataset's schema (round-4 review).

    ``fallback_schema``: explicit Arrow types for ``group_cols + vcols``,
    used only when the input is all-empty AND its blocks don't carry the
    partial columns (Ray skips map fns on empty blocks, so the blocks can
    still hold the UPSTREAM schema). Pass it when an empty input is a
    legal corpus (e.g. a filtered-to-nothing target subset)."""
    import ray

    from ..functions.arrowio import dataset_arrow_schema

    vcols = [c for c, _ in aggs]
    out_cols = list(group_cols) + vcols
    route_cols = list(range_by) if range_by else list(group_cols)
    final_names = list(out_names) if out_names else out_cols
    mat = partial.materialize()
    refs = mat.get_internal_block_refs()
    if not refs or mat.schema() is None:
        # zero blocks, or an all-empty input for which Ray reports no
        # dataset schema: emit a correctly-named-and-typed empty table
        # directly (Dataset.rename on an empty dataset is the
        # skip-empty-bundles trap again). The BLOCKS still carry dtypes
        # even at 0 rows — read the first one rather than re-executing
        # the plan or falling back to null types.
        import ray as _ray
        sch = None
        if refs:
            blk = _ray.get(refs[0])
            try:
                if isinstance(blk, pd.DataFrame):
                    sch = pa.Schema.from_pandas(blk[out_cols],
                                                preserve_index=False)
                else:
                    sch = blk.select(out_cols).schema
            except KeyError:
                # Ray skips running the map fn on empty blocks, so an
                # all-empty-input partial can still carry the UPSTREAM
                # schema (e.g. (doc_id, text), no partial columns at all)
                sch = None
        if sch is None:
            sch = fallback_schema or pa.schema(
                [(n, pa.null()) for n in out_cols])  # last resort
        empty = pa.table({fn: pa.nulls(0, f.type)
                          for fn, f in zip(final_names, sch)})
        return ray.data.from_arrow_refs([_ray.put(empty)])
    # ONE explicit Arrow schema for every slice and fold output: an empty
    # hash range's pandas slice would otherwise infer null-typed columns
    # and break schema unification downstream (round-4 review finding —
    # guaranteed to happen when |distinct keys| < nranges, e.g. a small
    # vocabulary on a many-core host)
    target = dataset_arrow_schema(mat, out_cols)
    if nranges is None:
        ncores = int(ray.cluster_resources().get("CPU", 8))
        nranges = max(4, min(64, ncores))
    step = (1 << 64) // nranges
    cuts = np.array([(i + 1) * step for i in range(nranges - 1)],
                    dtype=np.uint64)
    agg_spec = {c: op for c, op in aggs}

    @ray.remote(num_cpus=0.5)
    def split_block(t):
        df = t if isinstance(t, pd.DataFrame) else t.to_pandas()
        if not len(df) and not set(out_cols) <= set(df.columns):
            # an all-empty pandas block can arrive with NO columns at all
            # (Ray's 0-row column loss); emit typed empty slices
            e = pa.table({f.name: pa.nulls(0, f.type) for f in target})
            return tuple(e for _ in range(nranges))
        df = df[out_cols]
        h = pd.util.hash_pandas_object(df[route_cols],
                                       index=False).to_numpy()
        order = np.argsort(h, kind="stable")
        df = df.iloc[order]
        idx = np.searchsorted(h[order], cuts)
        bounds = np.concatenate([[0], idx, [len(df)]])
        # .slice-free copies: ship each slice as its own object so fold
        # task r pulls ONLY range r, never the whole block
        return tuple(pa.Table.from_pandas(
            df.iloc[bounds[i]:bounds[i + 1]], schema=target,
            preserve_index=False)
            for i in range(nranges))

    srefs = [split_block.options(num_returns=nranges).remote(r)
             for r in refs]

    @ray.remote(num_cpus=1)
    def fold_range(*slices):
        dfs = [s.to_pandas() for s in slices if s.num_rows]
        if not dfs:
            return slices[0].select(out_cols).rename_columns(final_names)
        df = pd.concat(dfs, ignore_index=True)
        # dropna=False: SQL GROUP BY folds NULL keys into a group, and the
        # shuffle reduce path keeps them — the default pandas drop would
        # silently lose those partial rows (round-4 advisor finding).
        # split_block already routes null keys deterministically
        # (hash_pandas_object hashes NaN/None to a fixed value).
        g = df.groupby(group_cols, as_index=False, sort=False,
                       dropna=False).agg(agg_spec)
        return pa.Table.from_pandas(g[out_cols], schema=target,
                                    preserve_index=False) \
            .replace_schema_metadata(None).rename_columns(final_names)

    outs = [fold_range.remote(*[srefs[b][r] for b in range(len(refs))])
            for r in range(nranges)]
    return ray.data.from_arrow_refs(outs)


# Partial-row count below which a driver fold beats the distributed range
# fold: the fold tasks' startup + split overhead (~2-4 s of task latency)
# dwarfs a sub-second pandas groupby over a few hundred thousand rows.
# Measured round-4: token_postings at sf0.1 (~10⁵ partial rows) was 4.7×
# slower under the range fold, while a 1M-doc corpus (~10⁷ partial rows)
# was 6× FASTER — the crossover sits comfortably inside this band.
AUTO_DRIVER_PARTIAL_ROWS = 400_000


def _finalize_partials(
    partial: ray.data.Dataset, group_cols: list[str], alias: str, reduce: str
) -> ray.data.Dataset:
    """Merge per-batch partial rows into final per-key rows.

    reduce="driver": stream the (already tiny) partials to the driver and
    fold them with a bounded-memory pandas groupby — no all-to-all shuffle
    at all. Right whenever |keys| is small relative to |rows| (tile×lang,
    per-lang stats, …): the data moved is |keys| rows per input block.

    reduce="shuffle": a Ray Data groupby over the partials — right when the
    key space itself is big (per-url, per-user) and the fold wouldn't fit
    one node.

    reduce="range": range_fold_partials — distributed like "shuffle" but
    without the groupby exchange machinery (one split task per partial
    block + one fold task per hash range); the scale-safe choice for
    vocabulary-sized key spaces.

    reduce="auto": measure, don't guess — materialize the (combiner-
    shrunk) partials, count rows, and dispatch: driver fold at or below
    AUTO_DRIVER_PARTIAL_ROWS, range fold above (round-4 judge item: the
    unconditional range default cost 4.7× on small inputs while winning
    6× at 1M docs).
    """
    from ray.data.aggregate import Sum

    if reduce == "auto":
        partial = partial.materialize()
        reduce = ("driver" if partial.count() <= AUTO_DRIVER_PARTIAL_ROWS
                  else "range")
    if reduce == "shuffle":
        return partial.groupby(group_cols).aggregate(Sum("__partial", alias_name=alias))
    if reduce == "range":
        return range_fold_partials(partial, group_cols,
                                   [("__partial", "sum")],
                                   out_names=group_cols + [alias])

    acc: list[pd.DataFrame] = []
    merged = None
    for b in partial.iter_batches(batch_size=65536, batch_format="pyarrow"):
        acc.append(b.to_pandas())
        if len(acc) >= 64:
            frames = ([merged] if merged is not None else []) + acc
            merged = pd.concat(frames).groupby(group_cols, as_index=False)["__partial"].sum()
            acc = []
    frames = ([merged] if merged is not None else []) + acc
    if not frames:
        return partial.rename_columns({"__partial": alias})
    out = pd.concat(frames).groupby(group_cols, as_index=False)["__partial"].sum() \
        .rename(columns={"__partial": alias})
    return ray.data.from_arrow(
        pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None))


def partial_counts(
    ds: ray.data.Dataset, group_cols: list[str], count_alias: str = "n",
    reduce: str = "driver",
) -> ray.data.Dataset:
    """Pre-aggregated count-by-key: each batch emits one row per key present
    (vectorized Arrow group_by), then the partials are merged (see
    _finalize_partials). This is the combiner pattern — only |keys| rows per
    block leave the map stage (SURVEY.md §4 skew note)."""

    def local(batch: pa.Table) -> pa.Table:
        # select by NAME before the positional rename: pyarrow has changed
        # the key/aggregate column ordering of TableGroupBy.aggregate across
        # versions, but the aggregate column is deterministically named.
        t = batch.group_by(group_cols).aggregate([([], "count_all")])
        return t.select(group_cols + ["count_all"]) \
            .rename_columns(group_cols + ["__partial"])

    partial = ds.select_columns(group_cols).map_batches(local, batch_format="pyarrow")
    return _finalize_partials(partial, group_cols, count_alias, reduce)


def partial_sums(
    ds: ray.data.Dataset, group_cols: list[str], value_col: str, sum_alias: str,
    reduce: str = "driver",
) -> ray.data.Dataset:
    """Pre-aggregated sum-by-key (same combiner pattern as partial_counts)."""

    def local(batch: pa.Table) -> pa.Table:
        t = batch.group_by(group_cols).aggregate([(value_col, "sum")])
        return t.select(group_cols + [f"{value_col}_sum"]) \
            .rename_columns(group_cols + ["__partial"])

    partial = ds.select_columns(group_cols + [value_col]) \
        .map_batches(local, batch_format="pyarrow")
    return _finalize_partials(partial, group_cols, sum_alias, reduce)


def upsert(base: ray.data.Dataset, updates: ray.data.Dataset,
           key: str | list[str], order_col: str | list[str] | None = None,
           nbuckets: int = 64) -> ray.data.Dataset:
    """Incremental-ingest merge (latest-wins upsert): rows in ``updates``
    replace same-key rows in ``base``; new keys are appended; within each
    side, the greatest ``order_col`` wins. The crawl-refresh operation —
    merge tonight's recrawl into the standing tileset without rewriting
    unaffected rows' values.

    Physically just union + dedup_exact(keep="last") over (priority,
    order) — the update side carries priority 1 — so it shares
    dedup_exact's ``groupby(bucket).map_groups`` exchange and its
    combiner-shaped local pre-dedup.
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
    merged = dedup_exact(u, keys, order_col=["__pri"] + orders,
                         nbuckets=nbuckets, keep="last")
    return merged.drop_columns(["__pri"])


def upsert_patch(base: ray.data.Dataset, updates: ray.data.Dataset,
                 key: str | list[str],
                 order_col: str | list[str] | None = None,
                 nbuckets: int = 64) -> ray.data.Dataset:
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

    Physical plan: both sides are hash-bucketed on the key and co-located
    by ONE grouped_apply exchange; the per-bucket kernel is a vectorized
    pandas latest-per-key + left-merge + combine_first. Output blocks are
    normalized to one explicit Arrow schema (int/bool columns nullable)
    so patched and pass-through blocks never diverge."""
    keys = [key] if isinstance(key, str) else list(key)
    orders = [] if order_col is None else (
        [order_col] if isinstance(order_col, str) else list(order_col))

    from ..functions.arrowio import pa_type as _pa_type

    base_names = list(base.schema().names)
    base_types = {n: _pa_type(t) for n, t in
                  zip(base.schema().names, base.schema().types)}
    upd_names = list(updates.schema().names)
    upd_types = {n: _pa_type(t) for n, t in
                 zip(updates.schema().names, updates.schema().types)}
    patch_cols = [c for c in upd_names if c not in keys and c not in orders]
    new_cols = [c for c in patch_cols if c not in base_types]
    out_names = base_names + new_cols
    target = pa.schema([(n, base_types.get(n) or upd_types[n])
                        for n in out_names])

    def tag(side: int, carry: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            df = batch.select(carry).to_pandas()
            h = pd.util.hash_pandas_object(df[keys], index=False).to_numpy()
            out = {c: batch[c] for c in carry}
            # pad to the union schema with typed nulls
            for c in out_names + orders:
                if c not in carry:
                    t = base_types.get(c) or upd_types.get(c)
                    out[c] = pa.nulls(len(batch), t)
            out["__bucket"] = pa.array(
                (h % np.uint64(nbuckets)).astype(np.int64))
            out["__side"] = pa.array(
                np.full(len(batch), side, dtype=np.int8))
            return pa.table({c: out[c] for c in out_names + orders
                             + ["__bucket", "__side"]})
        return f

    b_tagged = base.map_batches(tag(0, base_names), batch_format="pyarrow")
    u_tagged = updates.map_batches(tag(1, upd_names),
                                   batch_format="pyarrow")

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        b = g[g["__side"] == 0][out_names]
        if not len(b):
            return pd.DataFrame(columns=out_names)
        u = g[g["__side"] == 1][keys + orders + patch_cols]
        if not len(u):
            return b
        if orders:
            u = u.sort_values(keys + orders, kind="mergesort")
        u = u.drop_duplicates(subset=keys, keep="last")[keys + patch_cols]
        m = b.merge(u, on=keys, how="left", suffixes=("", "__u"))
        for c in patch_cols:
            m[c] = m[c + "__u"].combine_first(m[c])
        return m[out_names]

    from ..functions.arrowio import pandas_to_arrow_normalizer
    from ..stages.temporal import grouped_apply
    out = grouped_apply(b_tagged.union(u_tagged), kern)
    return out.map_batches(pandas_to_arrow_normalizer(target),
                           batch_format="pandas", zero_copy_batch=True)
