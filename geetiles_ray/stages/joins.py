"""Foreign-tileset joins (SURVEY.md §2.4): the Ray-Data rebuild of the
reference's O(n·m) driver-side spatial joins.

J1 ``add_foreign_partition`` (partitions.py:296-305, 468-482): for each tile
of the fine tileset, the id of the intersecting foreign geometry with the
LARGEST intersection area, or "-1" when none intersects. (The reference
mixes a string id with int -1 in one pandas column; we emit the string
"-1" — same information, typed column.)

J2 ``add_foreign_proportions`` (partitions.py:274-294, 484-507): per fine
tile, the area-weighted average of the intersecting foreign tiles'
proportion dicts (weights = intersection areas normalized), plus the
dominant foreign id.

Execution: the foreign side is the coarse/small one (communes vs chips in
the reference README walk-through) → broadcast once via ``ray.put``; each
actor builds a bbox-bucket index over it in ``__init__`` and processes fine
tiles in vectorized-candidate batches. Intersection areas are computed in
EPSG:4326 degree space, exactly like the reference's shapely ``.area`` on
4326 geometries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions import geom


def broadcast_foreign(foreign: ray.data.Dataset,
                      proportions_col: str | None = None) -> "ray.ObjectRef":
    """Collect the foreign tileset (id, ring coords, bounds [+ proportions])
    and ``ray.put`` it once."""
    cols = ["identifier", "wkb", "minx", "miny", "maxx", "maxy"]
    if proportions_col:
        cols.append(proportions_col)
    rows = {c: [] for c in cols}
    for b in foreign.select_columns(cols).iter_batches(batch_size=65536,
                                                       batch_format="pyarrow"):
        for c in cols:
            rows[c].append(b[c])
    out = {c: pa.concat_arrays([a.combine_chunks() if hasattr(a, "combine_chunks")
                                else a for a in rows[c]]) for c in cols}
    data = {
        "identifier": np.asarray(out["identifier"].to_pylist(), dtype=object),
        "rings": [geom.wkb_to_ring(w) for w in out["wkb"].to_pylist()],
        "bounds": np.column_stack([
            out["minx"].to_numpy(), out["miny"].to_numpy(),
            out["maxx"].to_numpy(), out["maxy"].to_numpy()]),
    }
    if proportions_col:
        # Arrow map columns round-trip as lists of (key, value) tuples
        data["proportions"] = [dict(p) if p is not None else {}
                               for p in out[proportions_col].to_pylist()]
    return ray.put(data)


class _ForeignIndex:
    def __init__(self, data):
        self.identifier = data["identifier"]
        self.rings = data["rings"]
        self.bounds = data["bounds"]
        self.proportions = data.get("proportions")
        # per-ring edge bboxes, for the vectorized interior-tile fast path
        self.edge_bounds = []
        for r in self.rings:
            x0, y0 = r[:-1, 0], r[:-1, 1]
            x1, y1 = r[1:, 0], r[1:, 1]
            self.edge_bounds.append(np.column_stack([
                np.minimum(x0, x1), np.minimum(y0, y1),
                np.maximum(x0, x1), np.maximum(y0, y1)]))

    def candidates(self, minx, miny, maxx, maxy) -> np.ndarray:
        b = self.bounds
        return np.nonzero(~((b[:, 2] < minx) | (b[:, 0] > maxx)
                            | (b[:, 3] < miny) | (b[:, 1] > maxy)))[0]

    def weights(self, tile_bounds):
        """Intersection areas of one fine tile (axis-aligned box) against all
        bbox-candidate foreign rings."""
        minx, miny, maxx, maxy = tile_bounds
        cand = self.candidates(minx, miny, maxx, maxy)
        areas = np.array([
            geom.box_clip_area(self.rings[i], minx, miny, maxx, maxy)
            for i in cand])
        keep = areas > 0
        return cand[keep], areas[keep]

    def weights_batch(self, minx, miny, maxx, maxy):
        """Batched intersection areas: flat (tile_row, foreign_idx, area)
        arrays for a whole batch of fine tiles (axis-aligned boxes).

        Per foreign ring, the bbox-candidate gather, the all-corners-inside
        test, and the any-edge-bbox-overlap test are all vectorized over
        the batch; a tile strictly interior to the ring (corners in, no
        boundary edge near) gets area = its full bbox area with NO Python
        clip — at fine-grid scale interior tiles are O(area) of the ring
        while boundary tiles are only O(perimeter), so the per-pair
        Sutherland–Hodgman runs on a vanishing fraction of rows."""
        rows_all, fids_all, areas_all = [], [], []
        for j, ring in enumerate(self.rings):
            b = self.bounds[j]
            cand = np.nonzero(~((b[2] < minx) | (b[0] > maxx)
                                | (b[3] < miny) | (b[1] > maxy)))[0]
            if len(cand) == 0:
                continue
            cx0, cy0 = minx[cand], miny[cand]
            cx1, cy1 = maxx[cand], maxy[cand]
            px = np.concatenate([cx0, cx1, cx1, cx0])
            py = np.concatenate([cy0, cy0, cy1, cy1])
            inside = geom.points_in_ring(px, py, ring).reshape(4, len(cand))
            all_in = inside.all(axis=0)
            eb = self.edge_bounds[j]
            # any ring edge's bbox overlapping the tile bbox ⇒ boundary tile
            if len(eb):
                no_overlap = ((eb[None, :, 2] < cx0[:, None])
                              | (eb[None, :, 0] > cx1[:, None])
                              | (eb[None, :, 3] < cy0[:, None])
                              | (eb[None, :, 1] > cy1[:, None]))
                near_edge = (~no_overlap).any(axis=1)
            else:
                near_edge = np.zeros(len(cand), dtype=bool)
            interior = all_in & ~near_edge
            areas = np.empty(len(cand))
            areas[interior] = (cx1 - cx0)[interior] * (cy1 - cy0)[interior]
            for k in np.nonzero(~interior)[0]:
                areas[k] = geom.box_clip_area(ring, cx0[k], cy0[k],
                                              cx1[k], cy1[k])
            keep = areas > 0
            rows_all.append(cand[keep])
            fids_all.append(np.full(keep.sum(), j, dtype=np.int64))
            areas_all.append(areas[keep])
        if not rows_all:
            z = np.empty(0, dtype=np.int64)
            return z, z, np.empty(0)
        return (np.concatenate(rows_all), np.concatenate(fids_all),
                np.concatenate(areas_all))


class ForeignAssigner:
    """Actor stage appending ``foreignid_{name}`` (J1) and optionally the
    area-weighted foreign proportions map column (J2)."""

    def __init__(self, foreign_ref, name: str, with_proportions: bool = False,
                 proportions_out: str | None = None):
        self.index = _ForeignIndex(ray.get(foreign_ref))
        self.id_col = f"foreignid_{name}"
        self.with_proportions = with_proportions
        self.proportions_out = proportions_out or "foreign_proportions"

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        minx = batch["minx"].to_numpy(); miny = batch["miny"].to_numpy()
        maxx = batch["maxx"].to_numpy(); maxy = batch["maxy"].to_numpy()
        # one vectorized pass over the whole batch (interior fast path in
        # weights_batch); only the flat (tile, foreign, area) pairs — a
        # handful per tile — are walked in Python below
        rows, fidx, areas = self.index.weights_batch(minx, miny, maxx, maxy)
        fids = np.full(n, "-1", dtype=object)
        props: list = [{} for _ in range(n)]
        if len(rows):
            # group pairs by tile; within a tile candidates are ordered by
            # foreign index so np.argmax keeps the same first-max winner as
            # the old per-row scan (J1 tie-break parity)
            order = np.lexsort((fidx, rows))
            r_s, f_s, a_s = rows[order], fidx[order], areas[order]
            new = np.empty(len(r_s), dtype=bool)
            new[0] = True
            new[1:] = r_s[1:] != r_s[:-1]
            starts = np.nonzero(new)[0]
            ends = np.append(starts[1:], len(r_s))
            for s, e in zip(starts, ends):
                seg = slice(s, e)
                best = s + int(np.argmax(a_s[seg]))
                i = int(r_s[s])
                fids[i] = self.index.identifier[f_s[best]]
                if self.with_proportions:
                    wn = a_s[seg] / a_s[seg].sum()
                    acc: dict[str, float] = {}
                    for ci, wi in zip(f_s[seg], wn):
                        for k, v in (self.index.proportions[ci] or {}).items():
                            acc[k] = acc.get(k, 0.0) + wi * float(v)
                    props[i] = acc
        cols = {name: batch[name] for name in batch.column_names}
        cols[self.id_col] = pa.array(list(fids), type=pa.string())
        if self.with_proportions:
            cols[self.proportions_out] = pa.array(
                [sorted(p.items()) for p in props],
                type=pa.map_(pa.string(), pa.float64()))
        return pa.table(cols)


def add_foreign_partition(tiles: ray.data.Dataset, foreign: ray.data.Dataset,
                          name: str, concurrency: int | tuple = 4) -> ray.data.Dataset:
    """J1: largest-overlap foreign id per tile (broadcast join)."""
    ref = broadcast_foreign(foreign)
    return tiles.map_batches(
        ForeignAssigner, fn_constructor_kwargs=dict(foreign_ref=ref, name=name),
        batch_format="pyarrow", batch_size=4096, concurrency=concurrency)


def add_foreign_proportions(tiles: ray.data.Dataset, foreign: ray.data.Dataset,
                            name: str, proportions_col: str,
                            out_col: str | None = None,
                            concurrency: int | tuple = 4) -> ray.data.Dataset:
    """J2: area-weighted proportions transfer + dominant foreign id.

    ``proportions_col`` on the foreign side is a map<string,double> column
    (e.g. the output of props.add_proportions). Output column name follows
    the reference convention ``{dataset}_proportions_at_{foreign_name}``
    when out_col is None.
    """
    ref = broadcast_foreign(foreign, proportions_col=proportions_col)
    out = out_col or f"{proportions_col}_at_{name}"
    return tiles.map_batches(
        ForeignAssigner,
        fn_constructor_kwargs=dict(foreign_ref=ref, name=name,
                                   with_proportions=True, proportions_out=out),
        batch_format="pyarrow", batch_size=4096, concurrency=concurrency)


def join_on_identifier(left: ray.data.Dataset, right: ray.data.Dataset,
                       key: str = "identifier", right_cols: list[str] | None = None,
                       nbuckets: int = 32) -> ray.data.Dataset:
    """J4 (tiles ⋈ rasters by identifier — the reference does a filesystem
    lookup {dir}/{identifier}.tif, partitions.py:450-453): explicit
    partitioned hash join. Both sides get a deterministic key-hash bucket
    column, co-locate via groupby(bucket), and merge per bucket with
    vectorized pandas. Use when BOTH sides are large; when one side is
    small, prefer the broadcast pattern (broadcast_foreign / ray.put)."""
    import pandas as pd

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            from .temporal import _key_hash
            h = _key_hash(batch[key])
            b = (h % np.uint64(nbuckets)).astype(np.int64)
            return batch.append_column("__bucket", pa.array(b)) \
                .append_column("__side", pa.array([side] * len(batch), type=pa.int8()))
        return f

    rcols = right_cols or [c for c in right.schema().names if c != key]
    l_tagged = left.map_batches(tag(0), batch_format="pyarrow")
    r_tagged = right.select_columns([key] + rcols).map_batches(
        tag(1), batch_format="pyarrow")

    l_names = [c for c in left.schema().names]

    def _pd_dtype(t):
        if isinstance(t, pa.DataType):
            try:
                return t.to_pandas_dtype()
            except NotImplementedError:
                return object
        return t

    l_dtypes = {n: _pd_dtype(t)
                for n, t in zip(left.schema().names, left.schema().types)}
    r_dtypes = {n: _pd_dtype(t)
                for n, t in zip(right.schema().names, right.schema().types)}
    # post-merge dtype contract: unmatched left rows put NaN in the right
    # columns, which silently upcasts int64→float64 in SOME blocks (the
    # ones with non-matches) but not others — and diverges from the Arrow
    # typed-null blocks the Bloom bypass emits. Cast merged int/bool right
    # columns to the pandas nullable twin so every block round-trips to
    # the same Arrow type (Int64+NA → int64 with nulls).
    _nullable = {pa.int8(): "Int8", pa.int16(): "Int16",
                 pa.int32(): "Int32", pa.int64(): "Int64",
                 pa.uint8(): "UInt8", pa.uint16(): "UInt16",
                 pa.uint32(): "UInt32", pa.uint64(): "UInt64",
                 pa.bool_(): "boolean"}
    r_arrow = dict(zip(right.schema().names, right.schema().types))
    r_nullable = {c: _nullable[r_arrow[c]] for c in rcols
                  if c in r_arrow and r_arrow[c] in _nullable}

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        lg = group[group["__side"] == 0][l_names]
        rg = group[group["__side"] == 1][[key] + rcols]
        if len(lg) == 0:
            return pd.DataFrame(columns=l_names + rcols)
        # the pa.nulls schema padding upcasts int columns to float64 when
        # the unioned block lands in pandas (NaN rows on the OTHER side);
        # restore each side's true dtypes — a float64 key silently
        # mismatches its int64 counterpart in the merge below, and the
        # upcast would also poison any chained second join
        lg = lg.astype({c: l_dtypes[c] for c in l_names if c in l_dtypes},
                       copy=False)
        rg = rg.astype({c: r_dtypes[c] for c in [key] + rcols
                        if c in r_dtypes}, copy=False)
        out = lg.merge(rg, on=key, how="left")
        return out.astype(r_nullable, copy=False) if r_nullable else out

    # union of two different schemas needs identical columns: pad each side
    def pad(missing_cols, types):
        def f(batch: pa.Table) -> pa.Table:
            out = {n: batch[n] for n in batch.column_names}
            for n, t in zip(missing_cols, types):
                out[n] = pa.nulls(len(batch), t)
            return pa.table(out)
        return f

    l_schema = dict(zip(left.schema().names, left.schema().types))
    r_schema = dict(zip(right.schema().names, right.schema().types))
    l_missing = [c for c in rcols if c not in l_schema]
    r_missing = [c for c in l_names if c != key and c not in r_schema]
    l_full = l_tagged.map_batches(
        pad(l_missing, [r_schema[c] for c in l_missing]), batch_format="pyarrow")
    r_full = r_tagged.map_batches(
        pad(r_missing, [l_schema[c] for c in r_missing]), batch_format="pyarrow")
    ordered_cols = [key] + [c for c in l_names if c != key] + l_missing + \
        ["__bucket", "__side"]
    l_full = l_full.select_columns(ordered_cols)
    r_full = r_full.select_columns(ordered_cols)

    # exchange via grouped_apply's groupby(bucket).map_groups; the merge
    # kernel is per-key vectorized within each bucket
    from .temporal import grouped_apply
    return grouped_apply(l_full.union(r_full), merge)


def semi_join_ids(ds: ray.data.Dataset, ids, col: str = "identifier",
                  anti: bool = False) -> ray.data.Dataset:
    """J5: semi/anti join against a broadcast id set (cmds.py:540-554
    analogue — prune rows whose id is (not) in the included set)."""
    id_ref = ray.put(pa.array(sorted(set(ids))))

    class Filter:
        def __init__(self):
            # Arrow value-set for pc.is_in — vectorized membership, no
            # per-row Python hashing (the set is built once per actor).
            self.ids = ray.get(id_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch[col], value_set=self.ids)
            mask = pc.fill_null(mask, False)
            return batch.filter(pc.invert(mask) if anti else mask)

    return ds.map_batches(Filter, batch_format="pyarrow", concurrency=2)


# ----------------------------------------------------- Bloom join pre-filter

_BLOOM_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)  # second hash family multiplier


def _bloom_positions(h1: np.ndarray, nbits: int, nhashes: int):
    """Double-hashing Bloom positions: idx_i = (h1 + i·h2) mod nbits with
    h2 a remix of h1 — the standard Kirsch–Mitzenmacher scheme (two hash
    evaluations give the accuracy of nhashes independent ones)."""
    h2 = (h1 * _BLOOM_MIX2) | np.uint64(1)  # odd → never strides to 0
    for i in range(nhashes):
        yield (h1 + np.uint64(i) * h2) % np.uint64(nbits)


def key_bloom(ds: ray.data.Dataset, key: str, nbits: int = 1 << 23,
              nhashes: int = 2):
    """Build a Bloom filter over ``ds[key]`` and ``ray.put`` its word
    array. Narrow column-pruned scan; each block ships ONE nbits/8-byte
    bitset partial (1 MiB at the default 8M bits) which the driver ORs —
    constant-size per block regardless of rows. At the default size the
    false-positive rate is ~(1-e^(-kn/m))^k ≈ 4% at 10M keys."""
    from .temporal import _key_hash

    assert nbits % 64 == 0
    nwords = nbits // 64

    def local(batch: pa.Table) -> pa.Table:
        words = np.zeros(nwords, dtype=np.uint64)
        if len(batch):
            h1 = _key_hash(batch[key])
            for idx in _bloom_positions(h1, nbits, nhashes):
                np.bitwise_or.at(words, (idx >> np.uint64(6)).astype(np.int64),
                                 np.uint64(1) << (idx & np.uint64(63)))
        return pa.table({"__words": pa.array([words.tobytes()],
                                             type=pa.binary())})

    acc = np.zeros(nwords, dtype=np.uint64)
    for b in ds.select_columns([key]).map_batches(
            local, batch_format="pyarrow").iter_batches(
            batch_size=64, batch_format="pyarrow"):
        for blob in b["__words"].to_pylist():
            acc |= np.frombuffer(blob, dtype=np.uint64)
    return ray.put(acc)


def bloom_member(words: np.ndarray, h1: np.ndarray, nbits: int,
                 nhashes: int) -> np.ndarray:
    """Vectorized membership probe (no false negatives)."""
    member = np.ones(len(h1), dtype=bool)
    for idx in _bloom_positions(h1, nbits, nhashes):
        w = words[(idx >> np.uint64(6)).astype(np.int64)]
        member &= ((w >> (idx & np.uint64(63))) & np.uint64(1)).astype(bool)
    return member


def join_on_identifier_bloom(left: ray.data.Dataset, right: ray.data.Dataset,
                             key: str = "identifier",
                             right_cols: list[str] | None = None,
                             nbuckets: int = 32, nbits: int = 1 << 23,
                             nhashes: int = 2) -> ray.data.Dataset:
    """join_on_identifier with a Bloom exchange-bypass: left rows whose key
    is PROVABLY absent from the right side (Bloom filters have no false
    negatives) never enter the hash exchange — they take a map-side path
    that pads the right columns with typed nulls, preserving exact LEFT
    JOIN semantics. Bloom false positives merely ride the exchange and
    fall out of the merge as ordinary non-matches.

    CONTRACT — deterministic rescan: ``left`` is executed TWICE (once per
    Bloom split). A non-deterministic upstream (unseeded sampling/shuffle,
    wall-clock columns) silently drops or duplicates rows between the two
    paths; such inputs must be ``left.materialize()``-ed by the caller
    first. The default deliberately re-reads rather than materializing —
    pinning a 100-TB left in the object store is the bigger failure mode,
    and deterministic re-reads are the norm for Parquet-rooted pipelines
    (dedup_exact_broadcast documents the same contract).

    Schema: the merged path casts right int/bool columns to pandas
    nullable twins (→ Arrow int64+null) and the bypass pads the same
    Arrow types, so every block of the union shares one schema.

    The 100-TB case this exists for: a crawl joined against a
    much-smaller-than-the-crawl (but too big to broadcast as values)
    reference table — e.g. 10¹² pages ⋈ 10⁹ flagged urls. The bitset is
    O(nbits) however big the right side is; with a selective right side
    the exchange shrinks by the non-match fraction, which is the whole
    shuffle at high selectivity."""
    from .temporal import _key_hash

    from ..functions.arrowio import pa_type

    bloom_ref = key_bloom(right, key, nbits, nhashes)
    rcols = right_cols or [c for c in right.schema().names if c != key]
    # normalize through pa_type: a pandas-block side reports numpy dtypes,
    # which pa.schema/pa.nulls reject (round-4 advisor finding)
    r_schema = {n: pa_type(t) for n, t in
                zip(right.schema().names, right.schema().types)}

    def split(want_hit: bool):
        def f(batch: pa.Table) -> pa.Table:
            if not len(batch):
                return batch
            words = ray.get(bloom_ref)
            m = bloom_member(words, _key_hash(batch[key]), nbits, nhashes)
            return batch.filter(pa.array(m if want_hit else ~m))
        return f

    maybe = left.map_batches(split(True), batch_format="pyarrow")
    never = left.map_batches(split(False), batch_format="pyarrow")

    def pad_right(batch: pa.Table) -> pa.Table:
        out = {n: batch[n] for n in batch.column_names}
        for c in rcols:
            out[c] = pa.nulls(len(batch), r_schema[c])
        return pa.table(out)

    joined = join_on_identifier(maybe, right, key, rcols, nbuckets)
    # the merge kernel emits exactly left-columns + rcols; order the
    # bypass identically WITHOUT joined.schema() (which would execute)
    out_names = list(left.schema().names) + rcols
    # the merge kernel yields pandas blocks, the bypass Arrow blocks —
    # mixed block types break cross-block batching downstream. Convert
    # the merged path to Arrow under ONE explicit schema (an all-null
    # batch would otherwise infer pa.null and diverge from the bypass).
    from ..functions.arrowio import pandas_to_arrow_normalizer
    l_schema = {n: pa_type(t) for n, t in
                zip(left.schema().names, left.schema().types)}
    target = pa.schema([(n, l_schema.get(n) or r_schema[n])
                        for n in out_names])
    joined = joined.map_batches(pandas_to_arrow_normalizer(target),
                                batch_format="pandas",
                                zero_copy_batch=True)
    bypass = never.map_batches(pad_right, batch_format="pyarrow") \
        .select_columns(out_names)
    return joined.union(bypass)
