"""Page → tile assignment: the engine's central spatial join.

Replaces the reference's per-tile filesystem anchoring (each page/pixel
belongs to the tile whose geometry contains it; SURVEY.md §2.4 graft row)
with two Ray-Data-native paths:

1. **Broadcast path** (default; tiles are the small side, like the foreign
   tileset held in memory at partitions.py:474-475 — but indexed, not
   linearly scanned): the tileset's (bounds, id, center) arrays are
   ``ray.put`` ONCE; each worker process builds a bucketed bbox index
   once (``arrowio.worker_cached``; ``TileAssigner`` actors in
   ``__init__``) and assigns whole Arrow batches vectorized.
   Scales to ~10^7 tiles per node (~50 B/tile); pages stream through.

2. **Cell-equi-join path** (``assign_by_cell_join``; both sides large):
   tiles are exploded to their covering index cells, pages keyed by their
   cell, and a two-sided ``grouped_apply`` on (cell, salt) co-locates them
   — with optional salting of hot cells (dense crawl regions) so no single
   key dominates (north_rule skew requirement).

Assignment semantics (deterministic, FIXTURES.md invariant 1 — every page
gets exactly one tile): containing tile wins; among several containing
tiles (overlapping tilesets) or when the point falls in the ~1 m inter-tile
gap the grid generator leaves (tile side is m-1 of an m-spaced grid,
cmds.py:349-357), the tile with the nearest envelope-center wins; exact
distance ties break on the smaller identifier.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import arrowio
from ..functions import cells as cellsmod
from ..functions import geocode as geocodemod


class TileIndex:
    """Bucketed bbox index over a tileset: uniform buckets sized to the
    largest tile, CSR adjacency bucket→tiles, fully vectorized batch queries."""

    def __init__(self, minx, miny, maxx, maxy, identifier, clon, clat):
        self.minx = np.ascontiguousarray(minx, dtype=np.float64)
        self.miny = np.ascontiguousarray(miny, dtype=np.float64)
        self.maxx = np.ascontiguousarray(maxx, dtype=np.float64)
        self.maxy = np.ascontiguousarray(maxy, dtype=np.float64)
        self.identifier = np.asarray(identifier, dtype=object)
        self.clon = np.ascontiguousarray(clon, dtype=np.float64)
        self.clat = np.ascontiguousarray(clat, dtype=np.float64)
        nt = len(self.minx)
        if nt == 0:
            raise ValueError("empty tileset")

        self.x0 = float(self.minx.min()); self.y0 = float(self.miny.min())
        x1 = float(self.maxx.max()); y1 = float(self.maxy.max())
        self.bw = max(float((self.maxx - self.minx).max()), 1e-9) * 1.000001
        self.bh = max(float((self.maxy - self.miny).max()), 1e-9) * 1.000001
        self.nbx = max(int(np.ceil((x1 - self.x0) / self.bw)), 1)
        self.nby = max(int(np.ceil((y1 - self.y0) / self.bh)), 1)

        bx0 = np.clip(((self.minx - self.x0) / self.bw).astype(np.int64), 0, self.nbx - 1)
        bx1 = np.clip(((self.maxx - self.x0) / self.bw).astype(np.int64), 0, self.nbx - 1)
        by0 = np.clip(((self.miny - self.y0) / self.bh).astype(np.int64), 0, self.nby - 1)
        by1 = np.clip(((self.maxy - self.y0) / self.bh).astype(np.int64), 0, self.nby - 1)

        pairs_b, pairs_t = [], []
        # each tile spans ≤2 buckets per axis by construction of bw/bh
        for dx in range(int((bx1 - bx0).max()) + 1):
            for dy in range(int((by1 - by0).max()) + 1):
                bx = bx0 + dx
                by = by0 + dy
                m = (bx <= bx1) & (by <= by1)
                pairs_b.append((by[m] * self.nbx + bx[m]))
                pairs_t.append(np.nonzero(m)[0])
        b = np.concatenate(pairs_b)
        t = np.concatenate(pairs_t)
        order = np.argsort(b, kind="stable")
        b, self.entries = b[order], t[order]
        nb = self.nbx * self.nby
        self.ptr = np.zeros(nb + 1, dtype=np.int64)
        np.add.at(self.ptr, b + 1, 1)
        np.cumsum(self.ptr, out=self.ptr)

    def _bucket_of(self, px, py):
        bx = np.clip(((px - self.x0) / self.bw).astype(np.int64), 0, self.nbx - 1)
        by = np.clip(((py - self.y0) / self.bh).astype(np.int64), 0, self.nby - 1)
        return by * self.nbx + bx

    def assign(self, px: np.ndarray, py: np.ndarray):
        """Vectorized assignment. Returns (tile_row_idx int64, contained bool).
        tile_row_idx = -1 only when the tileset has no tile near the point
        (falls back to a 3×3 neighbour-bucket scan first)."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        n = len(px)
        best_idx = np.full(n, -1, dtype=np.int64)
        best_d2 = np.full(n, np.inf)
        best_contained = np.zeros(n, dtype=bool)

        b = self._bucket_of(px, py)
        self._scan_bucket(b, px, py, best_idx, best_d2, best_contained)

        # Points not inside any tile (inter-tile gaps, AOI notches, outside
        # the tiled region): the nearest tile center may live in another
        # bucket. Vectorized expanding-ring scan over just the active points:
        # a bucket at Chebyshev ring distance r+1 is ≥ r*min(bw,bh) away, so
        # once best_d2 ≤ (r*min(bw,bh))² the current best is globally nearest.
        gap = ~best_contained
        if gap.any():
            minwh = min(self.bw, self.bh)
            fx = np.floor((px - self.x0) / self.bw).astype(np.int64)  # unclipped
            fy = np.floor((py - self.y0) / self.bh).astype(np.int64)
            # Points whose UNCLIPPED bucket lies outside the grid cannot be
            # inside any tile bbox, and the ring scan's termination bound
            # (best_d2 <= (r*minwh)^2, rings centered on the unclipped
            # bucket) may never be reached before r hits max(nbx, nby) —
            # exiting with the possibly-non-nearest candidate from the
            # initial border-clipped bucket. Those (rare) points get an
            # exact vectorized brute-force nearest-center instead.
            outside = gap & ((fx < 0) | (fx >= self.nbx)
                             | (fy < 0) | (fy >= self.nby))
            if outside.any():
                self._nearest_center_brute(np.nonzero(outside)[0], px, py,
                                           best_idx, best_d2)
            active = np.nonzero(gap & ~outside)[0]
            max_r = max(self.nbx, self.nby)
            r = 1
            while len(active) and r <= max_r:
                offs = [(dx, dy) for dx in range(-r, r + 1) for dy in (-r, r)]
                offs += [(dx, dy) for dx in (-r, r) for dy in range(-r + 1, r)]
                for dx, dy in offs:
                    nx = fx[active] + dx
                    ny = fy[active] + dy
                    valid = (nx >= 0) & (nx < self.nbx) & (ny >= 0) & (ny < self.nby)
                    if not valid.any():
                        continue
                    sub = active[valid]
                    self._scan_bucket(ny[valid] * self.nbx + nx[valid],
                                      px[sub], py[sub],
                                      best_idx, best_d2, best_contained, sub)
                done = best_contained[active] | (best_d2[active] <= (r * minwh) ** 2)
                active = active[~done]
                r += 1
        return best_idx, best_contained

    def _nearest_center_brute(self, sub, px, py, best_idx, best_d2):
        """Exact nearest tile center (identifier tie-break, matching
        _update_best) for point indices ``sub`` — used for points outside
        the bucket grid, where the ring scan's bound is unreachable."""
        nt = len(self.clon)
        # chunk points so the (chunk × nt) distance matrix stays ~64 MB
        chunk = max(1, (1 << 23) // max(nt, 1))
        for s in range(0, len(sub), chunk):
            idx = sub[s:s + chunk]
            d2 = (px[idx, None] - self.clon[None, :]) ** 2 \
                + (py[idx, None] - self.clat[None, :]) ** 2
            dmin = d2.min(axis=1)
            for j, i in enumerate(idx):
                ties = np.flatnonzero(d2[j] == dmin[j])
                win = ties[np.argmin(self.identifier[ties])] if len(ties) > 1 \
                    else ties[0]
                best_idx[i] = win
                best_d2[i] = dmin[j]

    def _scan_bucket(self, b, px, py, best_idx, best_d2, best_contained, sub=None):
        """Test every candidate tile of bucket(s) ``b`` against points
        (px, py), updating the per-point best. ``sub``: indices into the best
        arrays when (px, py) are a subset of the original points."""
        start, cnt = self.ptr[b], self.ptr[b + 1] - self.ptr[b]
        maxc = int(cnt.max()) if len(b) else 0
        for k in range(maxc):
            has = k < cnt
            cand = np.where(has, self.entries[np.minimum(start + k, len(self.entries) - 1)], 0)
            inside = has & (px >= self.minx[cand]) & (px <= self.maxx[cand]) \
                & (py >= self.miny[cand]) & (py <= self.maxy[cand])
            d2 = np.where(has, (px - self.clon[cand]) ** 2 + (py - self.clat[cand]) ** 2, np.inf)
            self._update_best(best_idx, best_d2, best_contained, cand, d2, inside, has, sub)

    def _update_best(self, best_idx, best_d2, best_contained, cand, d2, inside, has, sub=None):
        bi = best_idx if sub is None else best_idx[sub]
        bd = best_d2 if sub is None else best_d2[sub]
        bc = best_contained if sub is None else best_contained[sub]
        better = has & (
            (inside & ~bc)
            | ((inside == bc) & (d2 < bd))
            | ((inside == bc) & (d2 == bd) & (bi >= 0)
               & (self.identifier[cand] < np.where(
                   bi >= 0, self.identifier[np.maximum(bi, 0)], ""))))
        if sub is None:
            best_idx[better] = cand[better]
            best_d2[better] = d2[better]
            best_contained[better] = inside[better]
        else:
            tgt = sub[better]
            best_idx[tgt] = cand[better]
            best_d2[tgt] = d2[better]
            best_contained[tgt] = inside[better]

    def knn(self, px: np.ndarray, py: np.ndarray, k: int,
            tile_chunk: int = 65536, method: str = "auto") -> np.ndarray:
        """k nearest tile centers per point (indices; ascending distance,
        ties by tile index). Two physical plans with identical results
        (pytest-asserted):

        - ``ring``: expanding bucket-ring search (same bound as
          :meth:`assign`'s gap scan) — O(k + rings) buckets per point, the
          scale path for planetary tilesets (10^8 tiles: each query touches
          a handful of buckets instead of every center).
        - ``brute``: chunked distance matrix over all centers — the test
          oracle, and the faster plan for small tilesets where the ring
          bookkeeping dominates.
        """
        nt = len(self.clon)
        if method == "brute" or (method == "auto" and nt <= 4096):
            return self._knn_brute(px, py, k, tile_chunk)
        return self._knn_ring(px, py, k)

    def _knn_brute(self, px, py, k, tile_chunk=65536) -> np.ndarray:
        px = np.asarray(px, dtype=np.float64)[:, None]
        py = np.asarray(py, dtype=np.float64)[:, None]
        n = px.shape[0]
        nt = len(self.clon)
        k = min(k, nt)
        best_d = np.full((n, k), np.inf)
        best_i = np.full((n, k), -1, dtype=np.int64)
        for lo in range(0, nt, tile_chunk):
            hi = min(lo + tile_chunk, nt)
            d2 = (px - self.clon[lo:hi][None, :]) ** 2 + (py - self.clat[lo:hi][None, :]) ** 2
            alld = np.concatenate([best_d, d2], axis=1)
            alli = np.concatenate([best_i, np.broadcast_to(np.arange(lo, hi), (n, hi - lo))], axis=1)
            sel = np.argpartition(alld, k - 1, axis=1)[:, :k]
            rows = np.arange(n)[:, None]
            best_d = alld[rows, sel]
            best_i = alli[rows, sel]
        # deterministic order: distance, then tile index on exact ties
        rows = np.arange(n)[:, None]
        o = np.argsort(best_i, axis=1, kind="stable")
        best_d, best_i = best_d[rows, o], best_i[rows, o]
        o = np.argsort(best_d, axis=1, kind="stable")
        return best_i[rows, o]

    def _center_csr(self):
        """Lazy CSR bucket→tile-CENTER adjacency (the bbox CSR in __init__
        buckets tiles by their spans; kNN needs centers)."""
        if not hasattr(self, "_cptr"):
            cbx = np.clip(((self.clon - self.x0) / self.bw).astype(np.int64),
                          0, self.nbx - 1)
            cby = np.clip(((self.clat - self.y0) / self.bh).astype(np.int64),
                          0, self.nby - 1)
            b = cby * self.nbx + cbx
            order = np.argsort(b, kind="stable")
            self._centries = order
            self._cptr = np.zeros(self.nbx * self.nby + 1, dtype=np.int64)
            np.add.at(self._cptr, b + 1, 1)
            np.cumsum(self._cptr, out=self._cptr)
        return self._cptr, self._centries

    def _knn_ring(self, px, py, k) -> np.ndarray:
        """Expanding-ring kNN: per ring r, gather candidate centers from the
        Chebyshev-ring-r buckets of every still-active point, merge them
        with the point's current top-k (one vectorized lexsort + rank-per-
        group pass), stop when the kth distance is ≤ (r·min(bw,bh))² — the
        same no-closer-bucket bound assign() uses — or every grid bucket
        has been seen."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        n = len(px)
        nt = len(self.clon)
        k = min(k, nt)
        if n == 0 or k == 0:
            return np.full((n, k), -1, dtype=np.int64)
        cptr, centries = self._center_csr()
        minwh = min(self.bw, self.bh)
        fx = np.floor((px - self.x0) / self.bw).astype(np.int64)
        fy = np.floor((py - self.y0) / self.bh).astype(np.int64)
        # ring at which a point has seen every grid bucket (works for
        # out-of-grid centers too: max(fx, nbx-1-fx) covers both overhangs)
        rmax = np.maximum(np.maximum(fx, self.nbx - 1 - fx),
                          np.maximum(fy, self.nby - 1 - fy))
        best_d = np.full((n, k), np.inf)
        best_i = np.full((n, k), -1, dtype=np.int64)
        active = np.arange(n)
        r = 0
        while len(active):
            if r == 0:
                offs = [(0, 0)]
            else:
                offs = [(dx, dy) for dx in range(-r, r + 1) for dy in (-r, r)]
                offs += [(dx, dy) for dx in (-r, r) for dy in range(-r + 1, r)]
            ap_list, ti_list = [], []
            for dx, dy in offs:
                nx = fx[active] + dx
                ny = fy[active] + dy
                valid = (nx >= 0) & (nx < self.nbx) & (ny >= 0) & (ny < self.nby)
                if not valid.any():
                    continue
                vpos = np.nonzero(valid)[0]
                b = ny[vpos] * self.nbx + nx[vpos]
                start, cnt = cptr[b], cptr[b + 1] - cptr[b]
                maxc = int(cnt.max()) if len(b) else 0
                for kk in range(maxc):
                    has = kk < cnt
                    if not has.any():
                        break
                    ap_list.append(vpos[has])
                    ti_list.append(centries[start[has] + kk])
            if ap_list:
                ap = np.concatenate(ap_list)          # positions into active
                ti = np.concatenate(ti_list)
                dd = (px[active[ap]] - self.clon[ti]) ** 2 \
                    + (py[active[ap]] - self.clat[ti]) ** 2
                # merge new candidates with the touched points' current top-k
                tpos = np.unique(ap)
                ex_ap = np.repeat(tpos, k)
                ex_ti = best_i[active[tpos]].ravel()
                ex_dd = best_d[active[tpos]].ravel()
                keep = ex_ti >= 0
                ap_all = np.concatenate([ap, ex_ap[keep]])
                ti_all = np.concatenate([ti, ex_ti[keep]])
                dd_all = np.concatenate([dd, ex_dd[keep]])
                order = np.lexsort((ti_all, dd_all, ap_all))
                ap_s, ti_s, dd_s = ap_all[order], ti_all[order], dd_all[order]
                newgrp = np.r_[True, ap_s[1:] != ap_s[:-1]]
                gstart = np.maximum.accumulate(
                    np.where(newgrp, np.arange(len(ap_s)), 0))
                rank = np.arange(len(ap_s)) - gstart
                m = rank < k
                best_i[active[ap_s[m]], rank[m]] = ti_s[m]
                best_d[active[ap_s[m]], rank[m]] = dd_s[m]
            done = (best_d[active, k - 1] <= (r * minwh) ** 2) \
                | (r >= rmax[active])
            active = active[~done]
            r += 1
        return best_i


def broadcast_tileset(tiles_ds: ray.data.Dataset) -> "ray.ObjectRef":
    """Collect the tileset's index columns to numpy and ``ray.put`` ONCE —
    every assigner worker reads the same object-store copy (zero re-ship
    per batch). ~50 B/tile."""
    cols = ["minx", "miny", "maxx", "maxy", "identifier", "clon", "clat"]
    parts = {c: [] for c in cols}
    for b in tiles_ds.select_columns(cols).iter_batches(batch_size=65536, batch_format="pyarrow"):
        for c in cols:
            parts[c].append(b[c].to_numpy(zero_copy_only=False))
    arrays = {c: np.concatenate(v) if v else np.empty(0) for c, v in parts.items()}
    return ray.put(arrays)


def _assign_batch(index: TileIndex, batch: pa.Table, cell_res: int,
                  geocode_cols, lonlat_cols, knn_k: int) -> pa.Table:
    """Shared per-batch kernel of both assigner paths: vectorized geocode →
    bucketed-index assignment → append ``lon/lat/tile_id/tile_contained/
    cell_id`` (+ optional kNN ids) columns."""
    if lonlat_cols:
        lon = batch[lonlat_cols[0]].to_numpy()
        lat = batch[lonlat_cols[1]].to_numpy()
    else:
        urls = batch[geocode_cols[0]].to_pylist()
        langs = batch[geocode_cols[1]].to_numpy(zero_copy_only=False)
        lon, lat = geocodemod.geocode(urls, langs)
    idx, contained = index.assign(lon, lat)
    tile_id = np.where(idx >= 0, index.identifier[np.maximum(idx, 0)], "")
    cols = {name: batch[name] for name in batch.column_names}
    cols["lon"] = pa.array(lon)
    cols["lat"] = pa.array(lat)
    cols["tile_id"] = pa.array(list(tile_id), type=pa.string())
    cols["tile_contained"] = pa.array(contained)
    cols["cell_id"] = pa.array(cellsmod.cell_of(lon, lat, cell_res),
                               type=pa.uint64())
    if knn_k:
        kn = index.knn(lon, lat, knn_k)
        ids = index.identifier[kn]
        cols[f"knn_{knn_k}"] = pa.array(
            [list(row) for row in ids], type=pa.list_(pa.string()))
    return pa.table(cols)


class TileAssigner:
    """Actor-pool stage: geocode (optional) + assign each page to its tile.

    __init__ (once per actor): fetch broadcast tileset, build TileIndex.
    __call__ (per batch): vectorized kernel (_assign_batch).
    """

    def __init__(self, tiles_ref, cell_res: int = 12, geocode_cols=("url", "lang"),
                 lonlat_cols=None, knn_k: int = 0):
        self.index = TileIndex(**ray.get(tiles_ref))
        self.cell_res = cell_res
        self.geocode_cols = geocode_cols
        self.lonlat_cols = lonlat_cols
        self.knn_k = knn_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _assign_batch(self.index, batch, self.cell_res,
                             self.geocode_cols, self.lonlat_cols, self.knn_k)


def assign_pages(pages: ray.data.Dataset, tiles: ray.data.Dataset,
                 concurrency: int | tuple | None = 4, batch_size: int = 8192,
                 cell_res: int = 12, knn_k: int = 0,
                 lonlat_cols=None, use_actors: bool = True) -> ray.data.Dataset:
    """Broadcast-path page→tile assignment pipeline.

    Two physical forms, same semantics:

    - ``use_actors=True`` — actor pool (``concurrency`` actors), the right
      shape when the index is expensive (10^6+ tiles) and you want explicit
      pool sizing.
    - ``use_actors=False`` — plain task ``map_batches``; each worker
      process builds the index once (``arrowio.worker_cached``). Tasks
      FUSE with adjacent task stages into one operator, so on deep
      pipelines the whole pre-shuffle chain runs full-width with no
      per-operator resource reservation (the streaming executor reserves
      resources per operator — on small CPU counts a 5-operator chain
      with two actor pools starves every stage; measured 8-CPU/4M-row
      flagship: fused tasks ~2x faster end-to-end).
    """
    ref = broadcast_tileset(tiles)
    if use_actors:
        return pages.map_batches(
            TileAssigner,
            fn_constructor_kwargs=dict(tiles_ref=ref, cell_res=cell_res,
                                       knn_k=knn_k, lonlat_cols=lonlat_cols),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency,
        )

    def assign_task(batch: pa.Table) -> pa.Table:
        index = arrowio.worker_cached(ref, lambda d: TileIndex(**d))
        return _assign_batch(index, batch, cell_res, ("url", "lang"),
                             lonlat_cols, knn_k)

    return pages.map_batches(assign_task, batch_format="pyarrow",
                             batch_size=batch_size)


# --------------------------------------------------------------------------
# cell-equi-join path (both sides large) with hot-cell salting
# --------------------------------------------------------------------------

def explode_tiles_to_cells(tiles: ray.data.Dataset, res: int,
                           pad_cells: float = 0.5) -> ray.data.Dataset:
    """Tile → one row per covering index cell (the join key replication side;
    each tile covers ≤ ~4 cells when res is chosen via pick_resolution).

    ``pad_cells`` dilates each tile's bbox by that fraction of a cell before
    covering, so the nearest-center fallback for gap points sees tiles from
    neighbouring cells too (keeps cell-join results equal to the broadcast
    path for points within half a cell of their nearest tile)."""

    padx = 360.0 / (1 << res) * pad_cells
    pady = 180.0 / (1 << res) * pad_cells

    def explode(batch: pa.Table) -> pa.Table:
        minx = batch["minx"].to_numpy(); miny = batch["miny"].to_numpy()
        maxx = batch["maxx"].to_numpy(); maxy = batch["maxy"].to_numpy()
        reps, cell_ids = [], []
        for i in range(len(batch)):
            cc = cellsmod.cells_covering_bbox(minx[i] - padx, miny[i] - pady,
                                              maxx[i] + padx, maxy[i] + pady, res)
            reps.append(len(cc))
            cell_ids.append(cc)
        out = batch.select(["identifier", "minx", "miny", "maxx", "maxy", "clon", "clat"])
        out = out.take(pa.array(np.repeat(np.arange(len(batch)), reps)))
        return out.append_column("join_cell", pa.array(np.concatenate(cell_ids),
                                                       type=pa.uint64()))

    return tiles.map_batches(explode, batch_format="pyarrow")


def assign_by_cell_join(pages: ray.data.Dataset, tiles: ray.data.Dataset,
                        res: int = 8, salt: int = 1) -> ray.data.Dataset:
    """Shuffle-join path: pages and tiles co-located by index cell, local
    vectorized assignment per group. ``salt`` > 1 splits each cell's pages
    into sub-groups (tiles replicated to every sub-group) so one hot cell
    cannot serialize the join — the explicit skew handling the north rule
    asks for. Pages must already carry lon/lat columns.

    Output schema: url, lon, lat, tile_id (subset of input cols preserved:
    url/lon/lat only — wide payloads should be joined back by url after, or
    use the broadcast path which appends in place)."""
    from .temporal import grouped_apply

    keys = ["join_cell", "salt"]
    tile_cells = explode_tiles_to_cells(tiles, res)

    def page_key(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(); lat = batch["lat"].to_numpy()
        cell = cellsmod.cell_of(lon, lat, res)
        s = (np.abs(pd.util.hash_array(batch["url"].to_numpy(zero_copy_only=False)))
             % salt if salt > 1 else np.zeros(len(batch), dtype=np.uint64))
        return pa.table({
            "join_cell": pa.array(cell, type=pa.uint64()),
            "salt": pa.array(s.astype(np.uint64), type=pa.uint64()),
            "url": batch["url"], "lon": batch["lon"], "lat": batch["lat"],
        })

    def tile_rows(batch: pa.Table) -> pa.Table:
        reps = salt if salt > 1 else 1
        batch = batch.take(pa.array(np.repeat(np.arange(len(batch)), reps)))
        return batch.append_column("salt", pa.array(
            np.tile(np.arange(reps, dtype=np.uint64), len(batch) // reps)))

    def cell_join(p: pa.Table, t: pa.Table | None) -> pa.Table:
        tile_id = pa.array([""] * len(p), type=pa.string())
        if t is not None:
            idx = TileIndex(*(t[c].to_numpy(zero_copy_only=False) for c in
                              ("minx", "miny", "maxx", "maxy", "identifier",
                               "clon", "clat")))
            ti, _cont = idx.assign(p["lon"].to_numpy(), p["lat"].to_numpy())
            tile_id = pa.array(np.where(
                ti >= 0, idx.identifier[np.maximum(ti, 0)], ""),
                type=pa.string())
        return p.select(["url", "lon", "lat"]).append_column("tile_id",
                                                             tile_id)

    def key(run: pa.Table) -> tuple:
        return run["join_cell"][0].as_py(), run["salt"][0].as_py()

    def kernel(p: pa.Table, t: pa.Table) -> pa.Table:
        # one local join per (cell, salt) key: a page sees only its
        # cell's tiles
        cells = {key(r): r for r in arrowio.key_runs(t, keys)}
        return pa.concat_tables([cell_join(r, cells.get(key(r)))
                                 for r in arrowio.key_runs(p, keys)]
                                or [cell_join(p, None)])

    return grouped_apply((pages.map_batches(page_key, batch_format="pyarrow"),
                          tile_cells.map_batches(tile_rows,
                                                 batch_format="pyarrow")),
                         keys, kernel)
