"""Tileset generators: grid (O1), UTM-clipped grid (O2), random/katana (O3),
select-by-AOI (O4) — reference semantics, Ray-Data execution.

The reference fans each grid cell out with joblib (cmds.py:364-365); here the
cell index space is a ``ray.data.range(gridx*gridy)`` and each block of 4096
cells is built array-at-a-time: UTM math over whole arrays, one
point-in-polygon pass and a bbox test that settle the interior and exterior
cells, the exact clip only on the cells of the AOI's boundary band, then
bounds, areas, WKB and identifiers for the whole block
(``sources/tileset.tile_batch_from_rings``). Scale: a planet-wide 1 km grid
is ~5e8 cells → a few thousand blocks; no driver loop, no shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions import cells as cellsmod
from ..functions import crs as crsmod
from ..functions import geom
from ..sources.tileset import tile_batch_from_rings


class GridSpec:
    """Driver-side scalars of build_grid (cmds.py:305-330): UTM zone from the
    AOI centroid, projected envelope, cell counts. Cheap; broadcast to tasks
    via closure capture (a few hundred bytes)."""

    def __init__(self, aoi_ring: np.ndarray, chip_size_meters: float, cell_res: int | None = None):
        aoi_ring = np.asarray(aoi_ring, dtype=np.float64)
        cx, cy = geom.ring_centroid(aoi_ring)  # shapely .centroid parity
        self.zone, self.north = crsmod.utm_zone(cx, cy)
        e, n = crsmod.lonlat_to_utm(aoi_ring[:, 0], aoi_ring[:, 1], self.zone, self.north)
        self.minx, self.miny = e.min(), n.min()
        self.maxx, self.maxy = e.max(), n.max()
        self.m = float(chip_size_meters)
        self.gridx = int((self.maxx - self.minx) // self.m)
        self.gridy = int((self.maxy - self.miny) // self.m)
        self.aoi_ring = aoi_ring
        if cell_res is None:
            # tile side in degrees at the AOI centroid, for the index resolution
            mplon, mplat = crsmod.meters_per_degree(cx, cy, self.zone, self.north)
            span = self.m / min(abs(mplon), abs(mplat))
            cell_res = cellsmod.pick_resolution(span)
        self.cell_res = cell_res

    @property
    def n_cells(self) -> int:
        return self.gridx * self.gridy


def _cell_rings(spec: GridSpec, idx: np.ndarray):
    """Vectorized reference get_polygon (cmds.py:331-357) for cell indices.

    Reference iterates ``itertools.product(range(gridx), range(gridy))`` so
    flat index i → gx = i // gridy, gy = i % gridy.

    Returns ((k, 5, 2) rings, kept indices) for the cells that intersect
    the AOI: the AOI clipped to the cell box has positive area, or the
    box's lower-left or upper-right corner or its centre lies inside the
    AOI (which covers a cell fully inside it). Filter, then refine: one
    point-in-ring pass settles every cell with such a point, a cell whose
    box misses the AOI's bbox clips to nothing, and only the boundary band
    left runs the exact clip.
    """
    gx = idx // spec.gridy
    gy = idx % spec.gridy
    re_ = gx * spec.m + spec.minx
    rn = gy * spec.m + spec.miny
    clon, clat = crsmod.utm_to_lonlat(re_, rn, spec.zone, spec.north)
    mplon, mplat = crsmod.meters_per_degree(clon, clat, spec.zone, spec.north)
    dlon = ((spec.m - 1) / 2.0) / mplon
    dlat = ((spec.m - 1) / 2.0) / mplat
    x0, x1 = clon - dlon, clon + dlon
    y0, y1 = clat - dlat, clat + dlat

    a = spec.aoi_ring
    keep = geom.points_in_ring(np.concatenate([x0, x1, clon]),
                               np.concatenate([y0, y1, clat]), a) \
        .reshape(3, -1).any(axis=0)
    # a box strictly outside the AOI's bbox clips to nothing (area 0); one
    # that only touches it still takes the exact clip, whose degenerate
    # polygon's shoelace can round above zero
    aminx, aminy, amaxx, amaxy = geom.bounds(a)
    band = ~keep & (x0 <= amaxx) & (x1 >= aminx) & (y0 <= amaxy) & (y1 >= aminy)
    for i in np.nonzero(band)[0]:
        keep[i] = geom.box_clip_area(a, x0[i], y0[i], x1[i], y1[i]) > 0
    # reference ring order (cmds.py:352-357): ll, ul, ur, lr, ll
    rings = np.stack([np.stack([x0, x0, x1, x1, x0], axis=1),
                      np.stack([y0, y1, y1, y0, y0], axis=1)], axis=-1)
    return rings[keep], idx[keep].astype(np.int64)


def build_grid(
    aoi_ring: np.ndarray, chip_size_meters: float,
    cell_res: int | None = None, parallelism: int = -1,
) -> ray.data.Dataset:
    """Grid tileset over an AOI (O1, cmds.py:305-369 semantics): tiles are
    lat/lon-aligned rectangles centred on a uniform UTM grid, side
    (m-1) meters expressed in constant degrees; only AOI-intersecting cells
    kept. Returns a tileset Dataset (sources/tileset.py schema)."""
    spec = GridSpec(aoi_ring, chip_size_meters, cell_res)

    def make_cells(batch: pa.Table) -> pa.Table:
        idx = batch["id"].to_numpy()
        rings, kept = _cell_rings(spec, idx)
        return tile_batch_from_rings(rings, kept, spec.zone, spec.north, spec.cell_res)

    n = max(spec.n_cells, 1)
    return ray.data.range(n, override_num_blocks=None if parallelism == -1 else parallelism) \
        .map_batches(make_cells, batch_format="pyarrow", batch_size=4096)


def build_grid_utm_clipped(
    region_ring: np.ndarray, rectangle_size: float, cell_res: int | None = None
) -> ray.data.Dataset:
    """O2 (partitions.py:112-147): UTM-aligned squares clipped to the region
    (tiles are the *intersection* polygons, so not necessarily rectangles)."""
    spec = GridSpec(region_ring, rectangle_size, cell_res)
    e, n = crsmod.lonlat_to_utm(region_ring[:, 0], region_ring[:, 1], spec.zone, spec.north)
    region_utm = np.column_stack([e, n])
    m = spec.m
    # reference uses np.arange(min, max, m) over the envelope → includes the
    # partial last cell (unlike O1's // truncation)
    xs = np.arange(spec.minx, spec.maxx, m)
    ys = np.arange(spec.miny, spec.maxy, m)
    nx, ny = len(xs), len(ys)

    def make_cells(batch: pa.Table) -> pa.Table:
        idx = batch["id"].to_numpy()
        rings, kept = [], []
        for i in idx:
            # reference iterates x (outer) then y (inner): partitions.py:129-130
            sx = xs[i // ny]
            sy = ys[i % ny]
            clipped = geom.clip_ring_to_box(region_utm, sx, sy, sx + m, sy + m)
            if clipped is None or geom.shoelace_area(clipped) <= 0:
                continue
            lon, lat = crsmod.utm_to_lonlat(clipped[:, 0], clipped[:, 1], spec.zone, spec.north)
            rings.append(np.column_stack([lon, lat]))
            kept.append(i)
        return tile_batch_from_rings(rings, np.asarray(kept, np.int64),
                                     spec.zone, spec.north, spec.cell_res)

    return ray.data.range(max(nx * ny, 1)).map_batches(
        make_cells, batch_format="pyarrow", batch_size=4096)


def katana(ring: np.ndarray, threshold: float, rng: np.random.Generator,
           random_variance: float = 0.1, count: int = 0) -> list[np.ndarray]:
    """O3 recursive bisection (partitions.py:513-567 semantics) with explicit
    seeded RNG (the reference uses the global np.random — SURVEY.md §2.11
    determinism fix). Operates on UTM-plane rings; returns leaf rings."""
    assert random_variance >= 0
    minx, miny, maxx, maxy = geom.bounds(ring)
    width, height = maxx - minx, maxy - miny
    random_factor = 2 * (1 + (rng.random() - 0.5) * random_variance * 2)
    if max(width, height) <= threshold or count == 250:
        return [ring]
    if height >= width:
        boxes = [(minx, miny, maxx, miny + height / random_factor),
                 (minx, miny + height / random_factor, maxx, maxy)]
    else:
        boxes = [(minx, miny, minx + width / random_factor, maxy),
                 (minx + width / random_factor, miny, maxx, maxy)]
    out = []
    for b in boxes:
        c = geom.clip_ring_to_box(ring, *b)
        if c is not None and geom.shoelace_area(c) > 0:
            out.extend(katana(c, threshold, rng, random_variance, count + 1))
    return out


def make_random_partitions(
    region_ring: np.ndarray, max_rectangle_size: float,
    random_variance: float = 0.1, seed: int = 42, cell_res: int | None = None,
) -> ray.data.Dataset:
    """O3 (partitions.py:79-110): katana-split the UTM-projected region, back
    to 4326. Recursion depth ≤ 250 and leaf count ~ area/threshold² — driver
    generation is cheap; the resulting tileset is a Dataset. The reference's
    ``align_to_lonlat`` call is a behavioral no-op (missing function swallowed
    by bare except, partitions.py:101-104) — reproduced by not aligning."""
    spec = GridSpec(region_ring, max_rectangle_size, cell_res)
    e, n = crsmod.lonlat_to_utm(region_ring[:, 0], region_ring[:, 1], spec.zone, spec.north)
    leaves = katana(np.column_stack([e, n]), max_rectangle_size,
                    np.random.default_rng(seed), random_variance)
    rings = []
    for leaf in leaves:
        lon, lat = crsmod.utm_to_lonlat(leaf[:, 0], leaf[:, 1], spec.zone, spec.north)
        rings.append(np.column_stack([lon, lat]))
    tbl = tile_batch_from_rings(rings, np.arange(len(rings)), spec.zone,
                                spec.north, spec.cell_res)
    return ray.data.from_arrow(tbl)


def select_intersecting(ds: ray.data.Dataset, aoi_ring: np.ndarray,
                        min_area: float = 1e-5) -> ray.data.Dataset:
    """O4 (cmds.py:372-400): keep tileset rows whose geometry intersects the
    AOI with intersection area > min_area. AOI captured in the task closure
    (small); per-batch vectorized bbox prefilter then exact clip."""
    a = np.asarray(aoi_ring, dtype=np.float64)
    aminx, aminy, amaxx, amaxy = geom.bounds(a)

    def keep(batch: pa.Table) -> pa.Table:
        bx0 = batch["minx"].to_numpy(); by0 = batch["miny"].to_numpy()
        bx1 = batch["maxx"].to_numpy(); by1 = batch["maxy"].to_numpy()
        cand = ~((bx1 < aminx) | (bx0 > amaxx) | (by1 < aminy) | (by0 > amaxy))
        mask = np.zeros(len(batch), dtype=bool)
        wkbs = batch["wkb"].to_pylist()
        for i in np.nonzero(cand)[0]:
            ring = geom.wkb_to_ring(wkbs[i])
            if geom._is_axis_aligned_box(ring):
                area = geom.box_clip_area(a, bx0[i], by0[i], bx1[i], by1[i])
            else:
                # exact for any simple ring pair — concave katana tiles
                # against concave AOIs go through the triangulated path
                area = geom.intersection_area(ring, a)
            mask[i] = area > min_area
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")
