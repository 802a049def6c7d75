"""Raster tile materialization + label proportions + mosaic + export
(SURVEY.md §2.1 S6/S8/S10/S11, §2.5 A1/A5).

The reference's per-tile flow is: GEE fetch → {identifier}.tif on disk →
later stages re-read each tif by filename. Here the raster set is a
DATASET (one row per tile: identifier, band_names, shape, pixels-bytes,
dtype, nodata) that streams between stages through the object store; the
GeoTIFF directory layout is a compatibility SINK, not the interchange
format (SURVEY.md §1.5 mapping).

Stages:
- RenderTiles (S6 analogue): plain tasks; plugin.build() once per worker
  process (``arrowio.worker_cached``, the reference's multiprocessing
  initializer, gee.py:141-150), render + post_process per tile, per-row
  on_error → nodata rows (dead-letter, not crashes).
- proportions (A1): raster rows → map_values → geometry mask → bincount →
  map<string,double>. No shuffle: raster bytes stay row-local.
- mosaic (S11): bounds aggregate (A5) → place tiles in identifier-sorted
  order, later nonzero pixels overwriting (cmds.py:628-702 semantics incl.
  the sorted-listdir order T4).
- write_geotiff_layout / read_geotiff_layout: the reference's on-disk
  contract {dest}/{dataset}/{identifier}.tif (partitions.py:149-153).
- pack_chips + zip sink (S10): per-tile pickle payloads, include-chip hook.
"""

from __future__ import annotations

import io
import os
import pickle
import zipfile

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions import arrowio, geom, tiff, valuemaps
from ..plugins import DatasetDefinition, SizeCapExceeded, load_plugin

RASTER_SCHEMA_COLS = ["identifier", "band_names", "shape", "pixels", "dtype", "nodata"]


def render_byparts(plugin: DatasetDefinition, identifier: str,
                   ring: np.ndarray, shape,
                   total_size: int, max_size: int) -> np.ndarray:
    """S7 (gee.py:24-81 ``_get_tile_byparts``): an oversize request is split
    into band SETS that each fit the size cap, fetched separately, and
    restitched in band order. Reference arithmetic reproduced exactly:
    per-band size is padded 1.5x for protocol overhead; a single band
    that still exceeds the cap is a hard error with the same message."""
    bands = plugin.get_band_names()
    nbands = len(bands)
    size_per_band = 1.5 * total_size / nbands
    if size_per_band > max_size:
        raise ValueError(
            f"image has {nbands} bands and a total size of {total_size}. "
            f"cannot fit to a max size of {max_size}")
    bands_per_split = int(np.floor(max_size / size_per_band))
    split_idxs = list(range(0, nbands, bands_per_split))
    if split_idxs[-1] != nbands + 1:
        split_idxs.append(nbands + 1)
    band_sets = [bands[split_idxs[i]:split_idxs[i + 1]]
                 for i in range(len(split_idxs) - 1)]
    parts = [plugin.render_bands(identifier, ring, shape, bs)
             for bs in band_sets if bs]
    return np.concatenate(parts, axis=2)


def _built_plugin(plugin: str | DatasetDefinition) -> DatasetDefinition:
    p = load_plugin(plugin) if isinstance(plugin, str) else plugin
    p.build()  # once per worker process (ST1/ST2)
    return p


class RenderTiles:
    """tileset rows → raster rows. ``plugin`` may be a name or instance;
    it is broadcast once and built once per worker process."""

    def __init__(self, plugin: str | DatasetDefinition, pixels_hw=(100, 100)):
        self.plugin_ref = ray.put(plugin)
        self.h, self.w = pixels_hw

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..state import metrics as metricsmod

        plugin = arrowio.worker_cached(self.plugin_ref, _built_plugin)
        # ST5: live progress counters (buffered, fire-and-forget)
        metrics = metricsmod.StageMetrics(
            f"render.{plugin.get_dataset_name()}")
        ids = batch["identifier"].to_pylist()
        wkbs = batch["wkb"].to_pylist()
        out = {c: [] for c in RASTER_SCHEMA_COLS}
        dt = plugin.get_dtype()
        names = plugin.get_band_names()
        for ident, w in zip(ids, wkbs):
            ring = geom.wkb_to_ring(w)
            try:
                try:
                    arr = plugin.render(ident, ring, (self.h, self.w))
                except SizeCapExceeded as cap:
                    # S7: oversize request → band-split fetch + restitch
                    arr = render_byparts(plugin, ident, ring,
                                         (self.h, self.w),
                                         cap.total_size, cap.max_size)
                if arr is None:
                    raise ValueError("plugin returned None (skip)")
                arr = plugin.post_process_tile(arr, {"identifier": ident})
                arr = np.ascontiguousarray(arr.astype(dt))
                out["identifier"].append(ident)
                out["band_names"].append(names)
                out["shape"].append(list(arr.shape))
                out["pixels"].append(arr.tobytes())
                out["dtype"].append(dt)
                out["nodata"].append(False)
                metrics.inc("rows")
            except Exception as e:
                if plugin.on_error(ident, e) != "nodata":
                    raise
                out["identifier"].append(ident)
                out["band_names"].append(names)
                out["shape"].append([0, 0, 0])
                out["pixels"].append(b"")
                out["dtype"].append(dt)
                out["nodata"].append(True)
                metrics.inc("nodata")
        metrics.flush(wait=True)
        return pa.table({
            "identifier": pa.array(out["identifier"], type=pa.string()),
            "band_names": pa.array(out["band_names"], type=pa.list_(pa.string())),
            "shape": pa.array(out["shape"], type=pa.list_(pa.int32())),
            "pixels": pa.array(out["pixels"], type=pa.binary()),
            "dtype": pa.array(out["dtype"], type=pa.string()),
            "nodata": pa.array(out["nodata"], type=pa.bool_()),
        })


def render_tiles(tiles: ray.data.Dataset, plugin: str | DatasetDefinition,
                 pixels_hw=(100, 100), concurrency: int | None = None,
                 batch_size: int = 256) -> ray.data.Dataset:
    """Large binary rows → small batch_size so batch × tasks fits the
    worker heap (a 100×100×3 uint8 tile is 30 KB; 256/batch ≈ 8 MB).
    ``concurrency`` caps the render tasks in flight (the reference's
    ``--n_processes`` download cap); None runs one per free CPU."""
    return tiles.select_columns(["identifier", "wkb"]).map_batches(
        RenderTiles(plugin, pixels_hw), batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency)


def _decode_row(shape, pixels, dtype) -> np.ndarray:
    return np.frombuffer(pixels, dtype=dtype).reshape(tuple(shape))


class ComputeProportions:
    """A1 (partitions.py:447-468): per raster row, map values, mask to
    geometry (broadcast identifier→ring map, loaded once per worker
    process), normalized class counts."""

    def __init__(self, plugin: str | DatasetDefinition, rings_ref, out_col: str):
        self.plugin = load_plugin(plugin) if isinstance(plugin, str) else plugin
        self.rings_ref, self.out_col = rings_ref, out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        rings = arrowio.worker_cached(self.rings_ref)
        ids = batch["identifier"].to_pylist()
        shapes = batch["shape"].to_pylist()
        pix = batch["pixels"].to_pylist()
        dts = batch["dtype"].to_pylist()
        nodata = batch["nodata"].to_pylist()
        props = []
        for i in range(len(batch)):
            if nodata[i]:
                props.append([])
                continue
            img = _decode_row(shapes[i], pix[i], dts[i])
            img = self.plugin.map_values(img)
            ring = rings.get(ids[i])
            if ring is not None:
                mask = valuemaps.binary_mask(ring, img.shape)
                img = img[mask == 1]
            vals, counts = np.unique(img, return_counts=True)
            total = counts.sum()
            props.append(sorted(
                (str(int(k) if float(k).is_integer() else k), v / total)
                for k, v in zip(vals, counts)))
        return pa.table({
            "identifier": batch["identifier"],
            self.out_col: pa.array(props, type=pa.map_(pa.string(), pa.float64())),
        })


def broadcast_rings(tiles: ray.data.Dataset) -> "ray.ObjectRef":
    rings = {}
    for b in tiles.select_columns(["identifier", "wkb"]).iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        for ident, w in zip(b["identifier"].to_pylist(), b["wkb"].to_pylist()):
            rings[ident] = geom.wkb_to_ring(w)
    return ray.put(rings)


def compute_proportions(rasters: ray.data.Dataset, tiles: ray.data.Dataset,
                        plugin: str | DatasetDefinition,
                        out_col: str | None = None) -> ray.data.Dataset:
    p = load_plugin(plugin) if isinstance(plugin, str) else plugin
    out = out_col or f"{p.get_dataset_name()}_proportions"
    return rasters.map_batches(
        ComputeProportions(p, broadcast_rings(tiles), out),
        batch_format="pyarrow", batch_size=256)


# ------------------------------------------------------------------- sinks

def write_geotiff_layout(rasters: ray.data.Dataset, tiles: ray.data.Dataset,
                         dest_dir: str, dataset_name: str,
                         skip_if_exists: bool = True,
                         plugin: DatasetDefinition | None = None) -> int:
    """The reference's on-disk layout: {dest_dir}/{dataset_name}/{id}.tif
    (partitions.py:149-153, gee.py:252-259), with real (minimal) GeoTIFFs.
    ``skip_if_exists`` is the resume contract (gee.py:267-274); a plugin's
    ``must_rewrite`` hook can veto a skip per tile (the reference's
    must_get_gee_image, defs/s1grdobs.py:53-60). Returns the number of
    files written."""
    out_dir = os.path.join(dest_dir, dataset_name)
    os.makedirs(out_dir, exist_ok=True)
    bounds_ref = ray.put(_bounds_map(tiles))

    def write(batch: pa.Table) -> pa.Table:
        bounds = arrowio.worker_cached(bounds_ref)
        n_written = 0
        for i in range(len(batch)):
            ident = batch["identifier"][i].as_py()
            path = os.path.join(out_dir, f"{ident}.tif")
            if batch["nodata"][i].as_py():
                with open(path + ".nodata", "w"):
                    pass
                continue
            if skip_if_exists and os.path.exists(path) and not (
                    plugin is not None
                    and plugin.must_rewrite(ident, path)):
                continue
            arr = _decode_row(batch["shape"][i].as_py(),
                              batch["pixels"][i].as_py(),
                              batch["dtype"][i].as_py())
            tiff.write_tiff(path, arr, bounds=bounds.get(ident),
                            band_names=batch["band_names"][i].as_py())
            n_written += 1
        return pa.table({"written": pa.array([n_written])})

    res = rasters.map_batches(write, batch_format="pyarrow",
                              batch_size=256).to_pandas()
    return int(res.written.sum())


def _bounds_map(tiles: ray.data.Dataset) -> dict:
    out = {}
    for b in tiles.select_columns(["identifier", "minx", "miny", "maxx", "maxy"]) \
            .iter_batches(batch_size=65536, batch_format="pyarrow"):
        for ident, a, bb, c, d in zip(b["identifier"].to_pylist(),
                                      b["minx"].to_numpy(), b["miny"].to_numpy(),
                                      b["maxx"].to_numpy(), b["maxy"].to_numpy()):
            out[ident] = (a, bb, c, d)
    return out


def read_geotiff_layout(dir_path: str) -> ray.data.Dataset:
    """S8: read a {dataset}/{identifier}.tif directory back into a raster
    Dataset (readable also for tifs we didn't write, as long as they're
    baseline little-endian uncompressed)."""
    paths = sorted(p for p in os.listdir(dir_path) if p.endswith(".tif"))

    def load(batch: pa.Table) -> pa.Table:
        out = {c: [] for c in RASTER_SCHEMA_COLS}
        for p in batch["path"].to_pylist():
            ident = os.path.splitext(os.path.basename(p))[0]
            arr, _bounds, names = tiff.read_tiff(os.path.join(dir_path, p))
            out["identifier"].append(ident)
            out["band_names"].append(names or [f"b{i}" for i in range(arr.shape[2])])
            out["shape"].append(list(arr.shape))
            out["pixels"].append(np.ascontiguousarray(arr).tobytes())
            out["dtype"].append(str(arr.dtype))
            out["nodata"].append(False)
        return pa.table({
            "identifier": pa.array(out["identifier"], type=pa.string()),
            "band_names": pa.array(out["band_names"], type=pa.list_(pa.string())),
            "shape": pa.array(out["shape"], type=pa.list_(pa.int32())),
            "pixels": pa.array(out["pixels"], type=pa.binary()),
            "dtype": pa.array(out["dtype"], type=pa.string()),
            "nodata": pa.array(out["nodata"], type=pa.bool_()),
        })

    return ray.data.from_items([{"path": p} for p in paths]) \
        .map_batches(load, batch_format="pyarrow", batch_size=256)


def validate_rasters(rasters: ray.data.Dataset) -> ray.data.Dataset:
    """O13 (cmds.py:705-742): decode-check every raster row; bad rows become
    a dead-letter flag column instead of deleted files."""

    def check(batch: pa.Table) -> pa.Table:
        ok = []
        for i in range(len(batch)):
            try:
                if batch["nodata"][i].as_py():
                    ok.append(True)
                    continue
                _decode_row(batch["shape"][i].as_py(), batch["pixels"][i].as_py(),
                            batch["dtype"][i].as_py())
                ok.append(True)
            except Exception:
                ok.append(False)
        return batch.append_column("readable", pa.array(ok))

    return rasters.map_batches(check, batch_format="pyarrow", batch_size=256)


def cleanup_geotiff_dir(dir_path: str, dry_run: bool = False) -> list[str]:
    """O13 CLI surface (reference ``cleanup``, cmds.py:705-742): probe every
    tif in a directory in parallel, delete the unreadable ones. The probe
    fans out as a map over the path list (the reference uses mParallel);
    only the SMALL error list returns to the driver, which does the
    deletes (filesystem mutation stays single-writer)."""
    paths = sorted(p for p in os.listdir(dir_path) if p.endswith(".tif"))
    if not paths:
        return []

    def probe(batch: pa.Table) -> pa.Table:
        ok = []
        for p in batch["path"].to_pylist():
            try:
                tiff.read_tiff(os.path.join(dir_path, p))
                ok.append(True)
            except Exception:
                ok.append(False)
        return pa.table({"path": batch["path"], "ok": pa.array(ok)})

    res = ray.data.from_items([{"path": p} for p in paths]) \
        .map_batches(probe, batch_format="pyarrow", batch_size=64).to_pandas()
    bad = sorted(res.path[~res.ok].tolist())
    if not dry_run:
        for p in bad:
            fp = os.path.join(dir_path, p)
            if os.path.isfile(fp):
                os.remove(fp)
    return bad


# ------------------------------------------------------------------ mosaic

def _mosaic_frame(tiles: ray.data.Dataset, pixels_per_degree: float | None,
                  first_raster: dict | None = None) -> tuple[dict, dict]:
    """Shared canvas frame for all mosaic paths: global bounds aggregate
    (A5) + pixel grid. Returns (frame, bounds_map). When pixels_per_degree
    is None it is inferred from the first raster's width over its tile's
    lon extent (the reference infers resolution the same way)."""
    from ray.data.aggregate import Max, Min

    agg = tiles.aggregate(Min("minx"), Min("miny"), Max("maxx"), Max("maxy"))
    minx, miny = agg["min(minx)"], agg["min(miny)"]
    maxx, maxy = agg["max(maxx)"], agg["max(maxy)"]
    bmap = _bounds_map(tiles)
    if pixels_per_degree is None:
        if first_raster is None:
            raise ValueError("pixels_per_degree required without rasters")
        tb = bmap[first_raster["identifier"]]
        pixels_per_degree = first_raster["shape"][1] / (tb[2] - tb[0])
    W = int(np.ceil((maxx - minx) * pixels_per_degree))
    H = int(np.ceil((maxy - miny) * pixels_per_degree))
    frame = {"minx": minx, "miny": miny, "maxx": maxx, "maxy": maxy,
             "ppd": float(pixels_per_degree), "W": W, "H": H}
    return frame, bmap


def _placement(tb, frame) -> tuple[int, int, int, int]:
    """Tile bounds → (x0, y0, th, tw) pixel rect on the canvas. EXACT
    arithmetic shared by the driver and block paths (pixel identity)."""
    x0 = int(round((tb[0] - frame["minx"]) * frame["ppd"]))
    y0 = int(round((frame["maxy"] - tb[3]) * frame["ppd"]))
    th = int(round((tb[3] - tb[1]) * frame["ppd"])) or 1
    tw = int(round((tb[2] - tb[0]) * frame["ppd"])) or 1
    return x0, y0, th, tw


def mosaic(rasters: ray.data.Dataset, tiles: ray.data.Dataset,
           pixels_per_degree: float | None = None,
           value_map_plugin: str | DatasetDefinition | None = None,
           channels: list[int] | None = None) -> tuple:
    """S11 (cmds.py:628-702): global bounds aggregate → place every tile
    into one canvas, in identifier-sorted order (T4: the reference places in
    sorted(os.listdir) order = identifier order; later nonzero overwrites).

    Driver-side composition — the SMALL-CANVAS special case (returns the
    whole canvas, so it must fit driver RAM). The per-tile reads stream;
    only the canvas is driver-resident. For canvases beyond driver RAM use
    :func:`mosaic_blocks` + :func:`write_blockgrid`, which never hold more
    than one block anywhere (pixel-identical; pytest-asserted)."""
    first = rasters.take(1)[0]
    frame, bmap = _mosaic_frame(tiles, pixels_per_degree, first)
    plugin = (load_plugin(value_map_plugin) if isinstance(value_map_plugin, str)
              else value_map_plugin)

    canvas = None
    H, W = frame["H"], frame["W"]
    for b in rasters.sort("identifier").iter_batches(batch_size=64,
                                                     batch_format="pyarrow"):
        for i in range(len(b)):
            if b["nodata"][i].as_py():
                continue
            ident = b["identifier"][i].as_py()
            arr = _decode_row(b["shape"][i].as_py(), b["pixels"][i].as_py(),
                              b["dtype"][i].as_py())
            if plugin is not None:
                arr = plugin.map_values(arr)
            if channels is not None:
                arr = arr[:, :, channels]
            if canvas is None:
                canvas = np.zeros((H, W, arr.shape[2]), dtype=arr.dtype)
            tb = bmap.get(ident)
            if tb is None:
                continue
            x0, y0, th, tw = _placement(tb, frame)
            resized = _nearest_resize(arr, th, tw)
            y1, x1 = min(y0 + th, H), min(x0 + tw, W)
            y0c, x0c = max(y0, 0), max(x0, 0)
            sub = resized[y0c - y0:y1 - y0, x0c - x0:x1 - x0]
            region = canvas[y0c:y1, x0c:x1]
            nz = sub != 0  # later nonzero pixels overwrite (cmds.py:682-686)
            region[nz] = sub[nz]
    return canvas, (frame["minx"], frame["miny"], frame["maxx"], frame["maxy"])


BLOCK_SCHEMA = {"by": pa.int32(), "bx": pa.int32(), "y0": pa.int32(),
                "x0": pa.int32(), "h": pa.int32(), "w": pa.int32(),
                "c": pa.int32(), "dtype": pa.string()}


def mosaic_blocks(rasters: ray.data.Dataset, tiles: ray.data.Dataset,
                  pixels_per_degree: float | None = None,
                  value_map_plugin: str | DatasetDefinition | None = None,
                  channels: list[int] | None = None,
                  block_px: int = 1024) -> tuple[ray.data.Dataset, dict]:
    """S11 at scale: the canvas is a grid of ``block_px``² blocks; each
    raster tile emits its per-block sub-patches (map), each block composes
    its patches in identifier order (one compose per block id, placed by
    ``dedup.per_value_apply``). Because the overwrite rule is per-PIXEL,
    per-block identifier order reproduces the global identifier order
    exactly — the result is pixel-identical to :func:`mosaic`
    (pytest-asserted) but no task holds much more than one input block of
    patches: a continent at 1 m/px streams through as ~block-count rows.

    Returns (blocks Dataset [by, bx, h, w, c, dtype, pixels], frame).
    Consume with :func:`write_blockgrid` (resumable one-tif-per-block sink)
    or :func:`assemble_blocks` (small canvases / tests).

    Shuffle cost: ONE split of patch rows whose total bytes ≈ canvas
    nonzero bytes; the key is the block id, dense and skew-free for grid
    tilesets. Nothing is driver-resident but the bounds broadcast (16 B ×
    tiles, ray.put once)."""
    first = rasters.take(1)[0]
    frame, bmap = _mosaic_frame(tiles, pixels_per_degree, first)
    plugin = (load_plugin(value_map_plugin) if isinstance(value_map_plugin, str)
              else value_map_plugin)
    bounds_ref = ray.put(bmap)
    H, W, B = frame["H"], frame["W"], int(block_px)
    nbx = max(1, -(-W // B))

    def emit(batch: pa.Table) -> pa.Table:
        bounds = arrowio.worker_cached(bounds_ref)
        out = {k: [] for k in ("block", "identifier", *BLOCK_SCHEMA, "pixels")}
        for i in range(len(batch)):
            if batch["nodata"][i].as_py():
                continue
            ident = batch["identifier"][i].as_py()
            tb = bounds.get(ident)
            if tb is None:
                continue
            arr = _decode_row(batch["shape"][i].as_py(),
                              batch["pixels"][i].as_py(),
                              batch["dtype"][i].as_py())
            if plugin is not None:
                arr = plugin.map_values(arr)
            if channels is not None:
                arr = arr[:, :, channels]
            x0, y0, th, tw = _placement(tb, frame)
            y1, x1 = min(y0 + th, H), min(x0 + tw, W)
            y0c, x0c = max(y0, 0), max(x0, 0)
            if y1 <= y0c or x1 <= x0c:
                continue
            resized = _nearest_resize(arr, th, tw)
            for by in range(y0c // B, (y1 - 1) // B + 1):
                for bx in range(x0c // B, (x1 - 1) // B + 1):
                    gy0, gy1 = max(y0c, by * B), min(y1, (by + 1) * B)
                    gx0, gx1 = max(x0c, bx * B), min(x1, (bx + 1) * B)
                    sub = resized[gy0 - y0:gy1 - y0, gx0 - x0:gx1 - x0]
                    out["block"].append(by * nbx + bx)
                    out["identifier"].append(ident)
                    out["by"].append(by)
                    out["bx"].append(bx)
                    out["y0"].append(gy0 - by * B)
                    out["x0"].append(gx0 - bx * B)
                    out["h"].append(gy1 - gy0)
                    out["w"].append(gx1 - gx0)
                    out["c"].append(sub.shape[2])
                    out["dtype"].append(str(sub.dtype))
                    out["pixels"].append(np.ascontiguousarray(sub).tobytes())
        cols = {"block": pa.array(out["block"], type=pa.int64()),
                "identifier": pa.array(out["identifier"], type=pa.string())}
        cols.update({k: pa.array(out[k], type=t) for k, t in BLOCK_SCHEMA.items()})
        cols["pixels"] = pa.array(out["pixels"], type=pa.binary())
        return pa.table(cols)

    patches = rasters.map_batches(emit, batch_format="pyarrow", batch_size=64)
    return _per_block(patches, _compose_block, frame, B), frame


def _per_block(patches: ray.data.Dataset, compose, frame: dict,
               block_px: int) -> ray.data.Dataset:
    """``compose`` once per canvas block that has patch rows
    (``dedup.per_value_apply`` on the block id)."""
    from ..pipelines.dedup import per_value_apply

    n = max(1, -(-frame["H"] // block_px)) \
        * max(1, -(-frame["W"] // block_px))
    refs = per_value_apply(patches, "block", n, compose)
    return ray.data.from_arrow_refs(refs) if refs else \
        ray.data.from_items([])


def _compose_block(group: pa.Table) -> pa.Table:
    """One canvas block: place its patches in identifier order, later
    nonzero pixels overwriting — per-pixel semantics identical to the
    global driver loop restricted to this block."""
    order = np.argsort(np.asarray(group["identifier"]), kind="stable")
    y0s, x0s, hs, ws, cs = (np.asarray(group[k])
                            for k in ("y0", "x0", "h", "w", "c"))
    dts = group["dtype"].to_pylist()
    canvas = np.zeros((int((y0s + hs).max()), int((x0s + ws).max()),
                       int(cs[0])), dtype=dts[0])
    for i in order:
        sub = np.frombuffer(group["pixels"][i].as_py(), dtype=dts[i]) \
            .reshape((hs[i], ws[i], cs[i]))
        region = canvas[y0s[i]:y0s[i] + hs[i], x0s[i]:x0s[i] + ws[i]]
        nz = sub != 0
        region[nz] = sub[nz]
    return _block_row(group, canvas, dts[0])


def _block_row(group: pa.Table, canvas: np.ndarray, dtype: str) -> pa.Table:
    """The one output row of a composed canvas block."""
    return pa.table({
        "by": group["by"].slice(0, 1).cast(pa.int32()),
        "bx": group["bx"].slice(0, 1).cast(pa.int32()),
        **{k: pa.array([n], type=pa.int32())
           for k, n in zip(("h", "w", "c"), canvas.shape)},
        "dtype": pa.array([dtype], type=pa.string()),
        "pixels": pa.array([canvas.tobytes()], type=pa.binary()),
    })


def mosaic_fromvals(tiles: ray.data.Dataset, pixels_per_degree: float,
                    value_col: str = "value", dtype: str = "float32",
                    block_px: int = 1024) -> tuple[ray.data.Dataset, dict]:
    """mosaic.fromvals (cmds.py:784-865 ``make_mosaic_for_tilevalues``):
    render a per-tile scalar VALUE column as a solid-fill mosaic — each
    tile's rect is filled with its value, zero values contribute nothing
    (the reference's ``patch!=0`` overwrite with nodata=0). Placement uses
    the same degree-grid frame as :func:`mosaic` (our frame is unrotated
    lon/lat; the reference's UTM rotation is a CRS presentation choice).

    Distributed like :func:`mosaic_blocks`, but patches are (rect, value)
    rows — 4 ints + 1 scalar per block-intersection, NOT pixels — so the
    split moves O(tiles × blocks-touched) tiny rows; pixels only
    materialize inside each block's compose."""
    frame, bmap = _mosaic_frame(tiles, pixels_per_degree)
    H, W, B = frame["H"], frame["W"], int(block_px)
    nbx = max(1, -(-W // B))

    def emit(batch: pa.Table) -> pa.Table:
        out = {k: [] for k in ("block", "identifier", "by", "bx",
                               "y0", "x0", "h", "w", "value")}
        ids = batch["identifier"].to_pylist()
        vals = np.asarray(batch[value_col], dtype=np.float64)
        bminx = np.asarray(batch["minx"], dtype=np.float64)
        bminy = np.asarray(batch["miny"], dtype=np.float64)
        bmaxx = np.asarray(batch["maxx"], dtype=np.float64)
        bmaxy = np.asarray(batch["maxy"], dtype=np.float64)
        for i, ident in enumerate(ids):
            if vals[i] == 0:  # zero fill never overwrites (patch!=0)
                continue
            tb = (bminx[i], bminy[i], bmaxx[i], bmaxy[i])
            x0, y0, th, tw = _placement(tb, frame)
            y1, x1 = min(y0 + th, H), min(x0 + tw, W)
            y0c, x0c = max(y0, 0), max(x0, 0)
            if y1 <= y0c or x1 <= x0c:
                continue
            for by in range(y0c // B, (y1 - 1) // B + 1):
                for bx in range(x0c // B, (x1 - 1) // B + 1):
                    gy0, gy1 = max(y0c, by * B), min(y1, (by + 1) * B)
                    gx0, gx1 = max(x0c, bx * B), min(x1, (bx + 1) * B)
                    out["block"].append(by * nbx + bx)
                    out["identifier"].append(ident)
                    out["by"].append(by)
                    out["bx"].append(bx)
                    out["y0"].append(gy0 - by * B)
                    out["x0"].append(gx0 - bx * B)
                    out["h"].append(gy1 - gy0)
                    out["w"].append(gx1 - gx0)
                    out["value"].append(vals[i])
        return pa.table({
            "block": pa.array(out["block"], type=pa.int64()),
            "identifier": pa.array(out["identifier"], type=pa.string()),
            "by": pa.array(out["by"], type=pa.int32()),
            "bx": pa.array(out["bx"], type=pa.int32()),
            "y0": pa.array(out["y0"], type=pa.int32()),
            "x0": pa.array(out["x0"], type=pa.int32()),
            "h": pa.array(out["h"], type=pa.int32()),
            "w": pa.array(out["w"], type=pa.int32()),
            "value": pa.array(out["value"], type=pa.float64()),
        })

    def compose(group: pa.Table) -> pa.Table:
        order = np.argsort(np.asarray(group["identifier"]), kind="stable")
        y0s, x0s, hs, ws, vs = (np.asarray(group[k]) for k in
                                ("y0", "x0", "h", "w", "value"))
        canvas = np.zeros((int((y0s + hs).max()), int((x0s + ws).max()), 1),
                          dtype=dtype)
        for i in order:
            canvas[y0s[i]:y0s[i] + hs[i], x0s[i]:x0s[i] + ws[i], 0] = vs[i]
        return _block_row(group, canvas, dtype)

    cols = ["identifier", "minx", "miny", "maxx", "maxy", value_col]
    patches = tiles.select_columns(cols).map_batches(
        emit, batch_format="pyarrow", batch_size=4096)
    return _per_block(patches, compose, frame, B), frame


def assemble_blocks(blocks: ray.data.Dataset, frame: dict,
                    block_px: int = 1024) -> tuple:
    """Stitch a block Dataset into one driver-resident canvas — for SMALL
    canvases and the pixel-identity tests only; at scale use
    :func:`write_blockgrid` instead."""
    H, W, B = frame["H"], frame["W"], int(block_px)
    canvas = None
    for b in blocks.iter_batches(batch_size=16, batch_format="pyarrow"):
        for i in range(len(b)):
            by, bx = b["by"][i].as_py(), b["bx"][i].as_py()
            h, w, c = (b["h"][i].as_py(), b["w"][i].as_py(), b["c"][i].as_py())
            blk = np.frombuffer(b["pixels"][i].as_py(),
                                dtype=b["dtype"][i].as_py()).reshape((h, w, c))
            if canvas is None:
                canvas = np.zeros((H, W, c), dtype=blk.dtype)
            canvas[by * B:by * B + h, bx * B:bx * B + w] = blk
    if canvas is None:
        canvas = np.zeros((H, W, 1), dtype="uint8")
    return canvas, (frame["minx"], frame["miny"], frame["maxx"], frame["maxy"])


def write_blockgrid(blocks: ray.data.Dataset, frame: dict, dest_dir: str,
                    block_px: int = 1024, skip_if_exists: bool = True) -> int:
    """Block-grid sink: one ``{by}_{bx}.tif`` per canvas block with its own
    bounds — a resumable partitioned output (re-runs skip finished blocks,
    the S3/gee.py:267-274 resume contract at block granularity). Blocks a
    canvas of any size without ever materializing it."""
    os.makedirs(dest_dir, exist_ok=True)
    B = int(block_px)
    minx, maxy, ppd = frame["minx"], frame["maxy"], frame["ppd"]

    def write(batch: pa.Table) -> pa.Table:
        written = []
        for i in range(len(batch)):
            by, bx = batch["by"][i].as_py(), batch["bx"][i].as_py()
            path = os.path.join(dest_dir, f"{by:05d}_{bx:05d}.tif")
            if skip_if_exists and os.path.exists(path):
                written.append(False)
                continue
            h, w, c = (batch["h"][i].as_py(), batch["w"][i].as_py(),
                       batch["c"][i].as_py())
            blk = np.frombuffer(batch["pixels"][i].as_py(),
                                dtype=batch["dtype"][i].as_py()).reshape(
                (h, w, c))
            bminx = minx + (bx * B) / ppd
            bmaxy = maxy - (by * B) / ppd
            tiff.write_tiff(path, blk, bounds=(bminx, bmaxy - h / ppd,
                                               bminx + w / ppd, bmaxy))
            written.append(True)
        return pa.table({"written": pa.array(written, type=pa.bool_())})

    res = blocks.map_batches(write, batch_format="pyarrow",
                             batch_size=16).to_pandas()
    return int(res.written.sum())


def _nearest_resize(arr: np.ndarray, h: int, w: int) -> np.ndarray:
    ys = (np.arange(h) * arr.shape[0] / h).astype(int)
    xs = (np.arange(w) * arr.shape[1] / w).astype(int)
    return arr[ys][:, xs]


# ------------------------------------------------------- chip export (S10)

def pack_chips(rasters: ray.data.Dataset, tiles: ray.data.Dataset,
               labels: ray.data.Dataset | None = None,
               label_col: str | None = None,
               plugin: str | DatasetDefinition | None = None
               ) -> ray.data.Dataset:
    """S10 (cmds.py:402-575): per-tile pickle payload
    {chip, chip_id, center_latlon, corners, label_proportions}, filtered by
    the plugin's include_chip hook. labels: optional Dataset with
    (identifier, label_col map column)."""
    p = load_plugin(plugin) if isinstance(plugin, str) else plugin
    labels_map = {}
    if labels is not None and label_col:
        for b in labels.select_columns(["identifier", label_col]).iter_batches(
                batch_size=65536, batch_format="pyarrow"):
            for ident, lp in zip(b["identifier"].to_pylist(),
                                 b[label_col].to_pylist()):
                labels_map[ident] = dict(lp) if lp else {}
    maps_ref = ray.put((_bounds_map(tiles), labels_map))

    def pack(batch: pa.Table) -> pa.Table:
        bounds, label_props = arrowio.worker_cached(maps_ref)
        ids_out, blobs = [], []
        for i in range(len(batch)):
            if batch["nodata"][i].as_py():
                continue
            ident = batch["identifier"][i].as_py()
            arr = _decode_row(batch["shape"][i].as_py(),
                              batch["pixels"][i].as_py(),
                              batch["dtype"][i].as_py())
            tb = bounds.get(ident, (0, 0, 0, 0))
            chip = {
                "chip": arr,
                "chip_id": ident,
                "center_latlon": ((tb[1] + tb[3]) / 2, (tb[0] + tb[2]) / 2),
                "corners": {"nw": (tb[3], tb[0]), "se": (tb[1], tb[2])},
                "label_proportions": label_props.get(ident),
            }
            if p is not None and not p.include_chip_in_dataset(chip):
                continue
            ids_out.append(ident)
            blobs.append(pickle.dumps(chip, protocol=4))
        return pa.table({"identifier": pa.array(ids_out, type=pa.string()),
                         "payload": pa.array(blobs, type=pa.binary())})

    return rasters.map_batches(pack, batch_format="pyarrow", batch_size=256)


def zip_chips(chips: ray.data.Dataset, zip_path: str) -> int:
    """Driver-side finalize of S10: one {identifier}.pkl per chip in a zip
    (cmds.py:556-568). Streams batches; returns chip count."""
    n = 0
    with zipfile.ZipFile(zip_path, "w", zipfile.ZIP_STORED) as z:
        for b in chips.iter_batches(batch_size=256, batch_format="pyarrow"):
            for ident, blob in zip(b["identifier"].to_pylist(),
                                   b["payload"].to_pylist()):
                z.writestr(f"{ident}.pkl", blob)
                n += 1
    return n
