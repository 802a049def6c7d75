"""Tileset table: the Arrow-native analogue of the reference PartitionSet
(/root/reference/geetiles/partitions.py:21-49) — one row per tile.

Schema (FIXTURES.md F3):
    identifier : string   — 13-hex content hash of the geometry envelope
                            (bit-for-bit utils.py:232-240 parity)
    wkb        : binary   — polygon exterior ring as WKB, EPSG:4326
    minx/miny/maxx/maxy : double — denormalized bounds (fast PIP / bbox join)
    clon, clat : double   — bbox midpoint (assignment center; split banding
                            computes its own envelope-boundary mean,
                            partitions.py:323, in pipelines/split.py)
    area_km2   : double   — UTM-projected polygon area / 1e6
                            (partitions.py:38-46)
    cell_id    : uint64   — spatial index cell (functions/cells.py), the
                            shuffle / co-location key
    grid_idx   : int64    — generation-order index (the reference's file
                            row order; regionlist hash A4 folds in this order)

Persistence: a directory of Parquet part files named
``{aoi}_partitions_{name}_{hash}`` — same naming contract as the reference
GeoJSON file (partitions.py:199-218) with Parquet instead of GeoJSON; a
GeoJSON export sink is provided for compatibility (S3/S12 in SURVEY.md §2.1).
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import ray.data

from ..functions import cells as cellsmod
from ..functions import crs as crsmod
from ..functions import geom, hashing

TILESET_COLUMNS = [
    "identifier", "wkb", "minx", "miny", "maxx", "maxy",
    "clon", "clat", "area_km2", "cell_id", "grid_idx",
]


def tile_batch_from_rings(
    rings: np.ndarray | list[np.ndarray], grid_idx: np.ndarray, zone: int,
    north: bool, cell_res: int,
) -> pa.Table:
    """Tileset rows from polygon rings, array-at-a-time: ``rings`` is an
    (n, m, 2) stack of closed rings, or a list of (m_i, 2) rings (one not
    closed is closed first, as ``geom.ring_to_wkb`` does).

    area_km2 reproduces partitions.py:38-46: reproject the (4326) polygon to
    the tileset's UTM CRS and take its planar area / 1e6. All rings go
    through one projection call; the areas run per ring length.
    """
    if isinstance(rings, np.ndarray):
        lens = np.full(len(rings), rings.shape[1], dtype=np.int64)
        xy = rings.reshape(-1, 2)
    else:
        rings = [r if (r[0] == r[-1]).all() else np.vstack([r, r[:1]])
                 for r in map(np.asarray, rings)]
        lens = np.array([len(r) for r in rings], dtype=np.int64)
        xy = np.concatenate(rings) if rings else np.empty((0, 2))
    xy = np.asarray(xy, dtype=np.float64)
    starts = np.cumsum(lens) - lens
    (minx, miny), (maxx, maxy) = (f.reduceat(xy, starts).T
                                  for f in (np.minimum, np.maximum))
    utm = np.column_stack(crsmod.lonlat_to_utm(xy[:, 0], xy[:, 1], zone, north))
    area = np.empty(len(lens))
    for m in np.unique(lens).tolist():
        sel = np.nonzero(lens == m)[0]
        area[sel] = geom.shoelace_areas(utm[starts[sel, None] + np.arange(m)]) / 1e6
    ids = hashing.region_hashes_from_bounds_arrays(minx, miny, maxx, maxy)
    clon = (minx + maxx) / 2.0
    clat = (miny + maxy) / 2.0
    cell = cellsmod.cell_of(clon, clat, cell_res)
    return pa.table({
        "identifier": pa.array(list(ids), type=pa.string()),
        "wkb": geom.rings_to_wkb(xy, lens),
        "minx": minx, "miny": miny, "maxx": maxx, "maxy": maxy,
        "clon": clon, "clat": clat,
        "area_km2": area,
        "cell_id": pa.array(cell, type=pa.uint64()),
        "grid_idx": pa.array(np.asarray(grid_idx, dtype=np.int64)),
    })


def tileset_hash(ds: ray.data.Dataset) -> str:
    """Order-dependent tileset hash (A4, utils.py:242-250): fold identifiers
    in ``grid_idx`` order. Streams sorted identifier batches to the driver —
    only the identifier column moves (13 bytes/tile)."""
    ids: list[str] = []
    for b in ds.select_columns(["identifier", "grid_idx"]).sort("grid_idx").iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        ids.extend(b["identifier"].to_pylist())
    return hashing.regionlist_hash(ids)


def save_tileset(
    ds: ray.data.Dataset, dest_dir: str, aoi_name: str, partitions_name: str
) -> str:
    """Write the tileset as hash-named Parquet dir (S3 analogue,
    partitions.py:199-218). Refuses '_' / 'partitions' in names exactly as
    the reference does (partitions.py:210-211 and the name assert at
    partitions.py:31)."""
    if "_" in aoi_name:
        raise ValueError("'aoi_name' cannot contain '_'")
    if "_" in partitions_name or "partitions" in partitions_name:
        raise ValueError("cannot have '_' or 'partitions' in partitions_name")
    ds = ds.materialize()  # consumed twice (hash fold + write); tilesets are the small side
    h = tileset_hash(ds)
    out = os.path.join(dest_dir, f"{aoi_name}_partitions_{partitions_name}_{h}")
    os.makedirs(out, exist_ok=True)
    ds.write_parquet(out)
    return out


def load_tileset(path: str) -> ray.data.Dataset:
    # top-level files only: downstream steps nest their outputs INSIDE the
    # tileset directory (the reference's {tileset}/{dataset}/{id}.tif
    # layout, plus {dataset}_proportions parquet), so a recursive read
    # would union foreign schemas into the tileset
    if os.path.isdir(path):
        shards = sorted(
            os.path.join(path, f) for f in os.listdir(path)
            if f.endswith(".parquet"))
        if not shards:
            raise ValueError(
                f"{path}: tileset directory has no top-level .parquet "
                "shards (a recursive read would union nested outputs' "
                "schemas into the tileset)")
        return ray.data.read_parquet(shards)
    return ray.data.read_parquet(path, file_extensions=["parquet"])


def tileset_name_parts(path: str) -> tuple[str | None, str | None]:
    """Parse ``{aoi}_partitions_{name}_{hash}`` (partitions.py:420-425 regex)."""
    base = os.path.basename(path.rstrip("/"))
    m = re.search("_partitions_(.+?)_", base)
    return (base.split("_")[0] if "_" in base else None, m.group(1) if m else None)


def export_geojson(ds: ray.data.Dataset, path: str, properties: list[str] | None = None) -> str:
    """Compatibility sink: tileset → GeoJSON FeatureCollection (the
    reference's native format, partitions.py:213). Streams feature batches;
    intended for small/medium tilesets (GeoJSON is not a scale format)."""
    props = properties or ["identifier", "area_km2"]
    with open(path, "w") as f:
        f.write('{"type": "FeatureCollection", "features": [\n')
        first = True
        for b in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
            wkb_col = b["wkb"].to_pylist()
            prop_cols = {p: b[p].to_pylist() for p in props if p in b.column_names}
            for i, w in enumerate(wkb_col):
                ring = geom.wkb_to_ring(w)
                feat = {
                    "type": "Feature",
                    "properties": {p: v[i] for p, v in prop_cols.items()},
                    "geometry": {"type": "Polygon",
                                 "coordinates": [ring.tolist()]},
                }
                f.write(("" if first else ",\n") + json.dumps(feat))
                first = False
        f.write("\n]}\n")
    return path


def filter_groups(ds: ray.data.Dataset, groups: str) -> ray.data.Dataset:
    """O8 (partitions.py:405-413): keep tiles whose comma-separated ``group``
    column intersects the requested comma-separated ``groups`` string."""
    wanted = set(groups.split(","))

    def keep(batch: pa.Table) -> pa.Table:
        if "group" not in batch.column_names:
            raise ValueError(
                f"you specified groups {groups}, but there is no 'group' "
                f"column in the tileset")
        mask = [len(set((g or "").split(",")) & wanted) > 0
                for g in batch["group"].to_pylist()]
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def expand_map_columns(ds: ray.data.Dataset,
                       cols: list[str] | None = None) -> ray.data.Dataset:
    """O14 (utils.py:186-196, partitions.py:234-249): expand map<string,double>
    proportion columns into wide ``{col}__{key}`` float columns, fillna(0).
    The keyset is discovered with one cheap pre-pass over just the map
    columns (schema must be fixed for Arrow blocks)."""
    schema = ds.schema()
    if cols is None:
        cols = [n for n, t in zip(schema.names, schema.types)
                if "_proportions" in n and pa.types.is_map(t)]
    if not cols:
        return ds
    keys: dict[str, list[str]] = {c: set() for c in cols}
    for b in ds.select_columns(cols).iter_batches(batch_size=65536,
                                                  batch_format="pyarrow"):
        for c in cols:
            for m in b[c].to_pylist():
                if m:
                    keys[c].update(k for k, _ in m)
    keys = {c: sorted(v) for c, v in keys.items()}

    def expand(batch: pa.Table) -> pa.Table:
        out = {n: batch[n] for n in batch.column_names}
        for c in cols:
            maps = [dict(m) if m else {} for m in batch[c].to_pylist()]
            for k in keys[c]:
                out[f"{c}__{k}"] = pa.array(
                    [m.get(k, 0.0) for m in maps], type=pa.float64())
        return pa.table(out)

    return ds.map_batches(expand, batch_format="pyarrow")


def write_provenance(out_dir: str, plugin) -> str:
    """S13 (cmds.py:190-193): copy the dataset-definition source next to the
    outputs so a run is self-describing."""
    import inspect

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, ".dataset_def.py")
    try:
        src = inspect.getsource(type(plugin))
    except (TypeError, OSError):
        src = f"# dataset definition: {type(plugin).__name__} (source unavailable)\n"
    with open(path, "w") as f:
        f.write(src)
    return path


def import_geojson(path: str,
                   keep_properties: list[str] | None = None) -> ray.data.Dataset:
    """Compatibility source (S2): GeoJSON FeatureCollection → tileset rows.
    Re-derives identifier/area/cell columns from the geometry so round-trips
    are self-consistent. ``keep_properties`` carries named feature
    properties through as extra columns (repeated per exploded multipart
    row) — e.g. the ``value`` column mosaic.fromvals needs
    (reference cmds.py:784: geojson with identifier/value/geometry)."""
    with open(path) as f:
        fc = json.load(f)
    rings = []
    props: dict[str, list] = {k: [] for k in (keep_properties or [])}
    for feat in fc["features"]:
        coords = feat["geometry"]["coordinates"]
        if feat["geometry"]["type"] == "MultiPolygon":
            # flatten multipart into one row per part (reference
            # utils.py:20-42 flatten_geom explodes, never drops parts)
            parts = [np.asarray(part[0], dtype=np.float64) for part in coords]
        else:
            parts = [np.asarray(coords[0], dtype=np.float64)]
        rings.extend(parts)
        for k in props:
            props[k].extend([feat.get("properties", {}).get(k)] * len(parts))
    all_pts = np.vstack(rings)
    clon, clat = all_pts[:, 0].mean(), all_pts[:, 1].mean()
    zone, north = crsmod.utm_zone(clon, clat)
    res = cellsmod.pick_resolution(max(r[:, 0].max() - r[:, 0].min() for r in rings))
    tbl = tile_batch_from_rings(rings, np.arange(len(rings)), zone, north, res)
    for k, vals in props.items():
        tbl = tbl.append_column(k, pa.array(vals))
    return ray.data.from_arrow(tbl)


def tileset_region(ds: ray.data.Dataset, alpha: float = 1.0,
                   chunk: int = 1000) -> "list":
    """Concave boundary of a tileset (reference PartitionSet.get_region,
    partitions.py:63 → utils.get_boundary, which splits into 1000-geometry
    chunks, hulls each, then hulls the hulls). The chunk pass runs
    DISTRIBUTED — each map_batches task alpha-shapes its own tile batch
    (bounded Delaunay size) and emits only its hull rings' POINTS; the
    driver triangulates just those (|chunks| × boundary points), never the
    corpus. Returns closed rings, largest first."""
    from ..functions import geom as geommod
    from ..functions import hull as hullmod

    def chunk_hull(batch: pa.Table) -> pa.Table:
        rings = [geommod.wkb_to_ring(w) for w in batch["wkb"].to_pylist()]
        hulls = hullmod.concave_hull(rings, alpha)
        pts = np.vstack(hulls) if hulls else np.empty((0, 2))
        return pa.table({"x": pa.array(pts[:, 0], type=pa.float64()),
                         "y": pa.array(pts[:, 1], type=pa.float64())})

    xs, ys = [], []
    for b in ds.select_columns(["wkb"]) \
            .map_batches(chunk_hull, batch_format="pyarrow",
                         batch_size=chunk) \
            .iter_batches(batch_size=1 << 16, batch_format="pyarrow"):
        xs.append(b["x"].to_numpy())
        ys.append(b["y"].to_numpy())
    if not xs:
        return []
    pts = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
    return hullmod.alpha_shape(pts, alpha)
