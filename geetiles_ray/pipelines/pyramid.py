"""Multi-resolution tile-pyramid rollup (H3/S2-style cell hierarchy).

The reference materializes ONE zoom level per tileset; map servers and
multi-scale training samplers need the whole pyramid — per-cell counts at
every zoom from the base grid up to the root. The scale-defining property
here: the corpus is scanned ONCE (a map-side partial count per base
cell + one ``dedup.fold_partials`` fold); every coarser level is derived
from the previous level's aggregate by integer parent arithmetic (tx//2,
ty//2), never by re-scanning points. Level z has ≤ 4^z cells, so the cascade
cost is geometric in the base aggregate, independent of corpus size.

Cell scheme: zoom z is a 2^z × 2^z grid; ``cell_key = ty*2^z + tx``
(row-major, the grid.py tile-key convention). A child at zoom z has
parent (tx//2, ty//2) at z-1 — the quadtree relation S2/slippy-map tiles
use.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .dedup import fold_partials


def cell_counts(points: ray.data.Dataset, tx_col: str, ty_col: str,
                base_zoom: int) -> ray.data.Dataset:
    """Corpus scan → base-level (tx, ty, n) aggregate. Map-side partial
    counting: each batch ships ≤ |distinct cells in batch| rows into the
    one fold (``dedup.fold_partials``), not |points| rows."""
    nx = 1 << base_zoom

    def local(batch: pa.Table) -> pa.Table:
        tx = batch[tx_col].to_numpy().astype(np.int64)
        ty = batch[ty_col].to_numpy().astype(np.int64)
        key = ty * nx + tx
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table({"tx": pa.array(uniq % nx),
                         "ty": pa.array(uniq // nx),
                         "__n": pa.array(cnt.astype(np.int64))})

    partial = points.select_columns([tx_col, ty_col]) \
        .map_batches(local, batch_format="pyarrow")
    return fold_partials(partial, ["tx", "ty"], [("__n", "sum")],
                         out_names=["tx", "ty", "n"])


def _roll_driver(base: pd.DataFrame, base_zoom: int,
                 min_zoom: int) -> pd.DataFrame:
    tx = base["tx"].to_numpy(dtype=np.int64)
    ty = base["ty"].to_numpy(dtype=np.int64)
    n = base["n"].to_numpy(dtype=np.int64)
    frames = []
    for z in range(base_zoom, min_zoom - 1, -1):
        key = ty * (1 << z) + tx
        order = np.argsort(key, kind="stable")
        k, nn = key[order], n[order]
        new = np.empty(len(k), dtype=bool)
        if len(k):
            new[0] = True
            new[1:] = k[1:] != k[:-1]
        starts = np.nonzero(new)[0]
        cells = k[starts]
        tot = np.add.reduceat(nn, starts) if len(k) \
            else np.empty(0, np.int64)
        frames.append(pd.DataFrame({
            "zoom": np.full(len(cells), z, dtype=np.int64),
            "cell_key": cells, "n_pages": tot.astype(np.int64)}))
        # next level operates on THIS level's aggregate, not the base
        tx, ty = (cells % (1 << z)) // 2, (cells // (1 << z)) // 2
        n = tot
    return pd.concat(frames, ignore_index=True)


def rollup_pyramid(base_cells: ray.data.Dataset, base_zoom: int,
                   min_zoom: int = 0,
                   cascade: str = "driver") -> pd.DataFrame:
    """Base aggregate (from ``cell_counts``: tx, ty, n) → pyramid
    DataFrame (zoom, cell_key, n_pages), ordered by (zoom, cell_key).

    ``cascade="driver"`` (default) collects the base aggregate (≤ 4^z
    rows — at base_zoom 14 that is ≤ 268M rows ≈ 6 GB: past ~zoom 12
    use ``cascade="dataset"``, which derives each level with a
    map_batches parent-shift + fold over the previous level, keeping
    every step distributed; each fold's output is materialized, so no
    coarser zoom re-executes the corpus scan)."""
    if cascade == "dataset":
        lvl = base_cells
        frames = []
        for z in range(base_zoom, min_zoom - 1, -1):
            frames.append(lvl.map_batches(
                lambda b, z=z: pa.table({
                    "zoom": pa.array(np.full(len(b), z, dtype=np.int64)),
                    "cell_key": pa.array(
                        b["ty"].to_numpy().astype(np.int64) * (1 << z)
                        + b["tx"].to_numpy().astype(np.int64)),
                    "n_pages": b["n"]}),
                batch_format="pyarrow").to_pandas())
            if z > min_zoom:
                lvl = fold_partials(lvl.map_batches(
                    lambda b: pa.table({
                        "tx": pa.array(b["tx"].to_numpy().astype(np.int64)
                                       // 2),
                        "ty": pa.array(b["ty"].to_numpy().astype(np.int64)
                                       // 2),
                        "n": b["n"]}),
                    batch_format="pyarrow"), ["tx", "ty"], [("n", "sum")])
        out = pd.concat(frames, ignore_index=True)
    else:
        out = _roll_driver(base_cells.to_pandas(), base_zoom, min_zoom)
    return out.sort_values(["zoom", "cell_key"]).reset_index(drop=True) \
        .astype({"zoom": "int64", "cell_key": "int64", "n_pages": "int64"})


def pyramid_counts(points: ray.data.Dataset, tx_col: str, ty_col: str,
                   base_zoom: int, min_zoom: int = 0,
                   cascade: str = "driver") -> pd.DataFrame:
    """points → full pyramid (one corpus scan + geometric cascade)."""
    return rollup_pyramid(cell_counts(points, tx_col, ty_col, base_zoom),
                          base_zoom, min_zoom, cascade)
