"""Geographic train/test/val splits — the reference band algorithm
(partitions.py:307-384) re-expressed for Ray Data tilesets.

Semantics reproduced exactly:
- per-tile coordinate = mean of the ENVELOPE BOUNDARY coords (the closing
  point is double-counted — partitions.py:323; geom.envelope_centroid);
- coords normalized to [0,1] by global min/max (zero ranges → 1);
- angle → (plon, plat) projection weights (partitions.py:341-345);
- scan k ∈ linspace(0.1, 50, 10000) until the banding
  ``int((plon*nx + plat*ny)/(k/nbands))`` yields exactly nbands distinct
  bands (partitions.py:352-358);
- band→split assignment cycles ['train']*a + ['test']*b + ['val']*c over
  sorted band ids (partitions.py:361-366).

Execution: the global min/max come from a Dataset aggregate; the k-scan
needs the projected coordinate VECTOR — it streams to the driver as one
float64 per tile (the tileset is the small side; 8 MB per million tiles).
The final grid_idx→split table is attached by ``joins.broadcast_lookup``.
The scan itself usually terminates after a few hundred k values.

``split_per_partitions`` (A3, partitions.py:371-384): majority split per
foreign group via partial counts + a left ``broadcast_lookup`` of the
winners.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..stages import joins
from . import dedup as dedupmod


def _projection_inputs(tiles: ray.data.Dataset):
    """Per-tile envelope-boundary-mean coords, in grid_idx order."""
    exs, eys, idxs = [], [], []
    for b in tiles.select_columns(["minx", "miny", "maxx", "maxy", "grid_idx"]) \
            .iter_batches(batch_size=65536, batch_format="pyarrow"):
        minx = b["minx"].to_numpy(); maxx = b["maxx"].to_numpy()
        miny = b["miny"].to_numpy(); maxy = b["maxy"].to_numpy()
        # mean of the 5 envelope ring points: (3*minx + 2*maxx)/5 etc.
        exs.append((3.0 * minx + 2.0 * maxx) / 5.0)
        eys.append((3.0 * miny + 2.0 * maxy) / 5.0)
        idxs.append(b["grid_idx"].to_numpy())
    return np.concatenate(exs), np.concatenate(eys), np.concatenate(idxs)


def compute_band_ids(ex: np.ndarray, ey: np.ndarray, nbands: int,
                     angle: float) -> np.ndarray:
    """The reference banding (partitions.py:339-359) over coordinate arrays."""
    if angle < -np.pi / 2 or angle > np.pi / 2:
        raise ValueError("angle must be between -pi/2 and pi/2")
    coords = np.column_stack([ex, ey])
    cmin = coords.min(axis=0)
    cmax = coords.max(axis=0)
    crng = cmax - cmin
    crng[crng == 0] = 1
    ncoords = (coords - cmin) / crng
    if angle < 0:
        ncoords = 1 - ncoords
    if np.abs(angle) < np.pi / 4:
        plon, plat = np.abs(angle) / (np.pi / 4), 1
    else:
        plon, plat = np.sign(angle), (np.pi / 2 - np.abs(angle)) / (np.pi / 4)
    proj = plon * ncoords[:, 0] + plat * ncoords[:, 1]
    band_id = None
    for k in np.linspace(0.1, 50, 10000):
        band_id = (proj / (k / nbands)).astype(int)
        band_id = band_id - np.min(band_id)
        if len(np.unique(band_id)) == nbands:
            break
    return band_id


def split_assignment(nbands: int, train_pct: float, test_pct: float,
                     val_pct: float, achieved: int | None = None) -> list[str]:
    """Band→split cyclic assignment (partitions.py:330-338, 361-363).

    ``nbands`` is the REQUESTED band count (validated, reference parity);
    ``achieved`` is the distinct band count the k-scan actually produced —
    the cycle is sliced to it, so a degenerate tileset that can't hit
    exactly nbands still gets a split (as the reference does)."""
    if not np.allclose(train_pct + test_pct + val_pct, 1, atol=1e-3):
        raise ValueError("percentages must add up to one")
    min_pct = np.min([i for i in [train_pct, test_pct, val_pct] if i != 0])
    bands_train = int(np.round(train_pct / min_pct, 0))
    bands_test = int(np.round(test_pct / min_pct, 0))
    bands_val = int(np.round(val_pct / min_pct, 0))
    if bands_train + bands_test + bands_val > nbands:
        raise ValueError(
            f"not enough bands for specified percentages. increase nbands to "
            f"at least {bands_train + bands_test + bands_val}")
    n = nbands if achieved is None else achieved
    splits = ["train"] * bands_train + ["test"] * bands_test + ["val"] * bands_val
    return (splits * (n // len(splits) + 1))[:n]


def split(tiles: ray.data.Dataset, nbands: int, angle: float,
          train_pct: float, test_pct: float, val_pct: float,
          split_col_name: str = "split") -> ray.data.Dataset:
    """Append the split column to a tileset Dataset: the driver computes
    one split per ``grid_idx``, and ``joins.broadcast_lookup`` attaches it
    in plain tasks."""
    ex, ey, idxs = _projection_inputs(tiles)
    band_id = compute_band_ids(ex, ey, nbands, angle)
    bands_ids = np.sort(np.unique(band_id))
    splits = split_assignment(nbands, train_pct, test_pct, val_pct,
                              achieved=len(bands_ids))
    of_tile = np.asarray(splits, dtype=object)[
        np.searchsorted(bands_ids, band_id)]
    dim = pa.table({"grid_idx": idxs,
                    split_col_name: pa.array(of_tile, type=pa.string())})
    return joins.broadcast_lookup(tiles, dim, "grid_idx")


def split_per_partitions(tiles: ray.data.Dataset, nbands: int, angle: float,
                         train_pct: float, test_pct: float, val_pct: float,
                         foreign_name: str) -> ray.data.Dataset:
    """A3 (partitions.py:371-384): run ``split``, then harmonize so all tiles
    of one foreign group share that group's modal split. Tie-break = pandas
    value_counts order (count desc, then first-seen), reproduced via a
    stable sort on (count desc, first-occurrence)."""
    fid_col = f"foreignid_{foreign_name}"
    with_split = split(tiles, nbands, angle, train_pct, test_pct, val_pct)
    with_split = with_split.materialize()

    counts = dedupmod.partial_counts(with_split, [fid_col, "split"], "n").to_pandas()
    # value_counts().index[0]: max count wins; pandas breaks count ties by
    # first-seen order, which over a groupby-count table is not recoverable —
    # we use (count desc, split asc) as the deterministic tie-break.
    counts = counts.sort_values(["n", "split"], ascending=[False, True], kind="stable")
    out_col = f"split_{foreign_name}"
    winner = counts.drop_duplicates(fid_col)[[fid_col, "split"]] \
        .rename(columns={"split": out_col})

    def harmonize(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index(out_col)
        return batch.set_column(i, out_col,
                                pc.coalesce(batch[out_col], batch["split"]))

    return joins.broadcast_lookup(with_split, winner, fid_col, how="left") \
        .map_batches(harmonize, batch_format="pyarrow")


def save_splits(tiles: ray.data.Dataset, path: str) -> str:
    """S9 (partitions.py:387-393): project identifier + split columns → CSV."""
    cols = [c for c in tiles.schema().names
            if ("split" in c and c != "split_nb") or c == "identifier"]
    df = tiles.select_columns(cols).to_pandas()
    df.to_csv(path, index=False)
    return path
