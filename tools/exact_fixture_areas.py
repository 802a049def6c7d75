"""Regenerate ``tests/golden/fixture_tileset_area_km2.parquet``: the exact
``area_km2`` of each fixture tile, rounded once to float64.

For each fixture chip size (5000 m, then 1000 m) the tiles' lon/lat rings
come from ``grid._cell_rings`` and their vertices are projected with
``crs.lonlat_to_utm``, as the grid build does. The shoelace then runs over
``fractions.Fraction`` values of those float64 vertices, so the sum is
exact; the area in km² is rounded to float64 once, at the end. Rows are in
``grid_idx`` order within each chip size.

Usage: python tools/exact_fixture_areas.py [out.parquet]
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from geetiles_ray.functions import crs as crsmod  # noqa: E402
from geetiles_ray.pipelines import flagship  # noqa: E402
from geetiles_ray.pipelines import grid as gridmod  # noqa: E402

CHIP_SIZES = (5000.0, 1000.0)
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "tests", "golden", "fixture_tileset_area_km2.parquet")


def exact_ring_area(e: np.ndarray, n: np.ndarray) -> Fraction:
    """Unsigned area of a closed ring, summed exactly."""
    x = [Fraction(v) for v in e.tolist()]
    y = [Fraction(v) for v in n.tolist()]
    return abs(sum(x[i] * y[i + 1] - x[i + 1] * y[i]
                   for i in range(len(x) - 1))) / 2


def exact_areas_km2(chip_m: float) -> np.ndarray:
    spec = gridmod.GridSpec(flagship.fixture_aoi_ring(), chip_m)
    rings, _ = gridmod._cell_rings(spec, np.arange(spec.n_cells))
    e, n = crsmod.lonlat_to_utm(rings[..., 0].ravel(), rings[..., 1].ravel(),
                                spec.zone, spec.north)
    e, n = e.reshape(rings.shape[:2]), n.reshape(rings.shape[:2])
    return np.array([float(exact_ring_area(e[i], n[i]) / 10**6)
                     for i in range(len(rings))])


def main(out: str = OUT) -> None:
    areas = [exact_areas_km2(m) for m in CHIP_SIZES]
    chip = np.concatenate([np.full(len(a), m) for m, a in zip(CHIP_SIZES, areas)])
    pq.write_table(pa.table({"chip_m": chip, "area_km2": np.concatenate(areas)}), out,
                   compression="zstd")
    print(f"{out}: {len(chip)} rows")


if __name__ == "__main__":
    main(*sys.argv[1:])
