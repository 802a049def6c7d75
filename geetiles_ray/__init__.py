"""geetiles_ray — a from-scratch Ray-Data-native tiling + spatial-join engine.

Re-expresses the capabilities of rramosp/geetiles (reference at
/root/reference, studied via SURVEY.md) as idiomatic Ray Data pipelines:
``ray.data.Dataset`` → ``map_batches`` over zero-copy Arrow batches, plain
tasks for every stage (stateful ones read a per-worker broadcast cache,
``functions/arrowio.worker_cached``), explicit partial-aggregation before
shuffles, broadcast small sides via ``ray.put``.

Pure-numpy geometry / CRS / cell-index core (no shapely/pyproj/h3 in this
environment); everything is deterministic and seed-pinned so results are
reproducible across process counts.

Layout:
  functions/  scalar + vectorized kernels (hashing, crs, geometry, cells,
              value maps, text analysis)
  sources/    synthetic page generator, tileset parquet/geojson IO
  stages/     map_batches stage classes (geocode, assign, joins, render)
  pipelines/  end-to-end composed pipelines (grid build, flagship, dedup)
  state/      lineage manifests / resume
"""

__version__ = "0.1.0"
