"""The flagship pipeline: Common-Crawl-style pages → deduped, geocoded,
tile-assigned table with per-tile language proportions.

This is the graft's end-to-end analogue of the reference walk-through
(README.md:21-37: grid → download → lp.compute): a tileset is generated over
the AOI, every page is geocoded and assigned to exactly one tile, pages are
deduped by url (keep earliest crawl — text is byte-identical per url by
construction), and per-tile class proportions (language shares, the analogue
of label proportions partitions.py:447-468) are aggregated with a
partial-count combiner before the shuffle.

Everything streams: generate → map_batches chain → small aggregates. The
only materialized object is the tileset (the small side, broadcast once).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions import geocode as geocodemod
from ..functions import geom
from ..sources import pages as pagesmod
from ..stages import assign as assignmod
from . import dedup as dedupmod
from . import grid as gridmod

DEFAULT_CHIP_METERS = 5000.0


def fixture_aoi_ring() -> np.ndarray:
    return geom.box_ring(geocodemod.AOI_W, geocodemod.AOI_S,
                         geocodemod.AOI_E, geocodemod.AOI_N)


def build_fixture_tileset(chip_size_meters: float = DEFAULT_CHIP_METERS) -> ray.data.Dataset:
    return gridmod.build_grid(fixture_aoi_ring(), chip_size_meters).materialize()


# fraction of the raw page bytes that survive the slim projection (url /
# warc_ts / lang / lon / lat / tile_id / cell_id / text_extracted vs the
# dropped html + source text payload) — the sizing heuristic cluster mode
# feeds into manifest.derive_n_partitions. Deliberately conservative
# (over-estimates → more, smaller partitions; never an OOM-sized one).
SLIM_BYTES_FRACTION = 0.25


def derive_dedup_buckets(pages: ray.data.Dataset) -> int:
    """Cluster-mode bucket count from INPUT SCALE, not a constant: the
    manifest sizing rule (state/manifest.derive_n_partitions — ≤1 GiB of
    slim rows per partition, the map_groups writer's heap contract),
    floored at the cluster CPU count for write parallelism. Falls back to
    the CPU floor when the input is too lazy to report bytes."""
    import ray as _ray

    ncpu = max(1, int(_ray.cluster_resources().get("CPU", 4)))
    try:
        est = pages.size_bytes()
    except Exception:
        est = None
    if not est:
        return ncpu
    from ..state import manifest as manifestmod

    return manifestmod.derive_n_partitions(
        int(est * SLIM_BYTES_FRACTION), min_parts=ncpu)


def run(
    pages: ray.data.Dataset,
    tiles: ray.data.Dataset | None = None,
    chip_size_meters: float = DEFAULT_CHIP_METERS,
    concurrency: int | tuple = 8,
    batch_size: int = 8192,
    dedup_buckets: int | None = None,
    use_actors: bool = False,
    checkpoint_dir: str | None = None,
    mode: str = "single",
):
    """pages(url, warc_ts, html, text, lang) → (assignments, tile_lang_counts).

    ``mode="single"`` (default): in-memory materialize between the map
    chain and the dedup — the fastest single-node/bench path.
    ``mode="cluster"``: THE deployment mode for multi-node runs —
    checkpointed partitioned parquet (durable, kill-and-resume via
    per-partition manifests) instead of pinning the full slim table in
    the object store, with ``dedup_buckets`` derived from input bytes by
    the manifest sizing rule unless given. ``checkpoint_dir`` is required
    in cluster mode (it must be shared storage all nodes can reach — a
    default under /tmp would silently be node-local).

    assignments: one row per unique url with lon/lat/tile_id/cell_id/
    text_extracted. tile_lang_counts: (tile_id, lang, n_pages) via the
    partial-count combiner.

    Stage order is chosen for the ONE exchange in this pipeline: extraction,
    geocoding and tile assignment are pure per-row functions, so they run
    BEFORE the url-dedup shuffle and the raw payload (``html`` + source
    ``text``) is dropped at the map stage — the exchange then moves only the
    narrow derived columns (~40% less data; dedup-then-transform and
    transform-then-dedup are equivalent here, and the ~2% duplicate rows
    that get transformed twice cost far less than shipping html through the
    shuffle). ``text_extracted`` carries the byte-identical-text invariant
    through the exchange."""
    if mode not in ("single", "cluster"):
        raise ValueError(f"mode must be 'single' or 'cluster', got {mode!r}")
    if mode == "cluster":
        if checkpoint_dir is None:
            raise ValueError(
                "mode='cluster' requires checkpoint_dir (shared storage "
                "reachable from every node)")
        if dedup_buckets is None:
            dedup_buckets = derive_dedup_buckets(pages)
    elif dedup_buckets is None:
        dedup_buckets = 64
    if tiles is None:
        tiles = build_fixture_tileset(chip_size_meters)

    extracted = pages.map_batches(pagesmod.extract_text_batch, batch_format="pyarrow")
    # task path (default): fuses generate→extract→assign→pre-dedup into ONE
    # full-width operator (see assign_pages docstring); `concurrency` only
    # sizes the pool when use_actors=True
    assigned_all = assignmod.assign_pages(extracted, tiles,
                                          concurrency=concurrency,
                                          batch_size=batch_size,
                                          use_actors=use_actors)
    slim = assigned_all.drop_columns(["html", "text"])
    # the transformed-but-not-yet-deduped table is consumed three times by
    # the broadcast-min dedup, so it must be pinned once. Two modes:
    # - checkpoint_dir set: the durable cluster path — partitioned parquet
    #   with per-partition manifests (state/manifest.py); a killed run
    #   resumes here, skipping completed partitions, and the dedup re-scans
    #   from disk instead of the object store
    # - default: in-memory materialize (fastest single-run path; bench mode)
    if checkpoint_dir is not None:
        from ..state import manifest as manifestmod

        run.last_checkpoint_report = manifestmod.checkpointed_write(
            slim, checkpoint_dir, key_col="url", n_partitions=dedup_buckets)
        slim_mat = manifestmod.read_checkpointed(checkpoint_dir)
    else:
        slim_mat = slim.materialize()
    # broadcast-min dedup: the one all-to-all leg of this pipeline becomes
    # a second map-side filter pass (the tie exchange never fires on crawl
    # timestamps) — the 8→32 exchange leg scaled at ~0.45 vs ~0.93 for map
    # work (BENCH/BASELINE.md)
    deduped = dedupmod.dedup_exact_broadcast(slim_mat, key="url",
                                             order_col="warc_ts",
                                             nbuckets=dedup_buckets)
    # second materialize so the eager driver-reduce combiner below doesn't
    # re-execute the dedup when the caller also consumes `assigned`
    assigned = deduped.materialize()
    counts = dedupmod.partial_counts(assigned, ["tile_id", "lang"], "n_pages")
    return assigned, counts
