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
url dedup runs where the pre-dedup rows already sit:

- with a ``checkpoint_dir`` (cluster mode, or single mode when one is
  given) the slim rows are written hash-partitioned by url
  (state/manifest.checkpointed_write), so every row of a url is in one
  ``part=NNNNN`` file; one task per partition reads its file and keeps the
  earliest row per url (dedup.dedup_table) — no exchange, no driver state;
- without one, ``dedup.dedup_exact`` dedups the slim rows: each batch
  keeps its earliest row per url, and one more ``dedup_table`` runs over
  those partials in one task (one task per url-hash range above
  ``dedup.ONE_TASK_FOLD_ROWS`` partial rows) — no exchange, no driver
  state.
"""

from __future__ import annotations

import functools

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
    slim rows per partition, the writer's heap contract),
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
    dedup_buckets: int | None = None,
    checkpoint_dir: str | None = None,
    mode: str = "single",
):
    """pages(url, warc_ts, html, text, lang) → (assignments, tile_lang_counts).

    ``mode="single"`` (default): the map chain's per-batch url dedup
    partials are materialized in the object store and folded by
    ``dedup.dedup_exact`` (one task at bench scale, url-hash ranges
    above) — the fastest single-node/bench path (with a
    ``checkpoint_dir`` it takes the checkpointed path below).
    ``mode="cluster"``: THE deployment mode for multi-node runs —
    checkpointed partitioned parquet (durable, kill-and-resume via
    per-partition manifests) instead of pinning the full slim table in
    the object store, with ``dedup_buckets`` derived from input bytes by
    the manifest sizing rule unless given. ``checkpoint_dir`` is required
    in cluster mode (it must be shared storage all nodes can reach — a
    default under /tmp would silently be node-local).

    ``dedup_buckets`` is the checkpoint's partition count (default 64 in
    single mode); without a ``checkpoint_dir`` it has no effect.

    With a ``checkpoint_dir`` the url dedup runs inside the checkpoint's
    ``dedup_buckets`` partitions, one task per partition, on the cold run
    and on every resume alike. It is exact because ``partition_of_key``
    sends every row of a url to one partition: no partition needs another
    one's rows. The task keeps each url's earliest ``warc_ts`` row,
    comparing url strings (not hashes), and breaks ties at the minimum on
    the other columns, so the result does not depend on block order.
    Memory: each task holds one partition, which the sizing rule keeps
    ≤ 1 GiB (the writer's own heap contract); the driver holds one object
    ref per partition and no per-url statistics. Only the partitions this
    run wrote or confirmed are read, so stale ``part=`` directories of an
    earlier layout cannot leak rows in.

    assignments: one row per unique url with lon/lat/tile_id/cell_id/
    text_extracted. tile_lang_counts: (tile_id, lang, n_pages) via the
    partial-count combiner.

    Stage order is chosen for the ONE co-location step in this pipeline
    (the partitioned write, or the dedup fold): extraction,
    geocoding and tile assignment are pure per-row functions, so they run
    BEFORE the url dedup and the raw payload (``html`` + source ``text``)
    is dropped at the map stage — only the narrow derived columns move
    (~40% less data; dedup-then-transform and transform-then-dedup are
    equivalent here, and the duplicate rows that get transformed twice
    cost far less than shipping html). ``text_extracted`` carries the
    byte-identical-text invariant through the dedup."""
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
    # plain tasks in 8,192-row batches: generate→extract→assign fuse into
    # ONE full-width operator (see assign_pages docstring)
    assigned_all = assignmod.assign_pages(extracted, tiles, use_actors=False)
    slim = assigned_all.drop_columns(["html", "text"])
    if checkpoint_dir is not None:
        from ..state import manifest as manifestmod

        report = manifestmod.checkpointed_write(
            slim, checkpoint_dir, key_col="url", n_partitions=dedup_buckets)
        run.last_checkpoint_report = report
        # the writer hash-partitioned by url, so each partition dedups
        # alone: one task per partition, no exchange, nothing on the driver
        earliest = functools.partial(dedupmod.dedup_table, keys=["url"],
                                     orders=["warc_ts"])
        assigned = manifestmod.map_checkpointed(
            checkpoint_dir, report["written"] + report["skipped"], earliest)
    else:
        assigned = dedupmod.dedup_exact(slim, "url", "warc_ts")
    counts = dedupmod.partial_counts(assigned, ["tile_id", "lang"], "n_pages")
    return assigned, counts
