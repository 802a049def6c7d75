"""CLI mirroring the reference's ``geet`` subcommand surface
(/root/reference/geetiles/main.py:7-94) on the Ray-Data engine, so a
reference user can run the same workflows:

    python -m geetiles_ray.cli grid --aoi_wkt_file f.wkt --chip_size_meters 1000 \\
        --aoi_name lux --dest_dir out/
    python -m geetiles_ray.cli random --aoi_wkt_file f.wkt --max_rectangle_size_meters 20000 ...
    python -m geetiles_ray.cli download --tiles_file out/lux_partitions_aschips_xxx \\
        --dataset_def worldcoverlike --pixels_lonlat '(100,100)' [--skip_if_exists]
    python -m geetiles_ray.cli lp.compute --tiles_file ... --labels_dataset_def worldcoverlike
    python -m geetiles_ray.cli lp.from_foreign --tiles_file ... --foreign_tiles_file ... \\
        --labels_dataset_def worldcoverlike
    python -m geetiles_ray.cli intersect --tiles_file ... --foreign_tiles_file ...
    python -m geetiles_ray.cli split --tiles_file ... --nbands 8 --angle 0 \\
        --train_pct .5 --test_pct .3 --val_pct .2
    python -m geetiles_ray.cli mosaic --tiles_file ... --dataset_name worldcoverlike
    python -m geetiles_ray.cli zip --tiles_file ... --dataset_name worldcoverlike

"download" renders deterministic tiles via the dataset-definition plugin
(this sandbox's stand-in for the GEE fetch); all other semantics follow
SURVEY.md §3's lifecycle. The CLI owns the Ray session (guarded init).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    from .ray_tuning import tune

    tune()


def _load_tiles(path: str):
    from .sources import tileset

    if path.endswith(".geojson"):
        return tileset.import_geojson(path)
    return tileset.load_tileset(path)


def cmd_grid(a):
    from .functions import wkt
    from .pipelines import grid
    from .sources import tileset

    ring = wkt.load_exterior(open(a.aoi_wkt_file).read())
    ds = grid.build_grid(ring, a.chip_size_meters)
    out = tileset.save_tileset(ds, a.dest_dir, a.aoi_name, "aschips")
    print(f"saved to {out}")


def cmd_random(a):
    from .functions import wkt
    from .pipelines import grid
    from .sources import tileset

    ring = wkt.load_exterior(open(a.aoi_wkt_file).read())
    ds = grid.make_random_partitions(ring, a.max_rectangle_size_meters,
                                     seed=a.seed)
    out = tileset.save_tileset(ds, a.dest_dir, a.aoi_name, a.partitions_name)
    print(f"saved to {out}")


def cmd_select(a):
    from .functions import wkt
    from .pipelines import grid
    from .sources import tileset

    ring = wkt.load_exterior(open(a.aoi_wkt_file).read())
    tiles = _load_tiles(a.orig_file)
    sel = grid.select_intersecting(tiles, ring)
    out = tileset.save_tileset(sel, a.dest_dir, a.aoi_name, a.partitions_name)
    print(f"saved to {out}")


def cmd_download(a):
    from .plugins import load_plugin
    from .sources import tileset as tsmod
    from .stages import raster

    tiles = _load_tiles(a.tiles_file)
    if a.groups:
        tiles = tsmod.filter_groups(tiles, a.groups)
    plugin = load_plugin(a.dataset_def)
    hw = ast.literal_eval(a.pixels_lonlat) if a.pixels_lonlat else (100, 100)
    dest = os.path.splitext(a.tiles_file.rstrip("/"))[0]
    from .state import metrics as metricsmod
    metricsmod.reset()  # per-run counts — the named actor survives pipelines
    rasters = raster.render_tiles(tiles, plugin, pixels_hw=tuple(hw),
                                  concurrency=a.n_processes)
    if a.shuffle:
        rasters = rasters.random_shuffle(seed=42)  # T1: spread load
    if a.max_downloads:
        rasters = rasters.limit(a.max_downloads)  # T2
    n = raster.write_geotiff_layout(rasters, tiles, dest,
                                    plugin.get_dataset_name(),
                                    skip_if_exists=a.skip_if_exists,
                                    plugin=plugin)
    tsmod.write_provenance(os.path.join(dest, plugin.get_dataset_name()), plugin)
    snap = metricsmod.snapshot()
    pfx = f"render.{plugin.get_dataset_name()}"
    print(f"wrote {n} tiles under {dest}/{plugin.get_dataset_name()} "
          f"(metrics: rows={int(snap.get(pfx + '.rows', 0))} "
          f"nodata={int(snap.get(pfx + '.nodata', 0))})")


def cmd_lp_compute(a):
    from .plugins import load_plugin
    from .stages import raster

    tiles = _load_tiles(a.tiles_file)
    plugin = load_plugin(a.labels_dataset_def)
    dest = os.path.splitext(a.tiles_file.rstrip("/"))[0]
    rasters = raster.read_geotiff_layout(
        os.path.join(dest, plugin.get_dataset_name()))
    props = raster.compute_proportions(rasters, tiles, plugin)
    out = os.path.join(dest, f"{plugin.get_dataset_name()}_proportions")
    props.write_parquet(out)
    print(f"proportions written to {out}")


def cmd_lp_from_foreign(a):
    import ray.data

    from .plugins import load_plugin
    from .sources import tileset as tsmod
    from .stages import joins

    tiles = _load_tiles(a.tiles_file)
    foreign = _load_tiles(a.foreign_tiles_file)
    plugin = load_plugin(a.labels_dataset_def)
    pcol = f"{plugin.get_dataset_name()}_proportions"
    fdest = os.path.splitext(a.foreign_tiles_file.rstrip("/"))[0]
    fprops = ray.data.read_parquet(os.path.join(fdest, pcol))
    foreign_with = joins.join_on_identifier(foreign, fprops)
    _aoi, fname = tsmod.tileset_name_parts(a.foreign_tiles_file)
    out_ds = joins.add_foreign_proportions(tiles, foreign_with, fname or "foreign",
                                           pcol)
    dest = os.path.splitext(a.tiles_file.rstrip("/"))[0]
    out = os.path.join(dest, f"{pcol}_at_{fname}")
    out_ds.write_parquet(out)
    print(f"foreign proportions written to {out}")


def cmd_intersect(a):
    from .sources import tileset as tsmod
    from .stages import joins

    tiles = _load_tiles(a.tiles_file)
    foreign = _load_tiles(a.foreign_tiles_file)
    _aoi, fname = tsmod.tileset_name_parts(a.foreign_tiles_file)
    out_ds = joins.add_foreign_partition(tiles, foreign, fname or "foreign")
    dest = os.path.splitext(a.tiles_file.rstrip("/"))[0] + f"_foreignid_{fname}"
    out_ds.write_parquet(dest)
    print(f"intersections written to {dest}")


def cmd_split(a):
    from .pipelines import split as splitmod

    tiles = _load_tiles(a.tiles_file)
    if a.foreign_name:
        out_ds = splitmod.split_per_partitions(
            tiles, a.nbands, a.angle, a.train_pct, a.test_pct, a.val_pct,
            a.foreign_name)
    else:
        out_ds = splitmod.split(tiles, a.nbands, a.angle, a.train_pct,
                                a.test_pct, a.val_pct)
    dest = os.path.splitext(a.tiles_file.rstrip("/"))[0]
    csv = splitmod.save_splits(out_ds, dest + "_splits.csv")
    out_ds.write_parquet(dest + "_withsplits")
    print(f"all splits saved to {csv}")


def cmd_mosaic(a):
    from .functions import tiff
    from .stages import raster

    tiles = _load_tiles(a.tiles_file)
    dest = os.path.splitext(a.tiles_file.rstrip("/"))[0]
    rasters = raster.read_geotiff_layout(os.path.join(dest, a.dataset_name))
    channels = ast.literal_eval(a.channels) if a.channels else None
    if a.block_px:
        # scale path: never materializes the canvas anywhere
        blocks, frame = raster.mosaic_blocks(rasters, tiles,
                                             channels=channels,
                                             block_px=a.block_px)
        out = os.path.join(dest, f"{a.dataset_name}_mosaic_blocks")
        n = raster.write_blockgrid(blocks, frame, out, block_px=a.block_px)
        print(f"mosaic written to {out} ({n} blocks)")
        return
    canvas, bounds = raster.mosaic(rasters, tiles, channels=channels)
    out = os.path.join(dest, f"{a.dataset_name}_mosaic.tif")
    tiff.write_tiff(out, canvas, bounds=bounds)
    print(f"mosaic written to {out}")


def cmd_mosaic_fromvals(a):
    """mosaic.fromvals (reference main.py:86-90 / cmds.py:784-865): tiles
    file with a per-tile value column → solid-fill mosaic."""
    from .functions import tiff
    from .sources import tileset as tsmod
    from .stages import raster

    if a.tiles_file.endswith(".geojson"):
        tiles = tsmod.import_geojson(a.tiles_file,
                                     keep_properties=[a.value_col])
    else:
        tiles = tsmod.load_tileset(a.tiles_file)
    blocks, frame = raster.mosaic_fromvals(tiles, a.pixels_per_degree,
                                           value_col=a.value_col,
                                           block_px=a.block_px)
    base = os.path.splitext(a.dest_file)[0]
    if frame["H"] * frame["W"] > a.max_driver_pixels:
        out = base + "_blocks"
        n = raster.write_blockgrid(blocks, frame, out, block_px=a.block_px)
        print(f"mosaic written to {out} ({n} blocks; canvas "
              f"{frame['H']}x{frame['W']} exceeds --max_driver_pixels)")
        return
    canvas, bounds = raster.assemble_blocks(blocks, frame,
                                            block_px=a.block_px)
    tiff.write_tiff(a.dest_file, canvas, bounds=bounds)
    print(f"mosaic written to {a.dest_file}")


def cmd_aois(a):
    """aois (reference main.py:45-49): list / extract named AOIs."""
    from .functions import wkt as wktmod
    from .sources import aoi as aoimod

    reg = aoimod.aoinames
    if a.load:
        reg.load(a.load)
    if a.showall:
        names = sorted(aoimod._BUILTIN)
        if reg.table is not None:
            for c in ["name", "country", "continent", "region"]:
                if c in reg.table.column_names:
                    names += [str(v) for v in reg.table[c].to_pylist()]
        for n in names:
            print(n)
    if a.extract:
        ring = reg.get_aoi(a.extract)
        out = a.dest_file or f"{a.extract}.wkt"
        with open(out, "w") as f:
            f.write(wktmod.dumps_polygon(ring))
        print(f"aoi {a.extract} extracted to {out}")


def cmd_cleanup(a):
    """cleanup (reference main.py:92-96 / cmds.py:705-742): remove
    unreadable tifs from a folder."""
    from .stages import raster

    removed = raster.cleanup_geotiff_dir(a.basedir, dry_run=a.dry_run)
    verb = "would remove" if a.dry_run else "removed"
    if removed:
        print(f"{verb} {len(removed)} files:")
        for p in removed:
            print(f"  {p}")
    else:
        print("no files to remove")


def cmd_zip(a):
    from .plugins import load_plugin
    from .stages import raster

    tiles = _load_tiles(a.tiles_file)
    plugin = load_plugin(a.dataset_def) if a.dataset_def else None
    dest = os.path.splitext(a.tiles_file.rstrip("/"))[0]
    rasters = raster.read_geotiff_layout(os.path.join(dest, a.dataset_name))
    labels = None
    pcol = None
    if a.labels_dataset_def:
        import ray.data

        lp = load_plugin(a.labels_dataset_def)
        pcol = f"{lp.get_dataset_name()}_proportions"
        labels = ray.data.read_parquet(os.path.join(dest, pcol))
    chips = raster.pack_chips(rasters, tiles, labels=labels, label_col=pcol,
                              plugin=plugin)
    out = os.path.join(dest, f"{a.dataset_name}_chips.zip")
    n = raster.zip_chips(chips, out)
    print(f"zipped {n} chips to {out}")


def cmd_ingest(a):
    """Web-page ingest (the graft's headline job, north rule): pages parquet
    → extract → geocode → tile-assign → url-dedup → checkpointed partitioned
    output with per-partition lineage manifests. Re-running after a kill
    skips finished partitions (the reference's skip_if_exists resume,
    gee.py:267-274, at partition granularity)."""
    import ray.data

    from .pipelines import dedup as dedupmod
    from .pipelines import flagship
    from .sources import pages as pagesmod
    from .stages import assign as assignmod
    from .state import manifest as manifestmod

    if a.pages_parquet:
        pages = ray.data.read_parquet(a.pages_parquet)
    else:
        pages = pagesmod.generate_pages(a.n_pages)
    tiles = _load_tiles(a.tiles_file) if a.tiles_file \
        else flagship.build_fixture_tileset(a.chip_size_meters)

    extracted = pages.map_batches(pagesmod.extract_text_batch,
                                  batch_format="pyarrow")
    assigned = assignmod.assign_pages(extracted, tiles, use_actors=False)
    slim = assigned.drop_columns(["html", "text"])
    deduped = dedupmod.dedup_exact(slim, key="url", order_col="warc_ts")
    if a.prior_dirs:
        from .pipelines import snapshots as snapmod

        # dedup_exact returns its fold's computed blocks, which satisfies
        # the Bloom split's deterministic-rescan contract
        deduped = snapmod.dedup_against_snapshots(
            deduped, [d for d in a.prior_dirs.split(",") if d], key="url")
    res = manifestmod.checkpointed_write(
        deduped, a.dest_dir, key_col="url",
        n_partitions=a.n_partitions or None)
    print(f"ingested {res['total_rows']} rows -> {a.dest_dir} "
          f"({len(res['written'])} partitions written, "
          f"{len(res['skipped'])} resumed/skipped)")


def main(argv=None):
    p = argparse.ArgumentParser(prog="geetiles-ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("grid")
    g.add_argument("--aoi_wkt_file", required=True)
    g.add_argument("--chip_size_meters", type=float, required=True)
    g.add_argument("--aoi_name", required=True)
    g.add_argument("--dest_dir", required=True)
    g.set_defaults(fn=cmd_grid)

    r = sub.add_parser("random")
    r.add_argument("--aoi_wkt_file", required=True)
    r.add_argument("--max_rectangle_size_meters", type=float, required=True)
    r.add_argument("--aoi_name", required=True)
    r.add_argument("--dest_dir", required=True)
    r.add_argument("--partitions_name", default="random")
    r.add_argument("--seed", type=int, default=42)
    r.set_defaults(fn=cmd_random)

    s = sub.add_parser("select")
    s.add_argument("--orig_file", required=True)
    s.add_argument("--aoi_wkt_file", required=True)
    s.add_argument("--aoi_name", required=True)
    s.add_argument("--dest_dir", required=True)
    s.add_argument("--partitions_name", default="selected")
    s.set_defaults(fn=cmd_select)

    d = sub.add_parser("download")
    d.add_argument("--tiles_file", required=True)
    d.add_argument("--dataset_def", required=True)
    d.add_argument("--pixels_lonlat", default=None)
    d.add_argument("--n_processes", type=int, default=10)
    d.add_argument("--skip_if_exists", action="store_true")
    d.add_argument("--shuffle", action="store_true")
    d.add_argument("--max_downloads", type=int, default=None)
    d.add_argument("--groups", default=None)
    d.set_defaults(fn=cmd_download)

    lc = sub.add_parser("lp.compute")
    lc.add_argument("--tiles_file", required=True)
    lc.add_argument("--labels_dataset_def", required=True)
    lc.set_defaults(fn=cmd_lp_compute)

    lf = sub.add_parser("lp.from_foreign")
    lf.add_argument("--tiles_file", required=True)
    lf.add_argument("--foreign_tiles_file", required=True)
    lf.add_argument("--labels_dataset_def", required=True)
    lf.set_defaults(fn=cmd_lp_from_foreign)

    ix = sub.add_parser("intersect")
    ix.add_argument("--tiles_file", required=True)
    ix.add_argument("--foreign_tiles_file", required=True)
    ix.set_defaults(fn=cmd_intersect)

    sp = sub.add_parser("split")
    sp.add_argument("--tiles_file", required=True)
    sp.add_argument("--nbands", type=int, required=True)
    sp.add_argument("--angle", type=float, required=True)
    sp.add_argument("--train_pct", type=float, required=True)
    sp.add_argument("--test_pct", type=float, required=True)
    sp.add_argument("--val_pct", type=float, required=True)
    sp.add_argument("--foreign_name", default=None)
    sp.set_defaults(fn=cmd_split)

    mo = sub.add_parser("mosaic")
    mo.add_argument("--tiles_file", required=True)
    mo.add_argument("--dataset_name", required=True)
    mo.add_argument("--channels", default=None,
                    help="list of channel indices, e.g. [0,1]")
    mo.add_argument("--block_px", type=int, default=None,
                    help="write a block-grid directory instead of one tif")
    mo.set_defaults(fn=cmd_mosaic)

    mv = sub.add_parser("mosaic.fromvals")
    mv.add_argument("--tiles_file", required=True,
                    help="geojson/tileset with identifier, value, geometry")
    mv.add_argument("--dest_file", required=True)
    mv.add_argument("--pixels_per_degree", type=float, required=True)
    mv.add_argument("--value_col", default="value")
    mv.add_argument("--block_px", type=int, default=1024)
    mv.add_argument("--max_driver_pixels", type=int, default=2 ** 26)
    mv.set_defaults(fn=cmd_mosaic_fromvals)

    ao = sub.add_parser("aois")
    ao.add_argument("--showall", action="store_true")
    ao.add_argument("--extract", default=None)
    ao.add_argument("--dest_file", default=None)
    ao.add_argument("--load", default=None,
                    help="parquet with (name|country|continent|region, wkt)")
    ao.set_defaults(fn=cmd_aois)

    cu = sub.add_parser("cleanup")
    cu.add_argument("--basedir", required=True)
    cu.add_argument("--dry_run", action="store_true")
    cu.set_defaults(fn=cmd_cleanup)

    z = sub.add_parser("zip")
    z.add_argument("--tiles_file", required=True)
    z.add_argument("--dataset_name", required=True)
    z.add_argument("--dataset_def", default=None)
    z.add_argument("--labels_dataset_def", default=None)
    z.set_defaults(fn=cmd_zip)

    ing = sub.add_parser("ingest")
    ing.add_argument("--pages_parquet", default=None,
                     help="input pages parquet (default: synthetic fixture)")
    ing.add_argument("--n_pages", type=int, default=100000)
    ing.add_argument("--tiles_file", default=None)
    ing.add_argument("--chip_size_meters", type=float, default=5000.0)
    ing.add_argument("--dest_dir", required=True)
    ing.add_argument("--n_partitions", type=int, default=0,
                 help="0 = derive from input size (~1 GB/partition)")
    ing.add_argument("--prior_dirs", default=None,
                     help="comma-separated dest_dirs of PRIOR snapshot "
                          "ingests: urls already in their checkpointed "
                          "output are dropped (incremental cross-snapshot "
                          "dedup) without rescanning their payloads")
    ing.set_defaults(fn=cmd_ingest)

    a = p.parse_args(argv)
    import ray

    # own the session ONLY if we created it: an embedding process (pytest,
    # the driver) keeps its session — shutting a shared session down here
    # makes the next Ray call silently auto-init a default-sized cluster
    created = not ray.is_initialized()
    _ray_session()
    try:
        a.fn(a)
    finally:
        if created:
            ray.shutdown()


if __name__ == "__main__":
    main()
