"""The traced pass: the flagship chain called one layer at a time, so that
each layer's public functions get a span of their own.

``traced_ingest`` makes the same calls that ``flagship.run`` makes, with a
materialize after each stage, so its output digest must equal the untraced
one. The layers are the repository's modules: ``sources``, ``functions``,
``stages``, ``pipelines`` and ``state``.
"""

from __future__ import annotations

import os
import shutil

import pyarrow.parquet as pq
import ray
import ray.data

from geetiles_ray.functions import geocode as geocodemod
from geetiles_ray.pipelines import dedup as dedupmod
from geetiles_ray.pipelines import flagship
from geetiles_ray.sources import pages as pagesmod
from geetiles_ray.stages import assign as assignmod
from geetiles_ray.state import manifest as manifestmod

import checks
from tracing import Tracer


CHAIN = ["sources.read", "sources.extract", "stages.assign", "state.ckpt_write",
         "state.ckpt_read", "pipelines.dedup", "pipelines.counts"]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def traced_ingest(tr: Tracer, cfg: dict, pages_path: str, ckdir: str) -> dict:
    cluster = cfg["mode"] == "cluster"
    shutil.rmtree(ckdir, ignore_errors=True)
    m: dict[str, float] = {}
    with tr.span("ingest"):
        with tr.span("pipelines.grid_build") as s:
            tiles = flagship.build_fixture_tileset(cfg["chip_m"])
            s["counts"]["n_tiles"] = m["stages.n_tiles"] = tiles.count()
            s["stats"] = tiles.stats()
        with tr.span("sources.read") as s:
            pages = ray.data.read_parquet(pages_path).materialize()
            s["counts"]["rows"] = n_in = pages.count()
            s["counts"]["bytes"] = m["sources.bytes_in"] = \
                os.path.getsize(pages_path)
            s["stats"] = pages.stats()
        with tr.span("sources.extract") as s:
            extracted = pages.map_batches(pagesmod.extract_text_batch,
                                          batch_format="pyarrow").materialize()
            s["stats"] = extracted.stats()
        with tr.span("functions.geocode") as s:
            t = pq.read_table(pages_path, columns=["url", "lang"])
            geocodemod.geocode(t["url"].to_pylist(),
                               t["lang"].to_numpy(zero_copy_only=False))
        with tr.span("stages.assign") as s:
            assigned = assignmod.assign_pages(extracted, tiles, concurrency=8,
                                              batch_size=8192, use_actors=False)
            slim = assigned.drop_columns(["html", "text"]).materialize()
            s["stats"] = slim.stats()
        if cluster:
            buckets = flagship.derive_dedup_buckets(
                ray.data.read_parquet(pages_path))
            with tr.span("state.ckpt_write") as s:
                report = manifestmod.checkpointed_write(
                    slim, ckdir, key_col="url", n_partitions=buckets)
                s["counts"]["written"] = len(report["written"])
            with tr.span("state.ckpt_read") as s:
                slim = manifestmod.read_checkpointed(ckdir).materialize()
                s["stats"] = slim.stats()
            m["state.partitions_written"] = len(report["written"])
            m["state.bytes_per_input_byte"] = \
                _dir_bytes(ckdir) / os.path.getsize(pages_path)
        else:
            buckets = 64    # flagship.run's single-mode default
        with tr.span("pipelines.dedup_keyset"):
            dup_ref = dedupmod.dup_key_set(slim, "url")
            ray.get(dup_ref)
        with tr.span("pipelines.dedup_minima") as s:
            h1, h2, gmin, tie = ray.get(dedupmod.dup_key_minima(
                slim, "url", "warc_ts", dup_ref=dup_ref))
            s["counts"]["dup_keys"] = m["pipelines.dedup_dup_keys"] = len(h1)
            s["counts"]["tie_keys"] = m["pipelines.dedup_tie_keys"] = \
                int(tie.sum())
            m["pipelines.dedup_stats_bytes"] = sum(
                a.nbytes for a in (h1, h2, gmin, tie))
        # dedup_exact_broadcast runs the key-set and minima scans itself,
        # so its filter pass is this span less the two spans above
        with tr.span("pipelines.dedup") as s:
            out = dedupmod.dedup_exact_broadcast(
                slim, key="url", order_col="warc_ts",
                nbuckets=buckets).materialize()
            s["stats"] = out.stats()
            n_out = out.count()
        with tr.span("pipelines.counts") as s:
            counts = dedupmod.partial_counts(out, ["tile_id", "lang"],
                                             "n_pages").to_pandas()
    # the spans that redo the untraced chain; grid build, the geocode probe
    # and the two stand-alone dedup scans are extra measurements
    res = {"total_s": sum(tr.seconds(n) for n in CHAIN),
           "digest": checks.digest(out.to_pandas(), counts)}
    if cluster:
        # the resume: flagship.run again on the same checkpoint
        with tr.span("pipelines.flagship_resume") as s:
            out2, counts2 = flagship.run(ray.data.read_parquet(pages_path),
                                         tiles=tiles, mode="cluster",
                                         checkpoint_dir=ckdir)
            counts2 = counts2.to_pandas()
            rep = flagship.run.last_checkpoint_report
            s["counts"] = {"written": len(rep["written"]),
                           "skipped": len(rep["skipped"])}
        m["state.partitions_skipped"] = len(rep["skipped"])
        m["state.resume_s"] = tr.seconds("pipelines.flagship_resume")
        res["resume_written"] = len(rep["written"])
        res["resume_digest"] = checks.digest(out2.to_pandas(), counts2)
        res["total_s"] += m["state.resume_s"]

    sec = tr.seconds
    m.update({
        "sources.read_s": sec("sources.read"),
        "sources.extract_s": sec("sources.extract"),
        "functions.geocode_us_per_row": sec("functions.geocode") / n_in * 1e6,
        "stages.assign_s": sec("stages.assign"),
        "pipelines.grid_build_s": sec("pipelines.grid_build"),
        "pipelines.dedup_keyset_s": sec("pipelines.dedup_keyset"),
        "pipelines.dedup_minima_s": sec("pipelines.dedup_minima"),
        "pipelines.dedup_filter_s": sec("pipelines.dedup")
        - sec("pipelines.dedup_keyset") - sec("pipelines.dedup_minima"),
        "pipelines.dedup_kept_ratio": n_out / slim.count(),
        "pipelines.counts_s": sec("pipelines.counts"),
        "state.ckpt_write_s": sec("state.ckpt_write"),
        "state.ckpt_read_s": sec("state.ckpt_read"),
    })
    res["metrics"] = m
    return res
