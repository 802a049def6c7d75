"""Scale probe: runs named engine operators on deterministic synthetic tables
10²-10³× the oracle fixtures, so a plan that only holds at fixture size
shows up as wall time or driver memory. Prints one JSON line: per case its
wall time (``<case>_s``) and the growth of the driver's peak RSS while it
ran (``<case>_rss_mb``), plus the host probe of bench.py.

Usage:
    python tools/scale_probe.py --rows 1000000 --cpus 4 \\
        --case grouped_topn --case running_total
    python tools/scale_probe.py --list

With no ``--case`` every case runs. A case that ends in a row count also
reports its output rows per second (``<case>_out_rows_per_s``). Three
tables, built once per run and only when a chosen case needs them
(two-sided cases derive their sides from them; ``snapshot_dedup`` first
checkpoints the crawl rows with even ``n_chars`` as its prior snapshot, in
a temporary directory):
- events: ``rows`` events (event_id, user_id over rows/400 users, ts_us
  over 30 days, etype of 5, value float, cents int);
- docs: ``rows`` texts of 24 words from a 1,000-word vocabulary; every
  4th starts with a shared 3-word boilerplate segment, every 3rd carries
  an email and every 5th an IPv4 address (doc_id, text, lang, tile_key);
- crawl: ``rows`` page visits (url, warc_ts over 30 days, lang, n_chars);
  every 50th row re-crawls another row's url, so about 2% of the urls
  are duplicated.
``grid_build`` builds the grid tileset over the pages-fixture AOI with
the chip size at which the AOI's UTM envelope holds about ``rows`` cells;
its ``_out_rows_per_s`` is tiles/s. ``cell_join_assign`` places the crawl
rows at deterministic points of that AOI and joins them to its 1 km
fixture tileset (5,205 tiles) through level-12 cells with salt 2;
``checkpointed_write`` writes the crawl rows, partitioned by url, into a
fresh temporary directory. The flagship ingest is measured by perfbench,
not here.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

HOUR_US = 3_600_000_000


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _events(ids: np.ndarray, r, n: int) -> pa.Table:
    m = len(ids)
    return pa.table({
        "event_id": ids,
        "user_id": r.integers(0, max(n // 400, 1), m),
        "ts_us": r.integers(0, 30 * 24 * HOUR_US, m),
        "etype": np.take(np.array(["view", "click", "purchase", "signup",
                                   "error"]), r.integers(0, 5, m)),
        "value": r.normal(100, 20, m),
        "cents": (ids * 37) % 100_000,
    })


_VOCAB = np.array([f"w{i:03d}" for i in range(1000)], dtype=object)


def _docs(ids: np.ndarray, r, n: int) -> pa.Table:
    words = _VOCAB[r.integers(0, len(_VOCAB), (len(ids), 24))]
    texts = np.array([" ".join(row) for row in words], dtype=object)
    for every, extra in ((4, lambda i: "cookie banner accept "),
                         (3, lambda i: f"u{i}@h{i % 9}.example "),
                         (5, lambda i: f"10.0.{i % 256}.{i * 7 % 256} ")):
        sel = ids % every == 0
        texts[sel] = [extra(i) + t for i, t in zip(ids[sel], texts[sel])]
    return pa.table({
        "doc_id": ids,
        "text": pa.array(texts, type=pa.string()),
        "lang": np.take(np.array(["en", "es", "de", "fr", "zh"]), ids % 5),
        "tile_key": ids % 997,
    })


def _crawl(ids: np.ndarray, r, n: int) -> pa.Table:
    src = np.where(ids % 50 == 49, ids * 7919 % n, ids)
    lang = pa.array(np.take(np.array(["en", "es", "de", "fr", "zh"]),
                            src % 5))
    return pa.table({
        "url": pc.binary_join_element_wise(
            "https://", lang, ".site", pc.cast(pa.array(src % 4096),
                                               pa.string()),
            ".example/p/", pc.cast(pa.array(src), pa.string()), ""),
        "warc_ts": r.integers(0, 30 * 24 * HOUR_US, len(ids)),
        "lang": lang,
        "n_chars": r.integers(100, 10_000, len(ids)),
    })


def inputs(n: int, nblocks: int) -> dict:
    """Input name → cached builder of a materialized dataset (or a tuple
    of them). Built before a case's clock starts."""
    import ray.data

    def generated(gen):
        per = -(-n // nblocks)

        def block(batch: pa.Table) -> pa.Table:
            b = int(batch["id"][0].as_py())
            ids = np.arange(b * per, min((b + 1) * per, n), dtype=np.int64)
            return gen(ids, np.random.default_rng(b + 1), n)

        return ray.data.range(nblocks, override_num_blocks=nblocks) \
            .map_batches(block, batch_format="pyarrow", batch_size=None) \
            .materialize()

    def events():
        return generated(_events)

    def docs():
        return generated(_docs)

    def crawl():
        return generated(_crawl)

    def kind(etype, names):
        return built["events"]().filter(expr=f"etype == '{etype}'") \
            .select_columns(["event_id", "user_id", "ts_us"]) \
            .map_batches(lambda t: t.rename_columns(names),
                         batch_format="pyarrow").materialize()

    def asof():
        return (kind("purchase", ["event_id", "user_id", "ts_us"]),
                kind("click", ["click_id", "user_id", "click_ts"]))

    def interval():
        windows = kind("purchase", ["window_id", "user_id", "lo_us"]) \
            .map_batches(lambda t: t.append_column(
                "hi_us", pc.add(t["lo_us"], HOUR_US)),
                batch_format="pyarrow").materialize()
        return kind("view", ["event_id", "user_id", "ts_us"]), windows

    def join():
        left = built["events"]().map_batches(lambda t: pa.table({
            "identifier": t["event_id"], "lv": t["cents"]}),
            batch_format="pyarrow").materialize()
        rkeys = np.arange(0, n, 100, dtype=np.int64)  # 1% selectivity
        return left, ray.data.from_arrow(pa.table({"identifier": rkeys,
                                                   "rv": rkeys * 2}))

    def every(ds, col, k):
        # Ray Data's filter expressions have no `%`
        return ds.map_batches(
            lambda t: t.filter(pa.array(t[col].to_numpy() % k == 0)),
            batch_format="pyarrow")

    def patch():
        ev = built["events"]()
        return (ev.select_columns(["event_id", "user_id", "cents"]),
                every(ev, "event_id", 10)
                .select_columns(["event_id", "ts_us", "cents"]).materialize())

    def snapshot():
        from geetiles_ray.state import manifest

        prior = tempfile.mkdtemp(prefix="scale_probe_prior_")
        atexit.register(shutil.rmtree, prior, True)
        manifest.checkpointed_write(
            every(built["crawl"](), "n_chars", 2), prior,
            key_col="url", n_partitions=8)
        return built["crawl"](), [prior]

    def geo_crawl():
        from geetiles_ray.functions import geocode as geo
        from geetiles_ray.pipelines import flagship

        def place(t: pa.Table) -> pa.Table:
            ts = t["warc_ts"].to_numpy()
            fx = (ts % 1_000_003) / 1_000_003
            fy = (ts // 1_000_003 % 1_000_003) / 1_000_003
            return pa.table({"url": t["url"],
                             "lon": geo.AOI_W + fx * (geo.AOI_E - geo.AOI_W),
                             "lat": geo.AOI_S + fy * (geo.AOI_N - geo.AOI_S)})

        return (built["crawl"]().map_batches(place, batch_format="pyarrow")
                .materialize(), flagship.build_fixture_tileset(1000.0))

    def grid():
        from geetiles_ray.pipelines import flagship, grid

        aoi = flagship.fixture_aoi_ring()
        spec = grid.GridSpec(aoi, 1000.0)
        return aoi, ((spec.maxx - spec.minx) * (spec.maxy - spec.miny) / n) ** 0.5

    built = {f.__name__: functools.cache(f)
             for f in (events, docs, crawl, asof, interval, join, patch,
                       snapshot, geo_crawl, grid)}
    return built


def cases() -> dict:
    """Case name → (input name, runner of that input)."""
    from ray.data.aggregate import Sum

    from geetiles_ray.functions import pii, url
    from geetiles_ray.pipelines import analytics as an
    from geetiles_ray.pipelines import dedup
    from geetiles_ray.pipelines import grid, lines, pyramid, snapshots
    from geetiles_ray.stages import assign, joins
    from geetiles_ray.stages import temporal as tmp
    from geetiles_ray.state import manifest

    asof = dict(key="user_id", on="ts_us", right_on="click_ts",
                tiebreak="click_id")
    interval = dict(key="user_id", ts="ts_us", lo="lo_us", hi="hi_us",
                    bin_width=HOUR_US)
    events = dict(key="user_id", ts="ts_us", type_col="etype")
    quota = {lg: 1000 * (i + 1)
             for i, lg in enumerate(["en", "es", "de", "fr", "zh"])}

    def urls(b: pa.Table) -> pa.Table:
        site = pc.cast(pc.bit_wise_and(b["doc_id"], 4095), pa.string())
        return pa.table({
            "url": pc.binary_join_element_wise(
                "https://", b["lang"], ".site", site, ".example/p/",
                pc.cast(b["doc_id"], pa.string()), ""),
            "lang": b["lang"], "n_chars": pc.utf8_length(b["text"])})

    def region(b: pa.Table) -> pa.Table:
        return pa.table({"region": pc.bit_wise_and(b["user_id"], 3),
                         "nation": pc.bit_wise_and(b["user_id"], 15),
                         "cents": b["cents"]})

    def checkpoint(crawl) -> int:
        out = tempfile.mkdtemp(prefix="scale_probe_ckpt_")
        atexit.register(shutil.rmtree, out, True)
        return manifest.checkpointed_write(crawl, out, key_col="url")[
            "total_rows"]

    def tiles(b: pa.Table) -> pa.Table:
        return pa.table({"tx": pc.bit_wise_and(b["event_id"], 1023),
                         "ty": pc.bit_wise_and(b["user_id"], 1023)})

    return {
        "asof_join": ("asof", lambda lr: tmp.asof_join(*lr, **asof).count()),
        "interval_join": ("interval", lambda pw: tmp.interval_join(
            *pw, **interval).count()),
        "hopping_3x": ("events", lambda ev: tmp.hopping_windows(
            ev, ts="ts_us", length=6 * HOUR_US, hop=2 * HOUR_US).count()),
        "rolling_active": ("events", lambda ev: tmp.rolling_active(
            ev, key="user_id", ts="ts_us", window_days=7).count()),
        "session_windows": ("events", lambda ev: tmp.session_windows(
            ev, key="user_id", ts="ts_us", gap=HOUR_US // 2,
            order_tiebreak="event_id").count()),
        "lag_deltas": ("events", lambda ev: tmp.lag_deltas(
            ev, key="user_id", ts="ts_us", order_tiebreak="event_id")
            .count()),
        "funnel_steps": ("events", lambda ev: tmp.funnel_steps(
            ev, ["view", "click", "purchase"], **events).count()),
        "cohort_retention": ("events", lambda ev: tmp.cohort_retention(
            ev, **events).count()),
        "event_transitions": ("events", lambda ev: tmp.event_transitions(
            ev, order_col="event_id", **events).count()),
        "grouped_topn": ("events", lambda ev: an.grouped_topn(
            ev, keys=["user_id"], order_col="value", n=3,
            tiebreak="event_id").count()),
        "running_total": ("events", lambda ev: an.running_total(
            ev, key="user_id", order_cols=["ts_us", "event_id"],
            value_col="cents").count()),
        "grouped_quantiles": ("events", lambda ev: an.grouped_quantiles(
            ev, "user_id", "cents", [0.25, 0.5, 0.75])),
        "quantiles": ("events", lambda ev: an.quantiles_exact(
            ev, "value", [0.01, 0.5, 0.99])),
        "stratified_sample": ("events", lambda ev: an.stratified_sample(
            ev, key_col="event_id", strata_col="etype",
            rates={"view": (1, 10), "click": (1, 2)}).count()),
        "rollup": ("events", lambda ev: an.rollup(
            ev.map_batches(region, batch_format="pyarrow"),
            ["region", "nation"], "cents")),
        "pyramid_z10_to_0": ("events", lambda ev: pyramid.pyramid_counts(
            ev.map_batches(tiles, batch_format="pyarrow"), "tx", "ty",
            base_zoom=10)),
        "join_on_identifier": ("join", lambda lr: joins.join_on_identifier(
            *lr).count()),
        "join_on_identifier_bloom": ("join", lambda lr:
                                     joins.join_on_identifier_bloom(
                                         *lr).count()),
        "hash_join": ("join", lambda lr: joins.hash_join(
            *lr, on="identifier").count()),
        "upsert_patch": ("patch", lambda bu: dedup.upsert_patch(
            *bu, key="event_id", order_col="ts_us").count()),
        "snapshot_dedup": ("snapshot", lambda cp: snapshots
                           .dedup_against_snapshots(*cp, key="url").count()),
        "segment_dedup": ("docs", lambda d: lines.segment_dedup(
            d, "text", mode="words", width=3, min_docs=2).count()),
        "repetition_stats": ("docs", lambda d: lines.repetition_stats(
            d, ns=(2, 3)).count()),
        "dup_ngrams": ("docs", lambda d: lines.dup_ngram_stats(
            d, width=8, min_docs=2).aggregate(Sum("n_dup"))),
        "token_postings": ("docs", lambda d: an.token_postings(d).count()),
        "tfidf_topk": ("docs", lambda d: an.tfidf_topk(d, k=3).count()),
        "pmi_pairs": ("docs", lambda d: an.pmi_pairs(d, min_count=2, k=50)),
        "domain_stats": ("docs", lambda d: url.domain_stats(
            d.map_batches(urls, batch_format="pyarrow"))),
        "chunk_plan": ("docs", lambda d: an.chunk_plan(
            d, window=64, stride=48).aggregate(Sum("n_chunk_bytes"))),
        "shard_plan": ("docs", lambda d: an.shard_plan(
            d, key_col="doc_id", shard_size=4096).count()),
        "stratified_take": ("docs", lambda d: an.stratified_take(
            d, "doc_id", "lang", quota).count()),
        "dedup_exact": ("crawl", lambda c: dedup.dedup_exact(
            c, "url", "warc_ts").count()),
        "dedup_exact_broadcast": ("crawl", lambda c:
                                  dedup.dedup_exact_broadcast(
                                      c, "url", "warc_ts").count()),
        "grid_build": ("grid", lambda ac: grid.build_grid(*ac).count()),
        "cell_join_assign": ("geo_crawl", lambda pt: assign
                             .assign_by_cell_join(*pt, res=12, salt=2)
                             .count()),
        "checkpointed_write": ("crawl", checkpoint),
        "redact_pii": ("docs", lambda d: pii.redact_pii(
            d.select_columns(["doc_id", "text"]))
            .aggregate(Sum("n_email"), Sum("n_ipv4"))),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=int, default=1_000_000)
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--case", action="append", default=[])
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args()
    registry = cases()
    if args.list:
        print("\n".join(registry))
        return 0
    unknown = set(args.case) - set(registry)
    if unknown:
        ap.error(f"unknown case(s): {sorted(unknown)}; see --list")

    import logging

    import ray
    import ray.data

    from bench import host_probe

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    built = inputs(args.rows, args.cpus * 4)
    out = {"rows": args.rows, "num_cpus": args.cpus, **host_probe()}
    for name in args.case or list(registry):
        source, run = registry[name]
        data = built[source]()
        r0, t0 = rss_mb(), time.time()
        res = run(data)
        dt = time.time() - t0
        out[f"{name}_s"] = round(dt, 2)
        out[f"{name}_rss_mb"] = round(rss_mb() - r0, 1)
        if isinstance(res, int):
            out[f"{name}_out_rows_per_s"] = round(res / dt)
    out["driver_rss_peak_mb"] = round(rss_mb(), 1)
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
