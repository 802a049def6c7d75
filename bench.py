"""Benchmark harness (driver contract + BASELINE.md protocol).

Default: runs the flagship pipeline (generate pages → dedup-by-url →
html→text extraction → geocode → tile assignment → per-tile lang counts)
over a deterministic synthetic page table, plus the oracle query suite over
$GRAFT_SF_DIR, and prints ONE JSON line:

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, ...}

--scaling: runs the headline in fresh processes at num_cpus=N and 4N
(default 4 and 16, best-of-3 per leg — GRAFT_SCALE_LO/HI/REPS) on the
SAME input and reports both throughputs + scaling efficiency
(the sandbox substitute for the N vs 4N cluster criterion — BASELINE.md).
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
N_PAGES = int(os.environ.get("GRAFT_BENCH_PAGES", "4000000"))
SF = float(SF_DIR.rstrip("/").rsplit("sf", 1)[-1]) if "sf" in SF_DIR else -1.0

BENCH_QUERIES = ["page_tile_counts", "tile_lang_share", "dedup_events",
                 "pricing_summary", "top_customers", "events_hourly",
                 "token_stats", "knn_pages",
                 # round-2 operators
                 "dedup_events_broadcast", "orders_customer_join",
                 "embedding_neardup", "ann_topk",
                 # round-3 operators
                 "asof_join_events", "purchase_window_events",
                 "top_orders_per_customer", "price_quantiles",
                 "top_tokens", "stratified_sample",
                 "kmeans_clusters", "ann_lsh",
                 # round-3b operators
                 "segment_dedup", "domain_stats", "tile_pyramid",
                 "sales_rollup", "running_totals", "token_postings",
                 "tfidf_terms", "lang_quantiles", "quality_filter",
                 "orders_join_bloom", "events_zscore", "repetition_stats",
                 "host_cap", "events_outliers", "hll_users", "cms_events",
                 "unigram_logprob", "pmi_pairs", "pagerank_docs",
                 "tile_top_tokens", "upsert_orders", "json_props",
                 "event_sessions",
                 # round-4 operators
                 "decontaminate", "video_features", "patch_orders",
                 "normalize_text", "model_score", "skipgram_pairs",
                 "link_graph", "host_rank", "event_deltas", "canonical_urls",
                 "pack_bins", "importance_weights",
                 # round-5 operators
                 "bpe_tokens", "incremental_dedup", "chunk_docs",
                 "redact_pii", "shard_plan", "curation_shards", "dup_ngrams", "mixture_take", "oov_rate", "crawl_budget", "centroid_outliers", "funnel_steps", "cohort_retention", "rolling_active", "event_transitions",
                 "shipping_priority", "late_orders", "chunk_texts", "priority_shipmix", "promo_share", "returned_revenue"]


def host_probe() -> dict:
    """~1 s single-process probe of the host's real compute/memory speed.
    This VM shows episodic hypervisor throttling that /proc/stat steal does
    NOT reveal (observed idle=100%%, steal=0%% while matmul ran 10-30x
    slow); recording the probe beside every benchmark lets a reader
    separate code regressions from a throttled measurement window.
    Healthy reference on this host: matmul ≈ 0.15-0.5 s, memsum ≳ 5 GB/s."""
    import numpy as np

    a = np.random.default_rng(0).random((2000, 2000))
    t0 = time.time()
    a @ a
    mm = time.time() - t0
    b = np.zeros(1 << 27, dtype=np.uint8)  # 128 MiB
    t0 = time.time()
    b.sum()
    ms = time.time() - t0
    return {"host_matmul_sec": round(mm, 3),
            "host_memsum_gbps": round((1 << 27) / ms / 1e9, 2)}


def wait_for_healthy(budget_sec: float) -> dict:
    """Bounded wait for an unthrottled measurement window: re-probe every
    45 s until the host looks healthy (matmul < 0.6 s, memsum > 4 GB/s)
    or the budget runs out. The throttling episodes on this VM last
    minutes and make any timing 10-30x off; waiting (bounded, honestly
    recorded via ``waited_for_healthy_sec`` / ``throttled_window``) makes
    round-over-round benchmark numbers comparable. ``budget_sec=0`` =
    probe once, never wait (subprocess scaling legs use this — the parent
    waits once for all of them)."""
    t0 = time.time()
    while True:
        p = host_probe()
        if p["host_matmul_sec"] < 0.6 and p["host_memsum_gbps"] > 4.0:
            break
        if time.time() - t0 >= budget_sec:
            p["throttled_window"] = True
            break
        time.sleep(45)
    p["waited_for_healthy_sec"] = round(time.time() - t0, 1)
    return p


def run_bench() -> dict:
    import ray

    probe = wait_for_healthy(float(os.environ.get("GRAFT_WAIT_HEALTHY", "420")))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             logging_level="ERROR")
    from geetiles_ray.ray_tuning import tune

    tune(NCPU)
    # Since round 2 the flagship has NO all-to-all exchange at all: the
    # url-dedup is the broadcast-min form (dedup_exact_broadcast) — two
    # narrow scans + a map-side filter, tie exchange never fires on crawl
    # timestamps. Every exchange runs on Ray's default sort shuffle.

    # warm the OS page cache so we measure compute+shuffle, not first read
    for name in os.listdir(SF_DIR):
        with open(os.path.join(SF_DIR, name), "rb") as f:
            while f.read(1 << 24):
                pass

    # spin up the worker-process pool before timing: each Ray worker pays
    # ~1.5 s of numpy/pandas/pyarrow import on first task — at 32 workers
    # that is ~45 s of CPU landing inside the measured window otherwise
    def _warm(b):
        import numpy as _n  # noqa: F401
        import pandas as _p  # noqa: F401
        import pyarrow as _a  # noqa: F401
        from geetiles_ray.sources import pages as _pg  # noqa: F401
        return b

    ray.data.range(NCPU * 8, override_num_blocks=NCPU * 8) \
        .map_batches(_warm, batch_size=1).materialize()

    from geetiles_ray.pipelines import flagship
    from geetiles_ray.pipelines.queries import REGISTRY
    from geetiles_ray.sources import pages as pagesmod

    tiles = flagship.build_fixture_tileset()
    n_tiles = tiles.count()

    t0 = time.time()
    # flagship.run materializes the assignment once and derives the
    # per-tile counts from the materialized blocks (single execution)
    assigned, counts = flagship.run(
        pagesmod.generate_pages(N_PAGES), tiles=tiles,
        concurrency=(2, max(2, NCPU // 2)), batch_size=8192)
    n_assigned = assigned.count()
    tile_counts = counts.materialize()
    n_join = tile_counts.count()
    headline = time.time() - t0
    # a second probe AFTER the timed leg: this VM's throttle episodes flip
    # mid-run, so a single pre-run probe can label a slow window healthy
    # (observed: matmul 0.28 s pre-run, flagship 181 s, memsum 1.3 GB/s —
    # the bandwidth throttle, not compute, gates this string-bound
    # pipeline). post-probe + pre-probe bound the window honestly.
    post = host_probe()
    del assigned

    qtimes = {}
    if not os.environ.get("GRAFT_SKIP_QUERIES"):
        for name in BENCH_QUERIES:
            fn, _sql = REGISTRY[name]
            t0 = time.time()
            res = fn(SF_DIR)
            if hasattr(res, "to_pandas"):
                res.to_pandas() if not hasattr(res, "count") else res.count()
            qtimes[name] = round(time.time() - t0, 3)

    out = {
        "metric": "flagship pages->tiles pipeline wall time "
                  "(dedup+extract+geocode+assign+per-tile counts)",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF,
        "num_cpus": NCPU,
        "n_pages": N_PAGES,
        "n_tiles": int(n_tiles),
        "n_assigned_rows": int(n_assigned),
        "n_tile_lang_rows": int(n_join),
        "pages_per_sec": round(N_PAGES / headline, 1),
        "host_matmul_sec_post": post["host_matmul_sec"],
        "host_memsum_gbps_post": post["host_memsum_gbps"],
        **probe,
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    def run(ncpu: int) -> dict:
        # the scaling metric is the flagship wall time only — skip the
        # query suite inside each leg (it would add ~30 s/leg of noise
        # exposure without touching the measured number)
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_PAGES=str(N_PAGES), GRAFT_SKIP_QUERIES="1",
                   GRAFT_WAIT_HEALTHY="0")  # parent waited for the window
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True, cwd=os.path.dirname(os.path.abspath(__file__)))
        return json.loads(out.stdout.strip().splitlines()[-1])

    # default 4→16: the largest 4x pair below this host's single-socket
    # memory-bandwidth rolloff (BENCH/BASELINE.md documents the full
    # 2/4/8/16/32 ladder including 8→32, which is capped ~0.63 by one
    # node's plasma+DRAM bandwidth — a ceiling a multi-node cluster
    # doesn't have)
    lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))
    reps = int(os.environ.get("GRAFT_SCALE_REPS", "3"))
    probe = wait_for_healthy(float(os.environ.get("GRAFT_WAIT_HEALTHY", "420")))
    # best-of-N per leg: this sandbox VM shows real CPU steal (noisy
    # neighbours, /proc/stat col 8), so a single 10-60 s timing can be
    # 2x off; the minimum is the closest estimate of true capability
    runs_lo = [run(lo) for _ in range(reps)]
    runs_hi = [run(hi) for _ in range(reps)]
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    return {
        "metric": f"scaling efficiency ({lo}→{hi} CPUs, fresh processes, "
                  f"same input, best of {reps})",
        "n_pages": N_PAGES,
        f"sec_{lo}": r_lo["value"], f"sec_{hi}": r_hi["value"],
        f"sec_{lo}_all": [r["value"] for r in runs_lo],
        f"sec_{hi}_all": [r["value"] for r in runs_hi],
        f"pages_per_sec_{lo}": r_lo["pages_per_sec"],
        f"pages_per_sec_{hi}": r_hi["pages_per_sec"],
        "scaling_efficiency": round(eff, 3),
        # window-health evidence: parent pre-wait probe + each best leg's
        # own probe (throttling mid-run shows up here)
        **probe,
        f"host_matmul_sec_{lo}": r_lo["host_matmul_sec"],
        f"host_matmul_sec_{hi}": r_hi["host_matmul_sec"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
