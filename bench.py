"""Benchmark harness (driver contract + BASELINE.md protocol).

Default: runs the flagship pipeline (generate pages → dedup-by-url →
html→text extraction → geocode → tile assignment → per-tile lang counts)
over a deterministic synthetic page table, plus the oracle query suite over
$GRAFT_SF_DIR (every ``REGISTRY`` query, or ``--only name[,name]``), and
prints ONE short JSON line, the headline and
the host probes:

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "pages_per_sec": ..., "queries_sec": ..., "host_matmul_sec": ..., ...}

The per-query times go to ``bench_queries.json`` beside this file.

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
QUERIES_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_queries.json")

def suite_queries(registry, only: list[str] | None = None):
    """The queries a run times: ``only`` if given (every name must be in
    ``registry``), else every registry query."""
    if only:
        unknown = [q for q in only if q not in registry]
        if unknown:
            raise SystemExit(f"unknown queries: {', '.join(unknown)}")
        return list(only)
    return list(registry)


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


def run_bench(only: list[str] | None = None) -> dict:
    import ray

    from geetiles_ray.pipelines.queries import REGISTRY

    queries = suite_queries(REGISTRY, only)
    probe = wait_for_healthy(float(os.environ.get("GRAFT_WAIT_HEALTHY", "420")))
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             logging_level="ERROR")
    from geetiles_ray.ray_tuning import tune

    tune(NCPU)
    # The flagship has NO all-to-all exchange: its url dedup (dedup_exact)
    # folds the per-batch partials in one task, or in url-hash-range tasks
    # above dedup.ONE_TASK_FOLD_ROWS partial rows (the 4M-page headline
    # takes the range fold). Every exchange runs on Ray's default sort
    # shuffle.

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
    from geetiles_ray.sources import pages as pagesmod

    tiles = flagship.build_fixture_tileset()
    n_tiles = tiles.count()

    t0 = time.time()
    # flagship.run materializes the assignment once and derives the
    # per-tile counts from the materialized blocks (single execution)
    assigned, counts = flagship.run(pagesmod.generate_pages(N_PAGES),
                                    tiles=tiles)
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
        for name in queries:
            fn, _sql = REGISTRY[name]
            t0 = time.time()
            res = fn(SF_DIR)
            if hasattr(res, "to_pandas"):
                res.to_pandas() if not hasattr(res, "count") else res.count()
            qtimes[name] = round(time.time() - t0, 3)
        with open(QUERIES_OUT, "w") as f:
            json.dump({"sf": SF, "num_cpus": NCPU, "queries": qtimes}, f,
                      indent=1)

    # the stdout line stays short (headline + host probes) so a capture
    # of its tail parses; per-query times are in QUERIES_OUT
    out = {
        "metric": "flagship pages->tiles pipeline wall time "
                  "(dedup+extract+geocode+assign+per-tile counts)",
        "value": round(headline, 3),
        "unit": "sec",
        "pages_per_sec": round(N_PAGES / headline, 1),
        "n_pages": N_PAGES,
        "n_tiles": int(n_tiles),
        "n_assigned_rows": int(n_assigned),
        "n_tile_lang_rows": int(n_join),
        "num_cpus": NCPU,
        "sf": SF,
        "n_queries": len(qtimes),
        "queries_sec": round(sum(qtimes.values()), 3),
        "queries_file": QUERIES_OUT if qtimes else None,
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
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scaling", action="store_true",
                    help="N-vs-4N-CPU scaling legs instead of one run")
    ap.add_argument("--only", default="",
                    help="comma-separated query names to time (default: "
                         "the whole registry)")
    args = ap.parse_args()
    if args.scaling:
        print(json.dumps(run_scaling()))
    else:
        only = [q for q in args.only.split(",") if q]
        print(json.dumps(run_bench(only)))
