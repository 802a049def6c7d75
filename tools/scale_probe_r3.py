"""One-off scale probe for the round-3 operators: runs each over a 4M-row
deterministic synthetic events-shaped table (the oracle tables are 10⁴-10⁵
rows — this checks the operators' plans actually hold at 40-400x that).
Prints one JSON line; results recorded in BENCH/BASELINE.md.

Usage: python tools/scale_probe_r3.py  [RAY_GRAFT_CPUS=32]
"""

import json
import os
import sys
import time

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N = int(os.environ.get("PROBE_ROWS", "4000000"))
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def synth_events(n: int):
    """Deterministic events-shaped table: n rows, ~n/400 users, int64 µs
    timestamps over 30 days, 5 event types."""
    import pyarrow as pa
    import ray.data

    nblocks = NCPU * 4
    per = -(-n // nblocks)

    def gen(batch: pa.Table) -> pa.Table:
        b = int(batch["b"][0].as_py())
        lo = b * per
        m = min(per, n - lo)
        ids = np.arange(lo, lo + m, dtype=np.int64)
        r = np.random.default_rng(b + 1)
        return pa.table({
            "event_id": ids,
            "user_id": r.integers(0, max(n // 400, 1), m),
            "ts_us": r.integers(0, 30 * 86_400_000_000, m),
            "etype": np.take(np.array(["view", "click", "purchase",
                                       "signup", "error"]),
                             r.integers(0, 5, m)),
            "value": r.normal(100, 20, m),
        })

    return ray.data.range(nblocks, override_num_blocks=nblocks) \
        .map_batches(lambda t: pa.table({"b": t["id"]}),
                     batch_format="pyarrow", batch_size=None) \
        .map_batches(gen, batch_format="pyarrow", batch_size=None) \
        .materialize()


def main():
    import ray
    import ray.data

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    from bench import host_probe
    from geetiles_ray.pipelines import analytics as an
    from geetiles_ray.ray_tuning import tune
    from geetiles_ray.stages import temporal as tmp
    tune(NCPU)

    ev = synth_events(N)
    out = {"rows": N, "num_cpus": NCPU, **host_probe()}

    def timed(name, fn):
        t0 = time.time()
        r = fn()
        dt = time.time() - t0
        out[name] = round(dt, 2)
        out[f"{name}_rows_per_sec"] = round(N / dt)
        return r

    purchases = ev.filter(expr="etype == 'purchase'").materialize()
    clicks = ev.filter(expr="etype == 'click'") \
        .map_batches(lambda t: t.rename_columns(
            ["click_id", "user_id", "click_ts", "click_etype", "click_value"]),
            batch_format="pyarrow").materialize()

    timed("asof_join", lambda: tmp.asof_join(
        purchases, clicks.drop_columns(["click_etype"]), key="user_id",
        on="ts_us", right_on="click_ts", tiebreak="click_id")
        .count())

    windows = purchases.map_batches(
        lambda t: t.append_column(
            "hi_us", pa_compute_add(t["ts_us"], 3_600_000_000))
        .rename_columns(["window_id", "user_id", "lo_us", "w_etype",
                         "w_value", "hi_us"]),
        batch_format="pyarrow").drop_columns(["w_etype", "w_value"]) \
        .materialize()
    points = ev.filter(expr="etype == 'view'") \
        .map_batches(lambda t: t.rename_columns(
            ["event_id", "user_id", "ts_us", "p_etype", "p_value"]),
            batch_format="pyarrow").drop_columns(["p_etype", "p_value"]) \
        .materialize()
    timed("interval_join", lambda: tmp.interval_join(
        points, windows, key="user_id", ts="ts_us", lo="lo_us", hi="hi_us",
        bin_width=3_600_000_000).count())

    timed("grouped_topn", lambda: an.grouped_topn(
        ev, keys=["user_id"], order_col="value", n=3,
        tiebreak="event_id").count())

    timed("quantiles", lambda: an.quantiles_exact(
        ev, "value", [0.01, 0.5, 0.99]))

    timed("stratified_sample", lambda: an.stratified_sample(
        ev, key_col="event_id", strata_col="etype",
        rates={"view": (1, 10), "click": (1, 2)}).count())

    timed("hopping_3x", lambda: tmp.hopping_windows(
        ev, ts="ts_us", length=21_600_000_000, hop=7_200_000_000).count())

    # exchange-free broadcast plans (right side ≈ 800k rows here)
    clicks_df = clicks.drop_columns(["click_etype"]).to_pandas()
    timed("asof_join_bcast", lambda: tmp.asof_join_broadcast(
        purchases, clicks_df, key="user_id", on="ts_us",
        right_on="click_ts", tiebreak="click_id").count())
    windows_df = windows.to_pandas()
    timed("interval_join_bcast", lambda: tmp.interval_join_broadcast(
        points, windows_df, key="user_id", ts="ts_us", lo="lo_us",
        hi="hi_us", bin_width=3_600_000_000).count())

    print(json.dumps(out))
    ray.shutdown()


def pa_compute_add(arr, c):
    import pyarrow.compute as pc
    return pc.add(arr, c)


if __name__ == "__main__":
    main()
