"""One Ray session of a benchmark run, started and watched by ``run.py``.

It sets up (imports, Ray init, warm worker pool, tileset) ``--setups`` times,
runs the workload's job from job ``--first-op`` on until the loop has run
for ``--budget`` seconds (output checks excluded), checks the first output
and, with ``--trace 1``, makes one traced pass. Progress goes to the parent
as JSON lines on ``--events-fd``; whatever this process or Ray prints goes
to the session log.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

T_START = time.perf_counter()
import pandas as pd  # noqa: E402
import ray  # noqa: E402
import ray.data  # noqa: E402

from geetiles_ray.pipelines import flagship  # noqa: E402
from geetiles_ray.ray_tuning import tune  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import MIN_JOBS, WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


class Session:
    def __init__(self, args):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.events = os.fdopen(args.events_fd, "w", buffering=1)
        self.pages_path = os.path.join(args.work, "pages.parquet")
        self.tiles = None
        self.checked = False
        self.check_s = 0.0

    def emit(self, ev: str, **fields) -> None:
        self.events.write(json.dumps({"ev": ev, **fields}) + "\n")

    def setup(self) -> float:
        """One set-up; the import time of this process counts in each."""
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.cfg["num_cpus"],
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=512 << 20,
                 _temp_dir=self.args.ray_tmp)
        tune(self.cfg["num_cpus"])

        def warm(batch):
            import geetiles_ray.pipelines.flagship  # noqa: F401
            return batch

        ray.data.range(2, override_num_blocks=2) \
            .map_batches(warm, batch_size=1).materialize()
        self.tiles = flagship.build_fixture_tileset(self.cfg["chip_m"])
        self.n_tiles = self.tiles.count()
        return IMPORT_S + time.perf_counter() - t0

    def job(self) -> dict:
        """One closed-loop job: flagship.run, plus the resume in cluster
        mode. Only the calls and the consumption of their output are timed."""
        ck = os.path.join(self.args.work, "ckpt")
        shutil.rmtree(ck, ignore_errors=True)
        kw = {"tiles": self.tiles, "mode": self.cfg["mode"]}
        if self.cfg["mode"] == "cluster":
            kw["checkpoint_dir"] = ck

        def call():
            t0 = time.perf_counter()
            out, counts = flagship.run(ray.data.read_parquet(self.pages_path), **kw)
            counts_df = counts.to_pandas()
            return time.perf_counter() - t0, out.to_pandas(), counts_df

        wall, out_df, counts_df = call()
        res = {"wall_s": wall, "digest": checks.digest(out_df, counts_df)}
        if self.cfg["mode"] == "cluster":
            resume_s, out2, counts2 = call()
            res.update(resume_s=resume_s,
                       resume_written=len(flagship.run.last_checkpoint_report["written"]),
                       resume_digest=checks.digest(out2, counts2))
        if not self.checked:
            self.check(out_df, counts_df)
        return res

    def check(self, out_df: pd.DataFrame, counts_df: pd.DataFrame) -> None:
        """The output checks, outside the job's timing and the budget."""
        t0 = time.perf_counter()
        pages = pd.read_parquet(self.pages_path,
                                columns=["url", "warc_ts", "text", "lang"])
        problems = checks.check_ingest(pages, out_df, counts_df,
                                       self.tiles.to_pandas())
        self.emit("check", name="ingest_output", ok=not problems,
                  detail="; ".join(problems))
        self.checked = True
        self.check_s += time.perf_counter() - t0

    def loop(self) -> None:
        t0 = time.perf_counter()
        op = self.args.first_op
        self.emit("loop")
        rss_mb = None
        while (time.perf_counter() - t0 - self.check_s < self.args.budget
               or op < MIN_JOBS):
            self.emit("start", op=op)
            try:
                self.emit("end", op=op, ok=True, **self.job())
            except Exception as e:  # a failed job is counted, not fatal
                self.emit("end", op=op, ok=False,
                          error=f"{type(e).__name__}: {e}"[:500])
            op += 1
            if op == MIN_JOBS:
                # read after a fixed number of jobs: the driver's heap grows
                # with every job, so a peak read at the end would follow speed
                rss_mb = peak_rss_mb()
        self.emit("loop_end", rss_mb=rss_mb or peak_rss_mb())

    def traced(self) -> None:
        tr = Tracer(self.args.workload, self.args.seed)
        res = layers.traced_ingest(tr, self.cfg, self.pages_path,
                                   os.path.join(self.args.work, "ckpt_traced"))
        tr.write(os.path.join(self.args.work, "trace.json"))
        self.emit("traced", **res)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--events-fd", type=int, required=True)
    s = Session(ap.parse_args())
    try:
        for i in range(s.args.setups):
            if i:
                ray.shutdown()
            s.emit("setup", s=s.setup(), n_tiles=s.n_tiles)
        s.loop()
        if s.args.trace:
            s.traced()
        s.emit("done")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
