"""Benchmark of the geetiles_ray pages → tiles job (``flagship.run``).

Run from the repository root:

    python3 perfbench/run.py --workload ingest_crawl --seed 1 --seconds 10 --trace 0

Each run is a closed loop, one client and one job at a time, in a Ray
session of its own (``session.py``, a child process). This process makes
the seeded inputs, sets the deadlines, restarts the session when a job
misses its deadline, and prints one JSON result line as the last line of
standard output. Spans, per-layer numbers and the session log go to
``perfbench/_out/<workload>-s<seed>-t<trace>/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import inputs
from workloads import (JOB_DEADLINE_S, N_SETUPS, POST_DEADLINE_S,
                       RUN_DEADLINE_S, SETUP_DEADLINE_S, WORKLOADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
# the longest socket path Ray makes under its temp dir, less the dir itself
RAY_SOCKET_TAIL = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")

END_TO_END = {"setup_s": "s", "job_s": "s", "driver_rss_peak_mb": "MB"}
PER_LAYER = {
    "sources.read_s": "s", "sources.extract_s": "s", "sources.bytes_in": "B",
    "functions.geocode_us_per_row": "us", "stages.assign_s": "s",
    "stages.n_tiles": "count", "pipelines.grid_build_s": "s",
    "pipelines.dedup_keyset_s": "s", "pipelines.dedup_minima_s": "s",
    "pipelines.dedup_filter_s": "s", "pipelines.dedup_dup_keys": "count",
    "pipelines.dedup_tie_keys": "count", "pipelines.dedup_stats_bytes": "B",
    "pipelines.dedup_kept_ratio": "ratio", "pipelines.counts_s": "s",
    "state.ckpt_write_s": "s", "state.ckpt_read_s": "s",
    "state.partitions_written": "count", "state.partitions_skipped": "count",
    "state.bytes_per_input_byte": "ratio", "state.resume_s": "s",
    "trace.overhead_s": "s", "host_matmul_s": "s",
}


def host_matmul_s() -> float:
    """Seconds for one 2000×2000 float64 matmul: the host's speed at the
    time of the run, recorded for context."""
    a = np.random.default_rng(0).random((2000, 2000))
    t0 = time.perf_counter()
    a @ a
    return time.perf_counter() - t0


def ray_temp_dir() -> str:
    """Ray's temp dir: inside the checkout, unless the path is too long for
    the Unix sockets Ray puts under it (107 bytes on Linux)."""
    d = os.path.join(HERE, "_out", "ray")
    if len(d) + RAY_SOCKET_TAIL <= 107:
        return d
    tag = hashlib.sha256(ROOT.encode()).hexdigest()[:8]
    return os.path.join(tempfile.gettempdir(), f"pb-{tag}")


def _group_alive(pgid: int) -> bool:
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def stop_group(pgid: int, timeout: float = 20.0) -> None:
    """Kill every process of group ``pgid`` and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + timeout
    while _group_alive(pgid) and time.monotonic() < end:
        time.sleep(0.1)


def clear_stale_ray(ray_tmp: str) -> None:
    """Kill Ray daemons a killed earlier run left on this temp dir and drop
    their session directories: a stale session can hang the next init."""
    me = os.getpid()
    stale = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == me:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if ray_tmp.encode() in f.read():
                    stale.append(int(pid))
        except OSError:
            continue
    for pid in stale:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 20
    while stale and time.monotonic() < end:
        stale = [p for p in stale if os.path.exists(f"/proc/{p}")]
        time.sleep(0.1)
    if os.path.isdir(ray_tmp):
        for name in os.listdir(ray_tmp):
            if name.startswith("session_"):
                shutil.rmtree(os.path.join(ray_tmp, name), ignore_errors=True)


class Supervisor:
    """Runs session.py children until the workload's loop is done, with a
    deadline on set-up, on every job and on the traced pass."""

    def __init__(self, args, work: str, ray_tmp: str, t_run: float):
        self.args, self.work, self.ray_tmp, self.t_run = args, work, ray_tmp, t_run
        self.events: list[dict] = []
        self.lost_jobs: list[int] = []   # jobs that missed their deadline
        self.incidents: list[str] = []   # sessions that ended outside a job

    def run(self) -> None:
        first_op, setups, budget = 0, N_SETUPS, float(self.args.seconds)
        while True:
            state = self._session(first_op, setups, budget)
            if state["phase"] != "op":
                if state["phase"] != "exited":
                    self.incidents.append(state["phase"])
                return
            # a job missed its deadline or took the session down: count it,
            # restart, go on after it
            self.lost_jobs.append(state["op"])
            first_op, setups = state["op"] + 1, 1
            budget = max(0.0, budget - (time.monotonic() - state["loop_t"]))
            if time.monotonic() - self.t_run > RUN_DEADLINE_S - 30:
                return

    def _session(self, first_op: int, setups: int, budget: float) -> dict:
        rfd, wfd = os.pipe()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, HERE]),
                   RAY_TMPDIR=self.ray_tmp, RAY_USAGE_STATS_ENABLED="0",
                   RAY_DATA_DISABLE_PROGRESS_BARS="1", RAY_DEDUP_LOGS="0")
        env.pop("RAY_ADDRESS", None)
        cmd = [sys.executable, os.path.join(HERE, "session.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--budget", str(budget), "--trace", str(self.args.trace),
               "--setups", str(setups), "--first-op", str(first_op),
               "--work", self.work, "--ray-tmp", self.ray_tmp,
               "--events-fd", str(wfd)]
        with open(os.path.join(self.work, "session.log"), "ab") as log:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=log, env=env, pass_fds=(wfd,),
                                    start_new_session=True)
        os.close(wfd)
        state = {"phase": "setup", "deadline": time.monotonic() + SETUP_DEADLINE_S,
                 "op": None, "loop_t": time.monotonic()}
        buf = b""
        try:
            while True:
                now = time.monotonic()
                limit = min(state["deadline"], self.t_run + RUN_DEADLINE_S)
                if now >= limit:
                    break
                ready, _, _ = select.select([rfd], [], [], limit - now)
                if not ready:
                    continue
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    state["phase"] = "exited" if state["phase"] == "done" \
                        else state["phase"] + "_crash"
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    self._on_event(json.loads(line), state)
        finally:
            os.close(rfd)
            try:
                proc.wait(timeout=30 if state["phase"] == "exited" else 0.1)
            except subprocess.TimeoutExpired:
                pass
            stop_group(proc.pid)
            proc.wait()
        if state["phase"] == "op_crash":   # the session died inside a job
            state["phase"] = "op"
        return state

    def _on_event(self, ev: dict, state: dict) -> None:
        self.events.append(ev)
        kind = ev["ev"]
        now = time.monotonic()
        if kind == "start":
            state.update(phase="op", op=ev["op"], deadline=now + JOB_DEADLINE_S)
        elif kind == "loop":
            state.update(phase="loop", loop_t=now, deadline=now + 1e9)
        elif kind == "end":
            state.update(phase="loop", deadline=now + 1e9)
        elif kind == "loop_end":
            state.update(phase="post", deadline=now + POST_DEADLINE_S)
        elif kind == "done":
            state.update(phase="done", deadline=now + 30)


def summarize(args, sup: Supervisor, extra_checks: dict, host_s: float) -> dict:
    ev = sup.events
    by = lambda k: [e for e in ev if e["ev"] == k]  # noqa: E731
    ends = by("end")
    ok_ends = [e for e in ends if e["ok"]]
    setups = [e["s"] for e in by("setup")][:N_SETUPS]
    cfg = WORKLOADS[args.workload]

    # job 0 warms the session (first task imports, first object-store
    # pages) and is checked but not timed
    jobs = [e["wall_s"] + e.get("resume_s", 0.0) for e in ok_ends if e["op"]]

    checks_ok = {**extra_checks, "session_finished": not sup.incidents,
                 "ingest_output": False}
    for e in by("check"):
        checks_ok[e["name"]] = e["ok"]
    digests = {e["digest"] for e in ok_ends}
    checks_ok["same_digest_every_job"] = len(digests) == 1
    if cfg["mode"] == "cluster":
        checks_ok["resume_writes_nothing"] = all(
            e["resume_written"] == 0 for e in ok_ends)
        checks_ok["resume_same_digest"] = all(
            e["resume_digest"] == e["digest"] for e in ok_ends)
    traced = by("traced")
    if args.trace:
        checks_ok["traced_run_finished"] = bool(traced)
    for t in traced:
        checks_ok["traced_same_digest"] = digests == {t["digest"]}
        if cfg["mode"] == "cluster":
            checks_ok["traced_resume_same_digest"] = \
                t["resume_digest"] == t["digest"] and t["resume_written"] == 0

    failed = len(sup.lost_jobs) + sum(1 for e in ends if not e["ok"])
    attempted = len(by("start"))
    rss = [e["rss_mb"] for e in by("loop_end")]
    if not setups or not jobs or not rss:
        raise RuntimeError(f"nothing measured: {len(setups)} set-ups, "
                           f"{len(jobs)} jobs, {failed} failed")
    if args.trace:
        m = {k: 0.0 for k in PER_LAYER}
        for t in traced:
            m.update(t["metrics"])
            m["trace.overhead_s"] = t["total_s"] - statistics.median(jobs)
        m["host_matmul_s"] = host_s
        units = PER_LAYER
    else:
        m = {"setup_s": statistics.median(setups),
             "job_s": statistics.median(jobs),
             "driver_rss_peak_mb": max(rss)}
        units = END_TO_END
    return {"correct": all(checks_ok.values()),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(m[k]), "unit": units[k]}
                        for k in units},
            "checks": checks_ok, "jobs_s": jobs, "setups_s": setups,
            "lost_jobs": sup.lost_jobs, "incidents": sup.incidents}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_run = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "geetiles_ray", "__init__.py")):
        print("run from the repository root: geetiles_ray/ not found",
              file=sys.stderr)
        return 2

    cfg = WORKLOADS[args.workload]
    work = os.path.join(HERE, "_out",
                        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    host_s = host_matmul_s()
    extra = {"checks_selftest": not checks.selftest()}
    info = inputs.make_pages(cfg["shape"], cfg["n_unique"], args.seed,
                             os.path.join(work, "pages.parquet"))
    print(f"{args.workload}: {info['rows']} pages, "
          f"{info['unique_urls']} distinct urls", file=sys.stderr)

    ray_tmp = ray_temp_dir()
    clear_stale_ray(ray_tmp)
    os.makedirs(ray_tmp, exist_ok=True)
    sup = Supervisor(args, work, ray_tmp, t_run)
    try:
        sup.run()
    finally:
        clear_stale_ray(ray_tmp)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        for name in ("pages.parquet", "ckpt", "ckpt_traced"):
            p = os.path.join(work, name)
            shutil.rmtree(p, ignore_errors=True) if os.path.isdir(p) \
                else (os.path.exists(p) and os.remove(p))
    try:
        result = summarize(args, sup, extra, host_s)
    except RuntimeError as e:
        print(f"{args.workload}: {e}; see {work}/session.log", file=sys.stderr)
        return 1
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({**result, "host_matmul_s": host_s}, f, indent=1)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
