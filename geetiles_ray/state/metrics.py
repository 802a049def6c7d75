"""Pipeline metrics / progress counters (ST5 — the reference prints a
progress sequence every N tiles, gee.py:110-113 and wraps loops in pbar;
an engine needs the same signal without a console).

Design for the cluster: ONE named zero-CPU actor holds the counter map;
stages buffer increments locally and flush with fire-and-forget calls
(``.remote`` without ``ray.get``) so the hot path never blocks on the
actor — at 4M rows / 8k batches that is ~500 tiny RPCs per stage, not
one per row. The flush that ends a batch waits for delivery
(``flush(wait=True)``), so a stage's counts are in by the time its output
is. The driver (CLI, tests, a dashboard poller) reads a consistent
snapshot with ``snapshot()``.

Per-partition lineage metrics (rows, wall time, fingerprints) live in
state/manifest.py next to the data; this module is the LIVE view while
a pipeline runs.
"""

from __future__ import annotations

import time

import ray

_ACTOR_NAME = "geetiles_metrics"


@ray.remote(num_cpus=0)
class _MetricsActor:
    def __init__(self):
        self.counters: dict[str, float] = {}
        self.t0 = time.time()

    def inc(self, updates: dict[str, float]) -> None:
        for k, v in updates.items():
            self.counters[k] = self.counters.get(k, 0.0) + v

    def snapshot(self) -> dict:
        out = dict(self.counters)
        out["_uptime_sec"] = round(time.time() - self.t0, 3)
        return out

    def reset(self) -> None:
        self.counters.clear()
        self.t0 = time.time()


def _handle():
    # session-scoped (NOT detached): a live view only needs to outlive the
    # stages, not the driver — detached actors leak on shared clusters.
    # OWNERSHIP CAVEAT: a named non-detached actor is owned by whichever
    # process creates it, and dies with that owner or once the owner holds
    # no handle to it; if the owner is a transient Ray worker (a stage
    # task calling StageMetrics first), the counters die with it. Driver
    # entry points therefore create it up front (reset()/snapshot() before
    # the pipeline) and keep their handle (_driver_handles).
    return _MetricsActor.options(
        name=_ACTOR_NAME, get_if_exists=True).remote()


class StageMetrics:
    """Per-worker buffered counter client. Create one per stage (or per
    batch in a task), call ``inc`` per row or batch, rely on
    ``flush_every`` batching — increments reach the actor as
    fire-and-forget RPCs."""

    def __init__(self, stage: str, flush_every: int = 16):
        self.stage = stage
        self.flush_every = flush_every
        self.buf: dict[str, float] = {}
        self.pending = 0
        self.actor = _handle()

    def inc(self, name: str, n: float = 1) -> None:
        key = f"{self.stage}.{name}"
        self.buf[key] = self.buf.get(key, 0.0) + n
        self.pending += 1
        if self.pending >= self.flush_every:
            self.flush()

    def flush(self, wait: bool = False) -> None:
        """Send the buffered increments. Fire-and-forget by default: a
        dead target surfaces nowhere here (the increments are lost), which
        a live progress view tolerates; driver-side snapshot()/reset()
        recreate a dead actor. ``wait=True`` returns once the actor has
        applied them — and every earlier flush, since one caller's calls
        run in order. Use it at the end of a batch: the counts then arrive
        before the batch does, and cannot be dropped by Ray Data tearing
        the worker down before a fire-and-forget call is sent."""
        if self.buf:
            ref = self.actor.inc.remote(dict(self.buf))
            self.buf.clear()
            if wait:
                try:
                    ray.get(ref)
                except ray.exceptions.RayActorError:
                    pass    # counter actor gone: lost, as fire-and-forget
        self.pending = 0

    def __del__(self):
        try:
            self.flush()
        except Exception:
            pass


# the driver's handle per Ray session (node ids are new with every
# ray.init): holding it keeps the driver-owned counter actor alive for the
# session instead of until the end of the call that created it
_driver_handles: dict[str, object] = {}


def _call(method: str):
    """Driver-side actor call that survives a dead named actor: if the
    registered actor's owner died (ownership caveat in _handle), kill the
    dead registration so ``get_if_exists`` creates a fresh, driver-owned
    one, and retry once."""
    node = ray.get_runtime_context().get_node_id()
    h = _driver_handles.get(node)
    if h is None:
        _driver_handles.clear()
        h = _driver_handles[node] = _handle()
    try:
        return ray.get(getattr(h, method).remote())
    except ray.exceptions.RayActorError:
        try:
            ray.kill(h)  # purges the name registration
        except Exception:
            pass
        h = _driver_handles[node] = _handle()
        return ray.get(getattr(h, method).remote())


def snapshot() -> dict:
    """Consistent read of all counters (drains in-flight increments only
    up to actor-arrival order — callers polling progress don't need a
    barrier)."""
    return _call("snapshot")


def reset() -> None:
    _call("reset")
