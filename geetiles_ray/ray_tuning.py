"""Session-level Ray Data tuning, called by SESSION OWNERS only (bench.py,
tools/check_oracle.py, tests/conftest.py) — never from library code or the
driver-facing __ray_entry__ callables (the driver owns its own context).

Rationale: Ray Data's default ``min_parallelism`` of 200 forces every
all-to-all (sort/groupby shuffle) into ≥200 reduce partitions regardless of
data size; on a small-CPU local session that is pure fixed overhead
(~50-100 ms per task → 10-20 s per shuffle). Partition count should track
the cluster size, which is exactly what this sets.
"""

from __future__ import annotations

import logging


def tune(num_cpus: int | None = None) -> None:
    import ray
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    if num_cpus is None:
        num_cpus = int(ray.cluster_resources().get("CPU", 8))
    ctx.min_parallelism = max(8, num_cpus)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
