"""The benchmark's workloads: input shape and size, session shape, deadlines.

Both run ``flagship.run`` at ``num_cpus=1`` on seeded pages that
``inputs.make_pages`` writes before any timing starts.
"""

from __future__ import annotations

WORKLOADS = {
    # flagship.run(mode="single") on the 211-tile grid, crawl-shaped html
    "ingest_crawl": {"shape": "crawl", "n_unique": 49_000, "mode": "single",
                     "chip_m": 5000.0, "num_cpus": 1},
    # flagship.run(mode="cluster") plus a resume, 5,205-tile grid, skewed
    # recrawls with ties at the minimum, plain-text bodies
    "ingest_recrawl": {"shape": "recrawl", "n_unique": 14_000,
                       "mode": "cluster", "chip_m": 1000.0, "num_cpus": 1},
}

N_SETUPS = 3            # set-ups per run; setup_s is their median
MIN_JOBS = 4            # jobs per run at least, whatever --seconds says;
                        # the first is a warm-up and is not timed
SETUP_DEADLINE_S = 90
JOB_DEADLINE_S = 60
POST_DEADLINE_S = 90    # the traced pass
RUN_DEADLINE_S = 165    # the whole run, so it always exits within 180 s
