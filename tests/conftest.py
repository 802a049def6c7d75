import logging

import numpy as np
import pytest
import ray
import ray.data


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from geetiles_ray.ray_tuning import tune
    tune(4)
    # create the named metrics actor DRIVER-owned up front: created lazily
    # from inside a transient map worker it would die with that worker
    # (ownership caveat in state/metrics._handle)
    from geetiles_ray.state import metrics as _metrics
    _metrics.reset()
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def aoi_ring():
    """FIXTURES.md F2: non-convex ~1°×1° AOI (L-shape around Luxembourg)."""
    return np.array([
        [5.8, 49.45], [6.5, 49.45], [6.5, 49.8], [6.2, 49.8],
        [6.2, 50.1], [5.8, 50.1], [5.8, 49.45],
    ])


@pytest.fixture(scope="session")
def box_aoi():
    """The pages-fixture AOI bbox (functions/geocode.py AOI_*) as a ring."""
    from geetiles_ray.functions import geom, geocode
    return geom.box_ring(geocode.AOI_W, geocode.AOI_S, geocode.AOI_E, geocode.AOI_N)


@pytest.fixture(params=["driver", "range"])
def fold_placement(request, monkeypatch):
    """Runs a test at both placements of ``dedup._fold_placed`` (under
    ``fold_partials`` and ``dedup_exact``): as is (small test inputs fold
    in one task; the ``driver`` id predates that task and is kept so test
    ids stay stable) and with the size threshold at 0, so every non-empty
    fold runs in hash-range tasks."""
    if request.param == "range":
        from geetiles_ray.pipelines import dedup
        monkeypatch.setattr(dedup, "ONE_TASK_FOLD_ROWS", 0)
    return request.param
