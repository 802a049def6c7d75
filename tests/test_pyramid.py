"""Tile-pyramid rollup (pipelines/pyramid.py)."""

import numpy as np
import pandas as pd
import ray.data

from geetiles_ray.pipelines import dedup, pyramid


def _points(n=3000, zoom=4, seed=7):
    rng = np.random.default_rng(seed)
    nx = 1 << zoom
    return pd.DataFrame({"tx": rng.integers(0, nx, n),
                         "ty": rng.integers(0, nx, n)})


def _brute(df, base_zoom, min_zoom=0):
    rows = []
    for z in range(min_zoom, base_zoom + 1):
        shift = base_zoom - z
        key = (df.ty // (1 << shift)) * (1 << z) + (df.tx // (1 << shift))
        for cell, cnt in key.value_counts().items():
            rows.append((z, int(cell), int(cnt)))
    return pd.DataFrame(rows, columns=["zoom", "cell_key", "n_pages"]) \
        .sort_values(["zoom", "cell_key"]).reset_index(drop=True) \
        .astype("int64")


class TestPyramid:
    def test_driver_cascade_matches_brute(self):
        df = _points()
        got = pyramid.pyramid_counts(ray.data.from_pandas(df), "tx", "ty",
                                     base_zoom=4)
        pd.testing.assert_frame_equal(got, _brute(df, 4))
        # invariant: every level sums to the full corpus
        assert (got.groupby("zoom").n_pages.sum() == len(df)).all()
        # root is a single cell
        assert len(got[got.zoom == 0]) == 1

    def test_dataset_cascade_parity(self):
        df = _points(n=800, seed=3)
        ds = ray.data.from_pandas(df)
        a = pyramid.pyramid_counts(ds, "tx", "ty", 4, cascade="driver")
        b = pyramid.pyramid_counts(ds, "tx", "ty", 4, cascade="dataset")
        pd.testing.assert_frame_equal(a, b)

    def test_both_cascades_over_hash_range_folds(self, monkeypatch):
        monkeypatch.setattr(dedup, "ONE_TASK_FOLD_ROWS", 0)
        self.test_driver_cascade_matches_brute()
        self.test_dataset_cascade_parity()

    def test_min_zoom_and_sparse(self):
        df = pd.DataFrame({"tx": [0, 15, 15], "ty": [0, 15, 15]})
        got = pyramid.pyramid_counts(ray.data.from_pandas(df), "tx", "ty",
                                     base_zoom=4, min_zoom=3)
        assert set(got.zoom) == {3, 4}
        z4 = got[got.zoom == 4].set_index("cell_key").n_pages
        assert z4[0] == 1 and z4[15 * 16 + 15] == 2
