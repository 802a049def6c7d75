"""Integer PageRank (pipelines/graph.py)."""

import numpy as np
import pandas as pd
import ray.data

from geetiles_ray.pipelines import dedup, graph


class TestPageRank:
    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        n = 300
        edges = pd.DataFrame({
            "src": rng.integers(0, n, 900).astype("int64"),
            "dst": rng.integers(0, n, 900).astype("int64"),
        })
        got = graph.pagerank(ray.data.from_pandas(edges), n, iters=3) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        exp = graph.pagerank_reference(edges, n, iters=3)
        assert len(got) == n
        np.testing.assert_array_equal(got.r.to_numpy(), exp)

    def test_sink_and_source_nodes(self):
        # node 3 dangling (no out-edges), node 4 isolated (base rank only)
        edges = pd.DataFrame({"src": [0, 1, 2], "dst": [3, 3, 0]})
        n = 5
        got = graph.pagerank(ray.data.from_pandas(edges), n, iters=2) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        exp = graph.pagerank_reference(edges, n, iters=2)
        np.testing.assert_array_equal(got.r.to_numpy(), exp)
        base = (15 * (graph.SCALE // n)) // 100
        assert got.r[4] == base          # isolated: base term only
        assert got.r[3] > got.r[0]       # popular sink outranks others

    def test_join_plan_parity(self):
        # force the join/exchange plan and assert identical ranks
        rng = np.random.default_rng(21)
        n = 120
        edges = pd.DataFrame({
            "src": rng.integers(0, n, 500).astype("int64"),
            "dst": rng.integers(0, n, 500).astype("int64"),
        })
        a = graph.pagerank(ray.data.from_pandas(edges), n, iters=2) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        b = graph.pagerank(ray.data.from_pandas(edges), n, iters=2,
                           broadcast_limit=0) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        np.testing.assert_array_equal(a.r.to_numpy(), b.r.to_numpy())

    def test_join_plan_parity_over_hash_range_folds(self, monkeypatch):
        monkeypatch.setattr(dedup, "ONE_TASK_FOLD_ROWS", 0)
        self.test_join_plan_parity()

    def test_blocking_invariance(self):
        rng = np.random.default_rng(8)
        n = 100
        edges = pd.DataFrame({
            "src": rng.integers(0, n, 400).astype("int64"),
            "dst": rng.integers(0, n, 400).astype("int64"),
        })
        one = graph.pagerank(ray.data.from_pandas(edges), n, iters=2) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        many = graph.pagerank(
            ray.data.from_pandas(
                [d for d in np.array_split(edges, 7) if len(d)]),
            n, iters=2).to_pandas().sort_values("node") \
            .reset_index(drop=True)
        np.testing.assert_array_equal(one.r.to_numpy(), many.r.to_numpy())
