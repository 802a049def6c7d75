"""Scale probe for the partial fold (dedup.fold_partials) behind
pmi_pairs, tile_top_tokens and token_postings. It runs them on a
synthetic corpus whose bigram space is MILLIONS of distinct keys at 1M
docs (~700k bigram partial rows at 100k docs, above
AUTO_DRIVER_PARTIAL_ROWS, so the hash-range placement is taken) and
records driver peak-RSS growth — the failure mode it guards against is a
driver concat of the whole key space.

Usage: python tools/scale_probe_r4.py [n_docs]
Writes one JSON line; pass criterion = driver RSS growth stays far below
the key-space size (~O(bigrams) ≈ GBs at 1M docs). The corpus is cached
as a parquet file in the system temp directory ($TMPDIR).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import os
    import tempfile
    path = os.path.join(tempfile.gettempdir(),
                        f"scale_probe_docs_{n_docs}.parquet")
    if not os.path.exists(path):
        # 8 tokens/doc over a 50k vocab, id-derived → ~7 distinct bigrams
        # per doc, ~5-7M distinct bigrams at 1M docs
        ids = np.arange(n_docs, dtype=np.int64)
        texts = [
            " ".join(f"w{(i * m + j) % 50000}"
                     for j, m in enumerate((1, 7, 13, 29, 31, 37, 41, 43)))
            for i in ids
        ]
        pq.write_table(pa.table({"doc_id": ids, "text": texts,
                                 "tile_key": ids % 997}), path)

    import ray
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    import logging

    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from geetiles_ray.pipelines import analytics as anmod
    from geetiles_ray.pipelines.dedup import fold_partials

    results = {"n_docs": n_docs}

    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])
    r0 = rss_mb()
    t0 = time.time()
    pmi = anmod.pmi_pairs(ds, min_count=2, k=50)
    results["pmi_pairs_sec"] = round(time.time() - t0, 2)
    results["pmi_rows"] = len(pmi)
    results["rss_after_pmi_mb"] = round(rss_mb(), 1)

    t0 = time.time()
    post = anmod.token_postings(ds)
    results["postings_vocab"] = post.count()
    results["token_postings_sec"] = round(time.time() - t0, 2)
    results["rss_after_postings_mb"] = round(rss_mb(), 1)

    # tile_top_tokens-shaped fold: (tile, token) partials, range_by=tile
    import pandas as pd
    from geetiles_ray.pipelines.text import tokenize

    def local(df: pd.DataFrame) -> pd.DataFrame:
        toks = tokenize(df["text"])
        t = pd.DataFrame({
            "tile_key": df["tile_key"].reindex(toks.index).to_numpy(),
            "token": toks.to_numpy()})
        g = t.groupby(["tile_key", "token"], sort=False).size() \
            .rename("__n").reset_index()
        return g.astype({"tile_key": "int64", "__n": "int64"})

    tds = ray.data.read_parquet(path, columns=["tile_key", "text"])
    t0 = time.time()
    folded = fold_partials(
        tds.map_batches(local, batch_format="pandas"),
        ["tile_key", "token"], [("__n", "sum")], range_by=["tile_key"])

    def local_rank(df: pd.DataFrame) -> pd.DataFrame:
        from geetiles_ray.pipelines.analytics import _topn_kernel
        return _topn_kernel(df.rename(columns={"__n": "n"}), ["tile_key"],
                            "n", 3, ascending=False, tiebreak="token",
                            with_rank=True)

    tt = folded.map_batches(local_rank, batch_format="pandas").to_pandas()
    results["tile_top_tokens_sec"] = round(time.time() - t0, 2)
    results["tile_top_rows"] = len(tt)
    results["rss_start_mb"] = round(r0, 1)
    results["rss_end_mb"] = round(rss_mb(), 1)
    results["driver_rss_growth_mb"] = round(rss_mb() - r0, 1)
    print(json.dumps(results))
    ray.shutdown()


if __name__ == "__main__":
    main()
