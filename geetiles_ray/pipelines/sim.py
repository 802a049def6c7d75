"""Similarity search over an embedding column (list<float>) — approximate
nearest neighbours for training-data curation (embedding-cosine near-dup,
retrieval). Two paths:

- ``brute_force_topk``: exact cosine top-k. The query matrix is broadcast
  (``ray.put``) once; each batch does one float64 matmul against it and
  emits only its local top-k per query (combiner) — the driver merges
  |queries|·k rows per block, never the corpus.
- ``ivf_topk``: IVF-style scale path — embeddings bucketed to their nearest
  coarse centroid (deterministic k-means-lite), queries probe the nprobe
  nearest buckets (a map-side filter ahead of the brute-force kernel).
  Same output contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import arrowio


def _to_matrix(col) -> np.ndarray:
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def brute_force_topk(ds: ray.data.Dataset, queries: np.ndarray,
                     query_ids: np.ndarray, k: int,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     exclude_self: bool = True) -> pd.DataFrame:
    """Returns (query_id, neighbor_id, rank, score) — score = cosine rounded
    to 6 dp, rank by (score desc, neighbor_id asc) for determinism."""
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids)
    # query state is small → the closure ships it with each task

    def score(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist())
        m = _normalize(_to_matrix(batch[vec_col]))
        sims = m @ qm.T  # (batch, nq)
        out_q, out_n, out_s = [], [], []
        for j in range(sims.shape[1]):
            s = np.round(sims[:, j], 6)
            mask = np.ones(len(ids), dtype=bool)
            if exclude_self:
                mask &= ids != qids[j]
            order = np.lexsort((ids[mask], -s[mask]))[:k]
            sel = np.nonzero(mask)[0][order]
            out_q.extend([qids[j]] * len(sel))
            out_n.extend(ids[sel])
            out_s.extend(s[sel])
        return pa.table({"query_id": pa.array(out_q),
                         "neighbor_id": pa.array(out_n),
                         "score": pa.array(out_s, type=pa.float64())})

    cand = ds.select_columns([id_col, vec_col]).map_batches(
        score, batch_format="pyarrow", batch_size=8192).to_pandas()
    cand = cand.sort_values(["query_id", "score", "neighbor_id"],
                            ascending=[True, False, True], kind="stable")
    top = cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    top["rank"] = (top.groupby("query_id").cumcount() + 1).astype("int64")
    return top[["query_id", "neighbor_id", "rank", "score"]]


def train_centroids(ds: ray.data.Dataset, n_centroids: int,
                    vec_col: str = "embedding", iters: int = 3,
                    sample_limit: int = 65536, seed: int = 42) -> np.ndarray:
    """Deterministic k-means-lite on a bounded sample (driver-side; the
    sample is the small side)."""
    sample = _to_matrix(
        pa.concat_tables([pa.table(b) for b in ds.select_columns([vec_col])
                          .limit(sample_limit).iter_batches(
                              batch_size=sample_limit, batch_format="pyarrow")]
                         )[vec_col])
    rng = np.random.default_rng(seed)
    cent = sample[rng.choice(len(sample), size=min(n_centroids, len(sample)),
                             replace=False)]
    for _ in range(iters):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
    return cent


def cosine_neardup_pairs(ds: ray.data.Dataset, tau: float,
                         id_col: str = "vec_id", vec_col: str = "embedding",
                         broadcast_limit: int = 65536,
                         n_centroids: int = 64,
                         assign_probes: int = 2) -> pd.DataFrame:
    """All pairs with cosine ≥ tau (id_a < id_b, cos rounded to 6 dp).

    Two regimes, switched on corpus size:
    - n ≤ broadcast_limit: EXACT — the normalized matrix is broadcast once
      (``ray.put``) and every batch does one matmul against it. O(n²d)
      compute but only one corpus copy in the object store; right while the
      matrix fits a worker heap.
    - n > broadcast_limit: IVF-bucketed — vectors are assigned to their
      ``assign_probes`` nearest coarse centroids (multi-assign catches
      boundary pairs), co-located by centroid (``grouped_apply``), and
      each centroid runs the same vectorized pair kernel on its members
      only. Precision
      stays exact (every emitted cos is computed); recall < 1.0 by design
      for pairs whose members share no probed bucket. Never materializes
      the corpus on the driver: only centroids (sampled) and the final
      pair list cross it.
    """
    from ..stages.temporal import grouped_apply

    n = ds.count()
    if n <= broadcast_limit:
        full = ds.select_columns([id_col, vec_col]).to_pandas()
        ids = full[id_col].to_numpy()
        mat = _normalize(np.stack(full[vec_col].to_numpy()).astype(np.float64))
        ref = ray.put((ids, mat))

        def pair_finder(batch: pa.Table) -> pa.Table:
            all_ids, all_mat = arrowio.worker_cached(ref)
            bids = np.asarray(batch[id_col].to_pylist())
            bm = _normalize(_to_matrix(batch[vec_col]))
            cos = bm @ all_mat.T
            row, col = np.nonzero(
                (cos >= tau) & (bids[:, None] < all_ids[None, :]))
            return pa.table({
                "id_a": pa.array(bids[row], type=pa.int64()),
                "id_b": pa.array(all_ids[col], type=pa.int64()),
                "cos_sim": pa.array(np.round(cos[row, col], 6)),
            })

        out = ds.map_batches(pair_finder, batch_format="pyarrow").to_pandas()
        return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    cent = train_centroids(ds, n_centroids, vec_col)
    cent_ref = ray.put(cent)

    def explode(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _to_matrix(batch[vec_col])
        d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        near = np.argsort(d, axis=1, kind="stable")[:, :assign_probes]
        ids = np.asarray(batch[id_col].to_pylist())
        reps = near.shape[1]
        return pa.table({
            id_col: pa.array(np.repeat(ids, reps)),
            "__centroid": pa.array(near.ravel().astype(np.int64)),
            vec_col: pa.array(np.repeat(m, reps, axis=0).tolist(),
                              type=pa.list_(pa.float64())),
        })

    def centroid_pairs(g: pa.Table) -> pa.Table:
        g = g.sort_by(id_col)
        g = g.filter(arrowio.run_starts(g, [id_col]))
        ids = g[id_col].to_numpy()
        m = _normalize(_to_matrix(g[vec_col]))
        cos = m @ m.T
        row, col = np.nonzero((cos >= tau) & (ids[:, None] < ids[None, :]))
        return pa.table({"id_a": pa.array(ids[row], type=pa.int64()),
                         "id_b": pa.array(ids[col], type=pa.int64()),
                         "cos_sim": pa.array(np.round(cos[row, col], 6))})

    def bucket_pairs(t: pa.Table) -> pa.Table:
        return pa.concat_tables([centroid_pairs(g) for g in
                                 arrowio.key_runs(t, ["__centroid"])])

    out = grouped_apply(
        ds.select_columns([id_col, vec_col]).map_batches(
            explode, batch_format="pyarrow", batch_size=4096),
        "__centroid", bucket_pairs).to_pandas()
    if len(out) == 0:
        return out
    return out.drop_duplicates(["id_a", "id_b"]) \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)


def ivf_topk(ds: ray.data.Dataset, queries: np.ndarray, query_ids: np.ndarray,
             k: int, n_centroids: int = 16, nprobe: int = 4,
             id_col: str = "vec_id", vec_col: str = "embedding",
             exclude_self: bool = True) -> pd.DataFrame:
    """IVF path: only vectors in the nprobe closest buckets per query are
    scored. Recall < 1.0 by design; same output schema as brute force."""
    cent = train_centroids(ds, n_centroids, vec_col)
    qm = np.asarray(queries, dtype=np.float64)
    qd = ((qm[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    probe_buckets = np.argsort(qd, axis=1, kind="stable")[:, :nprobe]
    probes = np.array(sorted({int(b) for row in probe_buckets for b in row}))

    def bucketize(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch[vec_col])
        d = ((m[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        bucket = d.argmin(axis=1)
        return batch.filter(pa.array(np.isin(bucket, probes)))

    pruned = ds.select_columns([id_col, vec_col]).map_batches(
        bucketize, batch_format="pyarrow", batch_size=8192)
    return brute_force_topk(pruned, qm, query_ids, k, id_col, vec_col,
                            exclude_self)


# --------------------------------------------- batched model inference

def linear_score(ds: ray.data.Dataset, weights: np.ndarray,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 q_scale: int = 1 << 20) -> ray.data.Dataset:
    """Batched 'model inference' over an embedding column: score each row
    with a broadcast linear head — the plain-task plumbing every learned
    scorer (quality classifier, reranker, reward model) runs on; only the
    stub model is linear.

    The weight vector must already be INTEGER-VALUED (a learned float
    head must be quantized by the caller, e.g.
    ``np.floor(w * q_scale + 0.5)`` — silently truncating natural
    |w| < 1 floats would produce an all-zero scorer, round-4 advisor
    finding; non-integral floats raise). It is ``ray.put`` once and
    fetched once per worker process (``arrowio.worker_cached``, never per
    batch). Scores are an
    EXACT int64 dot product over floor-quantized embeddings (the kmeans
    Q_SCALE discipline), so score_q is hashable against HUGEINT SQL and
    score = score_q / q_scale² is a dyadic-exact float64 on both engines.

    Magnitudes: |emb| ≤ 2048 and |w| ≤ 2²⁰ at q_scale 2²⁰ and dim ≤ 4096
    keep the accumulated dot far under 2⁶³."""
    w = np.asarray(weights)
    if not np.issubdtype(w.dtype, np.integer):
        if not np.array_equal(w, np.rint(w)):
            raise ValueError(
                "linear_score weights must be integer-valued; quantize a "
                "learned float head explicitly, e.g. "
                "np.floor(w * q_scale + 0.5).astype(np.int64)")
        w = np.rint(w)
    wq = w.astype(np.int64)
    w_ref = ray.put(wq)

    def score(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch[vec_col])
        xq = np.floor(m.astype(np.float64) * q_scale + 0.5).astype(np.int64)
        s = xq @ arrowio.worker_cached(w_ref)
        return pa.table({
            id_col: batch[id_col],
            "score_q": pa.array(s, type=pa.int64()),
            "score": pa.array(s / (float(q_scale) ** 2)),
        })

    return ds.map_batches(score, batch_format="pyarrow")
