"""Distributed graph algorithms over edge tables.

``connected_components_minlabel`` (pipelines/neardup.py) covers the
clustering side; this module adds iterative rank propagation — PageRank —
in EXACT integer arithmetic so the whole iteration is order-independent
and replayable in SQL (the kmeans_quantized trick, cluster.py:61, applied
to graphs):

    rank is a scaled integer (default 10¹² units of total mass 1):
        r⁰(v)   = S // N
        base    = (15 · (S // N)) // 100                  (the (1−d)/N term)
        contrib = r(u) // outdeg(u)    per edge u→v       (integer div)
        rᵏ⁺¹(v) = base + (85 · Σ contrib) // 100          (d = 0.85)

    Integer sums commute ⇒ any partitioning/ordering gives identical
    ranks; the floor divisions are part of the algorithm's definition on
    both engines. Dangling-node mass (outdeg 0) simply evaporates — the
    same rule on both sides.

Physical plan per iteration: ranks ⋈ edges on src (the bucketed hash
join — at cluster scale pre-partition edges by src once and reuse), a
map emits (dst, contrib), one hash aggregation sums per dst, and a
broadcast-free finalize adds the base term. Nodes with no in-edges are
kept alive by unioning a zero-contribution row per node (no driver-side
node list, no second join).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

SCALE = 10 ** 12


def pagerank(edges: ray.data.Dataset, n_nodes: int, iters: int = 3,
             src: str = "src", dst: str = "dst",
             scale: int = SCALE,
             broadcast_limit: int = 8_000_000,
             materialize_edges: bool = True) -> ray.data.Dataset:
    """Integer PageRank over a dense node-id space 0..n_nodes−1.
    Returns a Dataset (node:int64, r:int64).

    Two physical plans, identical ranks (pytest-asserted):
    - ``n_nodes ≤ broadcast_limit`` (default 8M ⇒ ≤64 MB rank vector):
      the rank AND degree vectors ride the object store; each iteration
      is ONE map pass over the edges emitting per-batch partial
      contribution vectors that fold on the driver — no join, no
      exchange. This is the right plan whenever nodes ≪ edges (host
      graphs: ~10⁸ hosts vs ~10¹² links). Measured: the join plan spent
      ~7 sort-exchange coordination rounds ≈ 85 s on a 10k-edge graph;
      this plan runs the same graph in a few map passes.
    - beyond the limit: ``edges ⋈ ranks`` bucketed hash join per
      iteration + one hash aggregation per dst (set
      ``broadcast_limit=0`` to force it).
    """
    import ray as _ray

    from ..stages.joins import join_on_identifier

    if 0 < n_nodes <= broadcast_limit:
        # materialize once: the degree pass + every iteration re-scans
        # edges; without this a derived edge pipeline (read + synth map)
        # re-executes iters+1 times. Pass materialize_edges=False when
        # edges is a plain file source bigger than the object store —
        # re-reading parquet beats spilling it
        if materialize_edges:
            edges = edges.materialize()
        r_init = scale // n_nodes
        base = (15 * r_init) // 100
        # sparse per-block partials: (node, partial) pairs, ≤ distinct
        # dsts per block rows — traffic is O(edge blocks' key sets), not
        # O(blocks × n_nodes)
        def sparse_counts(t: pa.Table) -> pa.Table:
            s = t[src].to_numpy().astype(np.int64)
            u, c = np.unique(s, return_counts=True)
            return pa.table({"__i": pa.array(u),
                             "__v": pa.array(c.astype(np.int64))})

        deg = np.zeros(n_nodes, dtype=np.int64)
        for b in edges.select_columns([src]).map_batches(
                sparse_counts, batch_format="pyarrow").iter_batches(
                batch_size=1 << 20, batch_format="pyarrow"):
            np.add.at(deg, b["__i"].to_numpy(), b["__v"].to_numpy())
        deg_ref = _ray.put(np.maximum(deg, 1))
        r = np.full(n_nodes, r_init, dtype=np.int64)
        for _ in range(iters):
            r_ref = _ray.put(r)

            def contrib_vec(t: pa.Table) -> pa.Table:
                rv = _ray.get(r_ref)
                dv = _ray.get(deg_ref)
                s = t[src].to_numpy().astype(np.int64)
                d = t[dst].to_numpy().astype(np.int64)
                c = rv[s] // dv[s]
                order = np.argsort(d, kind="stable")
                ds_, cs = d[order], c[order]
                new = np.empty(len(ds_), dtype=bool)
                if len(ds_):
                    new[0] = True
                    new[1:] = ds_[1:] != ds_[:-1]
                starts = np.nonzero(new)[0]
                return pa.table({
                    "__i": pa.array(ds_[starts]),
                    "__v": pa.array(np.add.reduceat(cs, starts)
                                    if len(ds_) else cs)})

            acc = np.zeros(n_nodes, dtype=np.int64)
            for b in edges.map_batches(
                    contrib_vec, batch_format="pyarrow").iter_batches(
                    batch_size=1 << 20, batch_format="pyarrow"):
                np.add.at(acc, b["__i"].to_numpy(), b["__v"].to_numpy())
            r = base + (85 * acc) // 100
        return ray.data.from_arrow(pa.table({
            "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
            "r": pa.array(r)}))

    r_init = scale // n_nodes
    base = (15 * r_init) // 100

    deg = edges.groupby(src).count() \
        .map_batches(lambda b: pa.table({src: b[src],
                                         "__deg": b["count()"]}),
                     batch_format="pyarrow")
    edges_deg = join_on_identifier(edges, deg, key=src,
                                   right_cols=["__deg"]).materialize()

    # rank table over the DENSE id space (contract of the signature): all
    # nodes present whether or not they appear in edges
    ranks = ray.data.range(n_nodes).map_batches(
        lambda b: pa.table({"node": b["id"],
                            "r": pa.array(np.full(len(b), r_init,
                                                  dtype=np.int64))}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        withr = join_on_identifier(
            edges_deg.map_batches(
                lambda b: pa.table({"node": b[src], "dst": b[dst],
                                    "__deg": b["__deg"]}),
                batch_format="pyarrow"),
            ranks, key="node", right_cols=["r"])

        def contrib(b: pa.Table) -> pa.Table:
            r = b["r"].to_numpy(zero_copy_only=False).astype(np.int64)
            d = b["__deg"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"node": b["dst"],
                             "__c": pa.array(r // np.maximum(d, 1))})

        contribs = withr.map_batches(contrib, batch_format="pyarrow")
        keepalive = ranks.map_batches(
            lambda b: pa.table({"node": b["node"],
                                "__c": pa.array(np.zeros(len(b),
                                                         dtype=np.int64))}),
            batch_format="pyarrow")
        summed = contribs.union(keepalive).groupby("node").sum("__c")
        ranks = summed.map_batches(
            lambda b: pa.table({
                "node": b["node"],
                "r": pa.array(base + (85 * b["sum(__c)"].to_numpy()
                                      .astype(np.int64)) // 100)}),
            batch_format="pyarrow").materialize()
    return ranks


def pagerank_reference(edges_df: pd.DataFrame, n_nodes: int, iters: int = 3,
                       scale: int = SCALE) -> np.ndarray:
    """Single-process oracle with the identical integer arithmetic."""
    r_init = scale // n_nodes
    base = (15 * r_init) // 100
    r = np.full(n_nodes, r_init, dtype=np.int64)
    deg = np.bincount(edges_df["src"].to_numpy(), minlength=n_nodes)
    for _ in range(iters):
        c = r[edges_df["src"]] // np.maximum(deg[edges_df["src"]], 1)
        s = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(s, edges_df["dst"].to_numpy(), c)
        r = base + (85 * s.astype(np.int64)) // 100
    return r
