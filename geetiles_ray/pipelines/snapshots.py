"""Cross-snapshot incremental dedup — a NEW crawl snapshot drops keys
already ingested by PRIOR runs without rescanning their payloads.

This is the reference's ``skip_if_exists`` resume contract
(/root/reference/geetiles/gee.py:267-274 — "a tile already on disk is
never re-fetched") lifted from per-file granularity to corpus scale:
the durable record of what a prior run ingested is its checkpointed
partition layout + manifests (state/manifest.py), and a new snapshot
consults ONLY the key column of that record.

Scale shape (the whole point at 100 TB):
- prior snapshots are read column-pruned (just ``key``) straight from
  their checkpoint parquet — the html/text payloads never move;
- a Bloom filter over the prior keys is built from constant-size
  per-block partials (stages/joins.key_bloom) and broadcast ONCE via
  ``ray.put``; the membership probe is a pure map over the new
  snapshot, so rows that are PROVABLY new (Bloom has no false
  negatives) never enter any exchange;
- only Bloom HITS (true re-crawls + the few-% false positives) are
  verified exactly, through the engine's one two-sided key-hash exchange
  (stages/temporal.grouped_apply on the (candidates, prior keys) pair)
  — the exchange carries |dups| + fp·|new| rows, not the snapshot.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.arrowio import key_hash
from ..stages.joins import bloom_member, key_bloom
from ..stages.temporal import grouped_apply


def prior_keys(prior_dirs: list[str], key: str) -> ray.data.Dataset:
    """Column-pruned union of the ``key`` column across prior snapshots'
    checkpoint dirs. Nothing but the key column leaves storage."""
    from ..state import manifest as manifestmod

    if not prior_dirs:
        raise ValueError("prior_dirs is empty")
    parts = [manifestmod.read_checkpointed(d).select_columns([key])
             for d in prior_dirs]
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    return ds


def dedup_against_snapshots(
    ds: ray.data.Dataset,
    prior_dirs: list[str],
    key: str = "url",
    nbits: int = 1 << 23,
    nhashes: int = 2,
) -> ray.data.Dataset:
    """Rows of ``ds`` whose ``key`` appears in NO prior snapshot. Exact
    (the Bloom filter only routes: misses bypass, hits are verified by a
    co-bucketed anti-join), whatever the false-positive rate.

    CONTRACT — deterministic rescan: ``ds`` is executed twice (once per
    Bloom split), the same contract as joins.join_on_identifier_bloom;
    a non-deterministic upstream must be materialized by the caller.
    """
    if not prior_dirs:
        return ds
    keys_ds = prior_keys(prior_dirs, key)
    bloom_ref = key_bloom(keys_ds, key, nbits=nbits, nhashes=nhashes)

    def split(want_hit: bool):
        # plain tasks, like join_on_identifier_bloom's split: a fixed
        # actor pool holding the bitset starved the read at one CPU
        def f(batch: pa.Table) -> pa.Table:
            if not len(batch):
                return batch
            hit = bloom_member(ray.get(bloom_ref), key_hash(batch, [key]),
                               nbits, nhashes)
            return batch.filter(pa.array(hit == want_hit))
        return f

    new_for_sure = ds.map_batches(split(False), batch_format="pyarrow")
    candidates = ds.map_batches(split(True), batch_format="pyarrow")

    # exact verify: co-locate candidates (left, full rows) with the prior
    # keys (right, key only) and anti-filter per bucket
    def per_bucket(cand: pa.Table, prior: pa.Table) -> pa.Table:
        seen = prior[key].combine_chunks().cast(cand[key].type)
        return cand.filter(pc.invert(pc.is_in(cand[key], value_set=seen)))

    survivors = grouped_apply((candidates, keys_ds), key, per_bucket)
    return new_for_sure.union(survivors)

