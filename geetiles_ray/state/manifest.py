"""Per-partition lineage manifests + checkpoint resume (north rule:
"resumable from checkpoint with per-partition lineage + metrics").

The reference resumes by probing output files per tile
(``skip_if_exists``, gee.py:267-274) and marking known-empty tiles with
``.nodata`` sentinels. At 10^12 rows per-row probing is untenable; the
engine's contract instead is:

- output is written as one directory per PARTITION (a deterministic key
  range — e.g. a hash of the input block's ids, or an input shard name);
- each completed partition writes ``_manifest_{pid}.json`` NEXT TO its data,
  atomically (tmp + rename), recording: partition id, input fingerprint,
  row count, wall time, engine version — the lineage + metrics row;
- a re-run lists the manifests (one small dir listing, not a data scan),
  prunes finished partitions from the WORK LIST (anti-join), and only
  processes the remainder;
- a partition whose input fingerprint changed is re-run (stale manifest is
  overwritten), so resume is consistent, not just fast.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

ENGINE_VERSION = "0.1.0"

# each partition arrives at its writer as ONE in-memory table (map_groups),
# so partition size is the memory contract of this sink
TARGET_PARTITION_BYTES = 1 << 30


def derive_n_partitions(est_bytes: int, target_bytes: int = TARGET_PARTITION_BYTES,
                        min_parts: int = 1) -> int:
    """Partition count so each partition lands ≤ ``target_bytes`` (the
    map_groups writer holds one full partition in heap), floored at
    ``min_parts`` (usually cluster CPUs, for write parallelism)."""
    return max(int(min_parts), 1, -(-int(est_bytes) // max(int(target_bytes), 1)))


def partition_of_key(keys, n_partitions: int):
    """Deterministic partition id per key (stable across runs/processes)."""
    import numpy as np
    import pandas as pd

    h = pd.util.hash_array(np.asarray(keys, dtype=object))
    return (h % np.uint64(n_partitions)).astype(np.int64)


def _fingerprint(table: pa.Table, key_col: str) -> str:
    """Order-insensitive fingerprint of a partition's input keys."""
    vals = sorted(str(v) for v in table[key_col].to_pylist())
    return hashlib.sha256("\x00".join(vals).encode()).hexdigest()[:16]


def manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"_manifest_{pid:05d}.json")


def load_manifests(out_dir: str) -> dict[int, dict]:
    out = {}
    if not os.path.isdir(out_dir):
        return out
    for name in os.listdir(out_dir):
        if name.startswith("_manifest_") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as f:
                m = json.load(f)
            out[m["partition"]] = m
    return out


def checkpointed_write(
    ds: ray.data.Dataset,
    out_dir: str,
    key_col: str,
    n_partitions: int | None = None,
    transform=None,
    target_partition_bytes: int = TARGET_PARTITION_BYTES,
    pid_of=None,
) -> dict:
    """Write ``ds`` (optionally through ``transform(ds_partition_batch)``)
    as ``{out_dir}/part={pid}/data.parquet`` with per-partition manifests,
    SKIPPING partitions whose manifest already matches the current input
    fingerprint. Returns {"written": [...], "skipped": [...]}.

    Partitioning is a groupby on the stable key hash — each group is one
    partition, processed and persisted independently, so a killed run
    resumes at partition granularity (FIXTURES.md invariant 5).

    ``n_partitions=None`` derives the count from the input's in-memory
    size so each partition (held whole by its map_groups writer) stays
    ≤ ``target_partition_bytes``; sizing materializes the input first (the
    blocks feed the groupby, nothing recomputes — but they become
    object-store-resident, so for inputs far beyond cluster memory pass an
    explicit ``n_partitions`` and keep the pipeline streaming). RESUME
    CONTRACT: pass the same explicit n_partitions as the original run —
    the key→partition map depends on it, and auto-derivation on a grown
    input would remap keys and rewrite everything.
    Any partition arriving >2× the target raises a skew warning with the
    offending pid (hot-key diagnosis, not silent OOM)."""
    os.makedirs(out_dir, exist_ok=True)
    existing = load_manifests(out_dir)
    if n_partitions is None:
        ds = ds.materialize()
        est = ds.size_bytes() or 0
        ncpu = int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
        n_partitions = derive_n_partitions(est, target_partition_bytes,
                                           min_parts=ncpu)

    def add_pid(batch: pa.Table) -> pa.Table:
        if pid_of is not None:
            pid = pid_of(batch[key_col])
        else:
            pid = partition_of_key(batch[key_col].to_pylist(), n_partitions)
        return batch.append_column("__pid", pa.array(np.asarray(pid, dtype=np.int64)))

    def write_partition(group) -> pa.Table:
        table = pa.Table.from_pandas(group, preserve_index=False) \
            .replace_schema_metadata(None)
        pid = int(table["__pid"][0].as_py())
        table = table.drop_columns(["__pid"])
        fp = _fingerprint(table, key_col)
        prev = existing.get(pid)
        if prev is not None and prev.get("input_fingerprint") == fp \
                and prev.get("status") == "done":
            return pa.table({"partition": pa.array([pid]),
                             "rows": pa.array([prev["rows"]]),
                             "bytes": pa.array([int(prev.get("bytes", 0))]),
                             "skipped": pa.array([True])})
        t0 = time.time()
        if transform is not None:
            table = transform(table)
        pdir = os.path.join(out_dir, f"part={pid:05d}")
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(pdir, "data.parquet"))
        manifest = {
            "partition": pid,
            "input_fingerprint": fp,
            "rows": table.num_rows,
            "bytes": table.nbytes,
            "status": "done",
            "wall_sec": round(time.time() - t0, 4),
            "engine_version": ENGINE_VERSION,
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        mtmp = manifest_path(out_dir, pid) + ".tmp"
        with open(mtmp, "w") as f:
            json.dump(manifest, f)
        os.replace(mtmp, manifest_path(out_dir, pid))
        return pa.table({"partition": pa.array([pid]),
                         "rows": pa.array([table.num_rows]),
                         "bytes": pa.array([table.nbytes]),
                         "skipped": pa.array([False])})

    res = ds.map_batches(add_pid, batch_format="pyarrow") \
        .groupby("__pid").map_groups(write_partition, batch_format="pandas") \
        .to_pandas()
    if res.empty:   # no rows in: no group ran, so nothing was written
        return {"written": [], "skipped": [], "total_rows": 0,
                "n_partitions": n_partitions, "max_partition_bytes": 0}
    fat = res[res.bytes > 2 * target_partition_bytes]
    if len(fat):
        warnings.warn(
            f"checkpointed_write: {len(fat)} partition(s) exceed 2x the "
            f"{target_partition_bytes}-byte target (max "
            f"{int(fat.bytes.max())} B, pid "
            f"{int(fat.loc[fat.bytes.idxmax(), 'partition'])}); "
            f"raise n_partitions or check for hot keys", stacklevel=2)
    return {
        "written": sorted(res[~res.skipped].partition.tolist()),
        "skipped": sorted(res[res.skipped].partition.tolist()),
        "total_rows": int(res.rows.sum()),
        "n_partitions": n_partitions,
        "max_partition_bytes": int(res.bytes.max()),
    }


def _partition_paths(out_dir: str, pids=None) -> list[str]:
    """The ``part=NNNNN/data.parquet`` files of ``out_dir`` (only those of
    ``pids`` when given), in partition order."""
    dirs = sorted(d for d in os.listdir(out_dir) if d.startswith("part=")) \
        if pids is None else [f"part={pid:05d}" for pid in sorted(pids)]
    paths = (os.path.join(out_dir, d, "data.parquet") for d in dirs)
    return [p for p in paths if os.path.exists(p)]


def read_checkpointed(out_dir: str) -> ray.data.Dataset:
    # the part=NNNNN path segment is layout, not data: without
    # partitioning=None Ray's hive inference would append a 'part' column
    # the writer never wrote (and clobber a real payload column so named)
    return ray.data.read_parquet(_partition_paths(out_dir), partitioning=None)


@ray.remote
def _map_partition(path: str, fn) -> pa.Table:
    return fn(pq.read_table(path, partitioning=None))


def map_checkpointed(out_dir: str, pids, fn) -> ray.data.Dataset:
    """``fn(table)`` on each checkpointed partition of ``pids``, whole:
    one task per ``part=NNNNN/data.parquet``, the results as a
    materialized Dataset with one block per partition.

    Every row of a key sits in ONE partition (``partition_of_key``), so a
    per-key ``fn`` — a dedup, a per-key aggregate — needs no exchange and
    no state on the driver: the driver holds one object ref per
    partition. Each task holds one partition in heap, the same ≤
    ``TARGET_PARTITION_BYTES`` contract as the writer. No partitions →
    an empty Dataset without a schema."""
    return ray.data.from_arrow_refs(
        [_map_partition.remote(p, fn) for p in _partition_paths(out_dir, pids)])


def prune_work_list(work: ray.data.Dataset, out_dir: str, key_col: str,
                    n_partitions: int = 64) -> ray.data.Dataset:
    """Anti-join the work list against completed partition manifests — the
    skip_if_exists analogue at partition granularity. NB: fingerprints are
    only re-validated inside checkpointed_write; this prune trusts 'done'
    status for cheap restarts."""
    done = {pid for pid, m in load_manifests(out_dir).items()
            if m.get("status") == "done"}

    def keep(batch: pa.Table) -> pa.Table:
        pid = partition_of_key(batch[key_col].to_pylist(), n_partitions)
        mask = [int(p) not in done for p in pid]
        return batch.filter(pa.array(mask))

    return work.map_batches(keep, batch_format="pyarrow")


def range_partitioned_write(
    ds: ray.data.Dataset,
    out_dir: str,
    key_col: str,
    n_ranges: int = 16,
) -> dict:
    """Globally SORTED resumable output: partition ``pid`` holds keys in
    [cut_{pid-1}, cut_pid) and is sorted internally, so the part files
    concatenate into a total order — the write-side layout for postings
    lists, time-ordered logs, and any downstream merge-join consumer.

    Range cuts come from the exact distributed quantile operator
    (analytics.quantiles_exact — histogram passes, no global sort), so
    partitions are count-balanced even under key skew; the write itself
    reuses the per-partition manifest/resume machinery (same
    kill-and-resume contract as checkpointed_write). Requires a numeric
    key. Deterministic: same input → same cuts → same partitions →
    resume skips everything."""
    from ..pipelines.analytics import quantiles_exact

    qs = [i / n_ranges for i in range(1, n_ranges)]
    cuts = quantiles_exact(ds, key_col, qs).value.to_numpy() if qs \
        else np.empty(0)

    def pid_of(col: pa.ChunkedArray):
        v = col.to_numpy(zero_copy_only=False)
        return np.searchsorted(cuts, v, side="right")

    def sort_partition(table: pa.Table) -> pa.Table:
        return table.sort_by([(key_col, "ascending")])

    return checkpointed_write(ds, out_dir, key_col,
                              n_partitions=n_ranges,
                              transform=sort_partition, pid_of=pid_of)
