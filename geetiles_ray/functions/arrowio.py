"""Arrow/pandas block-schema utilities shared by the exchange kernels,
and the per-worker cache every stateful stage reads its broadcast from.

Co-location kernels (``temporal.grouped_apply``) take and return Arrow
tables, so their blocks need no conversion. Shared here:

- ``run_starts`` / ``run_rank`` / ``run_cumsum``: group boundaries and
  per-group counters over a table sorted on its group columns — what a
  sorted kernel uses in place of pandas' ``groupby().cumcount()`` and
  ``groupby().cumsum()``; ``key_runs`` cuts a bucket into one table per
  key, for kernels that run once per key.
- ``pa_type``: normalize whatever ``Dataset.schema().types`` yields
  (Arrow DataType for arrow-block datasets, numpy dtypes / python
  classes for pandas-block ones) to a ``pyarrow.DataType``.
- ``_NULLABLE``: the pandas nullable dtype per Arrow integer/boolean
  type, for kernels that must convert an Arrow table to pandas (the
  as-of join's ``merge_asof``) without turning nullable ints into floats.
- ``key_hash``: the engine's one routing hash — every exchange, hash
  range and Bloom probe places a row by it, so a key lands in one place
  whatever block, null mask or integer width it arrives with.
- ``worker_cached``: a broadcast (``ray.put``) value, fetched and built
  once per worker process and reused by every later task there — the
  reference's ``multiprocessing.Pool(initializer=...)`` state
  (gee.py:141-150) as a plain task.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

# integer and boolean columns convert to pandas nullable dtypes, so a column
# keeps its dtype in a block with nulls (numpy would make it float64 /
# object) and in one without
_NULLABLE = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
    pa.bool_(): pd.BooleanDtype()}


def key_frame(table: pa.Table, keys: list[str]) -> pd.DataFrame:
    """``table[keys]`` as the pandas frame a key hash reads: integers are
    widened to 64 bits and converted as nullable dtypes, so 5 is the same
    value in an int32 block, an int64 block and a block where the column
    also holds a null (a numpy-dtype conversion makes that last one
    float64). Other types convert as ``to_pandas()`` does."""
    cols = {}
    for k in keys:
        c = table[k]
        if pa.types.is_signed_integer(c.type):
            c = pc.cast(c, pa.int64())
        elif pa.types.is_unsigned_integer(c.type):
            c = pc.cast(c, pa.uint64())
        cols[k] = c
    return pa.table(cols).to_pandas(types_mapper=_NULLABLE.get)


def key_hash(table: pa.Table, keys: list[str]) -> np.ndarray:
    """Deterministic uint64 hash per row of ``table[keys]`` (one or more
    columns, nulls included). Keys hash by value (:func:`key_frame`)."""
    return pd.util.hash_pandas_object(key_frame(table, keys),
                                      index=False).to_numpy()


def pa_type(t) -> pa.DataType:
    """Schema type (Arrow, numpy dtype, or python class) → pa.DataType."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.string() if t in (object, str) else pa.null()


def dataset_arrow_schema(ds, names: list[str]) -> pa.Schema:
    """Explicit Arrow schema of ``names`` from a Dataset's reported
    schema, normalized via :func:`pa_type` (works for pandas-block
    datasets too)."""
    types = {n: pa_type(t)
             for n, t in zip(ds.schema().names, ds.schema().types)}
    return pa.schema([(n, types[n]) for n in names])


def run_starts(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Boolean mask of the rows of ``t`` (sorted on ``cols``) that open a
    run of equal ``cols`` values; a null equals a null, as in a SQL
    ``GROUP BY``."""
    new = np.ones(len(t), dtype=bool)
    if len(t) > 1:
        new[1:] = False
        for c in cols:
            a, b = t[c].slice(1), t[c].slice(0, len(t) - 1)
            differ = pc.and_not(pc.fill_null(pc.not_equal(a, b), True),
                                pc.and_(pc.is_null(a), pc.is_null(b)))
            new[1:] |= differ.to_numpy()
    return new


def key_runs(t: pa.Table, keys: list[str]):
    """The rows of ``t`` cut into its runs of equal ``keys``
    (``run_starts``), yielded one table per key in key order, each key's
    rows in their order in ``t``. Only the key columns are sorted, and
    each run is taken on its own, so ``t`` is never copied whole."""
    k = t.select(keys)
    idx = pc.sort_indices(k, [(c, "ascending") for c in keys])
    cuts = np.append(np.flatnonzero(run_starts(k.take(idx), keys)), len(t))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield t.take(idx[lo:hi])


def run_rank(new: np.ndarray) -> np.ndarray:
    """0-based position of each row within its run (``run_starts``)."""
    i = np.arange(len(new))
    return i - np.maximum.accumulate(np.where(new, i, 0))


def run_cumsum(v: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Running sum of ``v`` that restarts at each run (``run_starts``)."""
    cs = np.cumsum(v)
    starts = np.flatnonzero(new)
    return cs - np.repeat(cs[starts] - v[starts],
                          np.diff(starts, append=len(v)))


# per-worker-process cache of built broadcasts, oldest first; a few
# entries cover every broadcast one plan reads at a time
WORKER_CACHE_SIZE = 4
_WORKER_CACHE: dict[str, object] = {}


def worker_cached(ref: "ray.ObjectRef", build=None):
    """``build(ray.get(ref))`` (or the fetched value when ``build`` is
    None), computed once per worker process and ``ref`` and reused by
    every later task in that process. Keyed by ``ref.hex()``, so one ref
    has one build. Holds at most ``WORKER_CACHE_SIZE`` entries and evicts
    the oldest. A stage calls it per batch; only the first call in a
    process deserializes the broadcast (a vocabulary dict or an index is
    never rebuilt per batch)."""
    key = ref.hex()
    if key not in _WORKER_CACHE:
        value = ray.get(ref)
        _WORKER_CACHE[key] = build(value) if build is not None else value
        while len(_WORKER_CACHE) > WORKER_CACHE_SIZE:
            del _WORKER_CACHE[next(iter(_WORKER_CACHE))]
    return _WORKER_CACHE[key]
