"""Near-duplicate detection over document/page text — the training-data
extensions of the exact dedup (SURVEY.md §2.7; the reference dedups only by
content-hash identity, utils.py:232-250 / gee.py:267-274):

- MinHash + LSH: shingle → minhash signature (vectorized over the batch) →
  band buckets → groupby(band, hash) candidate pairs → exact-Jaccard verify
  → connected components.
- SimHash: 64-bit token-weight simhash; near-dup = small Hamming distance,
  banded on 16-bit chunks for candidate generation.
- n-gram Jaccard: exact pairwise verification kernel.

Shuffle discipline: signatures are computed in map_batches (one pass over
text); only (band_id, band_hash, doc_id) triples — a few dozen bytes per
doc — enter the groupby; pairs are verified by joining text back per
candidate id (broadcast for small candidate sets, semi-join otherwise).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import arrowio

_MERSENNE = (1 << 61) - 1


# Blocks the pair-sized tables (≪ corpus) are coalesced to before their
# joins and groupbys. They typically arrive fragmented into hundreds of
# tiny blocks (filter/map_groups lineage), and a sort-groupby pays
# per-BLOCK constants — measured 24 s for a 2k-row groupby over ~1k blocks
# and 400+ s per join iteration at 32 CPUs. Coalescing makes each round
# O(seconds). Not an exchange width: the joins take bucket_count().
COALESCE_BLOCKS = 8


def _perm_params(num_perm: int, seed: int = 42):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def optimal_bands(threshold: float, num_perm: int,
                  fp_weight: float = 0.5) -> tuple[int, int]:
    """(bands, rows_per_band) minimizing weighted false-positive +
    false-negative probability mass for the LSH S-curve
    P(candidate | J=s) = 1-(1-s^r)^b — the standard datasketch-style
    parameter search, evaluated by numerical integration of the curve
    below/above the threshold. Guarantees the banding is co-tuned with the
    caller's threshold instead of a fixed (b, r)."""
    best, best_err = (16, num_perm // 16 or 1), float("inf")
    s = np.linspace(0.0, 1.0, 201)
    below = s <= threshold
    # any (b, r) with b*r <= num_perm (the stage then uses exactly b*r
    # permutations) — restricting to exact divisors of num_perm makes the
    # r-grid so coarse (4->8->16 at 128) that some thresholds can't be hit
    for r in range(1, num_perm + 1):
        b = num_perm // r
        if b < 1:
            break
        p = 1.0 - (1.0 - s ** r) ** b
        fp = np.trapz(p[below], s[below])
        fn = np.trapz(1.0 - p[~below], s[~below])
        err = fp_weight * fp + (1.0 - fp_weight) * fn
        if err < best_err:
            best, best_err = (b, r), err
    return best


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a*h + b) mod p over the shingle set."""
    h = shingle_hashes.astype(np.uint64)[:, None]
    vals = (h * a[None, :] + b[None, :]) % np.uint64(_MERSENNE)
    return vals.min(axis=0)


# multiplier shared by the char-shingle hash, the band fold, and their SQL
# twins (queries.py:_sql_minhash_groups) — every step of the minhash
# pipeline is plain modular arithmetic so DuckDB can replay it exactly
_MIX = np.uint64(0x9E3779B97F4A7C15)


def band_fold(sig_bands: np.ndarray) -> np.ndarray:
    """(bands, rows_per_band) signature matrix → one uint64 hash per band:
    polynomial fold Σ sig[r]·MIX^r (wraparound mod 2⁶⁴). Replaces an
    opaque pandas hash so the LSH bucketing is SQL-expressible."""
    r = sig_bands.shape[1]
    pows = _MIX ** np.arange(r, dtype=np.uint64)
    return (sig_bands * pows[None, :]).sum(axis=1)


class MinHashStage:
    """map_batches stage (a callable instance, run as a task): text →
    minhash signature + LSH band rows.

    Every hash is SQL-expressible modular arithmetic (char-shingle
    polynomial → (a·h+b) mod 2⁶¹-1 minima → band polynomial fold), which
    is what lets the full near-dup pipeline carry a DuckDB value-hash
    oracle (queries.py:_sql_minhash_groups)."""

    def __init__(self, id_col: str, text_col: str, num_perm: int = 128,
                 bands: int = 16, shingle_k: int = 5, seed: int = 42):
        # defaults: 16 bands x 8 rows -> collision prob = 1-(1-J^8)^16,
        # ~0.71 inflection. Measured on the sf0.1 documents corpus (random
        # pair J ~0.17, p99 0.26): 4-row bands produced 927k candidate
        # pairs (7% of all-pairs!); 8-row bands cut that to a few thousand
        # while keeping recall >99.9% for true near-dups (J >= 0.85).
        assert num_perm % bands == 0
        self.id_col, self.text_col = id_col, text_col
        self.num_perm, self.bands, self.k = num_perm, bands, shingle_k
        self.rows_per_band = num_perm // bands
        self.a, self.b = _perm_params(num_perm, seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_pylist()
        texts = batch[self.text_col].to_pylist()
        sh = _hash_char_shingles(texts, self.k)
        out_id, out_band, out_hash = [], [], []
        for i, s in enumerate(sh):
            sig = minhash_signature(s, self.a, self.b)
            bh = band_fold(sig.reshape(self.bands, self.rows_per_band))
            out_id.extend([ids[i]] * self.bands)
            out_band.extend(range(self.bands))
            out_hash.extend(bh.tolist())
        return pa.table({
            "doc_id": pa.array(out_id),
            "band": pa.array(out_band, type=pa.int32()),
            "band_hash": pa.array(out_hash, type=pa.uint64()),
        })


def _pairs_from_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized run-length candidate-pair expansion over band rows:
    sort by (band, band_hash, doc_id), detect buckets with ≥2 members,
    expand each bucket's unique ids into unordered pairs with
    np.triu_indices. Shared by the driver fold (small corpora) and the
    per-partition distributed kernel."""
    if len(df) == 0:
        return pd.DataFrame({"id_a": [], "id_b": []})
    df = df.sort_values(["band", "band_hash", "doc_id"], kind="stable")
    band = df["band"].to_numpy()
    bh = df["band_hash"].to_numpy()
    ids = df["doc_id"].to_numpy()
    new = np.empty(len(df), dtype=bool)
    new[0] = True
    new[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
    starts = np.nonzero(new)[0]
    ends = np.append(starts[1:], len(df))
    aa, bb = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        g = np.unique(ids[s:e])
        if len(g) < 2:
            continue
        ia, ib = np.triu_indices(len(g), k=1)
        aa.append(g[ia]); bb.append(g[ib])
    if not aa:
        return pd.DataFrame({"id_a": [], "id_b": []})
    got = pd.DataFrame({"id_a": np.concatenate(aa), "id_b": np.concatenate(bb)})
    return got.drop_duplicates(["id_a", "id_b"]).reset_index(drop=True)


def lsh_candidate_pairs(band_rows: ray.data.Dataset) -> pd.DataFrame:
    """band rows → unordered candidate id pairs (deduped), driver-side.

    The band table is tiny (bands × 16 B per doc), and almost every
    (band, band_hash) bucket is a singleton — a Ray ``map_groups`` pays
    per-group Python overhead on ~|docs|×bands groups (measured 10 s for
    5k docs), so the fold is driver-side vectorized. Right for corpora
    whose band table fits the driver; the scale path is
    ``lsh_candidate_pairs_ds`` (key-hash exchange + same kernel per bucket).
    """
    return _pairs_from_frame(band_rows.to_pandas())


def lsh_candidate_pairs_ds(band_rows: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed candidate-pair generation: co-locate band rows by the
    hash of (band, band_hash) (``stages/temporal.grouped_apply``) so every
    LSH bucket is in one group, run the vectorized run-length kernel per group,
    then globally dedup pairs (the same pair can surface from several
    bands, which land in different buckets). Nothing corpus-sized ever
    reaches the driver.

    Exchange cost: bands × 16 B per doc into the bucket exchange, then a
    pair table ≪ corpus (the LSH contract) into a second small dedup
    exchange. Per-bucket work is O(rows log rows) vectorized numpy.
    """
    from . import dedup as dedupmod
    from ..stages.temporal import grouped_apply

    def kernel(t: pa.Table) -> pa.Table:
        got = _pairs_from_frame(t.to_pandas())
        id_type = t.schema.field("doc_id").type
        return pa.table({"id_a": pa.array(got["id_a"], type=id_type),
                         "id_b": pa.array(got["id_b"], type=id_type)})

    pairs = grouped_apply(band_rows, ["band", "band_hash"], kernel)
    # a pair found by band 0 and band 3 emerges from two partitions
    return dedupmod.dedup_exact(pairs, key=["id_a", "id_b"])


def exact_jaccard(texts_by_id: dict, pairs: pd.DataFrame, k: int = 5) -> pd.DataFrame:
    """Verification kernel: k-shingle Jaccard per candidate pair."""
    cache: dict = {}

    def sh(i):
        if i not in cache:
            t = texts_by_id[i]
            cache[i] = ({t} if len(t) < k
                        else {t[j:j + k] for j in range(len(t) - k + 1)})
        return cache[i]

    jac = []
    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        sa, sb = sh(a), sh(b)
        inter = len(sa & sb)
        jac.append(inter / (len(sa) + len(sb) - inter))
    out = pairs.copy()
    out["jaccard"] = jac
    return out


def _rename(ds: ray.data.Dataset, mapping: dict) -> ray.data.Dataset:
    """Column rename via an Arrow map_batches (Dataset.rename_columns
    assumes Arrow-backed blocks and breaks on pandas-backed ones)."""
    def f(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [mapping.get(c, c) for c in batch.column_names])
    return ds.map_batches(f, batch_format="pyarrow")


# NOTE on joins here: Dataset.join (acero) emits ZERO-COLUMN blocks for
# empty hash partitions, and Ray's map operators pass empty blocks through
# WITHOUT calling the UDF — so the poison can't be normalized away and any
# downstream join/filter dies with 'No match for FieldRef...'. All equi-joins
# in this module therefore use the repo's bucketed groupby-merge join
# (stages/joins.py:join_on_identifier), which controls its own schemas.


def _hash_char_shingles(texts: list[str], k: int) -> list[np.ndarray]:
    """Per text: uint64 hashes of its CHARACTER k-gram set (the shingle
    definition exact_jaccard uses), vectorized: codepoints (utf-32) →
    sliding window → wraparound polynomial hash in uint64. Texts shorter
    than k hash as one whole-text shingle (mirroring exact_jaccard's
    ``{t}`` fallback). Collisions are ~2⁻⁶⁴ per shingle pair — Jaccard
    from these sets equals exact char-shingle Jaccard w.h.p."""
    mult = _MIX
    pows = mult ** np.arange(k, dtype=np.uint64)
    out = []
    for t in texts:
        cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32) \
            .astype(np.uint64)
        if len(cp) < k:
            h = np.uint64(1469598103934665603)
            for c in cp:
                h = (h ^ c) * mult
            out.append(np.array([h], dtype=np.uint64))
            continue
        win = np.lib.stride_tricks.sliding_window_view(cp, k)
        out.append(np.unique((win * pows[None, :]).sum(axis=1)))
    return out


def verify_pairs_ds(ds: ray.data.Dataset, pairs: ray.data.Dataset,
                    id_col: str, text_col: str, k: int = 5
                    ) -> ray.data.Dataset:
    """Distributed exact-Jaccard verification: semi-join candidate texts
    out of the corpus (a ``joins.broadcast_lookup`` of the ids only — the
    candidate ID list is the one thing small enough for the driver by the
    LSH contract), shingle
    them once per doc, equi-join shingle sets onto the pair table twice,
    and verify per pair with np.intersect1d. Returns (id_a, id_b, jaccard).
    """
    from ..stages import joins as joinsmod

    cand: set = set()
    for b in pairs.iter_batches(batch_size=1 << 16, batch_format="pyarrow"):
        cand.update(b["id_a"].to_pylist())
        cand.update(b["id_b"].to_pylist())
    if not cand:
        return pairs.map_batches(
            lambda b: b.append_column("jaccard", pa.nulls(len(b), pa.float64())),
            batch_format="pyarrow")

    texts = joinsmod.broadcast_lookup(
        ds.select_columns([id_col, text_col]), pa.table({id_col: list(cand)}),
        id_col, how="semi")

    def shingle(batch: pa.Table) -> pa.Table:
        sh = _hash_char_shingles(batch[text_col].to_pylist(), k)
        # one binary buffer per doc, read back with np.frombuffer
        return pa.table({
            "id": batch[id_col],
            "sh": pa.array([s.tobytes() for s in sh], type=pa.binary()),
        })

    # coalesce the candidate-sized tables before the joins (COALESCE_BLOCKS)
    sh_tbl = texts.map_batches(shingle, batch_format="pyarrow") \
        .repartition(COALESCE_BLOCKS).materialize()
    pairs = pairs.repartition(COALESCE_BLOCKS)
    sh_a = _rename(sh_tbl, {"id": "id_a", "sh": "sh_a"})
    sh_b = _rename(sh_tbl, {"id": "id_b", "sh": "sh_b"})
    # materialized: the second join reads half.schema(), which on an
    # unexecuted exchange runs the whole first join once more
    half = joinsmod.join_on_identifier(pairs, sh_a, key="id_a",
                                       right_cols=["sh_a"]).materialize()
    joined = joinsmod.join_on_identifier(half, sh_b, key="id_b",
                                         right_cols=["sh_b"])

    def verify(batch: pa.Table) -> pa.Table:
        ja = np.empty(len(batch), dtype=np.float64)
        sa_col = batch["sh_a"].to_pylist()
        sb_col = batch["sh_b"].to_pylist()
        for i, (sa, sb) in enumerate(zip(sa_col, sb_col)):
            a = np.frombuffer(sa, dtype=np.uint64)
            b = np.frombuffer(sb, dtype=np.uint64)
            inter = len(np.intersect1d(a, b, assume_unique=True))
            ja[i] = inter / (len(a) + len(b) - inter)
        return pa.table({"id_a": batch["id_a"], "id_b": batch["id_b"],
                         "jaccard": pa.array(ja)})

    return joined.map_batches(verify, batch_format="pyarrow")


def connected_components_minlabel(edges: ray.data.Dataset,
                                  max_iter: int = 50) -> ray.data.Dataset:
    """(id_a, id_b) edge list → (id, label) with label = min node id of the
    connected component, for every node with ≥1 edge. Iterative min-label
    propagation: each round every node takes the min label over itself and
    its neighbors; converges in ≤ graph-diameter rounds (near-dup clusters
    are dense, so typically 2-4). Each round shuffles only the PAIR-sized
    tables (≪ corpus) — the distributed alternative to a driver union-find
    for adversarial corpora whose pair list outgrows one node."""
    from ray.data.aggregate import Min

    def sym(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.concat_arrays([batch["id_a"].combine_chunks(),
                                     batch["id_b"].combine_chunks()]),
            "dst": pa.concat_arrays([batch["id_b"].combine_chunks(),
                                     batch["id_a"].combine_chunks()]),
        })

    from ..stages import joins as joinsmod

    # every materialized iteration state is coalesced (COALESCE_BLOCKS)
    es = edges.select_columns(["id_a", "id_b"]) \
        .map_batches(sym, batch_format="pyarrow") \
        .repartition(COALESCE_BLOCKS).materialize()

    # round 0: label(id) = min(id, min neighbor)
    def self_edge(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch["src"], "label": batch["src"]})

    def neigh(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch["src"], "label": batch["dst"]})

    cand = es.map_batches(self_edge, batch_format="pyarrow") \
        .union(es.map_batches(neigh, batch_format="pyarrow"))
    labels = cand.groupby("id").aggregate(Min("label", alias_name="label")) \
        .repartition(COALESCE_BLOCKS).materialize()
    n_nodes = labels.count()

    for _ in range(max_iter):
        # attach each edge's source label (bucketed groupby-merge join),
        # push it to the destination, re-minimize per node
        lbl = _rename(labels, {"id": "src", "label": "src_label"})
        prop = joinsmod.join_on_identifier(
            es, lbl, key="src", right_cols=["src_label"]) \
            .select_columns(["dst", "src_label"])
        prop = _rename(prop, {"dst": "id", "src_label": "label"})
        new_labels = labels.union(prop).groupby("id") \
            .aggregate(Min("label", alias_name="label")) \
            .repartition(COALESCE_BLOCKS).materialize()
        # join-free convergence check: labels only ever decrease, so any
        # change strictly grows the distinct-(id, label) count of old ∪ new
        distinct = labels.union(new_labels).groupby(["id", "label"]).count() \
            .count()
        labels = new_labels
        if distinct == n_nodes:
            break
    return labels


def dedup_minhash_dist(ds: ray.data.Dataset, id_col: str, text_col: str,
                       threshold: float = 0.8, num_perm: int = 128,
                       bands: int | None = None, shingle_k: int = 5
                       ) -> pd.DataFrame:
    """dedup_minhash with every corpus-sized step distributed: band rows go
    through a hash-partitioned pair kernel (lsh_candidate_pairs_ds), texts
    are fetched by semi-join and verified per-pair in map_batches
    (verify_pairs_ds), and components run as iterative min-label
    propagation over the pair table (connected_components_minlabel). The
    driver only ever holds the candidate ID list and the final group table.

    Output parity with ``dedup_minhash`` is pytest-asserted
    (tests/test_neardup_sim_text.py)."""
    if bands is None:
        bands, rows = optimal_bands(threshold, num_perm, fp_weight=0.2)
        num_perm = bands * rows
    band_rows = ds.map_batches(
        MinHashStage(id_col, text_col, num_perm=num_perm, bands=bands,
                     shingle_k=shingle_k), batch_format="pyarrow")
    pairs = lsh_candidate_pairs_ds(band_rows).materialize()
    if pairs.count() == 0:
        return pd.DataFrame({id_col: [], "group_id": []})
    verified = verify_pairs_ds(ds, pairs, id_col, text_col, k=shingle_k)
    dup = verified.filter(expr=f"jaccard >= {threshold!r}").materialize()
    if dup.count() == 0:
        return pd.DataFrame({id_col: [], "group_id": []})
    groups = connected_components_minlabel(dup).to_pandas()
    groups = groups.rename(columns={"id": id_col, "label": "group_id"})
    return groups.sort_values([id_col]).reset_index(drop=True)


def dedup_minhash(ds: ray.data.Dataset, id_col: str, text_col: str,
                  threshold: float = 0.8, num_perm: int = 128,
                  bands: int | None = None,
                  shingle_k: int = 5) -> pd.DataFrame:
    """Full near-dup pipeline. Returns (doc_id, group_id) for every doc in a
    near-dup group (group_id = min doc id of its connected component).

    Scale notes: signature+banding is one streaming pass; the groupby moves
    bands*16B per doc; verification joins text only for candidate ids
    (semi-join). Connected components run on the driver over the verified
    pair list — valid while |pairs| ≪ |corpus| (the LSH contract); the
    documented alternative for adversarial corpora is iterative min-label
    propagation via groupby.
    """
    if bands is None:
        # co-tune banding with the requested threshold (a fixed (b, r) is
        # only right for one threshold: 16x8 bands recall ~18% at J=0.6).
        # FN weighted 4x FP: misses are unrecoverable, false candidates are
        # killed by the exact-Jaccard verification below.
        bands, rows = optimal_bands(threshold, num_perm, fp_weight=0.2)
        num_perm = bands * rows
    band_rows = ds.map_batches(
        MinHashStage(id_col, text_col, num_perm=num_perm, bands=bands,
                     shingle_k=shingle_k), batch_format="pyarrow")
    pairs = lsh_candidate_pairs(band_rows)
    if len(pairs) == 0:
        return pd.DataFrame({id_col: [], "group_id": []})

    cand_ids = sorted(set(pairs["id_a"]) | set(pairs["id_b"]))
    texts_by_id = {}
    id_set = set(cand_ids)
    for b in ds.select_columns([id_col, text_col]).iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        for i, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            if i in id_set:
                texts_by_id[i] = t
    verified = exact_jaccard(texts_by_id, pairs, k=shingle_k)
    dup = verified[verified["jaccard"] >= threshold]

    parent = {i: i for i in cand_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(dup["id_a"], dup["id_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = pd.Series({i: find(i) for i in cand_ids})
    sizes = roots.value_counts()
    in_group = roots[roots.map(sizes) >= 2]
    groups = pd.DataFrame({id_col: in_group.index, "group_id": in_group.values})
    return groups.sort_values([id_col]).reset_index(drop=True)


# ------------------------------------------------------------------ simhash

_TOKEN_BITS = 64


def _token_hashes(toks: list[str]) -> np.ndarray:
    """uint64 polynomial hash Σ cp[j]·MIX^j (wraparound mod 2⁶⁴) per
    token, fully vectorized over the token list (concatenated codepoints
    + reduceat segment sums). SQL-expressible — the simhash pipeline's
    DuckDB twin (queries.py:_sql_simhash_candidates) replays it exactly."""
    cps = [np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
           for t in toks]
    lens = np.array([len(c) for c in cps], dtype=np.int64)
    maxlen = int(lens.max())
    # python-int powers to avoid numpy's overflow warning (wrap intended)
    pows = np.array([pow(int(_MIX), j, 1 << 64) for j in range(maxlen)],
                    dtype=np.uint64)
    cat = np.concatenate(cps).astype(np.uint64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    pos = np.arange(len(cat)) - np.repeat(starts, lens)
    return np.add.reduceat(cat * pows[pos], starts).astype(np.uint64)


def simhash_batch(texts: list[str]) -> np.ndarray:
    """64-bit simhash per text from polynomial token hashes (unweighted,
    multiplicity-counted — ``text.split()`` semantics)."""
    out = np.zeros(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        toks = t.split()
        if not toks:
            continue
        h = _token_hashes(toks)
        bits = ((h[:, None] >> np.arange(_TOKEN_BITS, dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.int64)
        v = (2 * bits - 1).sum(axis=0)
        out[i] = np.packbits((v > 0).astype(np.uint8)[::-1], bitorder="little") \
            .view(np.uint64)[0]
    return out


def add_simhash(ds: ray.data.Dataset, text_col: str,
                out_col: str = "simhash") -> ray.data.Dataset:
    def f(batch: pa.Table) -> pa.Table:
        sh = simhash_batch(batch[text_col].to_pylist())
        return batch.append_column(out_col, pa.array(sh, type=pa.uint64()))

    return ds.map_batches(f, batch_format="pyarrow")


# byte-popcount lookup for vectorized 64-bit Hamming distance
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64_2d(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (any shape): XOR+table-lookup
    over the byte view — no per-element Python bin().count()."""
    flat = np.ascontiguousarray(x).view(np.uint8).reshape(*x.shape, 8)
    return _POP8[flat].sum(axis=-1, dtype=np.int64)


def _simhash_band_specs(nblocks: int, max_hamming: int):
    """64 bits split into ``nblocks`` contiguous blocks; one band per
    combination of (nblocks - max_hamming) blocks. Pigeonhole: ≤ max_hamming
    differing bits touch ≤ max_hamming blocks, so some kept-combination is
    bit-identical for every qualifying pair (100% recall)."""
    from itertools import combinations

    if nblocks <= max_hamming:
        raise ValueError("nblocks must exceed max_hamming (pigeonhole)")
    sizes = [64 // nblocks + (1 if i < 64 % nblocks else 0)
             for i in range(nblocks)]
    offs = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.uint64)
    combos = list(combinations(range(nblocks), nblocks - max_hamming))
    return sizes, offs, combos


def simhash_candidates(ds: ray.data.Dataset, id_col: str,
                       simhash_col: str = "simhash",
                       max_hamming: int = 3,
                       nblocks: int | None = None) -> pd.DataFrame:
    """Banded candidate generation with combination banding. Default
    nblocks = max_hamming+1 (single-block 16-bit keys for hamming 3 — the
    classic 4×16 split, ≤65,536 buckets/band: fine to ~10⁶ docs). At web
    scale raise nblocks so band keys carry more bits and buckets shrink:
    nblocks=8, hamming 3 → C(8,5)=56 bands of 40-bit keys, expected bucket
    size n/2^40 — the bucket blow-up guard. The candidate OUTPUT is
    banding-independent (recall is 100% by pigeonhole either way; the
    final hamming filter decides membership).

    Per-bucket verification is fully vectorized: XOR + byte-table popcount
    over slabbed pair blocks (bounded memory per slab), no Python pair
    loop."""
    sizes, offs, combos = _simhash_band_specs(
        nblocks or (max_hamming + 1), max_hamming)
    masks = [np.uint64((1 << s) - 1) for s in sizes]

    def explode(batch: pa.Table) -> pa.Table:
        sh = batch[simhash_col].to_numpy()
        ids = batch[id_col]
        n = len(sh)
        blocks = [(sh >> offs[b]) & masks[b] for b in range(len(sizes))]
        out_id, out_band, out_val, out_sh = [], [], [], []
        for bi, combo in enumerate(combos):
            key = np.zeros(n, dtype=np.uint64)
            for b in combo:
                key = (key << np.uint64(sizes[b])) | blocks[b]
            out_id.append(ids)
            out_band.append(pa.array(np.full(n, bi, dtype=np.int32)))
            out_val.append(pa.array(key))
            out_sh.append(pa.array(sh))
        return pa.table({
            "doc_id": pa.concat_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
                 for c in out_id]),
            "band": pa.concat_arrays(out_band),
            "val": pa.concat_arrays(out_val),
            "sh": pa.concat_arrays(out_sh),
        })

    def pairs_kernel(t: pa.Table) -> pa.Table:
        """Vectorized run-length pair expansion over co-located band rows:
        sort by (band, val, doc_id), detect buckets with ≥2 members,
        expand pairs per run (slabbed Hamming for huge runs), one
        XOR+popcount pass over ALL pairs — per-BUCKET Python cost is zero
        for the ~all singleton buckets (the map_groups-per-bucket trap:
        2.8M tiny groups at 50k docs × 56 bands). Within a run ids ascend,
        so every pair comes out as (smaller, larger) id."""
        d = t.sort_by([("band", "ascending"), ("val", "ascending"),
                       ("doc_id", "ascending")])
        d = d.filter(arrowio.run_starts(d, ["band", "val", "doc_id"]))
        shs = d["sh"].to_numpy().astype(np.uint64)
        starts = np.flatnonzero(arrowio.run_starts(d, ["band", "val"]))
        ends = np.append(starts[1:], len(d))
        aa, bb, hh = [np.empty(0, np.int64)], [np.empty(0, np.int64)], \
            [np.empty(0, np.int64)]

        def emit(ia, ib):
            ham = _popcount64_2d(shs[ia] ^ shs[ib])
            keep = ham <= max_hamming
            if keep.any():
                aa.append(ia[keep]); bb.append(ib[keep]); hh.append(ham[keep])

        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            m = e - s
            if m <= 2048:
                ia, ib = np.triu_indices(m, k=1)
                emit(ia + s, ib + s)
            else:
                # slab a huge bucket: hamming-filter INSIDE each slab so
                # only matches (not the m² candidate pairs) accumulate
                step = max(1, (1 << 22) // m)
                jj = np.arange(m)[None, :]
                for i0 in range(0, m - 1, step):
                    i1 = min(i0 + step, m - 1)
                    r, c = np.nonzero(jj > np.arange(i0, i1)[:, None])
                    emit(r + i0 + s, c + s)
        return pa.table({"id_a": d["doc_id"].take(np.concatenate(aa)),
                         "id_b": d["doc_id"].take(np.concatenate(bb)),
                         "hamming": np.concatenate(hh)}) \
            .group_by(["id_a", "id_b"], use_threads=False) \
            .aggregate([("hamming", "min")]) \
            .select(["id_a", "id_b", "hamming_min"]) \
            .rename_columns(["id_a", "id_b", "hamming"])

    from ..stages.temporal import grouped_apply

    got = grouped_apply(ds.map_batches(explode, batch_format="pyarrow"),
                        ["band", "val"], pairs_kernel).to_pandas()
    if len(got) == 0:
        return got
    return got.drop_duplicates(["id_a", "id_b"]).sort_values(
        ["id_a", "id_b"]).reset_index(drop=True)
