"""Corpus-level duplicate-segment removal (CCNet-style line dedup).

Web-pipeline boilerplate removal: a *segment* that appears in ≥
``min_docs`` distinct documents is boilerplate (nav bars, footers, cookie
banners) and is removed from EVERY document, preserving the order of the
surviving segments. Two segmenters share one code path:

- ``mode="lines"``  — split on newline (the classic CCNet unit; real web
  pages).
- ``mode="words"``  — fixed ``width``-word aligned windows (the driver's
  synthetic ``documents`` table is single-line, so word windows are the
  unit that actually repeats there; also the shape used by
  substring-level training-data dedup).

Physical plan (the dedup_exact_broadcast duality, see
pipelines/dedup.py): pass 1 is a narrow text-column scan that counts
distinct docs per segment — segments are never materialized as strings;
each is identified by a 128-bit positional fold of per-word 64-bit hashes
(collision-safe removal, same argument as dedup._hash128). The banned set
(only segments with ndocs ≥ min_docs) is broadcast via ``ray.put`` and
pass 2 is ONE map-side rewrite — no all-to-all exchange anywhere.

Scale regime: the fold sees |distinct segments per batch| partial rows
(24 B each) and the broadcast is O(duplicate segments). The fold is
``dedup.fold_partials``, placed by the partials' measured size (driver
or hash-range tasks, see pipelines/dedup.py).

Determinism contract: ``ds`` is scanned twice and MUST re-scan
identically (file source or materialized) — same contract as
dedup_exact_broadcast.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .dedup import fold_partials, frequent_keys, probe128

_POW_BASE = np.uint64(1000003)  # odd → invertible mod 2^64 (prefix-safe)
_H2_KEY = "4c1f9d2ab37e6805"


def _word_hashes(flat: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit hashes per exploded word/line (vectorized)."""
    h1 = pd.util.hash_pandas_object(flat, index=False).to_numpy()
    h2 = pd.util.hash_pandas_object(flat, index=False,
                                    hash_key=_H2_KEY).to_numpy()
    return h1, h2


def _explode(texts: pd.Series, mode: str, width: int):
    """texts → (flat_words Series, row_of, pos_in_row, lens).
    ``mode="lines"`` treats each line as one one-word segment (width=1)."""
    sep = "\n" if mode == "lines" else " "
    parts = texts.str.split(sep)
    lens = parts.str.len().to_numpy(dtype=np.int64)
    flat = parts.explode(ignore_index=True)
    row_of = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    starts = np.cumsum(lens) - lens
    pos = np.arange(len(flat), dtype=np.int64) - starts[row_of]
    return flat, row_of, pos, lens


def _segment_hashes(texts: pd.Series, mode: str, width: int):
    """Per-text aligned segments → 128-bit identities, no string assembly.

    Segment identity = Σ_j wordhash[j]·BASE^j (mod 2⁶⁴, j = offset inside
    the window) for each of the two word-hash families. The positional
    polynomial is injective w.r.t. the word sequence up to hash collisions
    and distinguishes a window from its proper prefixes (BASE odd ⇒ BASE^j
    invertible), so two segments fold equal iff their text is equal,
    within 2⁻¹²⁸.

    Returns (seg_h1, seg_h2, seg_row, seg_words, word_gcid, flat, row_of):
    per-segment hash pair, owning row, word count; plus each word's global
    segment id and the exploded words themselves (for pass-2 rewrites —
    computed once, shared by both passes' callers)."""
    w = 1 if mode == "lines" else width
    flat, row_of, pos, lens = _explode(texts, mode, width)
    h1, h2 = _word_hashes(flat)
    chunk = pos // w
    nseg_row = (lens + w - 1) // w
    seg_start_of_row = np.cumsum(nseg_row) - nseg_row
    gcid = seg_start_of_row[row_of] + chunk
    nseg = int(nseg_row.sum())
    # positional fold per segment: contributions ordered by gcid (row-major)
    powv = _POW_BASE ** (pos % w).astype(np.uint64)
    first = np.empty(len(flat), dtype=bool)
    if len(flat):
        first[0] = True
        first[1:] = gcid[1:] != gcid[:-1]
    bounds = np.nonzero(first)[0]
    seg_h1 = np.add.reduceat(h1 * powv, bounds) if nseg else np.empty(0, np.uint64)
    seg_h2 = np.add.reduceat(h2 * powv, bounds) if nseg else np.empty(0, np.uint64)
    seg_row = row_of[bounds] if nseg else np.empty(0, np.int64)
    seg_words = np.diff(np.append(bounds, len(flat))) if nseg \
        else np.empty(0, np.int64)
    return seg_h1, seg_h2, seg_row, seg_words, gcid, flat, row_of


def _member128(h1d: np.ndarray, h2d: np.ndarray,
               b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Membership of (b1,b2) pairs in the (h1,h2)-lexsorted banned arrays:
    the dedup classify-kernel probe (``dedup.probe128``)."""
    return probe128(h1d, h2d, b1, b2) >= 0


def banned_segments(ds: ray.data.Dataset, text_col: str = "text",
                    mode: str = "words", width: int = 3, min_docs: int = 2,
                    kind: str = "aligned"):
    """Pass 1: ray.put ref of the (h1,h2)-lexsorted banned-segment hash
    arrays. Narrow scan — only ``text_col`` leaves storage; per-batch
    partials carry one row per distinct segment (within-doc repeats
    deduped BEFORE counting, so ndocs counts documents, not occurrences),
    summed by ``dedup.fold_partials``; only the banned hashes reach the
    driver.

    kind="aligned" (default): _segment_hashes' disjoint width-word
    chunks (the CCNet rewrite grain). kind="sliding": every unaligned
    width-gram window (_sliding_ngram_hashes — substring-duplication
    detection must catch overlaps at any offset); same census, fold and
    broadcast shape, ~width× more partial rows per doc."""
    import ray

    def local(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        if kind == "sliding":
            s1, s2, srow, _tot = _sliding_ngram_hashes(texts, width)
        else:
            s1, s2, srow, _sw, _g, _f, _r = \
                _segment_hashes(texts, mode, width)
        if not len(s1):
            e = np.empty(0, dtype=np.uint64)
            return pa.table({"__h1": pa.array(e), "__h2": pa.array(e),
                             "__n": pa.array(np.empty(0, np.int64))})
        order = np.lexsort((srow, s2, s1))
        s1, s2, srow = s1[order], s2[order], srow[order]
        uniq = np.empty(len(s1), dtype=bool)
        uniq[0] = True
        uniq[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1]) \
            | (srow[1:] != srow[:-1])
        s1, s2 = s1[uniq], s2[uniq]
        new = np.empty(len(s1), dtype=bool)
        new[0] = True
        new[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
        starts = np.nonzero(new)[0]
        ndocs = np.diff(np.append(starts, len(s1)))
        return pa.table({"__h1": pa.array(s1[starts], type=pa.uint64()),
                         "__h2": pa.array(s2[starts], type=pa.uint64()),
                         "__n": pa.array(ndocs.astype(np.int64))})

    partial = ds.select_columns([text_col]) \
        .map_batches(local, batch_format="pyarrow")
    folded = fold_partials(partial, ["__h1", "__h2"], [("__n", "sum")],
                           fallback_schema=pa.schema([
                               ("__h1", pa.uint64()), ("__h2", pa.uint64()),
                               ("__n", pa.int64())]))
    h1, h2 = frequent_keys(folded, ["__h1", "__h2"], "__n", min_docs)
    order = np.lexsort((h2, h1))
    return ray.put((h1[order], h2[order]))


def segment_dedup(ds: ray.data.Dataset, text_col: str = "text",
                  mode: str = "words", width: int = 3, min_docs: int = 2,
                  out_col: str = "text_clean",
                  banned_ref=None) -> ray.data.Dataset:
    """Pass 2: map-side rewrite. Adds ``n_segments`` (segments in the
    original text), ``n_removed`` (boilerplate segments dropped) and
    ``out_col`` (surviving segments joined in original order; '' when
    everything was boilerplate). Exchange-free: the banned set rides in
    the object store, every batch rewrites independently."""
    import ray

    if banned_ref is None:
        banned_ref = banned_segments(ds, text_col, mode, width, min_docs)
    sep = "\n" if mode == "lines" else " "

    def rewrite(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        n = len(texts)
        if n == 0:
            cols = {c: batch[c] for c in batch.column_names}
            cols["n_segments"] = pa.array([], type=pa.int64())
            cols["n_removed"] = pa.array([], type=pa.int64())
            cols[out_col] = pa.array([], type=pa.string())
            return pa.table(cols)
        h1d, h2d = ray.get(banned_ref)
        s1, s2, srow, _swords, gcid, flat, row_of = \
            _segment_hashes(texts, mode, width)
        ban = _member128(h1d, h2d, s1, s2)
        nseg = np.bincount(srow, minlength=n).astype(np.int64)
        nrem = np.bincount(srow[ban], minlength=n).astype(np.int64)
        keep_w = ~ban[gcid]
        kept_words = flat.to_numpy()[keep_w]
        kept_rows = row_of[keep_w]
        offs = np.cumsum(np.bincount(kept_rows, minlength=n))
        lo = np.concatenate(([0], offs[:-1]))
        out = [sep.join(kept_words[a:b]) for a, b in zip(lo, offs)]
        cols = {c: batch[c] for c in batch.column_names}
        cols["n_segments"] = pa.array(nseg)
        cols["n_removed"] = pa.array(nrem)
        cols[out_col] = pa.array(out, type=pa.string())
        return pa.table(cols)

    return ds.map_batches(rewrite, batch_format="pyarrow")


def repetition_stats(ds: ray.data.Dataset, id_col: str = "doc_id",
                     text_col: str = "text",
                     ns: tuple = (2, 3)) -> ray.data.Dataset:
    """Gopher-style within-document repetition features: for each word
    n-gram size in ``ns``, the total number of (sliding) n-grams and the
    duplicate fraction 1 − distinct/total — the classic quality filter
    for machine-generated / keyword-stuffed pages. PURELY map-side (each
    doc's windows live in its batch): one explode + one vectorized
    sliding-window hash fold per n; n-grams are identified by the same
    128-bit positional fold as segment_dedup (no n-gram strings built).

    Output adds, per n: ``ng{n}_total`` (int64) and ``ng{n}_dup_frac``
    (unrounded IEEE; 0.0 when a doc has no full window)."""

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        nrows = len(texts)
        cols = {c: batch[c] for c in batch.column_names}
        if nrows == 0:
            for n in ns:
                cols[f"ng{n}_total"] = pa.array([], type=pa.int64())
                cols[f"ng{n}_dup_frac"] = pa.array([], type=pa.float64())
            return pa.table(cols)
        flat, row_of, pos, lens = _explode(texts, "words", 1)
        h1, h2 = _word_hashes(flat)
        nw = len(flat)
        for n in ns:
            total = np.maximum(lens - n + 1, 0).astype(np.int64)
            if nw >= n:
                # sliding fold over the whole flat array; windows crossing
                # a doc boundary are masked out (their ends differ in row)
                w1 = np.lib.stride_tricks.sliding_window_view(h1, n)
                w2 = np.lib.stride_tricks.sliding_window_view(h2, n)
                powv = _POW_BASE ** np.arange(n, dtype=np.uint64)
                g1 = (w1 * powv[None, :]).sum(axis=1)
                g2 = (w2 * powv[None, :]).sum(axis=1)
                valid = row_of[:nw - n + 1] == row_of[n - 1:]
                rows = row_of[:nw - n + 1][valid]
                g1, g2 = g1[valid], g2[valid]
                order = np.lexsort((g2, g1, rows))
                rs, a, b = rows[order], g1[order], g2[order]
                uniq = np.empty(len(rs), dtype=bool)
                if len(rs):
                    uniq[0] = True
                    uniq[1:] = (rs[1:] != rs[:-1]) | (a[1:] != a[:-1]) \
                        | (b[1:] != b[:-1])
                distinct = np.bincount(rs[uniq], minlength=nrows) \
                    .astype(np.int64)
            else:
                distinct = np.zeros(nrows, dtype=np.int64)
            frac = np.zeros(nrows, dtype=np.float64)
            nz = total > 0
            # unrounded: 1 − (exact int division) is the same IEEE ops on
            # both engines; rounding would add half-even/half-away tie
            # divergence on power-of-two totals
            frac[nz] = 1.0 - distinct[nz] / total[nz]
            cols[f"ng{n}_total"] = pa.array(total)
            cols[f"ng{n}_dup_frac"] = pa.array(frac)
        return pa.table(cols)

    return ds.map_batches(feats, batch_format="pyarrow")


# ------------------------------------------------- benchmark decontamination

def _sliding_ngram_hashes(texts: pd.Series, width: int):
    """Lowercased whitespace words → SLIDING ``width``-gram 128-bit
    hashes (unaligned windows, unlike _segment_hashes' aligned chunks —
    decontamination must catch overlaps at any offset). Same positional
    polynomial fold and hash families as segment_dedup, so two n-grams
    hash equal iff their word sequences are equal within 2⁻¹²⁸.

    Returns (g1, g2, rows, totals): per-window hash pair, owning row
    index, and n-grams-per-row (len-width+1, floored at 0)."""
    parts = texts.str.lower().str.split(" ")
    lens = parts.str.len().to_numpy(dtype=np.int64)
    flat = parts.explode(ignore_index=True)
    row_of = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    totals = np.maximum(lens - width + 1, 0).astype(np.int64)
    nw = len(flat)
    if nw < width:
        e = np.empty(0, dtype=np.uint64)
        return e, e, np.empty(0, dtype=np.int64), totals
    h1, h2 = _word_hashes(flat)
    w1 = np.lib.stride_tricks.sliding_window_view(h1, width)
    w2 = np.lib.stride_tricks.sliding_window_view(h2, width)
    powv = _POW_BASE ** np.arange(width, dtype=np.uint64)
    g1 = (w1 * powv[None, :]).sum(axis=1)
    g2 = (w2 * powv[None, :]).sum(axis=1)
    valid = row_of[:nw - width + 1] == row_of[width - 1:]
    return g1[valid], g2[valid], row_of[:nw - width + 1][valid], totals


def eval_ngram_set(eval_texts, width: int = 8):
    """Distinct sliding ``width``-gram hash set of a benchmark eval suite,
    (h1, h2)-lexsorted for _member128 probes, as a ``ray.put`` broadcast
    ref. Eval suites are benchmark-sized (thousands of prompts), so
    building this driver-side is a catalog operation, not a corpus one."""
    import ray
    g1, g2, _rows, _tot = _sliding_ngram_hashes(
        pd.Series(list(eval_texts)), width)
    if len(g1):
        order = np.lexsort((g2, g1))
        g1, g2 = g1[order], g2[order]
        keep = np.empty(len(g1), dtype=bool)
        keep[0] = True
        keep[1:] = (g1[1:] != g1[:-1]) | (g2[1:] != g2[:-1])
        g1, g2 = g1[keep], g2[keep]
    return ray.put((g1, g2))


def decontaminate(ds: ray.data.Dataset, eval_ref, id_col: str = "doc_id",
                  text_col: str = "text", width: int = 8,
                  max_matches: int = 0) -> ray.data.Dataset:
    """Benchmark decontamination (the GPT-3/PaLM n-gram overlap rule):
    flag every corpus document sharing at least one (``> max_matches``)
    sliding ``width``-word n-gram with the broadcast eval set
    (``eval_ref`` from :func:`eval_ngram_set`).

    ONE map-side pass — the eval n-gram set rides the object store into
    every task; no exchange, no corpus materialization. Output rows:
    (id, n_ngrams, n_matched, contaminated). Filtering/removal is the
    caller's ``.filter`` on ``contaminated`` (keeping the flags table
    separate preserves the audit trail a curation pipeline needs)."""
    import ray

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        g1, g2, rows, totals = _sliding_ngram_hashes(texts, width)
        h1d, h2d = ray.get(eval_ref)
        found = _member128(h1d, h2d, g1, g2)
        matched = np.bincount(rows[found], minlength=len(texts)) \
            .astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "n_ngrams": pa.array(totals),
            "n_matched": pa.array(matched),
            "contaminated": pa.array(matched > max_matches),
        })

    return ds.select_columns([id_col, text_col]) \
        .map_batches(stage, batch_format="pyarrow")


def dup_ngram_stats(ds: ray.data.Dataset, id_col: str = "doc_id",
                    text_col: str = "text", width: int = 8,
                    min_docs: int = 2,
                    banned_ref=None) -> ray.data.Dataset:
    """Cross-document duplicate-span statistics (the substring-dedup
    signal of Lee et al., "Deduplicating Training Data Makes Language
    Models Better"): for each document, how many of its sliding
    ``width``-word n-grams also appear in ≥ ``min_docs`` distinct
    documents. The classic follow-up — dropping or trimming those spans
    — is the caller's filter on the stats, keeping the audit trail.

    Same two-pass shape as segment_dedup, at the sliding grain:
    pass 1 builds the duplicated-n-gram hash census with
    :func:`banned_segments` (kind="sliding" — only the dup set reaches
    the driver); pass 2 is ONE exchange-free map pass
    probing the broadcast set (zero-copy numpy arrays out of the object
    store — no per-batch deserialization). Output rows:
    (id, n_ngrams, n_dup)."""
    import ray

    if banned_ref is None:
        banned_ref = banned_segments(ds, text_col, mode="words",
                                     width=width, min_docs=min_docs,
                                     kind="sliding")

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        g1, g2, rows, totals = _sliding_ngram_hashes(texts, width)
        h1d, h2d = ray.get(banned_ref)
        dup = _member128(h1d, h2d, g1, g2)
        n_dup = np.bincount(rows[dup], minlength=len(texts)) \
            .astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         "n_ngrams": pa.array(totals),
                         "n_dup": pa.array(n_dup)})

    return ds.select_columns([id_col, text_col]) \
        .map_batches(stage, batch_format="pyarrow")
