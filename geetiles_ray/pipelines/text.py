"""Text analysis operators for the web-page table (training-data pipeline
extensions): language id, quality scoring, token counting, fingerprinting.
All vectorized pandas/numpy inside plain-task map_batches: a stage without
broadcast state is a callable instance built (regexes compiled) on the
driver; a stage with one reads it through ``arrowio.worker_cached``, once
per worker process."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import arrowio

STOPWORDS = {
    "en": ["the", "and", "of", "to", "a", "in", "is", "it", "you", "that"],
    "es": ["el", "la", "de", "que", "y", "en", "un", "por", "con", "los"],
    "de": ["der", "die", "und", "das", "ist", "nicht", "ein", "mit", "den", "von"],
    "fr": ["le", "la", "et", "les", "des", "un", "une", "est", "pour", "que"],
}


# ASCII punctuation stripped off token edges before stopword matching —
# shared verbatim by the DuckDB oracle (queries.py:SQL_LANG_ID)
TOKEN_STRIP = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"


def tokenize(texts: pd.Series) -> pd.Series:
    """THE shared tokenizer (lowercase → whitespace split → strip edge
    punctuation → drop empties), exploded with the owning row index.
    Every operator whose SQL twin tokenizes (token_postings, top_tokens,
    tfidf, PMI, unigram LM, per-tile tokens, lang-id) must call THIS —
    the twins replay this exact sequence in SQL, and a drifted copy
    silently breaks only its own oracle."""
    toks = texts.str.lower().str.split().explode().str.strip(TOKEN_STRIP)
    return toks[(toks != "") & toks.notna()]


class LangId:
    """Stopword heuristic language id: lowercase, whitespace-split, strip
    edge punctuation, count exact stopword-token hits per language + a CJK
    codepoint count ×3 for zh; argmax with 'und' fallback (ties break in
    en > es > de > fr > zh order). Token membership (not regex \\b) keeps
    the semantics identical between pandas and the RE2-based SQL oracle."""

    def __init__(self, text_col: str = "text", out_col: str = "lang_pred"):
        self.text_col, self.out_col = text_col, out_col
        self.sets = {lg: frozenset(ws) for lg, ws in STOPWORDS.items()}
        self.cjk = re.compile("[一-鿿]")

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        low = df[self.text_col].str.lower()
        toks = low.str.split().explode().str.strip(TOKEN_STRIP)
        scores = pd.DataFrame(
            {lg: toks.isin(s).groupby(level=0).sum() for lg, s in self.sets.items()}
        ).reindex(df.index, fill_value=0)
        scores["zh"] = low.str.count(self.cjk) * 3  # CJK chars: strong evidence
        best = scores.idxmax(axis=1)
        nohit = scores.max(axis=1) == 0
        df[self.out_col] = best.where(~nohit, "und")
        return df


def lang_id(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    return ds.map_batches(LangId(text_col), batch_format="pandas")


class QualityScore:
    """Heuristic quality features (length, punctuation ratio, stopword ratio,
    mean word length) + a [0,1] score. Deterministic, vectorized."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.word = re.compile(r"\w+")
        self.punct = re.compile(r"[^\w\s]")
        self.stop = re.compile(
            r"\b(" + "|".join(w for ws in STOPWORDS.values() for w in ws) + r")\b")

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        t = df[self.text_col]
        n_chars = t.str.len().astype("int64")
        n_words = t.str.count(self.word).astype("int64")
        n_punct = t.str.count(self.punct).astype("int64")
        n_stop = t.str.lower().str.count(self.stop).astype("int64")
        df["n_chars"] = n_chars
        df["n_words"] = n_words
        df["punct_ratio"] = (n_punct / n_chars.clip(lower=1)).round(6)
        df["stop_ratio"] = (n_stop / n_words.clip(lower=1)).round(6)
        df["mean_word_len"] = ((n_chars - n_words + 1) / n_words.clip(lower=1)).round(6)
        length_ok = ((n_words >= 10) & (n_words <= 100000)).astype(float)
        df["quality"] = (0.4 * length_ok
                         + 0.3 * (1 - df["punct_ratio"].clip(0, 1))
                         + 0.3 * df["stop_ratio"].clip(0, 1)).round(6)
        return df


def quality_score(ds: ray.data.Dataset,
                  text_col: str = "text") -> ray.data.Dataset:
    return ds.map_batches(QualityScore(text_col), batch_format="pandas")


class TokenCount:
    """Whitespace tokens + a BPE-ish subword estimate (regex splitting on
    letter/digit/punct boundaries, ~GPT-2 pre-tokenizer shape)."""

    BPE_ISH = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        t = df[self.text_col]
        df["ws_tokens"] = (t.str.count(" ") + 1).astype("int64")
        df["bpeish_tokens"] = t.str.count(self.BPE_ISH).astype("int64")
        return df


def token_count(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    return ds.map_batches(TokenCount(text_col), batch_format="pandas")


FP_WINDOW = 8
FP_BASE = 257


def _window_fingerprints(texts: list[str], k: int = FP_WINDOW,
                         base: int = FP_BASE) -> np.ndarray:
    """Rolling-hash document fingerprint, fully vectorized: XOR over all
    k-codepoint sliding windows of the polynomial hash Σ cp[j]·base^j
    (wraparound mod 2⁶⁴). Shift of interior content perturbs ≤ k window
    hashes, so the XOR fold stays content-defined; identical texts always
    collide, one edited codepoint always diverges (w.h.p.). Texts shorter
    than k hash as one truncated window; empty → 0. Replaces the per-byte
    Python Rabin-Karp loop (~10⁴ interpreter steps per 10 KB doc) with the
    sliding-window uint64 kernel also used by the MinHash shingler —
    and is exactly expressible in HUGEINT SQL (see SQL_FINGERPRINTS)."""
    pows = np.uint64(base) ** np.arange(k, dtype=np.uint64)
    out = np.zeros(len(texts), dtype=np.uint64)
    for idx, t in enumerate(texts):
        cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32) \
            .astype(np.uint64)
        n = len(cp)
        if n == 0:
            continue
        if n < k:
            out[idx] = (cp * pows[:n]).sum()
        else:
            win = np.lib.stride_tricks.sliding_window_view(cp, k)
            out[idx] = np.bitwise_xor.reduce((win * pows[None, :]).sum(axis=1))
    return out


def fingerprint(ds: ray.data.Dataset, text_col: str = "text",
                out_col: str = "fingerprint") -> ray.data.Dataset:
    def f(batch: pa.Table) -> pa.Table:
        fps = _window_fingerprints(batch[text_col].to_pylist())
        return batch.append_column(out_col, pa.array(fps, type=pa.uint64()))

    return ds.map_batches(f, batch_format="pyarrow")


class UnigramScore:
    """CCNet-style language-model quality scoring, unigram edition: a doc's
    score is its mean token log-probability under the corpus unigram
    distribution (perplexity filtering without a KenLM dependency — the
    model IS the corpus token_postings table). Stateful stage: the
    vocabulary count table (dict token -> count) rides the object store
    once and loads once per worker process (``arrowio.worker_cached``);
    scoring is pure map work."""

    def __init__(self, probs_ref, total_tokens: int,
                 text_col: str = "text"):
        self.probs_ref, self.text_col = probs_ref, text_col
        self.total = float(total_tokens)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        probs = arrowio.worker_cached(self.probs_ref)
        toks = tokenize(df[self.text_col])
        cnt = toks.map(probs).fillna(0).to_numpy(dtype=np.float64)
        # add-one smoothing keeps unseen tokens finite; same formula in SQL
        lp = np.log((cnt + 1.0) / (self.total + 1.0))
        g = pd.Series(lp).groupby(toks.index.to_numpy())
        sums = g.sum()
        ns = g.size()
        df["n_tokens"] = ns.reindex(df.index, fill_value=0).astype("int64")
        mean_lp = (sums / ns.clip(lower=1)).reindex(df.index, fill_value=0.0)
        df["mean_logprob"] = np.round(mean_lp.to_numpy(), 6)
        return df


def unigram_logprob(ds: ray.data.Dataset, id_col: str = "doc_id",
                    text_col: str = "text") -> ray.data.Dataset:
    """Two-phase: corpus unigram counts (token_postings' combiner path)
    broadcast once, then one scoring map. Output adds n_tokens and
    mean_logprob (round 6)."""
    from .analytics import token_postings

    post = token_postings(ds, id_col, text_col).to_pandas()
    counts = dict(zip(post.token, post.tf.astype("int64")))
    total = int(post.tf.sum())
    return ds.map_batches(UnigramScore(ray.put(counts), total, text_col),
                          batch_format="pandas")


class ImportanceScore:
    """DSIR-style importance weighting (Xie et al. 2023, 'Data Selection
    for Language Models via Importance Resampling' — public method):
    a doc's weight is its summed token log-ratio between a TARGET unigram
    distribution (e.g. the high-quality / in-domain subset) and the
    BACKGROUND corpus distribution, add-one smoothed. Docs scoring > 0
    look more target-like than background — the select flag for
    importance resampling. Stateful stage: both count tables broadcast
    once as one (target, background) pair, loaded once per worker process
    (``arrowio.worker_cached``)."""

    def __init__(self, models_ref, target_total: int, bg_total: int,
                 text_col: str = "text"):
        self.models_ref, self.text_col = models_ref, text_col
        self.tt, self.tb = float(target_total), float(bg_total)

    # per-token log-ratios are quantized to this integer grid BEFORE the
    # per-doc sum, so the fold is order-independent: pandas groupby-sum
    # and DuckDB's parallel SUM disagree on float summation order, and a
    # doc landing within float error of a ROUND(...,6) boundary would
    # otherwise flip logratio/selected between engines (round-4 advisor
    # finding). Same Q_SCALE discipline as model_score.
    LR_SCALE = 1_000_000_000.0

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        tgt, bg = arrowio.worker_cached(self.models_ref)
        toks = tokenize(df[self.text_col])
        ct = toks.map(tgt).fillna(0).to_numpy(dtype=np.float64)
        cb = toks.map(bg).fillna(0).to_numpy(dtype=np.float64)
        lr = (np.log((ct + 1.0) / (self.tt + 1.0))
              - np.log((cb + 1.0) / (self.tb + 1.0)))
        lri = np.floor(lr * self.LR_SCALE + 0.5).astype(np.int64)
        g = pd.Series(lri).groupby(toks.index.to_numpy())
        sums = g.sum()
        ns = g.size()
        df["n_tokens"] = ns.reindex(df.index, fill_value=0).astype("int64")
        si = sums.reindex(df.index, fill_value=0).astype("int64").to_numpy()
        df["logratio_q"] = si  # exact int64 — the hashable twin column
        df["logratio"] = np.round(si / self.LR_SCALE, 6)
        # select on the EXACT integer sum — both engines hold the same
        # int64, so the threshold can never flip on float noise
        df["selected"] = (si > 0).astype("int64")
        return df


def importance_weights(ds: ray.data.Dataset, target_mask,
                       id_col: str = "doc_id", text_col: str = "text",
                       postings: ray.data.Dataset | None = None
                       ) -> ray.data.Dataset:
    """DSIR importance scoring: build target (rows where
    ``target_mask(batch) -> bool ndarray`` holds) and background unigram
    models with token_postings' combiner path, broadcast both once, then
    one scoring map. Adds n_tokens / logratio (round 6) / selected.

    Pass ``postings`` (a token_postings-shaped table over the SAME ``ds``
    with the SAME tokenizer — pmi_pairs' reuse contract, analytics.py) to
    reuse the BACKGROUND unigram model a composed curation pipeline
    already built (tfidf / unigram_logprob / pmi all need it): the
    background corpus scan is then skipped entirely."""
    from .analytics import token_postings

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(target_mask(batch)))

    def model(post: pd.DataFrame) -> tuple[dict, int]:
        # empty-corpus guard: Ray's to_pandas() on an all-empty dataset
        # drops columns entirely — an empty target subset is a legal input
        if not len(post):
            return {}, 0
        return (dict(zip(post.token, post.tf.astype("int64"))),
                int(post.tf.sum()))

    tgt, tt = model(token_postings(
        ds.map_batches(keep, batch_format="pyarrow"),
        id_col, text_col).to_pandas())
    if postings is not None:
        names = set(postings.schema().names)
        if not {"token", "tf"} <= names:
            raise ValueError(
                "postings must be a token_postings-shaped table with "
                f"'token' and 'tf' columns (got {sorted(names)})")
        bg, tb = model(postings.to_pandas())
    else:
        bg, tb = model(token_postings(ds, id_col, text_col).to_pandas())
    return ds.map_batches(
        ImportanceScore(ray.put((tgt, bg)), tt, tb, text_col),
        batch_format="pandas")


# --------------------------------------------------- text normalization

# Unicode combining-mark block (diacritics) removed after NFD split —
# mirrors DuckDB's strip_accents for Latin-script text; the SQL twin
# replays lower(strip_accents(nfc_normalize(x))) + whitespace collapse.
_COMBINING_RE = r"[̀-ͯ]"


def normalize_series(texts: pd.Series) -> pd.Series:
    """NFC-normalize → strip accents (NFD + drop combining marks) →
    lowercase → collapse runs of whitespace (``str.isspace``, the set
    regex ``\\s`` matches) to one space → trim. All vectorized pandas
    .str ops (the accent strip is one compiled regex over the NFD form,
    not per-char Python; the whitespace collapse is one split per row)."""
    s = texts.str.normalize("NFC")
    s = s.str.normalize("NFD").str.replace(_COMBINING_RE, "", regex=True)
    return s.str.lower().str.split().str.join(" ")


def normalize_text(ds: ray.data.Dataset, text_col: str = "text",
                   out_col: str = "text_norm") -> ray.data.Dataset:
    """Curation-standard text normalization stage (the cleanup pass that
    precedes tokenization/dedup in CCNet-style pipelines): appends
    ``out_col`` plus its char/token counts. Pure map — no exchange."""

    def f(batch: pa.Table) -> pa.Table:
        norm = normalize_series(batch[text_col].to_pandas())
        cols = {c: batch[c] for c in batch.column_names}
        cols[out_col] = pa.array(norm.to_numpy(dtype=object),
                                 type=pa.string())
        cols["n_chars_norm"] = pa.array(
            norm.str.len().to_numpy(dtype="int64"))
        nt = norm.str.split(" ").str.len().where(norm != "", 0)
        cols["n_tokens_norm"] = pa.array(nt.to_numpy(dtype="int64"))
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow")
