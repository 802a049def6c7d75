"""BPE tokenizer encode stage — the learned-tokenizer operator a real
training-data pipeline runs between curation and sequence packing
(pack_plan and the token stats elsewhere use the whitespace tokenizer;
this stage counts/encodes with a MERGES table instead).

Standard byte-pair-encoding ENCODE (Sennrich et al. 2016, public
method): a word starts as its character sequence and adjacent pairs are
merged according to a learned, rank-ordered merges table. We exploit the
classic well-formedness property of BPE merge tables — a rule's two
sides must each be a single character or the product of a strictly
earlier rule — so applying the rules IN RANK ORDER, each to its
left-to-right non-overlapping fixed point, yields the canonical
priority-queue encoding (property-tested against a brute priority-queue
reference in tests/test_bpe.py). That formulation is what makes the
operator SQL-replayable: the DuckDB twin replays the identical
procedure with a recursive CTE over (rule_index, state_string), using
the same literal string replacement semantics (leftmost,
non-overlapping) as ``str.replace`` — the ``|tok `` state rendering
(see ``bpe_encode_series``) is what makes literal replace equal the
canonical token-level pass.

Scale shape (the part that matters at 100 TB):
- the merges table is broadcast ONCE via ``ray.put`` and loaded once
  per worker process (``arrowio.worker_cached`` in a plain task — the
  model-load pattern);
- each batch encodes only its DISTINCT words (the per-word cache every
  real tokenizer keeps): Zipf makes |distinct| ≪ |tokens|, and the
  encoded counts map back vectorized;
- the whole stage is a pure map — no exchange; its ``n_bpe_tokens``
  output is exactly what ``analytics.pack_plan`` wants as ``tokens_col``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from ..functions import arrowio
from .text import tokenize

# Deterministic exemplar merges table (rank order). Every rule's sides
# are single characters or outputs of strictly earlier rules (the BPE
# well-formedness invariant the rank-order encode relies on). A learned
# table (e.g. GPT-2's merges.txt) drops in unchanged.
MERGES: list[tuple[str, str]] = [
    ("t", "h"),    # 0
    ("th", "e"),   # 1
    ("i", "n"),    # 2
    ("a", "n"),    # 3
    ("e", "r"),    # 4
    ("o", "n"),    # 5
    ("r", "e"),    # 6
    ("a", "t"),    # 7
    ("e", "n"),    # 8
    ("o", "r"),    # 9
    ("an", "d"),   # 10
    ("in", "g"),   # 11
    ("t", "o"),    # 12
    ("e", "s"),    # 13
    ("o", "u"),    # 14
    ("s", "t"),    # 15
]


def validate_merges(merges: list[tuple[str, str]]) -> None:
    """Enforce the well-formedness invariant the rank-order encode needs:
    each side of rule i is one character or the output of a rule < i."""
    formed: set[str] = set()
    for i, (l, r) in enumerate(merges):
        for side in (l, r):
            if " " in side or "|" in side:
                raise ValueError(
                    f"merge rule {i} side {side!r} contains a state-"
                    "string delimiter (space or '|')")
            if len(side) != 1 and side not in formed:
                raise ValueError(
                    f"merge rule {i} side {side!r} is neither a single "
                    "character nor the product of an earlier rule")
        formed.add(l + r)


def bpe_encode_series(words: pd.Series,
                      merges: list[tuple[str, str]] | None = None
                      ) -> pd.Series:
    """Encode each word to its BPE state string. A token is rendered as
    ``|tok `` (``'the'`` starts as ``'|t |h |e '``), so a merge rule
    (l, r) is the literal replace ``'|l |r '`` → ``'|lr '``. The leading
    ``|`` is the token boundary AND the reason the encode is canonical:
    two adjacent pair occurrences in a run (the self-pair case
    ``b b b b b``) share no CHARACTER, so string-level leftmost
    non-overlapping replace equals the canonical greedy left-to-right
    token pass — a space-separated state would consume the shared
    boundary space and mis-pair odd runs ≥ 5 (``bb|b|bb`` instead of the
    canonical ``bb|bb|b``; caught by the hypothesis parity test).
    Vectorized across rows: one pandas C-path literal replace per rule
    per fixed-point sweep; rules are few, sweeps are ≤ the longest merge
    chain. Words must not contain whitespace or ``|`` (they come from
    the shared whitespace tokenizer)."""
    if merges is None:
        merges = MERGES
    st = words.str.replace(r"(.)", r"|\1 ", regex=True)
    for l, r in merges:
        pat, repl = f"|{l} |{r} ", f"|{l}{r} "
        while True:
            new = st.str.replace(pat, repl, regex=False)
            if new.equals(st):
                break
            st = new
    return st


def bpe_token_counts_kernel(words: pd.Series,
                            merges: list[tuple[str, str]] | None = None
                            ) -> np.ndarray:
    """Token count per word after BPE encoding (# of ``|`` boundaries in
    the state string — the same formula the SQL twin computes with
    length())."""
    st = bpe_encode_series(words, merges)
    return st.str.count(r"\|").to_numpy(dtype="int64")


class BpeCount:
    """Per-doc whitespace word count and BPE token count under a
    broadcast merges table. Merges ride the object store once and load
    once per worker process (``arrowio.worker_cached``); each batch
    encodes only its DISTINCT words and maps the counts back
    (vectorized)."""

    def __init__(self, merges_ref, text_col: str = "text"):
        self.merges_ref, self.text_col = merges_ref, text_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks = tokenize(df[self.text_col])
        uniq = toks.unique() if len(toks) else np.array([], dtype=object)
        cnt = pd.Series(
            bpe_token_counts_kernel(pd.Series(uniq, dtype=str),
                                    arrowio.worker_cached(self.merges_ref)),
            index=uniq, dtype="int64")
        per_tok = toks.map(cnt)
        owner = toks.index.to_numpy()
        g = per_tok.groupby(owner)
        df["n_words"] = g.size().reindex(df.index, fill_value=0) \
            .astype("int64")
        df["n_bpe_tokens"] = g.sum().reindex(df.index, fill_value=0) \
            .astype("int64")
        return df


def bpe_token_counts(ds: ray.data.Dataset, text_col: str = "text",
                     merges: list[tuple[str, str]] | None = None
                     ) -> ray.data.Dataset:
    """Append ``n_words`` / ``n_bpe_tokens`` columns (the pack_plan
    ``tokens_col`` feed) — see module docstring for the physical plan."""
    merges = list(MERGES if merges is None else merges)
    validate_merges(merges)
    return ds.map_batches(BpeCount(ray.put(merges), text_col),
                          batch_format="pandas")
