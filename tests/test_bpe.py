"""BPE encode stage (pipelines/bpe.py): kernel parity against a classic
priority-queue BPE reference, well-formedness validation, and the
dataset stage end-to-end."""

import numpy as np
import pandas as pd
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from geetiles_ray.pipelines import bpe as bpemod


def bpe_reference(word: str, merges) -> list[str]:
    """Classic priority-queue BPE encode (Sennrich et al. 2016 / GPT-2
    style): repeatedly pick the LOWEST-rank pair present and merge all its
    leftmost non-overlapping occurrences in one pass. The brute oracle
    for the rank-order fixed-point formulation in bpe.bpe_encode_series."""
    ranks = {pair: i for i, pair in enumerate(merges)}
    parts = list(word)
    while len(parts) > 1:
        best, best_rank = None, len(merges)
        for a, b in zip(parts, parts[1:]):
            r = ranks.get((a, b), len(merges))
            if r < best_rank:
                best, best_rank = (a, b), r
        if best is None:
            break
        out, i = [], 0
        while i < len(parts):
            if i + 1 < len(parts) and (parts[i], parts[i + 1]) == best:
                out.append(parts[i] + parts[i + 1])
                i += 2
            else:
                out.append(parts[i])
                i += 1
        parts = out
    return parts


def encode_one(word: str, merges=None) -> list[str]:
    st_ = bpemod.bpe_encode_series(pd.Series([word]), merges).iloc[0]
    return [t.strip() for t in st_.split("|") if t.strip()]


class TestKernel:
    def test_exemplar_words(self):
        for w in ["the", "thither", "ingesting", "banana", "and",
                  "strength", "thethe", "north", "x", "南京"]:
            assert encode_one(w) == bpe_reference(w, bpemod.MERGES), w

    def test_chained_merges_reach_fixed_point(self):
        # 'the' needs rule 1 whose left side is rule 0's output
        assert encode_one("the") == ["the"]
        assert encode_one("ingesting") == ["ing", "es", "t", "ing"]

    def test_counts_kernel(self):
        got = bpemod.bpe_token_counts_kernel(
            pd.Series(["the", "banana", "x", "thither"]))
        assert got.tolist() == [1, 4, 1, 4]
        assert got.dtype == np.int64

    def test_overlapping_same_rule(self):
        # leftmost non-overlapping within a pass, fixed point across
        # passes — ' a a a a ' must become aa|aa, and ' a a a ' aa|a
        merges = [("a", "a")]
        assert encode_one("aaaa", merges) == ["aa", "aa"]
        assert encode_one("aaa", merges) == ["aa", "a"]
        assert encode_one("aaaa", merges) == bpe_reference("aaaa", merges)
        assert encode_one("aaa", merges) == bpe_reference("aaa", merges)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="theinangor", min_size=1, max_size=12))
    def test_property_parity_with_priority_queue(self, word):
        # the rank-order fixed-point formulation (what the SQL twin can
        # replay) must equal the canonical priority-queue encode for
        # every word under the well-formed MERGES table
        assert encode_one(word) == bpe_reference(word, bpemod.MERGES)

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=10))
    def test_property_parity_degenerate_table(self, word):
        merges = [("a", "a"), ("b", "b"), ("aa", "b"), ("a", "bb")]
        bpemod.validate_merges(merges)
        assert encode_one(word, merges) == bpe_reference(word, merges)


class TestValidate:
    def test_accepts_exemplar(self):
        bpemod.validate_merges(bpemod.MERGES)

    def test_rejects_ill_formed(self):
        with pytest.raises(ValueError, match="rule 0"):
            bpemod.validate_merges([("th", "e")])  # 'th' never produced
        with pytest.raises(ValueError, match="rule 1"):
            bpemod.validate_merges([("a", "b"), ("b", "ab x")])


class TestStage:
    def test_dataset_counts(self):
        df = pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": ["The THE the!", "ingesting bananas", "   "],
        })
        out = bpemod.bpe_token_counts(ray.data.from_pandas(df)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert out.n_words.tolist() == [3, 2, 0]
        # 'the'→1 each; 'ingesting'→4, 'bananas'→len('b an an a s')=5
        assert out.n_bpe_tokens.tolist() == [3, 9, 0]

    def test_word_cache_matches_per_row_encode(self):
        rng = np.random.default_rng(7)
        vocab = ["the", "north", "ingesting", "banana", "tore", "sten"]
        texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 9)))
                 for _ in range(40)]
        df = pd.DataFrame({"doc_id": range(40), "text": texts})
        out = bpemod.bpe_token_counts(ray.data.from_pandas(df)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        exp = [sum(len(bpe_reference(w, bpemod.MERGES))
                   for w in t.split()) for t in texts]
        assert out.n_bpe_tokens.tolist() == exp
        assert out.n_words.tolist() == [len(t.split()) for t in texts]
