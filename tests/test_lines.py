"""Corpus-level duplicate-segment removal (pipelines/lines.py)."""

from collections import Counter, defaultdict

import numpy as np
import pandas as pd
import ray
import ray.data

from geetiles_ray.pipelines import lines


def _line_corpus():
    """6 docs sharing a boilerplate header/footer line; doc 5 is ONLY
    boilerplate; doc 4 has a line repeated twice within itself (must count
    as one doc for the census, and both copies must be removed)."""
    head = "COOKIE BANNER accept all"
    foot = "copyright footer 2024"
    rows = [
        f"{head}\nunique body zero\n{foot}",
        f"{head}\nunique body one\n{foot}",
        f"{head}\nanother body two",
        "free standing page three\nno boilerplate here",
        f"self repeated line\nself repeated line\nbody four\n{foot}",
        f"{head}\n{foot}",
    ]
    return pd.DataFrame({"doc_id": range(len(rows)), "text": rows})


def _brute_line_dedup(df, min_docs=2):
    c = Counter()
    for t in df.text:
        for ln in set(t.split("\n")):
            c[ln] += 1
    banned = {ln for ln, n in c.items() if n >= min_docs}
    out = []
    for t in df.text:
        segs = t.split("\n")
        kept = [s for s in segs if s not in banned]
        out.append((len(segs), len(segs) - len(kept), "\n".join(kept)))
    return out


class TestSegmentDedup:
    def test_line_mode_matches_brute_force(self):
        df = _line_corpus()
        ds = ray.data.from_pandas(df)
        got = lines.segment_dedup(ds, "text", mode="lines") \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        exp = _brute_line_dedup(df)
        for i, (nseg, nrem, clean) in enumerate(exp):
            assert got.n_segments[i] == nseg, i
            assert got.n_removed[i] == nrem, i
            assert got.text_clean[i] == clean, i
        # doc 5 was pure boilerplate → empty string survives with schema
        assert got.text_clean[5] == ""
        # within-doc repeat (doc 4) did NOT make the line cross-doc banned
        assert "self repeated line" in got.text_clean[4]

    def test_word_window_mode(self):
        shared = "alpha beta gamma"  # one aligned 3-word window
        df = pd.DataFrame({
            "doc_id": [0, 1, 2],
            "text": [f"{shared} one two three",
                     f"{shared} four five six",
                     "seven eight nine ten"],
        })
        ds = ray.data.from_pandas(df)
        got = lines.segment_dedup(ds, "text", mode="words", width=3) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(got.n_removed) == [1, 1, 0]
        assert got.text_clean[0] == "one two three"
        assert got.text_clean[2] == "seven eight nine ten"
        # trailing partial window (len % width != 0) is its own segment
        df2 = pd.DataFrame({"doc_id": [0, 1],
                            "text": ["a b c d e", "x y z d e"]})
        got2 = lines.segment_dedup(ray.data.from_pandas(df2), "text",
                                   mode="words", width=3) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(got2.n_removed) == [1, 1]  # the "d e" tail is shared
        assert got2.text_clean[0] == "a b c"

    def test_banned_segments_match_brute_force(self, fold_placement):
        # the banned set is the hash pair of every line found in ≥ 2 docs,
        # (h1, h2)-lexsorted
        df = _line_corpus()
        c = Counter(ln for t in df.text for ln in set(t.split("\n")))
        banned = pd.Series(sorted(ln for ln, n in c.items() if n >= 2))
        h1, h2 = lines._segment_hashes(banned, "lines", 1)[:2]
        order = np.lexsort((h2, h1))
        got = ray.get(lines.banned_segments(
            ray.data.from_pandas(df, override_num_blocks=3), "text",
            mode="lines"))
        assert len(banned) == 2     # the shared header and footer
        np.testing.assert_array_equal(got[0], h1[order])
        np.testing.assert_array_equal(got[1], h2[order])

    def test_no_duplicates_is_identity(self):
        df = pd.DataFrame({"doc_id": [0, 1],
                           "text": ["only one doc here", "fully distinct"]})
        got = lines.segment_dedup(ray.data.from_pandas(df), "text",
                                  mode="words", width=3) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(got.n_removed) == [0, 0]
        assert list(got.text_clean) == list(df.text)


class TestRepetitionStats:
    def test_matches_brute(self):
        df = pd.DataFrame({
            "doc_id": [0, 1, 2, 3],
            "text": ["a b a b a",           # heavy 2-gram repetition
                     "x y z w",              # all distinct
                     "q",                     # no full 2-gram window
                     "r r r r r r"],          # maximal repetition
        })
        got = lines.repetition_stats(ray.data.from_pandas(df), ns=(2, 3)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)

        def brute(t, n):
            w = t.split(" ")
            grams = [" ".join(w[i:i + n]) for i in range(len(w) - n + 1)]
            if not grams:
                return 0, 0.0
            return len(grams), 1 - len(set(grams)) / len(grams)

        for i, t in enumerate(df.text):
            for n in (2, 3):
                tot, frac = brute(t, n)
                assert got[f"ng{n}_total"][i] == tot, (i, n)
                assert abs(got[f"ng{n}_dup_frac"][i] - frac) < 1e-9, (i, n)

    def test_cross_doc_windows_not_counted(self):
        # two docs ending/starting with the same words must not leak
        # windows across the boundary when batched together
        df = pd.DataFrame({"doc_id": [0, 1], "text": ["a b", "b a"]})
        got = lines.repetition_stats(ray.data.from_pandas(df), ns=(2,)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(got.ng2_total) == [1, 1]
        assert list(got.ng2_dup_frac) == [0.0, 0.0]


class TestEdgeCases:
    def test_segment_dedup_empty_and_single(self):
        df = pd.DataFrame({"doc_id": [0], "text": [""]})
        got = lines.segment_dedup(ray.data.from_pandas(df), "text",
                                  mode="words", width=3) \
            .to_pandas()
        # "".split(" ") == [""] → one empty-word segment, kept (one doc)
        assert got.n_segments[0] == 1 and got.n_removed[0] == 0
        assert got.text_clean[0] == ""

    def test_repetition_stats_empty_text(self):
        df = pd.DataFrame({"doc_id": [0, 1], "text": ["", "a"]})
        got = lines.repetition_stats(ray.data.from_pandas(df), ns=(2,)) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(got.ng2_total) == [0, 0]
        assert list(got.ng2_dup_frac) == [0.0, 0.0]


class TestProperties:
    """Hypothesis property tests over the segment-hash kernels (pure
    functions — no Ray round-trip, so hypothesis can run many examples)."""

    def test_segment_hash_equality_iff_text_equality(self):
        from hypothesis import given, settings, strategies as st

        word = st.text(alphabet="abcxyz", min_size=1, max_size=4)
        doc = st.lists(word, min_size=1, max_size=12)

        @settings(max_examples=60, deadline=None)
        @given(st.lists(doc, min_size=2, max_size=6), st.integers(1, 4))
        def prop(docs, width):
            import pandas as pd

            texts = pd.Series([" ".join(d) for d in docs])
            s1, s2, srow, _sw, _g, _f, _r = lines._segment_hashes(
                texts, "words", width)
            # brute segment strings, aligned windows of `width`
            segs = []
            for d in docs:
                for i in range(0, len(d), width):
                    segs.append(" ".join(d[i:i + width]))
            assert len(segs) == len(s1)
            by_hash = {}
            for i, (a, b) in enumerate(zip(s1, s2)):
                by_hash.setdefault((int(a), int(b)), set()).add(segs[i])
            for (_, _), texts_of_hash in by_hash.items():
                assert len(texts_of_hash) == 1  # no collisions
            # identical segments always collide
            seen = {}
            for i, s in enumerate(segs):
                key = (int(s1[i]), int(s2[i]))
                assert seen.setdefault(s, key) == key

        prop()

    def test_member128_matches_python_set(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(st.lists(st.integers(0, 2**64 - 1), max_size=40),
               st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
        def prop(banned, probes):
            b1 = np.array(sorted(banned), dtype=np.uint64)
            b2 = (b1 * np.uint64(3)) | np.uint64(1)
            order = np.lexsort((b2, b1))
            b1s, b2s = b1[order], b2[order]
            p1 = np.array(probes, dtype=np.uint64)
            p2 = (p1 * np.uint64(3)) | np.uint64(1)
            got = lines._member128(b1s, b2s, p1, p2)
            truth = {(int(a), int(b)) for a, b in zip(b1, b2)}
            exp = np.array([(int(a), int(b)) in truth
                            for a, b in zip(p1, p2)])
            np.testing.assert_array_equal(got, exp)

        prop()


class TestDecontaminate:
    def _corpus(self):
        eval_texts = [
            "the quick brown fox jumps over the lazy dog today",
            "pack my box with five dozen liquor jugs right now",
        ]
        docs = pd.DataFrame({
            "doc_id": np.arange(5, dtype="int64"),
            "text": [
                # contains eval 8-gram at a NON-aligned offset
                "prefix words here the quick brown fox jumps over the lazy dog and more",
                "completely clean document with no overlap at all whatsoever",
                # case-insensitive match
                "PACK MY BOX WITH FIVE DOZEN LIQUOR JUGS extra",
                # 7-word overlap only -> NOT contaminated at width=8
                "quick brown fox jumps over the lazy cat instead",
                "short doc",
            ],
        })
        return eval_texts, docs

    def test_flags_match_brute_force(self):
        eval_texts, docs = self._corpus()
        ref = lines.eval_ngram_set(eval_texts, width=8)
        got = lines.decontaminate(
            ray.data.from_pandas(docs).repartition(3), ref, width=8) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)

        def grams(t, w=8):
            ws = t.lower().split(" ")
            return [" ".join(ws[i:i + w]) for i in range(len(ws) - w + 1)]

        eset = {g for t in eval_texts for g in grams(t)}
        for _, row in got.iterrows():
            t = docs.text[row.doc_id]
            gs = grams(t)
            assert row.n_ngrams == len(gs)
            assert row.n_matched == sum(g in eset for g in gs)
            assert row.contaminated == (row.n_matched > 0)
        assert list(got.contaminated) == [True, False, True, False, False]

    def test_empty_eval_set(self):
        _, docs = self._corpus()
        ref = lines.eval_ngram_set([], width=8)
        got = lines.decontaminate(ray.data.from_pandas(docs), ref) \
            .to_pandas()
        assert not got.contaminated.any()
        assert (got.n_matched == 0).all()


class TestDecontaminateProperties:
    def test_planted_overlap_always_flagged(self):
        # property: planting ANY width-window of an eval text inside a doc
        # forces contamination; docs built from a disjoint vocab never flag
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(st.integers(0, 10**6), st.integers(0, 30),
               st.integers(2, 5))
        def prop(seed, offset, width):
            rng = np.random.default_rng(seed)
            ev_words = [f"e{rng.integers(0, 50)}" for _ in range(width + 6)]
            eval_text = " ".join(ev_words)
            start = int(rng.integers(0, len(ev_words) - width + 1))
            planted = ev_words[start:start + width]
            clean_words = [f"c{rng.integers(0, 50)}" for _ in range(12)]
            cut = offset % (len(clean_words) + 1)
            dirty = clean_words[:cut] + planted + clean_words[cut:]
            df = pd.DataFrame({
                "doc_id": np.array([0, 1], dtype="int64"),
                "text": [" ".join(dirty), " ".join(clean_words)],
            })
            ref = lines.eval_ngram_set([eval_text], width=width)
            got = lines.decontaminate(ray.data.from_pandas(df), ref,
                                      width=width).to_pandas() \
                .sort_values("doc_id").reset_index(drop=True)
            assert bool(got.contaminated[0]) is True
            assert bool(got.contaminated[1]) is False

        prop()


def _brute_dup_ngrams(texts, width, min_docs):
    docs_of = defaultdict(set)
    grams = []
    for i, t in enumerate(texts):
        ws = t.lower().split(" ")
        g = [tuple(ws[j:j + width])
             for j in range(max(len(ws) - width + 1, 0))]
        grams.append(g)
        for gr in g:
            docs_of[gr].add(i)
    dup = {g for g, d in docs_of.items() if len(d) >= min_docs}
    return [(len(g), sum(gr in dup for gr in g)) for g in grams]


class TestDupNgramStats:
    def test_matches_brute(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(vocab, rng.integers(0, 25)))
                 for _ in range(120)]
        # plant exact cross-doc spans: docs 0..9 share a 12-word tail
        tail = " the same twelve word long tail span shared by these docs"
        texts = [t + tail if i < 10 else t for i, t in enumerate(texts)]
        df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                           "text": texts})
        out = lines.dup_ngram_stats(ray.data.from_pandas(df), width=5,
                                    min_docs=2).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        want = _brute_dup_ngrams(texts, 5, 2)
        assert out["n_ngrams"].tolist() == [w[0] for w in want]
        assert out["n_dup"].tolist() == [w[1] for w in want]
        # the planted 11-word tail has 7 fully-internal 5-gram windows,
        # each shared by all 10 docs — they must all register
        assert (out["n_dup"].iloc[:10] >= 7).all()

    def test_min_docs_threshold(self):
        texts = ["a b c d e unique one", "a b c d e unique two",
                 "totally different text here now"]
        df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                           "text": texts})
        out2 = lines.dup_ngram_stats(ray.data.from_pandas(df), width=5,
                                     min_docs=2).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        # 'a b c d e' AND 'b c d e unique' are both cross-doc 5-grams
        assert out2["n_dup"].tolist() == [2, 2, 0]
        out3 = lines.dup_ngram_stats(ray.data.from_pandas(df), width=5,
                                     min_docs=3).to_pandas()
        assert out3["n_dup"].sum() == 0


class TestEmptyBlocks:
    """Ray skips map fns on empty blocks, so an empty block reaches the
    census fold still holding the upstream columns."""

    LAYOUTS = [lambda r: r["doc_id"] < 2,          # last two blocks empty
               lambda r: r["doc_id"] >= 4,         # first two blocks empty
               lambda r: r["doc_id"] % 5 == 0,     # middle block empty
               lambda r: False]                    # every block empty

    def _layouts(self):
        df = _line_corpus()
        blocks = ray.data.from_pandas(df, override_num_blocks=3)
        for keep in self.LAYOUTS:
            yield df[[bool(keep({"doc_id": i})) for i in df.doc_id]] \
                .reset_index(drop=True), blocks.filter(keep)

    def test_segment_dedup(self, fold_placement):
        for want_df, ds in self._layouts():
            got = lines.segment_dedup(ds, "text", mode="lines").to_pandas()
            assert len(got) == len(want_df)
            if not len(got):
                continue
            got = got.sort_values("doc_id").reset_index(drop=True)
            want = _brute_line_dedup(want_df)
            assert list(got.n_segments) == [w[0] for w in want]
            assert list(got.n_removed) == [w[1] for w in want]
            assert list(got.text_clean) == [w[2] for w in want]

    def test_dup_ngram_stats(self, fold_placement):
        for want_df, ds in self._layouts():
            got = lines.dup_ngram_stats(ds, width=3, min_docs=2).to_pandas()
            assert len(got) == len(want_df)
            if not len(got):
                continue
            got = got.sort_values("doc_id").reset_index(drop=True)
            want = _brute_dup_ngrams(list(want_df.text), 3, 2)
            assert list(got.n_ngrams) == [w[0] for w in want]
            assert list(got.n_dup) == [w[1] for w in want]
