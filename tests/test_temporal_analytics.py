"""Brute-force oracles for stages/temporal.py and pipelines/analytics.py
(the SQL twins are checked end-to-end by tools/check_oracle.py; these pin
the operator semantics themselves on adversarial small inputs)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from geetiles_ray.pipelines import analytics as an
from geetiles_ray.stages import temporal as tmp


def _rng(seed=7):
    return np.random.default_rng(seed)


def _ds(df, nblocks=4):
    return ray.data.from_pandas([d for d in np.array_split(df, nblocks)
                                 if len(d)])


class TestAsofJoin:
    def _brute(self, L, R, direction="backward"):
        rows = []
        for _, lr in L.iterrows():
            cand = R[R.k == lr.k]
            if direction == "backward":
                cand = cand[cand.rts <= lr.ts]
                cand = cand.sort_values(["rts", "rid"])
            else:
                cand = cand[cand.rts >= lr.ts]
                # least rts wins; ties still break to GREATEST rid
                # (merge_asof forward picks the first row in sort order,
                # so sort rid DESCENDING within rts)
                cand = cand.sort_values(["rts", "rid"],
                                        ascending=[True, False])
                cand = cand.iloc[:1]
            if len(cand):
                # rts itself is not emitted (the operator keeps left's on;
                # callers duplicate the right ts as payload when needed)
                m = cand.iloc[-1] if direction == "backward" else cand.iloc[0]
                rows.append({**lr.to_dict(), "rid": m.rid, "rv": m.rv})
        return pd.DataFrame(rows)

    @pytest.fixture
    def sides(self):
        r = _rng()
        n_l, n_r = 120, 200
        L = pd.DataFrame({"k": r.integers(0, 8, n_l),
                          "ts": r.integers(0, 1000, n_l).astype("int64"),
                          "lid": np.arange(n_l, dtype="int64")})
        R = pd.DataFrame({"k": r.integers(0, 8, n_r),
                          "rts": r.integers(0, 1000, n_r).astype("int64"),
                          "rid": np.arange(n_r, dtype="int64"),
                          "rv": r.normal(size=n_r)})
        # force exact-timestamp ties on both sides
        R.loc[5, ["k", "rts"]] = R.loc[4, ["k", "rts"]]
        L.loc[3, ["k", "ts"]] = (R.loc[4, "k"], R.loc[4, "rts"])
        return L, R

    def test_backward_matches_brute(self, sides):
        L, R = sides
        out = tmp.asof_join(_ds(L), _ds(R), key="k", on="ts", right_on="rts",
                            tiebreak="rid").to_pandas() \
            .sort_values("lid").reset_index(drop=True)
        want = self._brute(L, R).sort_values("lid").reset_index(drop=True)
        pd.testing.assert_frame_equal(out[want.columns], want,
                                      check_dtype=False)
        # dtype restore: right int payload must stay int64, not float64
        assert out.rid.dtype == np.int64

    def test_forward_matches_brute(self, sides):
        L, R = sides
        out = tmp.asof_join(_ds(L), _ds(R), key="k", on="ts", right_on="rts",
                            tiebreak="rid", direction="forward").to_pandas() \
            .sort_values("lid").reset_index(drop=True)
        want = self._brute(L, R, "forward").sort_values("lid") \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(out[want.columns], want,
                                      check_dtype=False)

    def test_column_clash_rejected(self, sides):
        L, R = sides
        with pytest.raises(ValueError, match="collide"):
            tmp.asof_join(_ds(L), _ds(R.rename(columns={"rv": "lid"})),
                          key="k", on="ts", right_on="rts")


class TestIntervalJoin:
    def test_matches_brute_across_bin_widths(self):
        r = _rng(11)
        P = pd.DataFrame({"k": r.integers(0, 5, 300),
                          "t": r.integers(0, 10_000, 300).astype("int64"),
                          "pid": np.arange(300, dtype="int64")})
        I = pd.DataFrame({"k": r.integers(0, 5, 40),
                          "lo": r.integers(0, 9_000, 40).astype("int64"),
                          "iid": np.arange(40, dtype="int64")})
        I["hi"] = I.lo + r.integers(0, 3_000, 40)  # includes empty intervals
        want = I.merge(P, on="k")
        want = want[(want.lo <= want.t) & (want.t < want.hi)] \
            .sort_values(["iid", "pid"]).reset_index(drop=True)
        for w in (100, 777, 5_000):  # narrower / odd / wider than intervals
            out = tmp.interval_join(_ds(P), _ds(I), key="k", ts="t",
                                    lo="lo", hi="hi", bin_width=w) \
                .to_pandas().sort_values(["iid", "pid"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(out[want.columns], want,
                                          check_dtype=False)

    def test_boundary_semantics(self):
        # lo inclusive, hi exclusive — checked exactly on the boundary
        P = pd.DataFrame({"k": [1, 1, 1], "t": [10, 19, 20],
                          "pid": [0, 1, 2]})
        I = pd.DataFrame({"k": [1], "lo": [10], "hi": [20], "iid": [0]})
        out = tmp.interval_join(_ds(P, 1), _ds(I, 1), key="k", ts="t",
                                lo="lo", hi="hi", bin_width=7).to_pandas()
        assert sorted(out.pid.tolist()) == [0, 1]


class TestHoppingWindows:
    def test_each_row_in_exactly_len_over_hop_windows(self):
        r = _rng(3)
        df = pd.DataFrame({"t": r.integers(0, 100_000, 500).astype("int64"),
                           "i": np.arange(500, dtype="int64")})
        out = tmp.hopping_windows(_ds(df), ts="t", length=60, hop=20,
                                  out_col="w").to_pandas()
        assert len(out) == 3 * len(df)
        # containment + grid alignment for every emitted (row, window)
        assert ((out.w <= out.t) & (out.t < out.w + 60)).all()
        assert (out.w % 20 == 0).all()
        # completeness vs brute force on one row
        row = df.iloc[0]
        want = {w for w in range((row.t // 20 - 2) * 20, row.t + 1, 20)
                if w <= row.t < w + 60}
        assert set(out[out.i == row.i].w) == want

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            tmp.hopping_windows(_ds(pd.DataFrame({"t": [1]})), "t",
                                length=50, hop=20)


class TestGroupedTopN:
    def test_matches_pandas_window(self):
        r = _rng(5)
        df = pd.DataFrame({"g": r.integers(0, 20, 400),
                           "v": r.integers(0, 50, 400).astype("int64"),
                           "id": np.arange(400, dtype="int64")})
        out = an.grouped_topn(_ds(df, 6), keys=["g"], order_col="v", n=3,
                              ascending=False, tiebreak="id").to_pandas() \
            .sort_values(["g", "rank"]).reset_index(drop=True)
        want = df.sort_values(["g", "v", "id"],
                              ascending=[True, False, True])
        want = want.assign(rank=want.groupby("g").cumcount() + 1)
        want = want[want["rank"] <= 3].reset_index(drop=True)
        pd.testing.assert_frame_equal(out[want.columns], want,
                                      check_dtype=False)

    def test_ascending_and_small_groups(self):
        df = pd.DataFrame({"g": [1, 1, 2], "v": [5.0, 3.0, 9.0],
                           "id": [0, 1, 2]})
        out = an.grouped_topn(_ds(df, 2), keys=["g"], order_col="v", n=2,
                              ascending=True, tiebreak="id").to_pandas() \
            .sort_values(["g", "rank"]).reset_index(drop=True)
        assert out[["g", "v", "rank"]].values.tolist() == \
            [[1, 3.0, 1], [1, 5.0, 2], [2, 9.0, 1]]


class TestQuantiles:
    @staticmethod
    def _want(v, qs):
        s = np.sort(v)
        return [float(s[max(int(np.ceil(q * len(s))), 1) - 1]) for q in qs]

    def test_matches_nearest_rank(self):
        r = _rng(13)
        v = np.round(r.normal(100, 25, 5_000), 3)
        qs = [0.01, 0.1, 0.5, 0.9, 0.999]
        out = an.quantiles_exact(_ds(pd.DataFrame({"x": v}), 8), "x", qs)
        assert out.q.tolist() == sorted(qs)
        assert out.value.tolist() == self._want(v, sorted(qs))

    def test_recursion_path_and_duplicates(self):
        # cap=10 forces the candidate-bin recursion; heavy duplicate mass
        # exercises the lo == hi fast path inside it
        r = _rng(17)
        v = np.concatenate([np.full(3_000, 42.0), r.uniform(0, 100, 2_000)])
        qs = [0.25, 0.5, 0.75]
        out = an.quantiles_exact(_ds(pd.DataFrame({"x": v}), 8), "x", qs,
                                 nbins=16, cap=10)
        assert out.value.tolist() == self._want(v, qs)

    def test_constant_and_empty(self):
        out = an.quantiles_exact(
            _ds(pd.DataFrame({"x": np.full(50, 7.0)}), 2), "x", [0.1, 0.9])
        assert out.value.tolist() == [7.0, 7.0]
        empty = an.quantiles_exact(
            ray.data.from_arrow(pa.table({"x": pa.array([], pa.float64())})),
            "x", [0.5])
        assert np.isnan(empty.value).all()


class TestTopTokens:
    def test_matches_brute(self):
        df = pd.DataFrame({"text": [
            "the cat, sat on the mat.", "THE CAT ran!", "a dog; the dog",
            "   ", "", "cat cat cat"]})
        out = an.top_tokens(_ds(df, 3), "text", k=3)
        # brute: the×4? the(3)+THE(1)=4, cat: 1+1+3=5, dog 2 ...
        assert out.token.tolist() == ["cat", "the", "dog"]
        assert out.n.tolist() == [5, 4, 2]
        assert out["rank"].tolist() == [1, 2, 3]

    def test_tie_breaks_to_token_asc(self):
        df = pd.DataFrame({"text": ["b a", "a b c"]})
        out = an.top_tokens(_ds(df, 1), "text", k=2)
        assert out.token.tolist() == ["a", "b"]


class TestStratifiedSample:
    def test_deterministic_and_rate_bounds(self):
        df = pd.DataFrame({"id": np.arange(4_000, dtype="int64"),
                           "s": np.tile(["a", "b", "c", "d"], 1_000)})
        rates = {"a": (1, 2), "b": (1, 10), "c": (1, 1)}  # d → default 0
        o1 = an.stratified_sample(_ds(df, 4), "id", "s", rates).to_pandas()
        o2 = an.stratified_sample(_ds(df, 7), "id", "s", rates).to_pandas()
        # deterministic: identical sample regardless of blocking
        assert sorted(o1.id) == sorted(o2.id)
        got = o1.groupby("s").size()
        assert got.get("d", 0) == 0          # default rate 0 → none
        assert got["c"] == 1_000             # rate 1 → all
        assert abs(got["a"] / 1_000 - 0.5) < 0.06
        assert abs(got["b"] / 1_000 - 0.1) < 0.04

    def test_threshold_exactness(self):
        assert an.sample_threshold(1, 2) == 1 << 63
        assert an.sample_threshold(1, 8) == 1 << 61
        assert an.sample_threshold(0, 1) == 0
        assert an.sample_threshold(1, 1) == 1 << 64
        with pytest.raises(ValueError):
            an.sample_threshold(3, 2)


class TestRollup:
    def _frame(self):
        rng = np.random.default_rng(11)
        return pd.DataFrame({
            "region": rng.choice(["EU", "NA", "AS"], 400),
            "nation": rng.choice(["a", "b", "c", "d"], 400),
            "cents": rng.integers(1, 10_000, 400).astype("int64"),
        })

    def test_matches_pandas_rollup(self):
        df = self._frame()
        got = an.rollup(ray.data.from_pandas(df),
                               ["region", "nation"], "cents")
        fine = df.groupby(["region", "nation"]).agg(
            __sum=("cents", "sum"), __n=("cents", "size")).reset_index()
        mid = df.groupby("region").agg(
            __sum=("cents", "sum"), __n=("cents", "size")).reset_index()
        mid["nation"] = "ALL"
        top = pd.DataFrame({"region": ["ALL"], "nation": ["ALL"],
                            "__sum": [df.cents.sum()], "__n": [len(df)]})
        exp = pd.concat([fine, mid, top], ignore_index=True) \
            .sort_values(["region", "nation"], kind="mergesort") \
            .reset_index(drop=True)[["region", "nation", "__sum", "__n"]]
        pd.testing.assert_frame_equal(
            got[["region", "nation", "__sum", "__n"]].astype(
                {"__sum": "int64", "__n": "int64"}),
            exp.astype({"__sum": "int64", "__n": "int64"}))

    def test_null_keys_match_pandas(self, fold_placement):
        # a null region or nation is a group of its own at every level
        df = self._frame()
        df.loc[df.index % 7 == 0, "region"] = None
        df.loc[df.index % 5 == 0, "nation"] = None
        got = an.rollup(_ds(df), ["region", "nation"], "cents")
        lv = ["region", "nation"]
        fine = df.groupby(lv, dropna=False, as_index=False).agg(
            __sum=("cents", "sum"), __n=("cents", "size"))
        mid = df.groupby("region", dropna=False, as_index=False).agg(
            __sum=("cents", "sum"), __n=("cents", "size"))
        mid["nation"] = "ALL"
        top = pd.DataFrame({"region": ["ALL"], "nation": ["ALL"],
                            "__sum": [df.cents.sum()], "__n": [len(df)]})

        def canon(d):
            return d[lv + ["__sum", "__n"]].astype(
                {"__sum": "int64", "__n": "int64"}) \
                .sort_values(lv, na_position="first").reset_index(drop=True)
        assert got["__n"].sum() == 3 * len(df)
        pd.testing.assert_frame_equal(
            canon(got), canon(pd.concat([fine, mid, top])))


class TestRunningTotal:
    def test_matches_pandas_window(self):
        rng = np.random.default_rng(5)
        df = pd.DataFrame({
            "event_id": np.arange(600, dtype="int64"),
            "user_id": rng.integers(0, 25, 600).astype("int64"),
            "ts": rng.integers(0, 100, 600).astype("int64"),
            "cents": rng.integers(-50, 500, 600).astype("int64"),
        })
        got = an.running_total(
            ray.data.from_pandas(df), key="user_id",
            order_cols=["ts", "event_id"], value_col="cents",
            out_col="run").to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = df.sort_values(["user_id", "ts", "event_id"])
        exp["run"] = exp.groupby("user_id").cents.cumsum()
        exp = exp.sort_values("event_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["event_id", "user_id", "ts", "cents", "run"]].astype("int64"),
            exp[["event_id", "user_id", "ts", "cents", "run"]].astype("int64"))


class TestTokenPostings:
    def test_matches_brute(self):
        df = pd.DataFrame({
            "doc_id": [3, 1, 2],
            "text": ["The cat, the hat!", "cat cat dog", "Bird."],
        })
        got = an.token_postings(_ds(df, nblocks=3)).to_pandas() \
            .sort_values("token").reset_index(drop=True)
        exp = pd.DataFrame([
            ("bird", 1, 1, 2), ("cat", 2, 3, 1), ("dog", 1, 1, 1),
            ("hat", 1, 1, 3), ("the", 1, 2, 3),
        ], columns=["token", "df", "tf", "first_doc"])
        pd.testing.assert_frame_equal(
            got[["token", "df", "tf", "first_doc"]].astype(
                {"df": "int64", "tf": "int64", "first_doc": "int64"}), exp)


class TestTfidf:
    def test_matches_brute(self):
        df = pd.DataFrame({
            "doc_id": [0, 1, 2],
            "text": ["cat cat dog", "dog bird", "cat fish fish fish"],
        })
        got = an.tfidf_topk(_ds(df, nblocks=2), k=2).to_pandas() \
            .sort_values(["doc_id", "rank"]).reset_index(drop=True)
        import math
        n1 = 4.0
        def idf(d): return math.log(n1 / (d + 1)) + 1
        # df: cat=2 dog=2 bird=1 fish=1
        exp_top = {0: [("cat", 2), ("dog", 1)],
                   1: [("bird", 1), ("dog", 1)],
                   2: [("fish", 3), ("cat", 1)]}
        dfs = {"cat": 2, "dog": 2, "bird": 1, "fish": 1}
        for doc, terms in exp_top.items():
            rows = got[got.doc_id == doc].reset_index(drop=True)
            assert list(rows.token) == [t for t, _ in terms], doc
            for i, (t, tf) in enumerate(terms):
                assert rows.tf[i] == tf
                assert abs(rows.score[i] - round(tf * idf(dfs[t]), 6)) < 1e-9
        assert list(got["rank"]) == [1, 2] * 3

    def test_reuses_prebuilt_df_table(self):
        df = pd.DataFrame({"doc_id": [0, 1], "text": ["a b", "b c"]})
        got = an.tfidf_topk(_ds(df, 1), k=1,
                            n_docs=2, df_map={"a": 1, "b": 2, "c": 1}) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(got.token) == ["a", "c"]  # rare tokens outscore b


class TestGroupedQuantiles:
    def test_matches_nearest_rank(self):
        rng = np.random.default_rng(9)
        df = pd.DataFrame({"k": rng.choice(["x", "y", "z"], 500),
                           "v": rng.integers(0, 1000, 500).astype("int64")})
        qs = [0.25, 0.5, 0.75]
        got = an.grouped_quantiles(_ds(df), "k", "v", qs)
        for k, g in df.groupby("k"):
            s = np.sort(g.v.to_numpy())
            for q in qs:
                rank = max(int(np.ceil(q * len(s))), 1) - 1
                row = got[(got.k == k) & (got.q == q)]
                assert int(row.value.iloc[0]) == s[rank], (k, q)

    def test_single_element_groups(self):
        df = pd.DataFrame({"k": ["a", "b"], "v": [5, 7]})
        got = an.grouped_quantiles(_ds(df, 1), "k", "v", [0.5])
        assert list(got.value) == [5, 7]


class TestTokenPostingsFold:
    def test_matches_pandas(self, fold_placement):
        df = pd.DataFrame({"doc_id": np.arange(50, dtype="int64"),
                           "text": [f"tok{i % 7} tok{i % 3} common tok{i % 7}"
                                    for i in range(50)]})
        got = an.token_postings(_ds(df)).to_pandas() \
            .sort_values("token").reset_index(drop=True)
        toks = df.assign(token=df.text.str.split(" ")).explode("token")
        want = toks.groupby("token", as_index=False).agg(
            df=("doc_id", "nunique"), tf=("doc_id", "size"),
            first_doc=("doc_id", "min"))
        pd.testing.assert_frame_equal(
            got[["token", "df", "tf", "first_doc"]].astype(
                {"df": "int64", "tf": "int64", "first_doc": "int64"}),
            want.astype({"df": "int64", "tf": "int64", "first_doc": "int64"}))


class TestHLL:
    def test_estimate_accuracy_and_merge_invariance(self):
        rng = np.random.default_rng(6)
        true_n = 5000
        keys = np.unique(rng.integers(0, 10**12, 2 * true_n))[:true_n]
        # each key appears 1-4 times
        dup = np.repeat(keys, rng.integers(1, 5, true_n))
        df = pd.DataFrame({"k": rng.permutation(dup)})
        regs1, est1 = an.hll_registers(_ds(df, nblocks=1), "k", p=10)
        regs8, est8 = an.hll_registers(_ds(df, nblocks=8), "k", p=10)
        pd.testing.assert_frame_equal(regs1, regs8)  # partition-invariant
        assert est1 == est8
        assert abs(est1 - true_n) / true_n < 0.12  # ~3.2% stderr at p=10

    def test_small_range_linear_counting(self):
        df = pd.DataFrame({"k": np.arange(30, dtype="int64")})
        _regs, est = an.hll_registers(_ds(df, 2), "k", p=10)
        assert abs(est - 30) < 3


class TestCMS:
    def test_never_underestimates_and_close(self):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 500, 20000).astype("int64")
        df = pd.DataFrame({"k": keys})
        true = pd.Series(keys).value_counts()
        qk = np.arange(500)
        got = an.cms_counts(_ds(df, 8), "k", depth=4, width=1 << 12,
                            query_keys=qk)
        t = np.array([true.get(int(k), 0) for k in qk])
        est = got.est.to_numpy()
        assert (est >= t).all()                      # CMS never undershoots
        assert (est - t).mean() < 20000 * np.e / (1 << 12) + 1

    def test_partition_invariance(self):
        rng = np.random.default_rng(1)
        df = pd.DataFrame({"k": rng.integers(0, 50, 3000).astype("int64")})
        a = an.cms_counts(_ds(df, 1), "k", query_keys=np.arange(50))
        b = an.cms_counts(_ds(df, 9), "k", query_keys=np.arange(50))
        pd.testing.assert_frame_equal(a, b)

    def test_rows_have_independent_collision_structure(self):
        # Round-3 advisor: with h_d = h_0 + d*const and power-of-two
        # width, slot_d(k) - slot_0(k) is the same constant for every
        # key, so all depth rows collide identically. The key-dependent
        # multiplier family must NOT have that property.
        width = 1 << 12
        mults = an.cms_row_multipliers(4)
        assert len(set(int(m) for m in mults)) == 4
        assert all(int(m) % 2 == 1 for m in mults)  # odd → bijective
        k = np.arange(10000, dtype=np.uint64)
        slot0 = ((k + np.uint64(1)) * mults[0]) % np.uint64(width)
        for d in (1, 2, 3):
            slotd = ((k + np.uint64(1)) * mults[d]) % np.uint64(width)
            diff = (slotd - slot0) % np.uint64(width)
            assert len(np.unique(diff)) > 1000  # not a shifted copy


class TestPMI:
    def test_matches_brute(self):
        import math
        df = pd.DataFrame({
            "doc_id": [0, 1, 2, 3],
            "text": ["new york new york", "new york city",
                     "york new haven", "city of new york"],
        })
        got = an.pmi_pairs(_ds(df, 2), min_count=2, k=10)
        # brute
        from collections import Counter
        unis, pairs = Counter(), Counter()
        for t in df.text:
            w = t.split()
            unis.update(w)
            pairs.update(zip(w[:-1], w[1:]))
        nu, nb = sum(unis.values()), sum(pairs.values())
        top = got[(got.tok1 == "new") & (got.tok2 == "york")]
        assert len(top) == 1
        cab = pairs[("new", "york")]
        assert int(top.n_pair.iloc[0]) == cab
        exp = round(math.log((cab * float(nu) * float(nu))
                             / (float(nb) * unis["new"] * unis["york"])), 6)
        assert abs(top.pmi.iloc[0] - exp) < 1e-9
        # pairs below min_count are excluded
        assert not len(got[(got.tok1 == "new") & (got.tok2 == "haven")])


class TestSessionWindows:
    def test_matches_brute(self):
        rng = np.random.default_rng(14)
        n = 500
        df = pd.DataFrame({
            "event_id": np.arange(n, dtype="int64"),
            "user_id": rng.integers(0, 20, n).astype("int64"),
            "ts": rng.integers(0, 10_000, n).astype("int64"),
        })
        got = tmp.session_windows(_ds(df), key="user_id", ts="ts", gap=100,
                                  order_tiebreak="event_id") \
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        exp = df.sort_values(["user_id", "ts", "event_id"]).copy()
        brk = (exp.ts.diff() > 100) & (exp.user_id.diff() == 0)
        sid = brk.cumsum()
        exp["session_id"] = sid - sid.groupby(exp.user_id).transform("min")
        exp = exp.sort_values("event_id").reset_index(drop=True)
        np.testing.assert_array_equal(got.session_id.to_numpy(),
                                      exp.session_id.to_numpy())

    def test_single_key_gap_edges(self):
        df = pd.DataFrame({"event_id": [0, 1, 2, 3],
                           "user_id": [7, 7, 7, 7],
                           "ts": [0, 100, 201, 900]})
        got = tmp.session_windows(_ds(df, 1), key="user_id", ts="ts",
                                  gap=100, order_tiebreak="event_id") \
            .to_pandas().sort_values("event_id")
        # gap of exactly 100 does NOT break; 101 and 699 do
        assert got.session_id.tolist() == [0, 0, 1, 2]


class TestSkipgram:
    def test_matches_brute(self):
        df = pd.DataFrame({
            "doc_id": [0, 1, 2],
            "text": ["a b c d", "b a b", "x"],
        })
        got = an.skipgram_pairs(_ds(df, 2), window=2, min_count=1, k=100)
        # brute: ordered pairs within 2 positions per doc
        from collections import Counter
        c = Counter()
        for t in df.text:
            ws = t.split()
            for i in range(len(ws)):
                for j in range(i + 1, min(i + 3, len(ws))):
                    c[(ws[i], ws[j])] += 1
        exp = sorted(((a, b, n) for (a, b), n in c.items()),
                     key=lambda r: (-r[2], r[0], r[1]))
        assert list(map(tuple, got[["tok1", "tok2", "n"]].to_numpy())) \
            == exp

    def test_window_one_equals_pmi_adjacency_counts(self):
        df = pd.DataFrame({"doc_id": [0, 1],
                           "text": ["a b a b", "b a"]})
        got = an.skipgram_pairs(_ds(df, 1), window=1, min_count=1, k=100)
        pmi = an.pmi_pairs(_ds(df, 1), min_count=1, k=100)
        a = got[["tok1", "tok2", "n"]].sort_values(
            ["tok1", "tok2"]).reset_index(drop=True)
        b = pmi[["tok1", "tok2", "n_pair"]].rename(
            columns={"n_pair": "n"}).sort_values(
            ["tok1", "tok2"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a.astype({"n": "int64"}),
                                      b.astype({"n": "int64"}))


class TestPackPlan:
    def test_matches_brute_packing(self):
        rng = np.random.default_rng(11)
        n = 400
        df = pd.DataFrame({
            "doc_id": np.arange(n, dtype=np.int64),
            "lang": rng.choice(["en", "fr"], n),
            "n_tokens": rng.integers(1, 50, n).astype(np.int64),
        })
        df["shard"] = df["doc_id"] // 100
        out = an.pack_plan(ray.data.from_pandas(df),
                           stream_cols=["lang", "shard"],
                           order_col="doc_id", tokens_col="n_tokens",
                           budget=64).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

        want = df.sort_values(["lang", "shard", "doc_id"]).copy()
        cum = want.groupby(["lang", "shard"])["n_tokens"].cumsum()
        want["bin"] = (cum - want["n_tokens"]) // 64
        want = want.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_series_equal(out["bin"], want["bin"],
                                       check_names=False)
        # every bin's exclusive start is below budget boundary by contract:
        # first doc of bin b starts at prefix < (b+1)*64
        g = out.sort_values(["lang", "shard", "doc_id"])
        cum2 = g.groupby(["lang", "shard"])["n_tokens"].cumsum() \
            - g["n_tokens"]
        assert ((cum2 // 64) == g["bin"]).all()

    def test_single_stream_sequential(self):
        df = pd.DataFrame({"doc_id": [0, 1, 2, 3],
                           "g": ["a"] * 4,
                           "n_tokens": [10, 10, 10, 10]})
        out = an.pack_plan(ray.data.from_pandas(df), stream_cols=["g"],
                           order_col="doc_id", tokens_col="n_tokens",
                           budget=25).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        # prefixes 0,10,20,30 → bins 0,0,0,1
        assert out["bin"].tolist() == [0, 0, 0, 1]


class TestChunkPlan:
    def _brute(self, texts, window, stride):
        rows = []
        for i, txt in enumerate(texts):
            toks = txt.split(" ")
            nt = len(toks)
            nch = 1 + max(0, -(-(max(nt - window, 0)) // stride))
            for c in range(nch):
                s = c * stride
                ln = min(window, nt - s)
                chunk = " ".join(toks[s:s + ln])
                prefix = " ".join(toks[:s])
                start_b = 0 if s == 0 else len(prefix.encode()) + 1
                rows.append((i, c, s, ln, start_b, len(chunk.encode())))
        return pd.DataFrame(rows, columns=[
            "doc_id", "chunk_id", "start_tok", "n_chunk_tokens",
            "start_byte", "n_chunk_bytes"])

    def test_matches_brute_including_utf8_and_empties(self):
        rng = np.random.default_rng(7)
        vocab = ["a", "bb", "héllo", "wörld", "açaí", "", "xyz", "q"]
        texts = [" ".join(rng.choice(vocab, rng.integers(0, 40)))
                 for _ in range(300)] + ["", " ", "  ", "single",
                                         "ends with space "]
        df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                           "text": texts})
        out = an.chunk_plan(ray.data.from_pandas(df), window=7,
                            stride=5).to_pandas() \
            .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
        want = self._brute(texts, 7, 5)
        pd.testing.assert_frame_equal(
            out.astype("int64"), want.astype("int64"))
        # byte spans really address the chunk: re-slice and compare
        for _, r in out.sample(50, random_state=1).iterrows():
            doc = texts[r.doc_id].encode()
            got = doc[r.start_byte: r.start_byte + r.n_chunk_bytes].decode()
            toks = texts[r.doc_id].split(" ")
            assert got == " ".join(
                toks[r.start_tok: r.start_tok + r.n_chunk_tokens])

    def test_nonoverlapping_and_exact_multiples(self):
        texts = [" ".join(["t"] * n) for n in (1, 4, 8, 12, 16, 17)]
        df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                           "text": texts})
        out = an.chunk_plan(ray.data.from_pandas(df), window=4,
                            stride=4).to_pandas()
        want = self._brute(texts, 4, 4)
        pd.testing.assert_frame_equal(
            out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
            .astype("int64"), want.astype("int64"))
        # stride==window tiles exactly: token coverage partitions each doc
        for i, n in enumerate((1, 4, 8, 12, 16, 17)):
            g = out[out.doc_id == i]
            assert g.n_chunk_tokens.sum() == n

    def test_keep_cols_and_stride_guard(self):
        df = pd.DataFrame({"doc_id": [0, 1], "lang": ["en", "fr"],
                           "text": ["a b c", "d"]})
        out = an.chunk_plan(ray.data.from_pandas(df), window=2, stride=1,
                            keep_cols=("lang",)).to_pandas()
        assert set(out[out.doc_id == 0].lang) == {"en"}
        assert set(out[out.doc_id == 1].lang) == {"fr"}
        with pytest.raises(ValueError):
            an.chunk_plan(ray.data.from_pandas(df), window=4, stride=5)


class TestShardPlan:
    def test_matches_global_row_number(self):
        rng = np.random.default_rng(3)
        ids = rng.permutation(2000).astype(np.int64)  # unordered, unique
        df = pd.DataFrame({"doc_id": ids})
        out = an.shard_plan(ray.data.from_pandas(df), key_col="doc_id",
                            shard_size=100, nranges=16).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        h = (ids.astype(np.uint64) + np.uint64(1)) \
            * np.uint64(0x9E3779B97F4A7C15)
        want = pd.DataFrame({"doc_id": ids, "h": h}).sort_values("h")
        want["rn"] = np.arange(len(want))
        want = want.sort_values("doc_id").reset_index(drop=True)
        assert (out["shard"].to_numpy() == want["rn"] // 100).all()
        assert (out["pos"].to_numpy() == want["rn"] % 100).all()
        # exact packing: every shard except the last is full
        sizes = out.groupby("shard").size()
        assert (sizes.iloc[:-1] == 100).all() if len(sizes) > 1 else True
        assert sizes.sum() == 2000

    def test_nranges_invariance_and_guard(self):
        df = pd.DataFrame({"doc_id": np.arange(500, dtype=np.int64)})
        a = an.shard_plan(ray.data.from_pandas(df), "doc_id", 64,
                          nranges=4).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        b = an.shard_plan(ray.data.from_pandas(df), "doc_id", 64,
                          nranges=64).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        with pytest.raises(ValueError):
            an.shard_plan(ray.data.from_pandas(df), "doc_id", 64, nranges=3)


class TestStratifiedTake:
    def _brute(self, df, k):
        h = (df["doc_id"].to_numpy().astype(np.uint64) + np.uint64(1)) \
            * np.uint64(0x9E3779B97F4A7C15)
        d = df.assign(h=h).sort_values("h")
        rows = []
        for s, g in d.groupby("lang"):
            for r, (_, row) in enumerate(g.iterrows()):
                if r < k.get(s, 0):
                    rows.append((row.doc_id, s, r))
        return pd.DataFrame(rows, columns=["doc_id", "lang", "rank"]) \
            .sort_values("doc_id").reset_index(drop=True)

    def test_exact_quotas_match_brute(self):
        rng = np.random.default_rng(9)
        df = pd.DataFrame({
            "doc_id": np.arange(1500, dtype=np.int64),
            "lang": rng.choice(["en", "fr", "de", "zh"], 1500,
                               p=[0.5, 0.25, 0.15, 0.1])})
        k = {"en": 300, "fr": 100, "de": 5000, "zh": 0}  # de > n, zh 0
        out = an.stratified_take(ray.data.from_pandas(df), "doc_id",
                                 "lang", k, nranges=8).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        want = self._brute(df, k)
        pd.testing.assert_frame_equal(
            out.astype({"rank": "int64"}), want.astype({"rank": "int64"}))
        sizes = out.groupby("lang").size()
        assert sizes.get("en", 0) == 300 and sizes.get("fr", 0) == 100
        # over-quota stratum keeps everything; zero-quota drops all
        assert sizes.get("de", 0) == (df.lang == "de").sum()
        assert "zh" not in sizes.index

    def test_missing_stratum_dropped(self):
        df = pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64),
                           "lang": ["en"] * 50 + ["xx"] * 50})
        out = an.stratified_take(ray.data.from_pandas(df), "doc_id",
                                 "lang", {"en": 10}, nranges=4).to_pandas()
        assert len(out) == 10 and set(out.lang) == {"en"}
        assert out["rank"].max() == 9

    def test_null_stratum_dropped(self):
        df = pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64),
                           "lang": ["en"] * 60 + [None] * 40})
        out = an.stratified_take(ray.data.from_pandas(df), "doc_id",
                                 "lang", {"en": 100}, nranges=4).to_pandas()
        assert len(out) == 60 and set(out.lang) == {"en"}
        assert sorted(out.doc_id) == list(range(60))


class TestChunkTexts:
    def test_materialized_chunks_match_python_slices(self):
        rng = np.random.default_rng(13)
        vocab = ["alpha", "bé", "c", "ddd", "", "éé"]
        texts = [" ".join(rng.choice(vocab, rng.integers(0, 30)))
                 for _ in range(200)] + ["", "one", "a b"]
        df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                           "lang": ["x"] * len(texts), "text": texts})
        out = an.chunk_texts(ray.data.from_pandas(df), window=6, stride=4,
                             keep_cols=("lang",)).to_pandas() \
            .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
        plan = an.chunk_plan(ray.data.from_pandas(df), window=6,
                             stride=4).to_pandas() \
            .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
        # same spans as the planner
        pd.testing.assert_frame_equal(
            out[plan.columns].astype("int64"), plan.astype("int64"))
        # chunk strings are the exact token slices
        for _, r in out.iterrows():
            toks = texts[r.doc_id].split(" ")
            assert r.chunk_text == " ".join(
                toks[r.start_tok: r.start_tok + r.n_chunk_tokens])
            assert len(r.chunk_text.encode()) == r.n_chunk_bytes

    def test_parquet_roundtrip(self, tmp_path):
        df = pd.DataFrame({"doc_id": np.arange(50, dtype=np.int64),
                           "text": ["tok " * 20 + "end"] * 50})
        out_dir = str(tmp_path / "chunks")
        an.chunk_texts(ray.data.from_pandas(df), window=8,
                       stride=8).write_parquet(out_dir)
        back = ray.data.read_parquet(out_dir).to_pandas()
        assert len(back) == 50 * 3  # 21 tokens / window 8 -> 3 chunks
        assert (back.groupby("doc_id").size() == 3).all()
        assert back.chunk_text.str.len().gt(0).all()


class TestOovRate:
    def test_matches_brute(self):
        from collections import Counter
        from geetiles_ray.pipelines.text import TOKEN_STRIP
        rng = np.random.default_rng(21)
        vocab = [f"w{i}" for i in range(40)] + ["Rare!", "(odd)", "UPPER"]
        texts = [" ".join(rng.choice(vocab, rng.integers(0, 30)))
                 for _ in range(150)] + ["", "   "]
        df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                           "text": texts})
        V = 20
        out = an.oov_rate(ray.data.from_pandas(df),
                          vocab_size=V).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

        def toks(t):
            return [w.strip(TOKEN_STRIP) for w in t.lower().split()
                    if w.strip(TOKEN_STRIP) != ""]
        c = Counter()
        for t in texts:
            c.update(toks(t))
        top = set(sorted(c, key=lambda w: (-c[w], w))[:V])
        for i, t in enumerate(texts):
            tt = toks(t)
            assert out.n_tokens[i] == len(tt)
            assert out.n_oov[i] == sum(w not in top for w in tt), t


class TestApportionBudget:
    def _brute(self, keys, weights, B):
        W = sum(weights)
        base = [B * w // W for w in weights]
        rem = [B * w % W for w in weights]
        R = B - sum(base)
        order = sorted(range(len(keys)), key=lambda i: (-rem[i], keys[i]))
        quota = list(base)
        for i in order[:R]:
            quota[i] += 1
        return dict(zip(keys, quota))

    def test_exact_total_and_brute_parity(self):
        rng = np.random.default_rng(31)
        keys = [f"h{i:04d}" for i in range(500)]
        weights = rng.integers(1, 10_000, 500).astype(np.int64)
        df = pd.DataFrame({"host": keys, "w": weights})
        for B in (7, 997, 499_999):
            out = an.apportion_budget(ray.data.from_pandas(df), "host",
                                      "w", B, nranges=8).to_pandas()
            assert out["quota"].sum() == B  # the exact-total invariant
            want = self._brute(keys, list(weights), B)
            got = dict(zip(out["host"], out["quota"]))
            assert got == want

    def test_degenerate_and_guards(self):
        df = pd.DataFrame({"host": ["a", "b"], "w": [1, 1]})
        out = an.apportion_budget(ray.data.from_pandas(df), "host", "w",
                                  3).to_pandas().sort_values("host")
        # rem ties: 3*1%2=1 for both; key asc gives 'a' the +1
        assert out["quota"].tolist() == [2, 1]
        with pytest.raises(ValueError):
            an.apportion_budget(ray.data.from_pandas(
                pd.DataFrame({"host": ["a"], "w": [0]})), "host", "w", 5)


class TestFunnelSteps:
    def _brute(self, df, steps):
        out = {}
        for u, g in df.sort_values("ts").groupby("user_id"):
            t, reached = None, 0
            for s in steps:
                cand = g[(g.event_type == s)
                         & ((g.ts > t) if t is not None else True)]
                if not len(cand):
                    break
                t = cand.ts.iloc[0]
                reached += 1
            out[u] = reached
        return out

    def test_matches_brute(self):
        from geetiles_ray.stages.temporal import funnel_steps
        rng = np.random.default_rng(23)
        n = 2000
        df = pd.DataFrame({
            "user_id": rng.integers(0, 120, n).astype(np.int64),
            "ts": pd.to_datetime(rng.integers(0, 10_000, n), unit="s"),
            "event_type": rng.choice(["view", "click", "purchase",
                                      "error"], n)})
        steps = ["view", "click", "purchase"]
        out = funnel_steps(ray.data.from_pandas(df), steps) \
            .to_pandas().sort_values("user_id").reset_index(drop=True)
        want = self._brute(df, steps)
        got = dict(zip(out.user_id, out.steps_reached))
        assert got == want
        assert set(out.user_id) == set(df.user_id)  # zeros reported too

    def test_order_strictness(self):
        from geetiles_ray.stages.temporal import funnel_steps
        # click BEFORE view, and a same-timestamp click: neither advances
        df = pd.DataFrame({
            "user_id": [1, 1, 1, 2, 2],
            "ts": pd.to_datetime([5, 10, 10, 1, 2], unit="s"),
            "event_type": ["click", "view", "click", "view", "click"]})
        out = funnel_steps(ray.data.from_pandas(df),
                           ["view", "click", "purchase"]).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        assert out.steps_reached.tolist() == [1, 2]


class TestCohortRetention:
    def test_matches_brute(self):
        from geetiles_ray.stages.temporal import cohort_retention
        WEEK = 7 * 86400 * 1_000_000
        rng = np.random.default_rng(29)
        n = 3000
        df = pd.DataFrame({
            "user_id": rng.integers(0, 150, n).astype(np.int64),
            "ts": pd.to_datetime(
                rng.integers(0, 40 * 86400, n), unit="s").astype(
                "datetime64[us]"),
            "event_type": rng.choice(
                ["signup", "view", "click"], n, p=[0.2, 0.5, 0.3])})
        out = cohort_retention(df_ds := ray.data.from_pandas(df)) \
            .to_pandas().sort_values(["cohort_week", "week_offset"]) \
            .reset_index(drop=True)

        t64 = df.ts.astype("int64")
        brute = {}
        for u, g in df.assign(t64=t64).groupby("user_id"):
            su = g[g.event_type == "signup"]
            if not len(su):
                continue
            t0 = int(su.t64.min())
            cw = t0 // WEEK
            offs = {int((t - t0) // WEEK) for t in g.t64 if t >= t0}
            for o in offs:
                brute[(cw, o)] = brute.get((cw, o), 0) + 1
        got = {(r.cohort_week, r.week_offset): r.n_users
               for r in out.itertuples()}
        assert got == brute
        # week-0 cell exists for every cohort (the signup itself)
        for (cw, o) in brute:
            assert (cw, 0) in brute

    def test_pre_anchor_events_excluded(self):
        from geetiles_ray.stages.temporal import cohort_retention
        df = pd.DataFrame({
            "user_id": [1, 1, 1],
            "ts": pd.to_datetime([0, 10 * 86400, 11 * 86400],
                                 unit="s").astype("datetime64[us]"),
            "event_type": ["view", "signup", "click"]})
        out = cohort_retention(ray.data.from_pandas(df)).to_pandas()
        assert len(out) == 1  # only week 0 (signup+click same week)
        assert out.n_users.iloc[0] == 1 and out.week_offset.iloc[0] == 0


class TestRollingActive:
    def test_matches_brute(self):
        from geetiles_ray.stages.temporal import rolling_active
        rng = np.random.default_rng(37)
        n = 2500
        df = pd.DataFrame({
            "user_id": rng.integers(0, 80, n).astype(np.int64),
            "ts": pd.to_datetime(rng.integers(0, 30 * 86400, n),
                                 unit="s").astype("datetime64[us]")})
        N = 7
        out = rolling_active(ray.data.from_pandas(df), window_days=N) \
            .to_pandas().sort_values("window_end_day") \
            .reset_index(drop=True)
        day = (df.ts.astype("int64") // (86400 * 1_000_000)).to_numpy()
        active = {}
        for u, d in set(zip(df.user_id, day)):
            for w in range(d, d + N):
                active.setdefault(w, set()).add(u)
        want = {w: len(s) for w, s in active.items()}
        got = dict(zip(out.window_end_day, out.n_active))
        assert got == want
        # window peaks cover all users seen within any N-day span
        assert max(got.values()) <= df.user_id.nunique()

    def test_single_event_covers_n_windows(self):
        from geetiles_ray.stages.temporal import rolling_active
        df = pd.DataFrame({
            "user_id": [42],
            "ts": pd.to_datetime([5 * 86400],
                                 unit="s").astype("datetime64[us]")})
        out = rolling_active(ray.data.from_pandas(df), window_days=3) \
            .to_pandas().sort_values("window_end_day")
        assert out.window_end_day.tolist() == [5, 6, 7]
        assert out.n_active.tolist() == [1, 1, 1]


class TestEventTransitions:
    def test_matches_brute(self):
        from geetiles_ray.stages.temporal import event_transitions
        rng = np.random.default_rng(41)
        n = 2000
        df = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 60, n).astype(np.int64),
            "ts": pd.to_datetime(rng.integers(0, 500, n),  # many ts ties
                                 unit="s").astype("datetime64[us]"),
            "event_type": rng.choice(list("abc"), n)})
        out = event_transitions(ray.data.from_pandas(df)).to_pandas()
        got = {(r.cur_type, r.next_type): r.n for r in out.itertuples()}
        brute = {}
        for _, g in df.sort_values(["ts", "event_id"]).groupby("user_id"):
            t = g.event_type.tolist()
            for a, b in zip(t, t[1:]):
                brute[(a, b)] = brute.get((a, b), 0) + 1
        assert got == brute
        assert sum(got.values()) == n - df.user_id.nunique()

    def test_single_event_users_yield_nothing(self):
        from geetiles_ray.stages.temporal import event_transitions
        df = pd.DataFrame({
            "event_id": [0, 1], "user_id": [1, 2],
            "ts": pd.to_datetime([1, 2], unit="s").astype("datetime64[us]"),
            "event_type": ["a", "b"]})
        out = event_transitions(ray.data.from_pandas(df)).to_pandas()
        assert len(out) == 0


class TestEpochMicrosecondExactness:
    """ .map() with missing keys coerces int64 epoch-us to float64,
    whose resolution at 2020s epochs is ~256 us — these fixtures place
    events 1 us apart at epoch 1.6e18 so any float round-trip flips
    the strict comparisons."""

    BASE = 1_600_000_000_000_001  # us, odd so float64 cannot hold it

    def test_funnel_strictness_at_1us(self):
        from geetiles_ray.stages.temporal import funnel_steps
        b = self.BASE
        df = pd.DataFrame({
            "user_id": [1, 1, 2, 2, 3],  # user 3 missing from frontier
            "ts": pd.to_datetime([b, b + 1, b, b, b], unit="us"),
            "event_type": ["view", "click", "view", "click", "click"]})
        out = funnel_steps(ray.data.from_pandas(df),
                           ["view", "click"]).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        # user 1: click 1 us after view -> 2; user 2: same-us tie -> 1
        assert out.steps_reached.tolist() == [2, 1, 0]

    def test_cohort_boundary_at_1us(self):
        from geetiles_ray.stages.temporal import cohort_retention
        WEEK = 7 * 86400 * 1_000_000
        t0 = (self.BASE // WEEK) * WEEK + WEEK - 1  # 1 us before boundary
        df = pd.DataFrame({
            "user_id": [1, 1, 9],  # user 9 anchorless -> int64 path forced
            "ts": pd.to_datetime([t0, t0 + 1, t0], unit="us"),
            "event_type": ["signup", "view", "view"]})
        out = cohort_retention(ray.data.from_pandas(df)).to_pandas() \
            .sort_values("week_offset").reset_index(drop=True)
        # the view lands 1 us after signup but in offset-week 0 still
        # (offset is relative to t0, not the calendar week)
        assert out.cohort_week.tolist() == [t0 // WEEK]
        assert out.week_offset.tolist() == [0]
        assert out.n_users.tolist() == [1]
