"""dedup_exact + dedup_exact_broadcast + partial combiner oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from geetiles_ray.pipelines import dedup as dedupmod


def _pages_with_cross_block_dups(n=5000, nblocks=8) -> ray.data.Dataset:
    """Every 10th key appears in TWO different blocks; the later copy has a
    later ts and must lose."""
    rng = np.random.default_rng(7)
    key = np.arange(n) % (n // 2 + n // 10)      # forced collisions
    ts = rng.permutation(n).astype("int64")
    df = pd.DataFrame({"url": [f"u{k}" for k in key], "warc_ts": ts,
                       "payload": rng.integers(0, 1 << 30, n)})
    return ray.data.from_pandas(df, override_num_blocks=nblocks)


def _oracle(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["url", "warc_ts"], kind="stable") \
        .drop_duplicates(["url"], keep="first") \
        .sort_values("url").reset_index(drop=True)


class TestDedupExact:
    def test_sort_path_matches_pandas(self, fold_placement):
        ds = _pages_with_cross_block_dups()
        want = _oracle(ds.to_pandas())
        got = dedupmod.dedup_exact(ds, key="url", order_col="warc_ts") \
            .to_pandas().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want)

    def test_dup_key_set_matches_pandas(self, fold_placement):
        # sorted hashes of exactly the urls seen ≥ 2 times, on a corpus
        # whose dups straddle blocks
        ds = _pages_with_cross_block_dups()
        url = ds.to_pandas()[["url"]]
        h = pd.util.hash_pandas_object(url, index=False)
        counts = h.groupby(url["url"].to_numpy()).agg(["first", "size"])
        want = np.sort(counts["first"][counts["size"] >= 2]
                       .to_numpy(dtype=np.uint64))
        got = ray.get(dedupmod.dup_key_set(ds, "url"))
        assert got.dtype == np.uint64 and len(want) > 0
        np.testing.assert_array_equal(got, want)

    def test_multi_key(self, fold_placement):
        df = pd.DataFrame({"a": [1, 1, 2, 2, 1], "b": ["x", "x", "y", "y", "z"],
                           "v": [5, 3, 9, 1, 7]})
        got = dedupmod.dedup_exact(ray.data.from_pandas(df, override_num_blocks=3),
                                   key=["a", "b"], order_col="v") \
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        want = df.sort_values(["a", "b", "v"], kind="stable") \
            .drop_duplicates(["a", "b"], keep="first") \
            .sort_values(["a", "b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_ties_broken_on_other_columns(self, fold_placement):
        # rows tied on (key, order) that differ elsewhere: the kept row is
        # the least by the remaining columns, whatever the block layout
        rng = np.random.default_rng(11)
        df = pd.DataFrame({"url": [f"u{k}" for k in rng.integers(0, 40, 600)],
                           "warc_ts": rng.integers(0, 3, 600),
                           "payload": rng.permutation(600)})
        want = df.sort_values(["url", "warc_ts", "payload"]) \
            .drop_duplicates(["url"]).reset_index(drop=True)
        for blocks, rows in ((2, df), (9, df.iloc[::-1])):
            got = dedupmod.dedup_exact(
                ray.data.from_pandas(rows, override_num_blocks=blocks),
                key="url", order_col="warc_ts") \
                .to_pandas().sort_values("url").reset_index(drop=True)
            pd.testing.assert_frame_equal(got[want.columns], want)

    def test_null_typed_and_empty_blocks(self, fold_placement):
        # the first block types ``lang`` null, and the empty block keeps
        # the upstream ``html`` column (Ray skips map fns on empty
        # blocks): the fold conforms every block to one schema
        def block(url, ts, lang, lang_type):
            return pa.table({
                "url": pa.array(url, pa.string()),
                "warc_ts": pa.array(ts, pa.int64()),
                "lang": pa.array(lang, lang_type),
                "html": pa.array([b"<p>"] * len(url), pa.binary())})

        blocks = [block(["b", "c"], [0, 5], [None, None], pa.null()),
                  block([], [], [], pa.string()),
                  block(["a", "b", "a", "c"], [3, 0, 2, 5],
                        ["en", "fr", "de", "es"], pa.string())]
        ds = ray.data.from_arrow(blocks).drop_columns(["html"])
        got = dedupmod.dedup_exact(ds, key="url", order_col="warc_ts")
        assert got.schema().names == ["url", "warc_ts", "lang"]
        want = pd.concat([b.drop_columns(["html"]).to_pandas()
                          for b in blocks]) \
            .sort_values(["warc_ts", "lang"]).drop_duplicates("url") \
            .sort_values("url").reset_index(drop=True)
        got = got.to_pandas().sort_values("url").reset_index(drop=True)
        assert got.to_dict("list") == want.to_dict("list")

    def test_table_kernel_null_keys_and_keep_last(self):
        t = pa.table({"k": ["a", None, "a", None, "b"],
                      "o": [2, 1, 2, 3, 1], "v": [9, 8, 7, 6, 5]})
        first = dedupmod.dedup_table(t, ["k"], ["o"]).to_pandas() \
            .sort_values("v").reset_index(drop=True)
        assert first.to_dict("list") == {"k": ["b", "a", None],
                                         "o": [1, 2, 1], "v": [5, 7, 8]}
        last = dedupmod.dedup_table(t, ["k"], ["o"], keep="last") \
            .to_pandas().sort_values("v").reset_index(drop=True)
        assert last.to_dict("list") == {"k": ["b", None, "a"],
                                        "o": [1, 3, 2], "v": [5, 6, 9]}


class TestDedupBroadcast:
    def test_matches_single_pass(self):
        ds = _pages_with_cross_block_dups().materialize()
        want = _oracle(ds.to_pandas())
        got = dedupmod.dedup_exact_broadcast(ds, key="url", order_col="warc_ts") \
            .to_pandas().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want)

    def test_no_duplicates_identity(self):
        df = pd.DataFrame({"url": [f"u{i}" for i in range(100)],
                           "warc_ts": range(100)})
        ds = ray.data.from_pandas(df, override_num_blocks=4).materialize()
        assert dedupmod.dedup_exact_broadcast(
            ds, key="url", order_col="warc_ts").count() == 100

    def test_tie_keys_route_through_exchange(self):
        # two fully-identical rows at the key's minimum order: the
        # broadcast filter can't pick one map-side, so the tie key must go
        # through the exchange and exactly one copy survive
        df = pd.DataFrame({
            "url": ["t", "t", "t", "a", "b"],
            "warc_ts": [5, 5, 9, 1, 2],
            "payload": [1, 1, 3, 4, 5],   # tied rows identical
        })
        ds = ray.data.from_pandas(df, override_num_blocks=3).materialize()
        got = dedupmod.dedup_exact_broadcast(ds, key="url", order_col="warc_ts") \
            .to_pandas().sort_values("url").reset_index(drop=True)
        want = _oracle(df)
        pd.testing.assert_frame_equal(got[want.columns], want)

    def test_composite_order_matches_pandas(self):
        # a list order_col has no broadcast minima: it runs dedup_exact's
        # full exchange and must still match the pandas oracle
        ds = _pages_with_cross_block_dups().materialize()
        df = ds.to_pandas()
        want = df.sort_values(["url", "warc_ts", "payload"], kind="stable") \
            .drop_duplicates(["url"], keep="first") \
            .sort_values("url").reset_index(drop=True)
        got = dedupmod.dedup_exact_broadcast(
            ds, key="url", order_col=["warc_ts", "payload"]) \
            .to_pandas().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want)

    def test_multi_key(self):
        df = pd.DataFrame({"a": [1, 1, 2, 2, 1], "b": ["x", "x", "y", "y", "z"],
                           "v": [5, 3, 9, 1, 7]})
        ds = ray.data.from_pandas(df, override_num_blocks=3).materialize()
        got = dedupmod.dedup_exact_broadcast(ds, key=["a", "b"], order_col="v") \
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        want = df.sort_values(["a", "b", "v"], kind="stable") \
            .drop_duplicates(["a", "b"], keep="first") \
            .sort_values(["a", "b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want)


class TestPartialCombiners:
    def test_counts_match_pandas(self):
        ds = _pages_with_cross_block_dups()
        df = ds.to_pandas()
        got = dedupmod.partial_counts(ds, ["url"], "n").to_pandas() \
            .sort_values("url").reset_index(drop=True)
        want = df.groupby("url", as_index=False).size() \
            .rename(columns={"size": "n"}).sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_sums_match_pandas(self, fold_placement):
        ds = _pages_with_cross_block_dups()
        want = ds.to_pandas().groupby("url", as_index=False) \
            .agg(s=("payload", "sum"))
        got = dedupmod.partial_sums(ds, ["url"], "payload", "s") \
            .to_pandas().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_null_typed_first_block(self, fold_placement):
        # Ray reports the first block's schema, here ``lang: null``; the
        # fold must still take the string block (a cast to the reported
        # type raised ArrowNotImplementedError)
        ds = ray.data.from_arrow([pa.table({"lang": pa.nulls(2)}),
                                  pa.table({"lang": ["en", "de", "en"]})])
        got = dedupmod.partial_counts(ds, ["lang"], "n").to_pandas()
        assert sorted(zip(got.lang.fillna("-"), got.n)) == \
            [("-", 2), ("de", 1), ("en", 2)]

    def test_null_group_keys_kept(self, fold_placement):
        # SQL GROUP BY: a null key is a group of its own; no row is lost.
        # Key (3, "en") sits in a block with a null tile_id and in one
        # without, so it must route to one range either way.
        df = pd.DataFrame({
            "tile_id": pd.array([3, None, 3, 5, None, 5], dtype="Int64"),
            "lang": ["en", "de", "en", None, None, "en"],
            "v": np.arange(1, 7, dtype="int64")})
        ds = ray.data.from_pandas(df, override_num_blocks=3)
        key = ["tile_id", "lang"]
        want = df.groupby(key, dropna=False, as_index=False) \
            .agg(n=("v", "size"), s=("v", "sum"))
        n = dedupmod.partial_counts(ds, key, "n").to_pandas()
        s = dedupmod.partial_sums(ds, key, "v", "s").to_pandas()
        assert n["n"].sum() == 6 and s["s"].sum() == 21
        assert (n["tile_id"].isna() & n["lang"].isna()).sum() == 1

        def canon(d):
            return d.astype({"tile_id": "Int64"}) \
                .assign(lang=d.lang.astype(object).where(d.lang.notna(), None)) \
                .sort_values(key, na_position="first").reset_index(drop=True)
        got = canon(n.merge(s, on=key, how="outer"))
        pd.testing.assert_frame_equal(got, canon(want[key + ["n", "s"]]),
                                      check_dtype=False)


class TestDedupBroadcastProperties:
    def test_random_corpora_match_pandas(self):
        """Property check: random key/order corpora (dup rates 0-60%, ties
        at the minimum with identical payloads, 1-8 blocks) must match the
        pandas drop_duplicates oracle exactly."""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=12, deadline=None)
        @given(st.integers(0, 10_000), st.integers(1, 8),
               st.sampled_from([1, 3, 10]))
        def check(seed, nblocks, key_div):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 300))
            keys = rng.integers(0, max(n // key_div, 1), n)
            order = rng.integers(0, 50, n)  # small range → ties likely
            df = pd.DataFrame({
                "url": [f"k{k}" for k in keys],
                "warc_ts": order,
                # payload must be a pure function of (key, order) so tied
                # minimum rows are identical and any tie pick is correct
                "payload": keys * 1000 + order,
            })
            ds = ray.data.from_pandas(df, override_num_blocks=nblocks) \
                .materialize()
            got = dedupmod.dedup_exact_broadcast(
                ds, key="url", order_col="warc_ts") \
                .to_pandas().sort_values("url").reset_index(drop=True)
            want = _oracle(df)
            pd.testing.assert_frame_equal(got[want.columns], want,
                                          check_dtype=False)

        check()


class TestUpsert:
    def test_latest_wins_and_appends(self):
        import pandas as pd

        from geetiles_ray.pipelines.dedup import upsert

        base = pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
        upd = pd.DataFrame({"k": [2, 4], "v": [99, 40]})
        got = upsert(ray.data.from_pandas(base), ray.data.from_pandas(upd),
                     key="k").to_pandas().sort_values("k") \
            .reset_index(drop=True)
        assert got.k.tolist() == [1, 2, 3, 4]
        assert got.v.tolist() == [10, 99, 30, 40]
        assert "__pri" not in got.columns

    def test_order_col_resolves_update_duplicates(self):
        import pandas as pd

        from geetiles_ray.pipelines.dedup import upsert

        base = pd.DataFrame({"k": [1], "ts": [0], "v": [1]})
        upd = pd.DataFrame({"k": [1, 1], "ts": [5, 9], "v": [50, 90]})
        got = upsert(ray.data.from_pandas(base), ray.data.from_pandas(upd),
                     key="k", order_col="ts").to_pandas()
        assert got.v.tolist() == [90]  # greatest ts among updates wins


class TestUpsertPatch:
    def _sides(self):
        base = pd.DataFrame({
            "k": np.arange(10, dtype="int64"),
            "price": np.arange(10, dtype="int64") * 100,
            "name": [f"n{i}" for i in range(10)],
        })
        upd = pd.DataFrame({
            "k": np.array([2, 2, 5, 7, 99], dtype="int64"),
            "ver": np.array([1, 2, 1, 1, 1], dtype="int64"),
            # k=2 has two updates (ver 2 wins); k=7 patches with NULL
            # (must keep base); k=99 doesn't exist in base (dropped)
            "price": pd.array([111, 222, 555, None, 999], dtype="Int64"),
            "tag": ["a", "b", "c", "d", "e"],  # new column
        })
        return base, upd

    def test_coalesce_semantics(self):
        from geetiles_ray.pipelines import dedup as dd
        base, upd = self._sides()
        upd_ds = ray.data.from_arrow(
            pa.Table.from_pandas(upd, preserve_index=False))
        out = dd.upsert_patch(ray.data.from_pandas(base).repartition(3),
                              upd_ds,
                              key="k", order_col="ver").to_pandas() \
            .sort_values("k").reset_index(drop=True)
        assert len(out) == 10                     # no inserts, no drops
        assert list(out.columns) == ["k", "price", "name", "tag"]
        got = dict(zip(out.k, out.price))
        assert got[2] == 222                      # latest update wins
        assert got[5] == 555
        assert got[7] == 700                      # NULL patch keeps base
        assert got[0] == 0 and got[9] == 900      # untouched rows
        tags = dict(zip(out.k, out.tag))
        assert tags[2] == "b" and tags[5] == "c"
        assert pd.isna(tags[0])                   # new col null elsewhere
        # one consistent arrow schema across blocks
        types = {str(b.schema.field("price").type)
                 for b in dd.upsert_patch(
                     ray.data.from_pandas(base).repartition(3),
                     upd_ds, key="k",
                     order_col="ver").iter_batches(batch_format="pyarrow")
                 if len(b)}
        assert types == {"int64"}

    def test_no_updates_is_identity(self):
        from geetiles_ray.pipelines import dedup as dd
        base, upd = self._sides()
        out = dd.upsert_patch(
            ray.data.from_pandas(base),
            ray.data.from_arrow(pa.Table.from_pandas(
                upd.iloc[:0], preserve_index=False)),
            key="k").to_pandas() \
            .sort_values("k").reset_index(drop=True)
        assert (out.price == base.price).all()
        assert out.tag.isna().all()


class TestRangeFoldEmptyRanges:
    def test_more_ranges_than_keys(self, fold_placement):
        # with |distinct keys| < ranges (4 on the test session) some ranges
        # are empty; empty slices must carry the explicit target schema (not
        # inferred null types) and out_names must apply inside the fold
        # (Dataset.rename_columns skips zero-row bundles).
        df = pd.DataFrame({"k": ["a", "b", "c"] * 10,
                           "v": np.arange(30, dtype="int64")})
        ds = ray.data.from_pandas(df).repartition(4)

        def local(b: pd.DataFrame) -> pd.DataFrame:
            g = b.groupby("k", as_index=False).agg(__n=("v", "size"))
            return g.astype({"__n": "int64"})

        partial = ds.map_batches(local, batch_format="pandas")
        out = dedupmod.fold_partials(partial, ["k"], [("__n", "sum")],
                                     out_names=["k", "n"])
        # every block (including the empty ranges) must share the
        # renamed, correctly-typed schema
        types = set()
        for b in out.iter_batches(batch_format="pyarrow", batch_size=None):
            assert b.column_names == ["k", "n"]
            types.add((str(b.schema.field("k").type),
                       str(b.schema.field("n").type)))
        assert types == {("string", "int64")}
        got = out.to_pandas().sort_values("k").reset_index(drop=True)
        assert list(got.k) == ["a", "b", "c"]
        assert list(got.n) == [10, 10, 10]

    def test_postings_with_tiny_vocab_many_ranges(self):
        from geetiles_ray.pipelines import analytics as an
        df = pd.DataFrame({"doc_id": np.arange(20, dtype="int64"),
                           "text": ["alpha beta"] * 20})
        ds = ray.data.from_pandas(df).repartition(3)
        # 2-token vocab: fewer keys than fold ranges
        post = an.token_postings(ds)
        got = post.to_pandas().sort_values("token").reset_index(drop=True)
        assert list(got.columns) == ["token", "df", "tf", "first_doc"]
        assert list(got.token) == ["alpha", "beta"]
        assert list(got.tf) == [20, 20]


class TestUpsertPatchProperties:
    def test_matches_pandas_coalesce(self):
        # property: upsert_patch == LEFT JOIN + COALESCE for random keys,
        # random null patches and random duplicate update multiplicity
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=15, deadline=None)
        @given(st.integers(0, 10**6))
        def prop(seed):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 40))
            base = pd.DataFrame({
                "k": np.arange(n, dtype="int64"),
                "v": rng.integers(0, 1000, n).astype("int64"),
            })
            m = int(rng.integers(0, 30))
            # ver unique per update row: ties on (k, ver) resolve
            # arbitrarily by contract (row order does not survive the
            # exchange), so the oracle must not depend on file position
            upd = pd.DataFrame({
                "k": rng.integers(0, n * 2, m).astype("int64"),
                "ver": rng.permutation(m).astype("int64"),
                "v": pd.array([None if rng.random() < 0.3
                               else int(rng.integers(0, 1000))
                               for _ in range(m)], dtype="Int64"),
            })
            got = dedupmod.upsert_patch(
                ray.data.from_pandas(base).repartition(3),
                ray.data.from_arrow(pa.Table.from_pandas(
                    upd, preserve_index=False)),
                key="k", order_col="ver").to_pandas() \
                .sort_values("k").reset_index(drop=True)
            # pandas oracle: latest per key (ver, then position), COALESCE
            u = upd.copy().reset_index()
            u = u.sort_values(["k", "ver", "index"], kind="mergesort") \
                .drop_duplicates("k", keep="last")
            exp = base.merge(u[["k", "v"]], on="k", how="left",
                             suffixes=("", "__u"))
            exp["v"] = exp["v__u"].astype("float64").combine_first(
                exp["v"].astype("float64"))
            assert list(got.k) == list(exp.k)
            assert list(got.v.astype("float64")) == list(exp.v)

        prop()


class TestRangeFoldProperties:
    def test_matches_pandas_groupby(self, fold_placement):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=15, deadline=None)
        @given(st.integers(0, 10**6), st.booleans())
        def prop(seed, route_subset):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 200))
            df = pd.DataFrame({
                "a": rng.integers(0, 8, n).astype("int64"),
                "b": [f"t{x}" for x in rng.integers(0, 6, n)],
                "v": rng.integers(-50, 50, n).astype("int64"),
            })
            ds = ray.data.from_pandas(df).repartition(
                int(rng.integers(1, 6)))

            def local(x: pd.DataFrame) -> pd.DataFrame:
                g = x.groupby(["a", "b"], as_index=False).agg(
                    __s=("v", "sum"), __m=("v", "min"))
                return g.astype({"__s": "int64", "__m": "int64"})

            partial = ds.map_batches(local, batch_format="pandas")
            got = dedupmod.fold_partials(
                partial, ["a", "b"], [("__s", "sum"), ("__m", "min")],
                range_by=["a"] if route_subset else None,
                out_names=["a", "b", "s", "m"]).to_pandas() \
                .sort_values(["a", "b"]).reset_index(drop=True)
            exp = df.groupby(["a", "b"], as_index=False).agg(
                s=("v", "sum"), m=("v", "min")) \
                .sort_values(["a", "b"]).reset_index(drop=True) \
                .astype({"s": "int64", "m": "int64"})
            pd.testing.assert_frame_equal(
                got.astype(exp.dtypes.to_dict()), exp)

        prop()
