"""Checkpoint/resume via per-partition lineage manifests (FIXTURES.md
invariant 5: kill after partition k, re-run → identical output, partitions
0..k not recomputed)."""

import json
import os

import pandas as pd
import pytest
import ray.data

from geetiles_ray.state import manifest as mf


@pytest.fixture()
def corpus():
    return pd.DataFrame({
        "url": [f"https://x.example/{i}" for i in range(500)],
        "val": range(500),
    })


class TestCheckpointedWrite:
    def test_write_then_full_skip(self, corpus, tmp_path):
        ds = ray.data.from_pandas(corpus)
        out = str(tmp_path / "out")
        r1 = mf.checkpointed_write(ds, out, "url", n_partitions=8)
        assert len(r1["written"]) == 8 and not r1["skipped"]
        assert r1["total_rows"] == 500
        # second run: everything skipped, data identical
        r2 = mf.checkpointed_write(ds, out, "url", n_partitions=8)
        assert len(r2["skipped"]) == 8 and not r2["written"]
        back = mf.read_checkpointed(out).to_pandas().sort_values("val")
        assert back.val.tolist() == list(range(500))

    def test_part_payload_column_roundtrips(self, corpus, tmp_path):
        # the part=NNNNN directory layout must not clobber a real payload
        # column named 'part'
        df = corpus.assign(part=[f"p{i % 7}" for i in range(len(corpus))])
        out = str(tmp_path / "out")
        mf.checkpointed_write(ray.data.from_pandas(df), out, "url",
                              n_partitions=8)
        back = mf.read_checkpointed(out).to_pandas() \
            .sort_values("val").reset_index(drop=True)
        assert list(back.columns) == list(df.columns)
        pd.testing.assert_frame_equal(back, df, check_dtype=False)

    def test_derive_n_partitions_sizing_rule(self):
        # ≤ target bytes per partition, floored at min_parts
        assert mf.derive_n_partitions(0, 1 << 30, min_parts=4) == 4
        assert mf.derive_n_partitions(10 << 30, 1 << 30, min_parts=4) == 10
        assert mf.derive_n_partitions((10 << 30) + 1, 1 << 30, 4) == 11
        assert mf.derive_n_partitions(100 << 40, 1 << 30, 4) == 100 << 10
        assert mf.derive_n_partitions(5, 1 << 30, 1) == 1

    def test_auto_partitions_and_skew_warning(self, corpus, tmp_path):
        ds = ray.data.from_pandas(corpus)
        out = str(tmp_path / "auto")
        # tiny input: auto floors at cluster CPUs (4 in the test session)
        r = mf.checkpointed_write(ds, out, "url")
        assert r["n_partitions"] == 4
        assert sorted(r["written"]) == [0, 1, 2, 3]
        assert r["max_partition_bytes"] > 0
        # a partition > 2x target triggers the skew warning, naming a pid
        out2 = str(tmp_path / "skew")
        with pytest.warns(UserWarning, match="exceed 2x"):
            mf.checkpointed_write(ds, out2, "url", n_partitions=2,
                                  target_partition_bytes=64)

    def test_partial_resume_recomputes_only_missing(self, corpus, tmp_path):
        ds = ray.data.from_pandas(corpus)
        out = str(tmp_path / "out")
        mf.checkpointed_write(ds, out, "url", n_partitions=8)
        # simulate a killed run: delete 3 manifests (their data may be torn)
        for pid in [1, 4, 6]:
            os.remove(mf.manifest_path(out, pid))
        r = mf.checkpointed_write(ds, out, "url", n_partitions=8)
        assert sorted(r["written"]) == [1, 4, 6]
        assert len(r["skipped"]) == 5
        back = mf.read_checkpointed(out).to_pandas()
        assert sorted(back.val.tolist()) == list(range(500))

    def test_changed_input_invalidates_fingerprint(self, corpus, tmp_path):
        ds = ray.data.from_pandas(corpus)
        out = str(tmp_path / "out")
        mf.checkpointed_write(ds, out, "url", n_partitions=4)
        changed = corpus.copy()
        changed.loc[0, "url"] = "https://x.example/CHANGED"
        r = mf.checkpointed_write(ray.data.from_pandas(changed), out, "url",
                                  n_partitions=4)
        # the partitions holding old row 0 and new CHANGED row re-run
        assert 1 <= len(r["written"]) <= 2
        assert len(r["written"]) + len(r["skipped"]) == 4

    def test_manifest_contents(self, corpus, tmp_path):
        ds = ray.data.from_pandas(corpus)
        out = str(tmp_path / "out")
        mf.checkpointed_write(ds, out, "url", n_partitions=4)
        with open(mf.manifest_path(out, 0)) as f:
            m = json.load(f)
        assert m["status"] == "done"
        assert m["rows"] > 0
        assert "input_fingerprint" in m and "wall_sec" in m
        assert m["engine_version"] == mf.ENGINE_VERSION

    def test_transform_applied(self, corpus, tmp_path):
        import pyarrow as pa

        def double(t: pa.Table) -> pa.Table:
            import numpy as np
            return t.set_column(t.schema.get_field_index("val"), "val",
                                pa.array(t["val"].to_numpy() * 2))

        ds = ray.data.from_pandas(corpus)
        out = str(tmp_path / "out")
        mf.checkpointed_write(ds, out, "url", n_partitions=4, transform=double)
        back = mf.read_checkpointed(out).to_pandas()
        assert sorted(back.val.tolist()) == [v * 2 for v in range(500)]

    def test_prune_work_list(self, corpus, tmp_path):
        ds = ray.data.from_pandas(corpus)
        out = str(tmp_path / "out")
        mf.checkpointed_write(ds, out, "url", n_partitions=8)
        os.remove(mf.manifest_path(out, 3))
        remaining = mf.prune_work_list(ds, out, "url", n_partitions=8).to_pandas()
        pids = mf.partition_of_key(remaining.url.to_numpy(), 8)
        assert set(pids) == {3}

    def test_more_partitions_than_buckets(self, corpus, tmp_path):
        """Each partition is written whole and alone, however many
        partitions there are against the co-location bucket count."""
        from geetiles_ray.stages.temporal import bucket_count

        n = 2 * bucket_count()
        out = str(tmp_path / "out")
        r = mf.checkpointed_write(ray.data.from_pandas(corpus), out, "url",
                                  n_partitions=n)
        pids = mf.partition_of_key(corpus.url.to_numpy(), n)
        assert r["written"] == sorted(set(pids)) and r["total_rows"] == 500
        for pid in r["written"]:
            part = pd.read_parquet(os.path.join(out, f"part={pid:05d}"))
            assert sorted(part.val) == sorted(corpus.val[pids == pid])

    def test_partition_assignment_stable(self, corpus):
        a = mf.partition_of_key(corpus.url.to_numpy(), 16)
        b = mf.partition_of_key(corpus.url.to_numpy(), 16)
        assert (a == b).all()
        assert len(set(a)) == 16  # all partitions populated at 500 keys


class TestFlagshipCheckpointResume:
    def test_killed_and_resumed_run_identical(self, tmp_path):
        """Flagship with checkpoint_dir: simulate a killed run (drop some
        completed partitions), re-run, and require (a) only the missing
        partitions are rewritten, (b) the final output is byte-identical
        to an uninterrupted run."""
        import hashlib

        from geetiles_ray.pipelines import flagship
        from geetiles_ray.sources import pages as pagesmod

        def result_hash(assigned):
            df = assigned.to_pandas().sort_values("url").reset_index(drop=True)
            cols = sorted(df.columns)
            return hashlib.sha256(
                df[cols].to_csv(index=False).encode()).hexdigest()

        ckpt = str(tmp_path / "ckpt")
        pages = pagesmod.generate_pages(3000)
        tiles = flagship.build_fixture_tileset(5000.0)
        assigned, _ = flagship.run(pages, tiles=tiles, dedup_buckets=8,
                                   checkpoint_dir=ckpt)
        h1 = result_hash(assigned)
        rep1 = flagship.run.last_checkpoint_report
        assert rep1["skipped"] == [] and len(rep1["written"]) == 8

        # simulate the kill: partitions 2 and 5 never completed
        for pid in (2, 5):
            os.remove(mf.manifest_path(ckpt, pid))
            os.remove(os.path.join(ckpt, f"part={pid:05d}", "data.parquet"))

        pages2 = pagesmod.generate_pages(3000)  # deterministic regeneration
        assigned2, _ = flagship.run(pages2, tiles=tiles, dedup_buckets=8,
                                    checkpoint_dir=ckpt)
        rep2 = flagship.run.last_checkpoint_report
        assert rep2["written"] == [2, 5]
        assert len(rep2["skipped"]) == 6
        assert result_hash(assigned2) == h1


class TestFlagshipClusterMode:
    def test_cluster_mode_matches_single_mode(self, tmp_path):
        """mode='cluster' (checkpointed parquet + derived buckets) must be
        byte-identical to the default in-memory mode on the same input —
        the VERDICT round-4 item: the durable path is the documented
        cluster deployment mode, not a docstring option."""
        import hashlib

        from geetiles_ray.pipelines import flagship
        from geetiles_ray.sources import pages as pagesmod

        def result_hash(ds):
            df = ds.to_pandas().sort_values("url").reset_index(drop=True)
            cols = sorted(df.columns)
            return hashlib.sha256(
                df[cols].to_csv(index=False).encode()).hexdigest()

        tiles = flagship.build_fixture_tileset(5000.0)
        a1, c1 = flagship.run(pagesmod.generate_pages(2000), tiles=tiles)
        a2, c2 = flagship.run(pagesmod.generate_pages(2000), tiles=tiles,
                              mode="cluster",
                              checkpoint_dir=str(tmp_path / "ckpt"))
        assert result_hash(a1) == result_hash(a2)
        pd1 = c1.to_pandas().sort_values(["tile_id", "lang"]) \
            .reset_index(drop=True)
        pd2 = c2.to_pandas().sort_values(["tile_id", "lang"]) \
            .reset_index(drop=True)
        assert pd1.equals(pd2)
        # cluster mode actually went through the durable path
        rep = flagship.run.last_checkpoint_report
        assert rep["written"] and not rep["skipped"]

    def test_cluster_mode_requires_checkpoint_dir(self):
        import pytest

        from geetiles_ray.pipelines import flagship
        from geetiles_ray.sources import pages as pagesmod

        with pytest.raises(ValueError, match="checkpoint_dir"):
            flagship.run(pagesmod.generate_pages(10), mode="cluster")

    def test_derived_buckets_scale_with_input(self):
        import ray

        from geetiles_ray.pipelines import flagship
        from geetiles_ray.state import manifest as mfmod

        ncpu = max(1, int(ray.cluster_resources().get("CPU", 4)))
        # the sizing rule itself: ≤ target bytes per partition, CPU floor
        assert mfmod.derive_n_partitions(1, min_parts=ncpu) == ncpu
        assert mfmod.derive_n_partitions(100 << 30, min_parts=ncpu) == 100
        # a tiny in-memory table floors at the CPU count
        small = ray.data.range(100)
        assert flagship.derive_dedup_buckets(small) == ncpu


def _recrawl_pages(n_unique=700, seed=3) -> pd.DataFrame:
    """30% Zipf-skewed re-crawls; a fifth of them land on the url's first
    timestamp with a different text and lang, so rows tied at the minimum
    differ outside the key."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n_re = round(n_unique * 0.30 / 0.70)
    src = rng.permutation(n_unique)[
        np.minimum(rng.zipf(1.2, n_re), n_unique) - 1]
    first = rng.integers(0, 1000, n_unique) * 3_600_000_000
    tie = rng.random(n_re) < 0.2
    rows = np.concatenate([np.arange(n_unique), src])
    ts = np.concatenate([first, first[src] + np.where(
        tie, 0, rng.integers(1, 500, n_re) * 3_600_000_000)])
    langs = np.array(["en", "zh", "es", "de", "fr"], dtype=object)
    lang = np.concatenate([langs[np.arange(n_unique) % 5],
                           langs[rng.integers(0, 5, n_re)]])
    text = [f"page {r} crawl {k}" for k, r in enumerate(rows)]
    order = rng.permutation(len(rows))
    return pd.DataFrame({
        "url": [f"https://{langs[rows[i] % 5]}.site{rows[i] % 97}"
                f".example/p/{rows[i]}" for i in order],
        "warc_ts": (pd.Timestamp("2024-01-01")
                    + pd.to_timedelta(ts[order], unit="us")
                    ).astype("datetime64[us]"),
        "html": [f"<html><body>{text[i]}</body></html>".encode()
                 for i in order],
        "text": [text[i] for i in order],
        "lang": lang[order],
    })


def _by_url(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("url").reset_index(drop=True)


class TestFlagshipPartitionLocalDedup:
    """Cluster mode dedups inside the url-hash partitions it checkpointed:
    keep the earliest warc_ts per url, ties broken on the other columns."""

    @pytest.fixture(scope="class")
    def tiles(self):
        from geetiles_ray.pipelines import flagship
        return flagship.build_fixture_tileset(5000.0)

    @staticmethod
    def _cluster(pages, tiles, ckpt, blocks):
        from geetiles_ray.pipelines import flagship
        out, counts = flagship.run(
            ray.data.from_pandas(pages, override_num_blocks=blocks),
            tiles=tiles, mode="cluster", checkpoint_dir=ckpt,
            dedup_buckets=8)
        return _by_url(out.to_pandas()), counts.to_pandas()

    def test_matches_pandas_oracle_and_single_mode(self, tiles, tmp_path):
        from geetiles_ray.pipelines import flagship

        pages = _recrawl_pages()
        ckpt = str(tmp_path / "ckpt")
        got, counts = self._cluster(pages, tiles, ckpt, blocks=5)
        assert len(flagship.run.last_checkpoint_report["written"]) == 8
        # the oracle runs over the pre-dedup rows the checkpoint holds
        slim = pd.concat(pd.read_parquet(os.path.join(ckpt, d))
                         for d in sorted(os.listdir(ckpt))
                         if d.startswith("part="))
        assert slim.url.duplicated().sum() == len(pages) - 700
        rest = [c for c in slim.columns if c not in ("url", "warc_ts")]
        want = _by_url(slim.sort_values(["url", "warc_ts"] + rest)
                       .drop_duplicates("url"))
        pd.testing.assert_frame_equal(got, want)
        assert int(counts.n_pages.sum()) == 700

        single, _ = flagship.run(
            ray.data.from_pandas(pages, override_num_blocks=5), tiles=tiles)
        pd.testing.assert_frame_equal(_by_url(single.to_pandas()), got)

    def test_ties_independent_of_block_layout(self, tiles, tmp_path):
        pages = _recrawl_pages(seed=4)
        first = pages.groupby("url").warc_ts.transform("min")
        at_min = pages[pages.warc_ts == first]
        tied = at_min[at_min.url.duplicated(keep=False)]
        assert tied.groupby("url").text.nunique().gt(1).any()
        a, ca = self._cluster(pages, tiles, str(tmp_path / "a"), blocks=2)
        b, cb = self._cluster(pages.iloc[::-1], tiles, str(tmp_path / "b"),
                              blocks=9)
        pd.testing.assert_frame_equal(a, b)
        key = ["tile_id", "lang"]
        pd.testing.assert_frame_equal(
            ca.sort_values(key).reset_index(drop=True),
            cb.sort_values(key).reset_index(drop=True))

    def test_resumes_a_checkpoint_written_outside_run(self, tiles, tmp_path):
        """A checkpoint from a bare checkpointed_write of the slim table
        (how a traced, layer-by-layer pass writes it) resumes with every
        partition skipped and the same output."""
        from geetiles_ray.pipelines import flagship
        from geetiles_ray.sources import pages as pagesmod
        from geetiles_ray.stages import assign as assignmod

        pages = _recrawl_pages(seed=5)
        want, _ = self._cluster(pages, tiles, str(tmp_path / "ref"), blocks=4)
        ds = ray.data.from_pandas(pages, override_num_blocks=4)
        slim = assignmod.assign_pages(
            ds.map_batches(pagesmod.extract_text_batch,
                           batch_format="pyarrow"),
            tiles, concurrency=8, batch_size=8192, use_actors=False) \
            .drop_columns(["html", "text"]).materialize()
        ckpt = str(tmp_path / "ckpt")
        mf.checkpointed_write(slim, ckpt, key_col="url", n_partitions=8)
        got, _ = self._cluster(pages, tiles, ckpt, blocks=4)
        rep = flagship.run.last_checkpoint_report
        assert rep["written"] == [] and len(rep["skipped"]) == 8
        pd.testing.assert_frame_equal(got, want)


class TestFlagshipSingleModeDedup:
    def test_earliest_ties_match_pandas_oracle(self, fold_placement):
        """Single mode without a checkpoint keeps each url's earliest
        warc_ts row; rows tied there that differ in ``lang`` resolve on
        the other columns, as a full sort would."""
        from geetiles_ray.pipelines import flagship
        from geetiles_ray.sources import pages as pagesmod
        from geetiles_ray.stages import assign as assignmod

        pages = _recrawl_pages(seed=6)
        at_min = pages[pages.warc_ts
                       == pages.groupby("url").warc_ts.transform("min")]
        tied = at_min[at_min.url.duplicated(keep=False)]
        assert tied.groupby("url").lang.nunique().gt(1).any()
        tiles = flagship.build_fixture_tileset(5000.0)
        ds = ray.data.from_pandas(pages, override_num_blocks=5)
        out, counts = flagship.run(ds, tiles=tiles)
        slim = assignmod.assign_pages(
            ds.map_batches(pagesmod.extract_text_batch,
                           batch_format="pyarrow"),
            tiles, use_actors=False).drop_columns(["html", "text"]) \
            .to_pandas()
        rest = [c for c in slim.columns if c not in ("url", "warc_ts")]
        want = _by_url(slim.sort_values(["warc_ts"] + rest)
                       .drop_duplicates("url"))
        pd.testing.assert_frame_equal(_by_url(out.to_pandas()), want)
        key = ["tile_id", "lang"]
        want_counts = want.groupby(key).size().rename("n_pages") \
            .reset_index()
        pd.testing.assert_frame_equal(
            counts.to_pandas().sort_values(key).reset_index(drop=True),
            want_counts, check_dtype=False)


class TestFlagshipEmptyInput:
    @pytest.mark.parametrize("mode", ["single", "cluster"])
    def test_zero_pages(self, mode, tmp_path):
        from geetiles_ray.pipelines import flagship
        from geetiles_ray.sources import pages as pagesmod

        empty = pagesmod.generate_pages(10).filter(
            lambda r: False).materialize()
        kw = {"checkpoint_dir": str(tmp_path / "ckpt")} \
            if mode == "cluster" else {}
        out, counts = flagship.run(
            empty, tiles=flagship.build_fixture_tileset(5000.0),
            mode=mode, **kw)
        assert out.count() == 0
        assert len(counts.to_pandas()) == 0
        if mode == "cluster":
            rep = flagship.run.last_checkpoint_report
            assert rep["written"] == [] and rep["total_rows"] == 0


class TestMetrics:
    def test_stage_counters_flow_to_actor(self):
        import ray
        from geetiles_ray.pipelines import grid
        from geetiles_ray.stages import raster
        from geetiles_ray.state import metrics as mf2

        mf2.reset()
        from geetiles_ray.functions import geom as geommod
        aoi = geommod.box_ring(6.0, 49.5, 6.3, 49.8)
        tiles = grid.build_grid(aoi, 8000.0).materialize()
        n = tiles.count()
        raster.render_tiles(tiles, "worldcoverlike", pixels_hw=(20, 20),
                            concurrency=1).materialize()
        # each batch's last flush waits for delivery, so the counts are in
        # before materialize returns — no polling
        snap = mf2.snapshot()
        assert snap.get("render.worldcoverlike.rows", 0) == n
        assert snap.get("render.worldcoverlike.nodata", 0) == 0


class TestRangePartitionedWrite:
    def test_sorted_layout_and_resume(self, tmp_path):
        import glob

        import pyarrow.parquet as pq

        from geetiles_ray.state.manifest import range_partitioned_write

        import numpy as np
        rng = np.random.default_rng(17)
        import pandas as pd
        df = pd.DataFrame({"k": rng.permutation(np.arange(5000))
                           .astype("int64"),
                           "v": np.arange(5000, dtype="int64")})
        ds = ray.data.from_pandas([d for d in np.array_split(df, 6)])
        out = str(tmp_path / "ranges")
        res = range_partitioned_write(ds, out, "k", n_ranges=8)
        assert len(res["written"]) == 8 and not res["skipped"]
        # global total order: concatenated parts (in pid order) are sorted
        allk = []
        for p in sorted(glob.glob(f"{out}/part=*/data.parquet")):
            t = pq.read_table(p)
            k = t["k"].to_numpy()
            assert (np.diff(k) >= 0).all()  # sorted within partition
            allk.append(k)
        cat = np.concatenate(allk)
        assert (np.diff(cat) >= 0).all()    # sorted ACROSS partitions
        assert len(cat) == 5000
        # count balance from exact quantile cuts (uniform keys → ~equal)
        sizes = [len(a) for a in allk]
        assert max(sizes) <= 2 * min(sizes), sizes
        # resume: second run skips every partition
        res2 = range_partitioned_write(ds, out, "k", n_ranges=8)
        assert len(res2["skipped"]) == 8 and not res2["written"]
