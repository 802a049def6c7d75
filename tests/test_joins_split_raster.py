"""J1/J2 joins, band splits, raster render/proportions/mosaic/export."""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import zipfile

import pandas as pd
import numpy as np
import pyarrow as pa
import pytest
import ray.data

from geetiles_ray.functions import geom, tiff, valuemaps
from geetiles_ray.pipelines import grid
from geetiles_ray.pipelines import split as splitmod
from geetiles_ray.plugins import ElevationLike, WorldCoverLike, load_plugin
from geetiles_ray.stages import joins, raster


@pytest.fixture(scope="module")
def tiles(aoi_ring):
    return grid.build_grid(aoi_ring, 5000.0).materialize()


@pytest.fixture(scope="module")
def foreign(aoi_ring):
    return grid.make_random_partitions(aoi_ring, 30000.0, seed=3).materialize()


class TestForeignJoins:
    def test_j1_matches_brute_force(self, tiles, foreign):
        j1 = joins.add_foreign_partition(tiles, foreign,
                                         "communes").to_pandas()
        fdf = foreign.to_pandas()
        frings = {r.identifier: geom.wkb_to_ring(r.wkb) for _, r in fdf.iterrows()}
        for _, r in j1.sample(30, random_state=0).iterrows():
            best, barea = "-1", 0.0
            for fid, ring in frings.items():
                a = geom.box_clip_area(ring, r.minx, r.miny, r.maxx, r.maxy)
                if a > barea:
                    best, barea = fid, a
            assert best == r.foreignid_communes

    def test_j1_no_intersection_gives_minus_one(self, tiles):
        far = grid.make_random_partitions(
            np.array([[10.0, 45.0], [10.5, 45.0], [10.5, 45.5],
                      [10.0, 45.5], [10.0, 45.0]]), 30000.0, seed=1).materialize()
        j1 = joins.add_foreign_partition(tiles, far, "far").to_pandas()
        assert (j1.foreignid_far == "-1").all()

    def test_j2_weighted_proportions(self, tiles, foreign):
        def add_props(b):
            props = [[("a", 0.25), ("b", 0.75)] if i % 2 == 0 else [("a", 1.0)]
                     for i in range(len(b))]
            return b.append_column("lp", pa.array(
                props, type=pa.map_(pa.string(), pa.float64())))

        f2 = foreign.map_batches(add_props, batch_format="pyarrow").materialize()
        j2 = joins.add_foreign_proportions(tiles, f2, "communes",
                                           "lp").to_pandas()
        sums = j2.lp_at_communes.map(
            lambda m: sum(v for _, v in m) if m else None).dropna()
        assert np.allclose(sums, 1.0)
        # hand-computed micro case: one tile, two foreign boxes
        t = ray.data.from_arrow(_tileset_of_boxes([(0.0, 0.0, 1.0, 1.0)]))
        f = ray.data.from_arrow(_tileset_of_boxes(
            [(-1.0, -1.0, 0.5, 2.0), (0.5, -1.0, 2.0, 2.0)]))
        f = f.map_batches(lambda b: b.append_column("lp", pa.array(
            [[("x", 1.0)], [("y", 1.0)]],
            type=pa.map_(pa.string(), pa.float64()))), batch_format="pyarrow")
        out = joins.add_foreign_proportions(t, f, "f", "lp").to_pandas()
        got = dict(out.lp_at_f.iloc[0])
        assert got == pytest.approx({"x": 0.5, "y": 0.5})

    def test_semi_anti_join(self, tiles):
        ids = pa.table({"identifier": tiles.to_pandas().identifier.iloc[:5]})
        semi = joins.broadcast_lookup(tiles, ids, "identifier",
                                      how="semi").to_pandas()
        anti = joins.broadcast_lookup(tiles, ids, "identifier",
                                      how="anti").to_pandas()
        assert sorted(semi.identifier) == sorted(ids["identifier"].to_pylist())
        assert len(anti) == tiles.count() - 5
        assert list(semi.columns) == tiles.schema().names


def _rows(df: pd.DataFrame, cols: list[str]) -> list[str]:
    """Sorted rows, every null as None and every number as int."""
    def norm(v):
        return None if pd.isna(v) else int(v) if isinstance(
            v, (float, np.floating, np.integer)) else v
    return sorted(repr(tuple(map(norm, r)))
                  for r in df[cols].itertuples(index=False))


class TestBroadcastLookup:
    # probe: int32 key with nulls, a key missing from the dim, an empty
    # block, a block whose all-null key is null-typed; dim: int64 key with
    # a null key (which must match nothing)
    PROBE = [pd.DataFrame({"k": pd.array([1, 2, None, 4, 7], dtype="Int32"),
                           "v": list("abcde")}),
             pd.DataFrame({"k": pd.array([], dtype="Int32"), "v": []}),
             pd.DataFrame({"k": pd.array([4, None, 9], dtype="Int32"),
                           "v": list("fgh")}),
             pd.DataFrame({"k": pd.array([None, None], dtype="Int32"),
                           "v": list("ij")})]
    DIM = pd.DataFrame({"dk": pd.array([4, 1, 5, None], dtype="Int64"),
                        "name": ["four", "one", "five", "null-key"],
                        "w": pd.array([40, 10, 50, 0], dtype="Int64")})

    def _probe(self):
        typed = pa.schema([("k", pa.int32()), ("v", pa.string())])
        return ray.data.from_arrow(
            [pa.Table.from_pandas(df, preserve_index=False).cast(typed)
             for df in self.PROBE[:-1]]
            + [pa.table({"k": pa.nulls(2), "v": self.PROBE[-1].v})])

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_matches_pandas_oracle(self, how):
        probe = pd.concat(self.PROBE, ignore_index=True)
        dim = self.DIM[self.DIM.dk.notna()]  # SQL: a null key never matches
        if how in ("inner", "left"):
            exp = probe.merge(dim, left_on="k", right_on="dk", how=how)
            cols = ["k", "v", "name", "w"]
        else:
            hit = probe.k.isin(dim.dk).fillna(False).astype(bool)
            exp, cols = probe[hit if how == "semi" else ~hit], ["k", "v"]
        dim_tbl = pa.Table.from_pandas(self.DIM, preserve_index=False)
        assert dim_tbl.schema.field("dk").type == pa.int64()
        got = joins.broadcast_lookup(self._probe(), dim_tbl, "k", "dk",
                                     how=how).to_pandas()
        assert list(got.columns) == cols
        assert _rows(got, cols) == _rows(exp, cols)

    def test_left_keeps_missing_keys_as_null(self):
        got = joins.broadcast_lookup(self._probe(), self.DIM, "k", "dk",
                                     cols=["name"], how="left").to_pandas()
        by_v = dict(zip(got.v, got.name))
        assert by_v["b"] is None and by_v["e"] is None   # 2, 7: not in dim
        assert by_v["c"] is None and by_v["g"] is None   # null probe key
        assert by_v["a"] == "one" and by_v["d"] == by_v["f"] == "four"

    def test_duplicate_dim_key_raises(self):
        dim = pa.table({"dk": [1, 2, 1], "name": ["a", "b", "c"]})
        with pytest.raises(ValueError, match="duplicate"):
            joins.broadcast_lookup(self._probe(), dim, "k", "dk")


def test_hash_join_matches_pandas_merge():
    """Inner join with differently named keys, an int32 left key against an
    int64 right key, null keys on both sides, a key repeated on both sides
    and an empty block."""
    left = ray.data.from_arrow([
        pa.table({"lk": pa.array([1, 2, None, 4, 4], pa.int32()),
                  "v": list("abcde")}),
        pa.table({"lk": pa.array([], pa.int32()), "v": pa.array([], pa.string())}),
        pa.table({"lk": pa.array([7, None, 1], pa.int32()), "v": list("fgh")})])
    right = pd.DataFrame({"rk": pd.array([4, 1, 4, None, 9], dtype="Int64"),
                          "w": [40, 10, 41, 0, 90]})
    got = joins.hash_join(left, ray.data.from_pandas(right), "lk",
                          "rk").to_pandas()
    exp = left.to_pandas().dropna().merge(right.dropna(), left_on="lk",
                                          right_on="rk")
    assert sorted(got.columns) == ["lk", "v", "w"]
    assert _rows(got, ["lk", "v", "w"]) == _rows(exp, ["lk", "v", "w"])
    assert len(got) == 6   # a and h: 1 match each, d and e: 2 each


def test_hash_join_finishes_at_one_cpu():
    """range(2000) joined to a mapped copy of itself in a fresh 1-CPU Ray
    session: the upstream map task holds the only CPU, so no stage of the
    join may wait for a CPU of its own (Ray's ``Dataset.join`` did)."""
    code = textwrap.dedent("""
        import ray, ray.data
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        from geetiles_ray.stages import joins
        r = ray.data.range(2000)
        out = joins.hash_join(r, r.map_batches(lambda b: {"id": b["id"],
                                                          "x": b["id"] * 2}),
                              "id").to_pandas()
        assert sorted(out["id"]) == list(range(2000)), len(out)
        assert (out["x"] == out["id"] * 2).all()
        ray.shutdown()
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": root}
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the child's Ray daemons too
        proc.communicate()
        pytest.fail("hash_join did not finish at num_cpus=1 within 60 s")
    assert proc.returncode == 0, out[-3000:]


def _tileset_of_boxes(boxes):
    from geetiles_ray.sources.tileset import tile_batch_from_rings
    rings = [geom.box_ring(*b) for b in boxes]
    return tile_batch_from_rings(rings, np.arange(len(rings)), 31, True, 8)


class TestSplit:
    def test_split_pcts_and_determinism(self, tiles):
        out = splitmod.split(tiles, nbands=8, angle=0.0,
                             train_pct=0.5, test_pct=0.3, val_pct=0.2).to_pandas()
        frac = out.split.value_counts(normalize=True)
        assert set(out.split.unique()) <= {"train", "test", "val"}
        assert frac["train"] > frac["val"]
        again = splitmod.split(tiles, nbands=8, angle=0.0,
                               train_pct=0.5, test_pct=0.3, val_pct=0.2).to_pandas()
        a = out.sort_values("identifier").split.tolist()
        b = again.sort_values("identifier").split.tolist()
        assert a == b

    def test_split_bands_are_spatial(self, tiles):
        out = splitmod.split(tiles, nbands=8, angle=0.0,
                             train_pct=0.5, test_pct=0.3, val_pct=0.2).to_pandas()
        # angle 0 → bands along latitude: same-split tiles cluster in lat
        by_lat = out.sort_values("clat")
        changes = (by_lat.split != by_lat.split.shift()).sum()
        assert changes <= 12  # ~nbands transitions, not random noise

    def test_reference_band_algorithm_golden(self):
        # 3x1 toy: centroids at y = 0, 0.5, 1 → 3 bands at angle 0
        ex = np.array([0.0, 0.0, 0.0])
        ey = np.array([0.0, 0.5, 1.0])
        band = splitmod.compute_band_ids(ex, ey, nbands=3, angle=0.0)
        assert len(np.unique(band)) == 3
        assert (np.argsort(band) == np.array([0, 1, 2])).all()

    def test_invalid_args(self, tiles):
        with pytest.raises(ValueError):
            splitmod.split(tiles, 8, 2.0, 0.5, 0.3, 0.2)
        with pytest.raises(ValueError):
            splitmod.split(tiles, 8, 0.0, 0.5, 0.4, 0.2)
        with pytest.raises(ValueError):
            splitmod.compute_band_ids(np.zeros(3), np.arange(3.0), 3, 2.0)

    def test_split_per_partitions_constant_within_group(self, tiles, foreign):
        j1 = joins.add_foreign_partition(tiles, foreign,
                                         "communes").materialize()
        out = splitmod.split_per_partitions(j1, 8, 0.0, 0.5, 0.3, 0.2,
                                            "communes").to_pandas()
        per_group = out.groupby("foreignid_communes").split_communes.nunique()
        assert (per_group == 1).all()

    def test_save_splits_csv(self, tiles, tmp_path):
        out = splitmod.split(tiles, 8, 0.0, 0.5, 0.3, 0.2)
        p = splitmod.save_splits(out, str(tmp_path / "splits.csv"))
        import pandas as pd
        df = pd.read_csv(p)
        assert set(df.columns) == {"identifier", "split"}
        assert len(df) == tiles.count()


class TestValueMaps:
    def test_value_map_dict(self):
        a = np.array([0, 10, 20, 10, 99])
        out = valuemaps.apply_value_map(a, {0: 0, 10: 1, 20: 2})
        assert out.tolist() == [0, 1, 2, 1, 0]  # unmapped 99 → init 0

    def test_value_map_list(self):
        a = np.array([0, 1, 2, 3])
        out = valuemaps.apply_value_map(a, [1, 2, 3])
        # list → sorted + prepend 0 → positional map {0:0,1:1,2:2,3:3}
        assert out.tolist() == [0, 1, 2, 3]

    def test_value_map_validation(self):
        with pytest.raises(ValueError):
            valuemaps.apply_value_map(np.zeros(3), ["a"])
        with pytest.raises(ValueError):
            valuemaps.apply_value_map(np.zeros(3), {1.5: 2})

    def test_range_map(self):
        a = np.array([1.0, 5.0, 7.0, 10.0, 12.0, 100.0])
        out = valuemaps.apply_range_map(a, [5, 10, 12])
        assert out.tolist() == [0, 1, 1, 2, 3, 3]
        with pytest.raises(ValueError):
            valuemaps.apply_range_map(a, [5, 5, 12])

    def test_binary_mask_full_box(self):
        m = valuemaps.binary_mask(geom.box_ring(0, 0, 1, 1), (10, 10))
        assert m.sum() == 100  # rectangle covers all pixel centers

    def test_binary_mask_triangle(self):
        tri = np.array([[0, 0], [1, 0], [0, 1], [0, 0]], float)
        m = valuemaps.binary_mask(tri, (50, 50))
        assert 0.45 < m.mean() < 0.55  # half the area


class TestRaster:
    @pytest.fixture(scope="class")
    def rasters(self, tiles):
        return raster.render_tiles(tiles, "worldcoverlike", pixels_hw=(50, 50),
                                   concurrency=2).materialize()

    def test_render_deterministic(self, rasters, tiles):
        again = raster.render_tiles(tiles, WorldCoverLike(), pixels_hw=(50, 50),
                                    concurrency=1).to_pandas()
        a = rasters.to_pandas().sort_values("identifier").reset_index(drop=True)
        b = again.sort_values("identifier").reset_index(drop=True)
        assert (a.pixels == b.pixels).all()
        assert a.dtype.eq("uint8").all()

    def test_proportions_sum_to_one(self, rasters, tiles):
        props = raster.compute_proportions(rasters, tiles,
                                           "worldcoverlike").to_pandas()
        sums = props.iloc[:, 1].map(lambda m: sum(v for _, v in m))
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_proportions_closed_form(self, tiles):
        """Elevation plugin on one tile: gradient 0..300 over x + small y term
        → range map [10,50,200] has known class fractions."""
        one = ray.data.from_arrow(_tileset_of_boxes([(0.0, 0.0, 1.0, 1.0)]))
        r = raster.render_tiles(one, ElevationLike(), pixels_hw=(100, 100),
                                concurrency=1).materialize()
        props = raster.compute_proportions(r, one,
                                           ElevationLike()).to_pandas()
        got = dict(props.iloc[0, 1])
        assert abs(sum(got.values()) - 1.0) < 1e-9
        assert set(got) <= {"1", "2", "3", "4"}

    def test_geotiff_layout_roundtrip(self, rasters, tiles, tmp_path):
        n = raster.write_geotiff_layout(rasters, tiles, str(tmp_path), "wc")
        assert n == rasters.count()
        files = os.listdir(tmp_path / "wc")
        assert len(files) == n
        back = raster.read_geotiff_layout(str(tmp_path / "wc")).to_pandas()
        orig = rasters.to_pandas().sort_values("identifier").reset_index(drop=True)
        back = back.sort_values("identifier").reset_index(drop=True)
        assert (back.pixels == orig.pixels).all()
        # resume: second write skips everything
        n2 = raster.write_geotiff_layout(rasters, tiles, str(tmp_path), "wc")
        assert n2 == 0
        # must_rewrite hook (reference must_get_gee_image): a plugin can
        # veto the skip for specific tiles
        some_id = orig.identifier.iloc[0]

        class Rewriter(WorldCoverLike):
            def must_rewrite(self, identifier, path):
                return identifier == some_id

        n3 = raster.write_geotiff_layout(rasters, tiles, str(tmp_path), "wc",
                                         plugin=Rewriter())
        assert n3 == 1

    def test_validate(self, rasters):
        res = raster.validate_rasters(rasters).to_pandas()
        assert res.readable.all()

    def test_mosaic(self, rasters, tiles):
        canvas, bounds = raster.mosaic(rasters, tiles)
        assert canvas is not None and canvas.ndim == 3
        assert (canvas != 0).mean() > 0.3  # AOI interior covered

    def test_pack_and_zip_chips(self, rasters, tiles, tmp_path):
        props = raster.compute_proportions(rasters, tiles,
                                           "worldcoverlike").materialize()
        chips = raster.pack_chips(rasters, tiles, labels=props,
                                  label_col="worldcoverlike_proportions")
        zp = str(tmp_path / "chips.zip")
        n = raster.zip_chips(chips, zp)
        assert n == rasters.count()
        with zipfile.ZipFile(zp) as z:
            name = z.namelist()[0]
            chip = pickle.loads(z.read(name))
        assert chip["chip"].shape == (50, 50, 1)
        assert abs(sum(chip["label_proportions"].values()) - 1.0) < 1e-9

    def test_band_split_fetch_restitches(self):
        # S7 (gee.py:24-81): a 6-band source whose full request exceeds the
        # size cap must be fetched in band sets and restitched in band
        # order, bit-identical to the uncapped render
        from geetiles_ray.plugins import DatasetDefinition, SizeCapExceeded

        class SixBand(DatasetDefinition):
            BANDS = [f"B{i}" for i in range(6)]
            max_size = None   # None = uncapped

            def get_dataset_name(self):
                return "sixband"

            def get_band_names(self):
                return list(self.BANDS)

            def _full(self, identifier, shape):
                h, w = shape[:2]
                seed = int(identifier[:6], 16)
                rng = np.random.default_rng(seed)
                return rng.integers(0, 255, size=(h, w, 6)).astype(np.uint8)

            def render(self, identifier, ring, shape):
                arr = self._full(identifier, shape)
                if self.max_size is not None and arr.nbytes > self.max_size:
                    raise SizeCapExceeded(arr.nbytes, self.max_size)
                return arr

            def render_bands(self, identifier, ring, shape, bands):
                arr = self._full(identifier, shape)
                idx = [self.BANDS.index(b) for b in bands]
                return arr[:, :, idx]

        one = ray.data.from_arrow(_tileset_of_boxes([(0, 0, 1, 1)]))
        free = raster.render_tiles(one, SixBand(), pixels_hw=(20, 20),
                                   concurrency=1).to_pandas()
        capped = SixBand()
        # full tile = 20*20*6 = 2400 B; cap forces ≥ 3 band sets
        # (1.5x overhead factor → 600 B per padded band → 2 bands/set)
        capped.max_size = 1400
        parts = raster.render_tiles(one, capped, pixels_hw=(20, 20),
                                    concurrency=1).to_pandas()
        assert parts.pixels.iloc[0] == free.pixels.iloc[0]
        assert parts.shape_.iloc[0] if hasattr(parts, "shape_") else True
        assert list(parts.band_names.iloc[0]) == SixBand.BANDS
        assert not parts.nodata.iloc[0]

    def test_band_split_single_band_too_big_raises(self):
        from geetiles_ray.plugins import WorldCoverLike
        with pytest.raises(ValueError, match="cannot fit"):
            raster.render_byparts(WorldCoverLike(), "abc",
                                  np.zeros((5, 2)), (10, 10),
                                  total_size=1000, max_size=100)

    def test_nodata_dead_letter(self):
        class Failing(WorldCoverLike):
            def render(self, identifier, ring, shape):
                raise RuntimeError("boom")

            def on_error(self, identifier, exc):
                return "nodata"

        one = ray.data.from_arrow(_tileset_of_boxes([(0, 0, 1, 1)]))
        r = raster.render_tiles(one, Failing(), concurrency=1).to_pandas()
        assert r.nodata.all()


class TestTiffCodec:
    def test_roundtrip_dtypes(self, tmp_path):
        for dt in ["uint8", "uint16", "int16", "float32"]:
            a = (np.arange(600).reshape(10, 20, 3) % 127).astype(dt)
            p = str(tmp_path / f"t_{dt}.tif")
            tiff.write_tiff(p, a, bounds=(1, 2, 3, 4), band_names=["x", "y", "z"])
            b, bounds, names = tiff.read_tiff(p)
            assert (a == b).all()
            assert np.allclose(bounds, (1, 2, 3, 4))
            assert names == ["x", "y", "z"]


class TestBloomJoin:
    def _sides(self):
        rng = np.random.default_rng(13)
        left = pd.DataFrame({
            "identifier": rng.integers(0, 2000, 800).astype("int64"),
            "lv": np.arange(800, dtype="int64"),
        })
        # right covers only a small slice of the key space → most left rows
        # should bypass the exchange
        right = pd.DataFrame({
            "identifier": np.arange(0, 120, dtype="int64"),
            "rv": np.arange(0, 120, dtype="int64") * 10,
        })
        return left, right

    def test_parity_with_plain_join(self):
        from geetiles_ray.stages import joins
        left, right = self._sides()
        lds, rds = ray.data.from_pandas(left), ray.data.from_pandas(right)
        a = joins.join_on_identifier(lds, rds).to_pandas() \
            .sort_values(["identifier", "lv"]).reset_index(drop=True)
        b = joins.join_on_identifier_bloom(lds, rds).to_pandas() \
            .sort_values(["identifier", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a[["identifier", "lv", "rv"]].astype({"rv": "float64"}),
            b[["identifier", "lv", "rv"]].astype({"rv": "float64"}))
        # and both equal the pandas left join
        exp = left.merge(right, on="identifier", how="left") \
            .sort_values(["identifier", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            b[["identifier", "lv", "rv"]].astype({"rv": "float64"}),
            exp[["identifier", "lv", "rv"]].astype({"rv": "float64"}))

    def test_tiny_filter_false_positives_are_harmless(self):
        from geetiles_ray.stages import joins
        left, right = self._sides()
        lds, rds = ray.data.from_pandas(left), ray.data.from_pandas(right)
        # 256-bit filter → massive false-positive rate; correctness must hold
        b = joins.join_on_identifier_bloom(lds, rds, nbits=256).to_pandas() \
            .sort_values(["identifier", "lv"]).reset_index(drop=True)
        exp = left.merge(right, on="identifier", how="left") \
            .sort_values(["identifier", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            b[["identifier", "lv", "rv"]].astype({"rv": "float64"}),
            exp[["identifier", "lv", "rv"]].astype({"rv": "float64"}))

    def test_unified_int_schema_across_paths(self):
        # Merged blocks (pandas kernel) and bypass blocks (Arrow typed
        # nulls) must agree on the right int column's type — previously
        # merged blocks upcast rv to float64 while bypass said int64.
        from geetiles_ray.stages import joins
        left, right = self._sides()
        lds, rds = ray.data.from_pandas(left), ray.data.from_pandas(right)
        out = joins.join_on_identifier_bloom(lds, rds)
        types = {}
        for b in out.iter_batches(batch_format="pyarrow"):
            if len(b):
                types.setdefault(str(b.schema.field("rv").type), 0)
                types[str(b.schema.field("rv").type)] += 1
        assert set(types) == {"int64"}, types
        # matched values intact, unmatched are nulls (not NaN-float)
        df = out.to_pandas()
        hit = df[df.identifier < 120]
        assert (hit.rv.astype("int64") == hit.identifier * 10).all()

    def test_bloom_no_false_negatives(self):
        from geetiles_ray.stages import joins
        import pyarrow as pa
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 10**12, 5000).astype("int64")
        ds = ray.data.from_pandas(pd.DataFrame({"k": keys}))
        ref = joins.key_bloom(ds, "k", nbits=1 << 16)
        words = ray.get(ref)
        from geetiles_ray.functions.arrowio import key_hash
        h = key_hash(pa.table({"k": keys}), ["k"])
        assert joins.bloom_member(words, h, 1 << 16, 2).all()
        # non-member false-positive rate is bounded (~1% at this sizing)
        other = key_hash(pa.table(
            {"k": rng.integers(10**12, 2 * 10**12, 5000).astype("int64")}),
            ["k"])
        fp = joins.bloom_member(words, other, 1 << 16, 2).mean()
        assert fp < 0.1, fp
