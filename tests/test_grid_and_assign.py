"""Grid generation + page→tile assignment conformance (FIXTURES.md F3/F7)."""

import random
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from geetiles_ray.functions import geocode as geo
from geetiles_ray.pipelines import grid
from geetiles_ray.sources import pages as pagesmod
from geetiles_ray.sources import tileset as tsmod
from geetiles_ray.stages import assign as assignmod


@pytest.fixture(scope="module")
def tiles(aoi_ring):
    return grid.build_grid(aoi_ring, 5000.0).materialize()


@pytest.fixture(scope="module")
def tiles_df(tiles):
    return tiles.to_pandas().sort_values("grid_idx").reset_index(drop=True)


class TestGrid:
    def test_row_count_and_coverage(self, tiles_df, aoi_ring):
        # AOI area ~ (0.7°×0.35° + 0.4°×0.3°) ≈ 0.365 deg² ≈ 2900 km² → ~116+ 5km tiles
        assert 100 < len(tiles_df) < 160
        assert tiles_df.identifier.is_unique

    def test_deterministic_rerun(self, tiles_df, aoi_ring):
        again = grid.build_grid(aoi_ring, 5000.0).to_pandas() \
            .sort_values("grid_idx").reset_index(drop=True)
        assert list(again.identifier) == list(tiles_df.identifier)

    def test_area_km2(self, tiles_df):
        # side = (m-1) meters expressed in degrees → area ≈ 24.99 km² ± projection scale
        assert tiles_df.area_km2.between(24.9, 25.1).all()

    def test_tiles_inside_or_touching_aoi(self, tiles_df, aoi_ring):
        from geetiles_ray.functions import geom
        for _, r in tiles_df.sample(20, random_state=0).iterrows():
            assert geom.box_clip_area(aoi_ring, r.minx, r.miny, r.maxx, r.maxy) > 0 or \
                geom.points_in_ring(np.array([r.clon]), np.array([r.clat]), aoi_ring)[0]

    def test_constant_latlon_sides(self, tiles_df):
        # north-rule / GEE requirement the reference documents (cmds.py:308-310):
        # tile sides have constant lat and lon
        from geetiles_ray.functions import geom
        import pyarrow  # noqa: F401
        ring = geom.wkb_to_ring(tiles_df.wkb.iloc[0])
        assert len(np.unique(ring[:, 0])) == 2 and len(np.unique(ring[:, 1])) == 2

    def test_save_load_hash_naming(self, tiles, tmp_path):
        out = tsmod.save_tileset(tiles, str(tmp_path), "lux", "aschips")
        assert "lux_partitions_aschips_" in out
        h = out.rsplit("_", 1)[1]
        assert len(h) == 13
        loaded = tsmod.load_tileset(out)
        assert loaded.count() == tiles.count()
        aoi, name = tsmod.tileset_name_parts(out)
        assert (aoi, name) == ("lux", "aschips")

    def test_name_validation(self, tiles, tmp_path):
        with pytest.raises(ValueError):
            tsmod.save_tileset(tiles, str(tmp_path), "lux", "bad_name")
        with pytest.raises(ValueError):
            tsmod.save_tileset(tiles, str(tmp_path), "lux", "mypartitionsx")

    def test_geojson_roundtrip(self, tiles, tmp_path):
        p = tsmod.export_geojson(tiles, str(tmp_path / "t.geojson"))
        back = tsmod.import_geojson(p)
        a = sorted(tiles.to_pandas().identifier)
        b = sorted(back.to_pandas().identifier)
        assert a == b  # identifiers re-derived from geometry → bit-stable round trip

    def test_expand_map_columns_matches_pandas(self):
        # the reference's dict-column expansion: one {col}__{key} column
        # per key seen anywhere, in sorted key order, a missing key 0.0
        maps = [{"water": 0.25, "crop": 0.75}, None, {"urban": 1.0}, {}]
        t = pa.table({
            "identifier": ["a", "b", "c", "d"],
            "lc_proportions": pa.array(
                [list(m.items()) if m is not None else None for m in maps],
                type=pa.map_(pa.string(), pa.float64())),
            "n": [1, 2, 3, 4]})
        got = tsmod.expand_map_columns(ray.data.from_arrow(
            [t.slice(0, 2), t.slice(2)])).to_pandas()
        df = t.to_pandas()
        wide = pd.DataFrame([m or {} for m in maps])
        wide = wide[sorted(wide.columns)].fillna(0.0) \
            .add_prefix("lc_proportions__")
        want = pd.concat([df, wide], axis=1)
        pd.testing.assert_frame_equal(
            got.drop(columns=["lc_proportions"]),
            want.drop(columns=["lc_proportions"]))
        assert got.columns.tolist() == want.columns.tolist()

    def test_geojson_multipolygon_flattened(self, tmp_path):
        # MultiPolygon features explode into one row per part (reference
        # utils.flatten_geom), never dropping secondary parts
        import json
        fc = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {},
             "geometry": {"type": "MultiPolygon", "coordinates": [
                 [[[6.0, 49.5], [6.1, 49.5], [6.1, 49.6], [6.0, 49.6],
                   [6.0, 49.5]]],
                 [[[6.2, 49.5], [6.3, 49.5], [6.3, 49.6], [6.2, 49.6],
                   [6.2, 49.5]]],
             ]}},
            {"type": "Feature", "properties": {},
             "geometry": {"type": "Polygon", "coordinates": [
                 [[6.4, 49.5], [6.5, 49.5], [6.5, 49.6], [6.4, 49.6],
                  [6.4, 49.5]]]}},
        ]}
        p = tmp_path / "multi.geojson"
        p.write_text(json.dumps(fc))
        back = tsmod.import_geojson(str(p)).to_pandas()
        assert len(back) == 3  # 2 parts + 1 simple polygon
        assert back.minx.round(1).tolist() == [6.0, 6.2, 6.4]

    def test_utm_clipped_grid(self, aoi_ring):
        ds = grid.build_grid_utm_clipped(aoi_ring, 20000.0).materialize()
        df = ds.to_pandas()
        assert len(df) > 4
        # clipped tiles sum to ~the AOI area
        from geetiles_ray.functions import crs as crsmod, geom
        cx, cy = geom.ring_centroid(aoi_ring)
        zone, north = crsmod.utm_zone(cx, cy)
        e, n = crsmod.lonlat_to_utm(aoi_ring[:, 0], aoi_ring[:, 1], zone, north)
        aoi_km2 = geom.shoelace_area(np.column_stack([e, n])) / 1e6
        assert df.area_km2.sum() == pytest.approx(aoi_km2, rel=0.02)

    def test_random_partitions_seeded(self, aoi_ring):
        a = grid.make_random_partitions(aoi_ring, 20000.0, seed=7).to_pandas()
        b = grid.make_random_partitions(aoi_ring, 20000.0, seed=7).to_pandas()
        c = grid.make_random_partitions(aoi_ring, 20000.0, seed=8).to_pandas()
        assert list(a.identifier) == list(b.identifier)
        assert list(a.identifier) != list(c.identifier)
        assert (a.area_km2 <= 20.0**2 * 1.5).all()

    def test_select_intersecting(self, tiles, aoi_ring):
        sub_aoi = np.array([[5.9, 49.5], [6.1, 49.5], [6.1, 49.7], [5.9, 49.7], [5.9, 49.5]])
        sel = grid.select_intersecting(tiles, sub_aoi).to_pandas()
        full = tiles.to_pandas()
        assert 0 < len(sel) < len(full)
        # every selected tile's bbox overlaps the sub AOI
        assert ((sel.minx <= 6.1) & (sel.maxx >= 5.9)
                & (sel.miny <= 49.7) & (sel.maxy >= 49.5)).all()


class TestFixtureTilesetGolden:
    """The fixture tilesets as built before the array-at-a-time grid build:
    tileset hash and row count, one sha256 over the grid_idx-sorted
    identifier, wkb, bounds, centre and cell_id columns, and area_km2
    within rtol=1e-12."""

    GOLDEN = {
        5000.0: ("07796fdfc6d73", 211,
                 "44c34a9c1149438a034ab9e486f0651af4801411a2cae1f98986ab2c45ab35c4"),
        1000.0: ("2fb437ed9af63", 5205,
                 "2bd5f4260f48b856f0915c9defbaa9c3eac841dab1d254b33c22f01bf62bdd7a"),
    }

    @pytest.mark.parametrize("chip_m", [5000.0, 1000.0])
    def test_fixture_tileset_unchanged(self, chip_m):
        import hashlib
        import os

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray

        from geetiles_ray.pipelines import flagship

        ds = flagship.build_fixture_tileset(chip_m)
        t = pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("grid_idx")
        h = hashlib.sha256()
        h.update("\n".join(t["identifier"].to_pylist()).encode())
        h.update(b"".join(t["wkb"].to_pylist()))
        for c in ["minx", "miny", "maxx", "maxy", "clon", "clat"]:
            h.update(t[c].to_numpy().astype("<f8").tobytes())
        h.update(t["cell_id"].to_numpy().astype("<u8").tobytes())
        assert (tsmod.tileset_hash(ds), t.num_rows, h.hexdigest()) == self.GOLDEN[chip_m]
        gold = pq.read_table(os.path.join(
            os.path.dirname(__file__), "golden", "fixture_tileset_area_km2.parquet"))
        want = gold.filter(pc.equal(gold["chip_m"], chip_m))["area_km2"]
        np.testing.assert_allclose(t["area_km2"].to_numpy(), want.to_numpy(), rtol=1e-12)


class TestAssign:
    @pytest.fixture(scope="class")
    def assigned(self, tiles):
        pages = pagesmod.generate_pages(5000)
        return assignmod.assign_pages(pages, tiles, concurrency=2).to_pandas()

    def test_every_page_exactly_one_tile(self, assigned):
        assert (assigned.tile_id != "").all()
        assert len(assigned) == 5000

    def test_oracle_brute_force(self, assigned, tiles_df):
        t = tiles_df
        for _, r in assigned.sample(300, random_state=1).iterrows():
            inside = t[(t.minx <= r.lon) & (t.maxx >= r.lon)
                       & (t.miny <= r.lat) & (t.maxy >= r.lat)]
            if len(inside):
                d2 = (inside.clon - r.lon) ** 2 + (inside.clat - r.lat) ** 2
                expect = inside.identifier.iloc[int(np.argmin(d2.values))]
            else:
                d2 = (t.clon - r.lon) ** 2 + (t.clat - r.lat) ** 2
                expect = t.identifier.iloc[int(np.argmin(d2.values))]
            assert expect == r.tile_id

    def test_stable_across_parallelism(self, assigned, tiles):
        pages = pagesmod.generate_pages(5000, override_num_blocks=7)
        again = assignmod.assign_pages(pages, tiles, concurrency=1, batch_size=911) \
            .to_pandas().sort_values(["url", "warc_ts"]).reset_index(drop=True)
        ref = assigned.sort_values(["url", "warc_ts"]).reset_index(drop=True)
        assert (again.tile_id == ref.tile_id).all()

    def test_cell_join_path_matches_broadcast(self, assigned, tiles):
        import ray.data
        uniq = assigned.drop_duplicates("url")
        geop = ray.data.from_pandas(uniq[["url", "lon", "lat"]])
        cj = assignmod.assign_by_cell_join(geop, tiles, res=8, salt=2).to_pandas()
        merged = uniq.merge(cj, on="url", suffixes=("", "_cj"))
        assert len(merged) == len(uniq)
        assert (merged.tile_id == merged.tile_id_cj).mean() > 0.999

    def test_knn(self, tiles, tiles_df):
        pages = pagesmod.generate_pages(200)
        out = assignmod.assign_pages(pages, tiles, concurrency=1, knn_k=3).to_pandas()
        assert out.knn_3.map(len).eq(3).all()
        r = out.iloc[17]
        d2 = ((tiles_df.clon - r.lon) ** 2 + (tiles_df.clat - r.lat) ** 2).values
        expect = list(tiles_df.identifier.values[np.argsort(d2, kind="stable")[:3]])
        assert list(r.knn_3) == expect

    def test_knn_ring_matches_brute(self, tiles):
        # the scale path (expanding bucket-ring) must reproduce the brute
        # oracle exactly — fixture tileset + mixed in/out-of-grid queries
        from geetiles_ray.stages.assign import TileIndex, broadcast_tileset
        import ray

        arrays = ray.get(broadcast_tileset(tiles))
        ix = TileIndex(**{k: arrays[k] for k in
                          ["minx", "miny", "maxx", "maxy", "identifier",
                           "clon", "clat"]})
        rng = np.random.default_rng(7)
        qx = rng.uniform(arrays["minx"].min() - 0.5,
                         arrays["maxx"].max() + 0.5, 400)
        qy = rng.uniform(arrays["miny"].min() - 0.5,
                         arrays["maxy"].max() + 0.5, 400)
        for k in (1, 3, 10):
            ring = ix.knn(qx, qy, k, method="ring")
            brute = ix.knn(qx, qy, k, method="brute")
            assert (ring == brute).all(), k
        # k larger than the tileset: both return every tile
        nt = len(arrays["clon"])
        ring = ix.knn(qx[:5], qy[:5], nt + 10, method="ring")
        brute = ix.knn(qx[:5], qy[:5], nt + 10, method="brute")
        assert ring.shape == (5, nt) and (ring == brute).all()

    def test_knn_ring_matches_brute_large_grid(self):
        # 100×100 synthetic grid (10^4 tiles > auto threshold) with queries
        # far outside the grid, on corners, and interior
        from geetiles_ray.stages.assign import TileIndex

        g = np.arange(100, dtype=np.float64)
        gx, gy = np.meshgrid(g, g)
        minx, miny = gx.ravel(), gy.ravel()
        maxx, maxy = minx + 0.9, miny + 0.9
        ids = np.array([f"t{i:05d}" for i in range(len(minx))], dtype=object)
        ix = TileIndex(minx, miny, maxx, maxy, ids,
                       (minx + maxx) / 2, (miny + maxy) / 2)
        rng = np.random.default_rng(11)
        qx = np.concatenate([rng.uniform(-5, 105, 200),
                             np.array([-500.0, 500.0, 50.0, -3.0])])
        qy = np.concatenate([rng.uniform(-5, 105, 200),
                             np.array([50.0, -500.0, 700.0, -3.0])])
        for k in (1, 5):
            ring = ix.knn(qx, qy, k, method="ring")
            brute = ix.knn(qx, qy, k, method="brute")
            assert (ring == brute).all(), k

    def test_hot_cell_skew_exists(self, assigned):
        # fixture guarantees dense cells (FIXTURES.md F1): top-2 cells ≥ 30%
        counts = assigned.cell_id.value_counts()
        assert counts.iloc[:2].sum() / len(assigned) > 0.15

    def test_far_outside_point_gets_global_nearest(self):
        # Sparse tileset whose clipped-border bucket holds a NON-nearest
        # tile: a point far outside the grid must still get the globally
        # nearest center (the ring scan's termination bound is unreachable
        # there; regression for the brute-force outside path).
        minx = np.array([5.0, 4.9])
        maxx = np.array([6.0, 5.9])
        miny = np.array([0.0, 1.2])
        maxy = np.array([1.0, 2.2])
        ids = np.array(["A", "B"], dtype=object)
        clon = (minx + maxx) / 2
        clat = (miny + maxy) / 2
        ix = assignmod.TileIndex(minx, miny, maxx, maxy, ids, clon, clat)
        # brute-force nearest for each query point
        for qx, qy in [(1000.0, 1.6), (-1000.0, 0.2), (5.5, 1e6), (1e6, -1e6)]:
            d2 = (clon - qx) ** 2 + (clat - qy) ** 2
            expect = ids[int(np.argmin(d2))]
            got_idx, got_contained = ix.assign(np.array([qx]), np.array([qy]))
            assert not got_contained[0]
            assert ids[got_idx[0]] == expect, (qx, qy)


class TestPagesFixture:
    def test_text_byte_identical_per_url(self):
        df = pagesmod.generate_pages(2000).to_pandas()
        for _, r in df.sample(100, random_state=0).iterrows():
            assert r.text == pagesmod.expected_text(r.url)
        # duplicate urls carry identical text
        dups = df[df.url.duplicated(keep=False)]
        assert len(dups) > 0
        assert dups.groupby("url").text.nunique().eq(1).all()

    def test_extract_text_inverse(self):
        ds = pagesmod.generate_pages(500).map_batches(
            pagesmod.extract_text_batch, batch_format="pyarrow")
        df = ds.to_pandas()
        assert (df.text_extracted == df.text).all()

    def test_dup_rate(self):
        df = pagesmod.generate_pages(10000).to_pandas()
        dup_frac = df.url.duplicated().mean()
        assert 0.015 < dup_frac < 0.025

    def test_deterministic(self):
        a = pagesmod.generate_pages(1000, override_num_blocks=2).to_pandas()
        b = pagesmod.generate_pages(1000, override_num_blocks=13).to_pandas()
        a = a.sort_values("url").reset_index(drop=True)
        b = b.sort_values("url").reset_index(drop=True)
        assert a.equals(b)

    def test_geocode_in_aoi(self):
        df = pagesmod.generate_pages(1000).to_pandas()
        lon, lat = geo.geocode(df.url.tolist(), df.lang.to_numpy())
        assert (lon >= geo.AOI_W).all() and (lon < geo.AOI_E).all()
        assert (lat >= geo.AOI_S).all() and (lat < geo.AOI_N).all()


def _extract_by_regex(h: bytes) -> str:
    """The extraction kernel with its earlier whitespace step, one
    ``\\s+`` substitution then ``strip``; every other step is the
    kernel's own. The oracle for the ``str.split`` normalization."""
    lo = h.find(b"<body")
    lo = h.find(b">", lo) + 1 if lo >= 0 else 0
    hi = h.rfind(b"</body>")
    if hi < 0:
        hi = len(h)
    body = h[lo:hi]
    if b"<" in body or b"&" in body:
        body = pagesmod._SCRIPT_STYLE_RE.sub(b" ", body)
        body = pagesmod._COMMENT_RE.sub(b" ", body)
        body = pagesmod._TAG_RE.sub(b" ", body)
        s = pagesmod._decode_entities(body.decode("utf-8", errors="replace"))
        return re.sub(r"\s+", " ", s).strip()
    return body.decode("utf-8", errors="replace")


# fuzz pieces: words, every kind of whitespace (ASCII, C0/C1, Unicode
# spaces, and the look-alikes U+200B/U+FEFF that are not whitespace),
# markup that opens and closes each pass, entities and broken UTF-8
_FUZZ_PIECES = [
    b"w", b"tile", b"caf\xc3\xa9", b" ", b"\t", b"\n", b"\r\n", b"\x0b",
    b"\x0c", b"\x1c", b"\x1f", b"\x85", b"\xc2\x85", b"\xc2\xa0",
    b"\xe2\x80\x80", b"\xe2\x80\x8a", b"\xe2\x80\x8b", b"\xe2\x80\xa8",
    b"\xe2\x80\xa9", b"\xe2\x80\xaf", b"\xe2\x81\x9f", b"\xe3\x80\x80",
    b"\xef\xbb\xbf", b"<p>", b"</p>", b"<br/>", b"<", b">", b"&", b"&amp;",
    b"&nbsp;", b"&#10;", b"&#x3000;", b"&#133;", b"&#xA0;", b"&#9999999;",
    b"<script>", b"</script>", b"<SCRIPT type=x>", b"</ScRiPt >",
    b"<style>", b"</style>", b"<noscript>", b"</noscript>", b"<!--",
    b"-->", b"<body>", b"<body class=x>", b"</body>", b"\xff", b"\xe3\x80",
]


class TestExtractor:
    def test_messy_html(self):
        from geetiles_ray.sources.pages import extract_text
        h = (b"<html><head><title>t</title><style>p{color:red}</style></head>"
             b"<body class='x'><script>var a=1;</script><!-- c -->"
             b"<h1>Hello &amp; welcome</h1>\n\n<p>line   one</p>"
             b"<p>caf&#233; &#x41;</p></body></html>")
        assert extract_text(h) == "Hello & welcome line one café A"

    def test_no_body_tag(self):
        from geetiles_ray.sources.pages import extract_text
        assert extract_text(b"plain words only") == "plain words only"

    def test_nested_script_not_greedy(self):
        from geetiles_ray.sources.pages import extract_text
        h = b"<body><script>x</script>keep<script>y</script>also</body>"
        assert extract_text(h) == "keep also"

    def test_out_of_range_code_point_is_replacement_char(self):
        from geetiles_ray.sources.pages import extract_text
        assert extract_text(b"<body>a &#9999999; b</body>") == "a � b"

    def test_surrogate_code_point_is_replacement_char(self):
        import pyarrow as pa

        from geetiles_ray.sources.pages import extract_text_batch
        batch = pa.table({"html": pa.array(
            [b"<body>x &#xD800; &#55296; y</body>", b"<p>caf&#233;</p>"])})
        out = extract_text_batch(batch)["text_extracted"].to_pylist()
        assert out == ["x � � y", "café"]

    # extract_text normalizes whitespace with str.split; the tests below
    # check it gives exactly what the regex substitution gave

    def test_every_code_point_between_two_words(self):
        from geetiles_ray.sources.pages import extract_text
        cps = [c for c in range(0x110000) if chr(c) not in "<&"]
        for i in range(0, len(cps), 512):
            chunk = [chr(c) for c in cps[i:i + 512]]
            h = ("<body><p>" + " ".join(f"a{c}b" for c in chunk)
                 + "</p></body>").encode("utf-8", "surrogatepass")
            got = extract_text(h)
            assert got == _extract_by_regex(h), hex(cps[i])
            if not any(0xD800 <= ord(c) <= 0xDFFF for c in chunk):
                assert got == " ".join(
                    "a b" if c.isspace() else f"a{c}b" for c in chunk)
        for c in (b"<", b"&"):
            h = b"<body><p>a" + c + b"b</p></body>"
            assert extract_text(h) == _extract_by_regex(h)

    @pytest.mark.parametrize("h", [
        b"<body>a&nbsp;b&#10;c&#x3000;d&#133;e</body>",
        b"<body>&nbsp;&#10; a &#x3000;&#133;</body>",
        b"<body>&#xA0;x&#x200B;y&#xFEFF;&#x2028;</body>",
        b"<body>&#133;&#133;</body>",
    ])
    def test_entities_that_decode_to_whitespace(self, h):
        from geetiles_ray.sources.pages import extract_text
        assert extract_text(h) == _extract_by_regex(h)

    def test_entity_whitespace_collapses(self):
        from geetiles_ray.sources.pages import extract_text
        assert extract_text(
            b"<body>a&nbsp;b&#10;c&#x3000;d&#133;e</body>") == "a b c d e"

    @pytest.mark.parametrize("h", [
        b"<body>a<SCRIPT>x</SCRIPT>b<ScRiPt src=1>y</sCrIpT >c</body>",
        b"<body>keep<!-- <script> -->this<script>y</script>too</body>",
        b"<body>a<!-- </script> --><script>b</script>c</body>",
        b"<html><p>no body open</p>\x0b x</body> tail",
        b"<body class=x>\t no body close <p>y</p>\n",
        b"x</body> y <body>z</body>",
        b"</body><body>",
        b"<body>\xff\xfe a<p>\xe3\x80</p>\xc2 b\xc2\x85c</body>",
        b"<body>\xe3\x80\x80\xe3\x80</body>",
        b"<body>plain \xc2\x85 body, no markup\n</body>",
    ])
    def test_adversarial_html(self, h):
        from geetiles_ray.sources.pages import extract_text
        assert extract_text(h) == _extract_by_regex(h)

    def test_random_html(self):
        from geetiles_ray.sources.pages import extract_text
        rng = random.Random(20261018)
        for _ in range(4000):
            h = b"".join(rng.choices(_FUZZ_PIECES, k=rng.randint(0, 60)))
            assert extract_text(h) == _extract_by_regex(h), h
