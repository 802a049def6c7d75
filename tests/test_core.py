"""Unit tests for the pure-numpy core: hashing, CRS, geometry, cells."""

import hashlib

import numpy as np
import pytest

from geetiles_ray.functions import cells, crs, geom, hashing


class TestHashing:
    def test_reference_formula_parity(self):
        """Reproduce the reference algorithm literally (utils.py:232-240):
        str(round(envelope_coords, 5)) → sha256 → mod 10^15 → 13-hex."""
        coords = hashing.envelope_boundary_coords(5.8, 49.4, 6.6, 50.2)
        s = str(coords.round(5))
        k = int(hashlib.sha256(s.encode("utf-8")).hexdigest(), 16) % 10**15
        expect = hex(k)[2:].zfill(13)
        assert hashing.region_hash_from_bounds(5.8, 49.4, 6.6, 50.2) == expect
        assert len(expect) == 13

    def test_hash_independent_of_ring_start(self):
        r1 = geom.box_ring(0, 0, 2, 1)
        r2 = np.roll(r1[:-1], 2, axis=0)
        r2 = np.vstack([r2, r2[:1]])
        assert hashing.region_hash(r1) == hashing.region_hash(r2)

    def test_regionlist_hash_order_dependent(self):
        assert hashing.regionlist_hash(["a", "b"]) != hashing.regionlist_hash(["b", "a"])

    def test_stability_golden(self):
        # frozen goldens: a changed hash algorithm breaks tile-id parity
        assert hashing.region_hash_from_bounds(0, 0, 2, 1) == "1ba4ff2790dca"
        assert hashing.regionlist_hash(["abc", "def"]) == "05b6d02f79f62"


    EDGE_ROWS = [
        (1.0, 2.0, 3.0, 4.0), (10.0, 20.0, 100.0, 200.0),       # integers
        (0.0, 49.5, 6.5, 50.0), (-0.0, 49.5, 6.5, 50.0),        # zero, -0.0
        (-6.5, -50.25, -0.5, -49.75), (-179.99999, -89.5, -179.5, -89.25),
        (5e-5, 49.5, 6.5, 50.0), (1e-7, 49.5, 6.5, 50.0),       # |v| < 1e-4
        (1e8, 2.0, 3.0, 4.0), (99999999.999999, 1.0, 2.0, 3.0), (2.5e8, 3e8, 4e8, 5e8),
        (0.01, 80.0, 0.02, 80.5), (0.0999, 99.9, 0.1, 100.0),    # ratio > 1e3
        (0.123455, 49.000005, 1.000015, 2.5000050000000001),     # 5-decimal ties
        (4.999999, 49.999996, 5.000004, 50.000001),              # round to integers
        (float("inf"), 1.0, 2.0, 3.0), (1.0, float("-inf"), 2.0, 3.0),
        (float("nan"), 1.0, 2.0, 3.0),
    ]

    def test_bulk_matches_per_row_definition(self):
        """The bulk identifier path equals a region_hash_from_bounds loop on
        100k seeded random global bounds (widths from 1e-6 to 10 degrees,
        so rows on both sides of numpy's scientific-notation switch) and on
        rows at every edge of that switch."""
        rng = np.random.default_rng(16)
        n = 100_000
        lon, lat = rng.uniform(-180, 180, n), rng.uniform(-90, 90, n)
        w, h = 10 ** rng.uniform(-6, 1, n), 10 ** rng.uniform(-6, 1, n)
        cols = [np.concatenate([c, e]) for c, e in
                zip((lon, lat, lon + w, lat + h), zip(*self.EDGE_ROWS))]
        got = hashing.region_hashes_from_bounds_arrays(*cols)
        want = [hashing.region_hash_from_bounds(*row) for row in zip(*cols)]
        assert list(got) == want


class TestCRS:
    def test_known_anchor(self):
        # UTM zone 31 at (0E, 0N): published easting 166021.443 m
        e, n = crs.lonlat_to_utm(0.0, 0.0, 31, True)
        assert abs(e - 166021.443) < 0.01
        assert abs(n) < 1e-6

    def test_central_meridian_scale(self):
        # on the central meridian, easting = 500000 and northing ≈ k0 * arc length
        e, _ = crs.lonlat_to_utm(9.0, 45.0, 32, True)
        assert abs(e - 500000.0) < 1e-6

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        lon = rng.uniform(5.0, 8.0, 1000)
        lat = rng.uniform(-80, 84, 1000)
        e, n = crs.lonlat_to_utm(lon, lat, 31, True)
        lon2, lat2 = crs.utm_to_lonlat(e, n, 31, True)
        np.testing.assert_allclose(lon2, lon, atol=1e-11)
        np.testing.assert_allclose(lat2, lat, atol=1e-11)

    def test_southern_hemisphere(self):
        e, n = crs.lonlat_to_utm(-58.4, -34.6, 21, False)  # Buenos Aires zone 21S
        assert 0 < n < 10_000_000
        lon2, lat2 = crs.utm_to_lonlat(e, n, 21, False)
        assert abs(lon2 - -58.4) < 1e-9 and abs(lat2 - -34.6) < 1e-9

    def test_zone_lookup(self):
        assert crs.utm_epsg(6.13, 49.61) == 32632
        assert crs.utm_epsg(-58.4, -34.6) == 32721


class TestGeom:
    def test_wkb_roundtrip(self):
        r = geom.box_ring(1.5, -2.0, 3.25, 4.0)
        np.testing.assert_array_equal(geom.wkb_to_ring(geom.ring_to_wkb(r)), r)

    def test_shoelace(self):
        assert geom.shoelace_area(geom.box_ring(0, 0, 2, 3)) == 6.0

    def test_bulk_ring_codecs_match_per_ring(self):
        rng = np.random.default_rng(3)
        rings = [np.vstack([r, r[:1]]) for r in
                 (rng.uniform(3e5, 7e5, (m, 2)) for m in (3, 4, 4, 6))]
        xy = np.concatenate(rings)
        wkbs = geom.rings_to_wkb(xy, [len(r) for r in rings]).to_pylist()
        assert wkbs == [geom.ring_to_wkb(r) for r in rings]
        stack = np.stack(rings[1:3])
        assert geom.shoelace_areas(stack).tolist() == [
            geom.shoelace_area(r) for r in stack]

    def test_shoelace_exact_at_utm_offsets(self):
        """1 km rings at UTM-sized coordinates: the area agrees with the
        exact shoelace of the same float64 vertices to a few ulps, whichever
        BLAS kernel the host has (absolute x·y products of ~3e12 would
        cancel away about nine digits)."""
        from fractions import Fraction

        def exact(r):
            x = [Fraction(v) for v in r[:, 0].tolist()]
            y = [Fraction(v) for v in r[:, 1].tolist()]
            return float(abs(sum(x[i] * y[i + 1] - x[i + 1] * y[i]
                                 for i in range(len(x) - 1))) / 2)

        rng = np.random.default_rng(11)

        def ring():
            jitter = rng.uniform(-50, 50, (4, 2))
            return (geom.box_ring(0.0, 0.0, 1000.0, 1000.0)
                    + rng.uniform((4e5, 5.4e6), (6e5, 5.6e6))
                    + np.vstack([jitter, jitter[:1]]))

        stack = np.stack([ring() for _ in range(8)])
        want = [exact(r) for r in stack]
        np.testing.assert_allclose(geom.shoelace_areas(stack), want, rtol=1e-14)
        np.testing.assert_allclose([geom.shoelace_area(r) for r in stack], want,
                                   rtol=1e-14)

    def test_pip(self):
        L = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3], [0, 0]], float)
        px = np.array([0.5, 2.0, 2.0, 0.5])
        py = np.array([0.5, 0.5, 2.0, 2.0])
        np.testing.assert_array_equal(
            geom.points_in_ring(px, py, L), [True, True, False, True])

    def test_clip_concave(self):
        L = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3], [0, 0]], float)
        assert geom.box_clip_area(L, 0.5, 0.5, 2.5, 2.5) == pytest.approx(1.75)
        assert geom.clip_ring_to_box(L, 10, 10, 11, 11) is None

    def test_intersection_area_box_vs_concave(self):
        L = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3], [0, 0]], float)
        box = geom.box_ring(0.5, 0.5, 2.5, 2.5)
        assert geom.intersection_area(box, L) == pytest.approx(1.75)

    def test_convex_clip(self):
        tri = np.array([[0, 0], [4, 0], [0, 4], [0, 0]], float)
        assert geom._convex_clip_area(tri, geom.box_ring(1, 1, 3, 3)) == pytest.approx(2.0)

    def test_triangulate_partition(self):
        # triangles of a concave ring must partition it: areas sum exactly
        U = np.array([[0, 0], [5, 0], [5, 4], [4, 4], [4, 1], [1, 1],
                      [1, 4], [0, 4], [0, 0]], float)
        tris = geom.triangulate_ring(U)
        assert sum(geom.shoelace_area(np.vstack([t, t[:1]])) for t in tris) \
            == pytest.approx(geom.shoelace_area(U))

    @staticmethod
    def _raster_overlap(a, b, n=800):
        minx = min(a[:, 0].min(), b[:, 0].min())
        maxx = max(a[:, 0].max(), b[:, 0].max())
        miny = min(a[:, 1].min(), b[:, 1].min())
        maxy = max(a[:, 1].max(), b[:, 1].max())
        xs = np.linspace(minx, maxx, n)
        ys = np.linspace(miny, maxy, n)
        gx, gy = np.meshgrid(xs, ys)
        px, py = gx.ravel(), gy.ravel()
        ina = geom.points_in_ring(px, py, a)
        inb = geom.points_in_ring(px, py, b)
        cell = ((maxx - minx) / (n - 1)) * ((maxy - miny) / (n - 1))
        return (ina & inb).sum() * cell

    def test_concave_concave_intersection_vs_raster(self):
        # L-shape vs U-shape (both concave) — exact area must agree with a
        # brute-force rasterized estimate within grid resolution
        L = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3],
                      [0, 0]], float)
        U = np.array([[-0.5, -0.5], [3.5, -0.5], [3.5, 2.5], [2.5, 2.5],
                      [2.5, 0.5], [0.5, 0.5], [0.5, 2.5], [-0.5, 2.5],
                      [-0.5, -0.5]], float)
        exact = geom.intersection_area(L, U)
        approx = self._raster_overlap(L, U)
        assert exact == pytest.approx(approx, rel=0.02)
        # symmetry
        assert geom.intersection_area(U, L) == pytest.approx(exact)

    def test_alpha_shape_excludes_notch(self):
        from geetiles_ray.functions import hull
        xs, ys = np.meshgrid(np.linspace(0, 4, 17), np.linspace(0, 4, 17))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        pts = pts[~((pts[:, 0] > 2) & (pts[:, 1] > 2))]  # L-shape cloud
        rings = hull.alpha_shape(pts, alpha=1.0)
        assert len(rings) >= 1
        r = rings[0]
        area = geom.shoelace_area(r)
        assert 11.0 < area < 13.5          # L ≈ 12; convex hull would be 14
        assert not geom.points_in_ring(
            np.array([3.2]), np.array([3.2]), r)[0]   # notch excluded
        x, y = pts[:, 0], pts[:, 1]
        arm = ((x > 0.3) & (x < 3.7) & (y > 0.3) & (y < 1.7)) \
            | ((x > 0.3) & (x < 1.7) & (y > 0.3) & (y < 3.7))
        inner = pts[arm]  # strictly interior to the L's arms
        assert geom.points_in_ring(inner[:, 0], inner[:, 1], r).all()

    def test_alpha_shape_convex_fallback(self):
        from geetiles_ray.functions import hull
        # 3 far-apart points: every triangle fails alpha=1 → convex fallback
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        rings = hull.alpha_shape(pts, alpha=1.0)
        assert len(rings) == 1
        assert geom.shoelace_area(rings[0]) == pytest.approx(50.0)

    def test_tileset_region(self):
        from geetiles_ray.sources import tileset as tsmod
        from geetiles_ray.functions import hull  # noqa: F401
        import ray.data
        from geetiles_ray.pipelines import flagship
        tiles = flagship.build_fixture_tileset(5000.0)
        rings = tsmod.tileset_region(tiles, alpha=1.0)
        assert len(rings) >= 1
        boundary = rings[0]
        df = tiles.to_pandas()
        # every tile center must be inside (or on) the tileset boundary
        inside = geom.points_in_ring(df.clon.to_numpy(), df.clat.to_numpy(),
                                     boundary)
        assert inside.mean() > 0.98
        # hull area is at least the summed covered area (in degrees²,
        # compare against bbox-sum proxy) and not absurdly larger
        hull_area = geom.shoelace_area(boundary)
        covered = ((df.maxx - df.minx) * (df.maxy - df.miny)).sum()
        assert hull_area >= 0.9 * covered
        assert hull_area <= 2.0 * covered

    def test_concave_concave_disjoint_and_contained(self):
        L = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3],
                      [0, 0]], float)
        far = L + np.array([100.0, 100.0])
        assert geom.intersection_area(L, far) == pytest.approx(0.0)
        # small concave ring fully inside the L's bottom arm
        small = np.array([[0.2, 0.2], [2.8, 0.2], [2.8, 0.8], [1.5, 0.8],
                          [1.5, 0.6], [0.4, 0.6], [0.4, 0.8], [0.2, 0.8],
                          [0.2, 0.2]], float)
        assert geom.intersection_area(L, small) == pytest.approx(
            geom.shoelace_area(small))

    def test_centroids(self):
        r = geom.box_ring(0, 0, 2, 4)
        assert geom.ring_centroid(r) == (1.0, 2.0)
        assert geom.envelope_centroid(r) == (0.8, 1.6)  # closing point double-counted,
        # exactly as the reference's envelope-boundary mean (partitions.py:323)


class TestCellFilter:
    """grid._cell_rings keeps exactly the cells of the per-cell clause it
    replaced: clip area > 0, or the ll corner, ur corner or centre inside
    the AOI."""

    L_AOI = np.array([[5.8, 49.45], [6.5, 49.45], [6.5, 49.8], [6.2, 49.8],
                      [6.2, 50.1], [5.8, 50.1], [5.8, 49.45]])

    @staticmethod
    def _boxes(spec, idx):
        clon, clat = crs.utm_to_lonlat(idx // spec.gridy * spec.m + spec.minx,
                                       idx % spec.gridy * spec.m + spec.miny,
                                       spec.zone, spec.north)
        mplon, mplat = crs.meters_per_degree(clon, clat, spec.zone, spec.north)
        dlon, dlat = ((spec.m - 1) / 2.0) / mplon, ((spec.m - 1) / 2.0) / mplat
        return clon - dlon, clat - dlat, clon + dlon, clat + dlat, clon, clat

    @pytest.mark.parametrize("aoi", ["L", "triangle", "quarter_cell", "touching_cell"])
    def test_keep_mask_matches_scalar_clause(self, aoi):
        import copy

        from geetiles_ray.pipelines import grid

        spec = grid.GridSpec(self.L_AOI, 3000.0)
        idx = np.arange(spec.n_cells)
        x0, y0, x1, y1, clon, clat = self._boxes(spec, idx)
        c = spec.n_cells // 2
        w, h = x1[c] - x0[c], y1[c] - y0[c]
        ring = {
            "L": self.L_AOI,
            "triangle": np.array([[5.8, 49.45], [6.5, 49.6], [6.0, 50.1], [5.8, 49.45]]),
            # smaller than a cell; two edges on cell c's lower-left edges
            "quarter_cell": geom.box_ring(x0[c], y0[c], x0[c] + w / 2, y0[c] + h / 2),
            # left edge on cell c's right edge: c only touches the AOI
            "touching_cell": geom.box_ring(x1[c], y0[c], x1[c] + 0.4 * w, y0[c] + 0.4 * h),
        }[aoi]
        if aoi in ("quarter_cell", "touching_cell"):
            spec = copy.copy(spec)
            spec.aoi_ring = ring
        else:
            spec = grid.GridSpec(ring, 3000.0)
            idx = np.arange(spec.n_cells)
            x0, y0, x1, y1, clon, clat = self._boxes(spec, idx)
        want = [i for i in range(len(idx))
                if geom.box_clip_area(ring, x0[i], y0[i], x1[i], y1[i]) > 0
                or geom.points_in_ring(np.array([x0[i], x1[i], clon[i]]),
                                       np.array([y0[i], y1[i], clat[i]]), ring).any()]
        rings, kept = grid._cell_rings(spec, idx)
        assert kept.tolist() == want and len(want) > 0
        assert rings.shape == (len(want), 5, 2)
        for r, i in zip(rings, want):
            np.testing.assert_array_equal(r, [[x0[i], y0[i]], [x0[i], y1[i]], [x1[i], y1[i]],
                                              [x1[i], y0[i]], [x0[i], y0[i]]])


class TestCells:
    def test_roundtrip_bounds(self):
        lon, lat = 6.13, 49.61
        cid = cells.cell_of(lon, lat, 12)
        minlon, minlat, maxlon, maxlat = cells.cell_bounds(cid)
        assert minlon <= lon < maxlon and minlat <= lat < maxlat

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        lon = rng.uniform(-180, 180, 200)
        lat = rng.uniform(-90, 90, 200)
        vec = cells.cell_of(lon, lat, 9)
        for i in range(0, 200, 37):
            assert cells.cell_of(lon[i], lat[i], 9) == vec[i]

    def test_cover_contains_point_cell(self):
        cov = set(cells.cells_covering_bbox(5.9, 49.4, 6.5, 50.2, 10).tolist())
        assert int(cells.cell_of(6.1, 49.8, 10)) in cov

    def test_resolutions_disjoint(self):
        c1 = cells.cell_of(0.0, 0.0, 5)
        c2 = cells.cell_of(0.0, 0.0, 6)
        assert c1 != c2

    def test_pick_resolution(self):
        r = cells.pick_resolution(0.05)
        assert 360.0 / (1 << r) >= 0.05 > 360.0 / (1 << (r + 1))


class TestGeomProperties:
    """Property-based checks (hypothesis) over random star-shaped simple
    polygons — symmetry, self-intersection identity, triangulation
    partition, and box-clip consistency of the pure-numpy geometry core."""

    @staticmethod
    def _star(seed, n=None, cx=0.0, cy=0.0):
        rng = np.random.default_rng(seed)
        n = n or int(rng.integers(4, 12))
        # jittered evenly-spaced angles: strictly increasing, every gap
        # < pi, winds once around the center → the star polygon is simple
        # for ANY radii (a free-sorted-angles generator is NOT — a >pi
        # angular gap lets the closing chord cross the chain)
        ang = 2 * np.pi * (np.arange(n) + rng.uniform(0.05, 0.95, n)) / n
        rad = rng.uniform(0.5, 2.0, n)
        ring = np.column_stack([cx + rad * np.cos(ang),
                                cy + rad * np.sin(ang)])
        return np.vstack([ring, ring[:1]])

    def test_self_intersection_is_area(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(st.integers(0, 10_000))
        def check(seed):
            a = self._star(seed)
            assert geom.intersection_area(a, a) == pytest.approx(
                geom.shoelace_area(a), rel=1e-9)

        check()

    def test_symmetry_and_bounds(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(st.integers(0, 10_000), st.integers(0, 10_000),
               st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
        def check(s1, s2, dx, dy):
            a = self._star(s1)
            b = self._star(s2, cx=dx, cy=dy)
            ab = geom.intersection_area(a, b)
            ba = geom.intersection_area(b, a)
            assert ab == pytest.approx(ba, rel=1e-6, abs=1e-9)
            assert -1e-9 <= ab <= min(geom.shoelace_area(a),
                                      geom.shoelace_area(b)) + 1e-9

        check()

    def test_triangulation_partitions_area(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(st.integers(0, 10_000))
        def check(seed):
            a = self._star(seed)
            tris = geom.triangulate_ring(a)
            total = sum(geom.shoelace_area(np.vstack([t, t[:1]]))
                        for t in tris)
            assert total == pytest.approx(geom.shoelace_area(a), rel=1e-9)

        check()

    def test_clip_to_own_bbox_is_identity(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(st.integers(0, 10_000))
        def check(seed):
            a = self._star(seed)
            minx, miny, maxx, maxy = geom.bounds(a)
            assert geom.box_clip_area(a, minx, miny, maxx, maxy) == \
                pytest.approx(geom.shoelace_area(a), rel=1e-9)

        check()
