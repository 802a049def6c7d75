"""Pure-numpy computational geometry core (no shapely in this environment).

Represents polygons as (N, 2) float64 numpy arrays of exterior-ring
coordinates (closed: first == last). Multi-polygons are lists of rings.
Arrow storage is standard WKB (little-endian) in a ``binary`` column —
interoperable with any geo stack.

Covers every geometric operation the reference pipelines need
(SURVEY.md §2): bounds/centroid/area, point-in-polygon (vectorized ray
casting), polygon ∩ axis-aligned box (Sutherland–Hodgman with a box clip
window — every clip in the reference pipelines is against a rectangle:
grid cells cmds.py:305-369, UTM squares partitions.py:129-138, katana
boxes partitions.py:539-553, tile↔foreign joins partitions.py:470-507
where the fine side is a rectangle), and general convex-clip fallback.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------- WKB codecs

_WKB_POLYGON = 3


def ring_to_wkb(coords: np.ndarray) -> bytes:
    """Closed exterior ring (N,2) → WKB polygon bytes (little-endian)."""
    c = np.asarray(coords, dtype="<f8")
    if not (c[0] == c[-1]).all():
        c = np.vstack([c, c[:1]])
    header = struct.pack("<BII", 1, _WKB_POLYGON, 1) + struct.pack("<I", len(c))
    return header + c.tobytes()


def rings_to_wkb(xy: np.ndarray, lens: np.ndarray) -> pa.BinaryArray:
    """``ring_to_wkb`` of each closed ring, from the rings' concatenated
    coordinates ``xy`` (sum(lens), 2) and their point counts ``lens``: the
    13-byte headers are inserted into the coordinate bytes in one call."""
    lens = np.asarray(lens, dtype=np.int64)
    head = np.zeros(len(lens), dtype=[("order", "u1"), ("type", "<u4"),
                                      ("nrings", "<u4"), ("npts", "<u4")])
    head["order"], head["type"], head["nrings"], head["npts"] = 1, _WKB_POLYGON, 1, lens
    at = np.repeat(16 * (np.cumsum(lens) - lens), 13)
    data = np.insert(np.ascontiguousarray(xy, dtype="<f8").view(np.uint8).ravel(),
                     at, head.view(np.uint8))
    offsets = np.concatenate([[0], np.cumsum(13 + 16 * lens)]).astype(np.int32)
    return pa.Array.from_buffers(pa.binary(), len(lens), [
        None, pa.py_buffer(offsets), pa.py_buffer(data)])


def wkb_to_ring(wkb: bytes) -> np.ndarray:
    """WKB polygon bytes → exterior ring (N,2) float64 (ignores holes)."""
    byte_order, geom_type, n_rings = struct.unpack_from("<BII", wkb, 0)
    if byte_order != 1 or (geom_type & 0xFF) != _WKB_POLYGON or n_rings < 1:
        raise ValueError(f"unsupported WKB (order={byte_order} type={geom_type})")
    (n_pts,) = struct.unpack_from("<I", wkb, 9)
    return np.frombuffer(wkb, dtype="<f8", count=n_pts * 2, offset=13).reshape(-1, 2).copy()


def box_ring(minx: float, miny: float, maxx: float, maxy: float) -> np.ndarray:
    """Axis-aligned box as a closed CCW ring starting at (minx,miny) —
    shapely ``box()`` uses (maxx,miny) first, but identifier hashing uses the
    *envelope* ring (hashing.envelope_boundary_coords) so start point here
    only affects WKB bytes, not ids."""
    return np.array(
        [[minx, miny], [maxx, miny], [maxx, maxy], [minx, maxy], [minx, miny]],
        dtype=np.float64,
    )


# ----------------------------------------------------------- ring properties

def bounds(coords: np.ndarray) -> tuple[float, float, float, float]:
    c = np.asarray(coords)
    return c[:, 0].min(), c[:, 1].min(), c[:, 0].max(), c[:, 1].max()


def shoelace_area(coords: np.ndarray) -> float:
    """Unsigned area of a closed ring: ``shoelace_areas`` of a one-ring
    stack."""
    return shoelace_areas(np.asarray(coords)[None])[0]


def shoelace_areas(rings: np.ndarray) -> np.ndarray:
    """Unsigned area of each closed ring of an (n, m, 2) stack, with x taken
    relative to the ring's first vertex as GEOS ``Area::ofRingSigned`` does:
    0.5·|Σ_{i=1}^{m-2} (x_i − x_0)(y_{i−1} − y_{i+1})|. Products of absolute
    UTM metres (~3e12) would cancel down to 1 km areas (~1e6 m²) and lose
    about nine digits; the shifted terms are of the area's own size, so the
    sum stays within a few ulps of the exact area. Elementwise ops and one
    ``np.sum`` per ring, no BLAS kernel, so the bits do not depend on the
    host's CPU."""
    r = np.asarray(rings, dtype=np.float64)
    x, y = r[..., 0], r[..., 1]
    terms = (x[:, 1:-1] - x[:, :1]) * (y[:, :-2] - y[:, 2:])
    return 0.5 * np.abs(np.sum(terms, axis=-1))


def envelope_centroid(coords: np.ndarray) -> tuple[float, float]:
    """Mean of the 5 envelope-boundary corner points — the reference's
    "centroid" for split banding (partitions.py:323: envelope boundary
    coords mean, which double-counts the closing point; reproduced)."""
    minx, miny, maxx, maxy = bounds(coords)
    from .hashing import envelope_boundary_coords

    eb = envelope_boundary_coords(minx, miny, maxx, maxy)
    return float(eb[:, 0].mean()), float(eb[:, 1].mean())


def ring_centroid(coords: np.ndarray) -> tuple[float, float]:
    """True polygon centroid (area-weighted)."""
    c = np.asarray(coords, dtype=np.float64)
    x, y = c[:-1, 0], c[:-1, 1]
    x1, y1 = c[1:, 0], c[1:, 1]
    cross = x * y1 - x1 * y
    a = cross.sum() / 2.0
    if abs(a) < 1e-300:
        return float(c[:, 0].mean()), float(c[:, 1].mean())
    cx = ((x + x1) * cross).sum() / (6.0 * a)
    cy = ((y + y1) * cross).sum() / (6.0 * a)
    return float(cx), float(cy)


# ----------------------------------------------------- point-in-polygon (PIP)

def points_in_ring(px: np.ndarray, py: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Vectorized ray-casting PIP: bool mask over (px, py) for one ring.
    Boundary points count as inside (even-odd with >= on one side). Points
    go through in chunks of about 2**20 point-edge pairs, so the temporary
    matrices stay bounded for rings with many vertices."""
    c = np.asarray(coords, dtype=np.float64)
    x0, y0 = c[:-1, 0], c[:-1, 1]
    x1, y1 = c[1:, 0], c[1:, 1]
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    out = np.empty(len(px), dtype=bool)
    step = max(1, (1 << 20) // max(len(x0), 1))
    for s in range(0, len(px), step):
        qx, qy = px[s:s + step, None], py[s:s + step, None]
        cond = (y0 > qy) != (y1 > qy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = x0 + (qy - y0) * (x1 - x0) / (y1 - y0)
        out[s:s + step] = (cond & (qx < xin)).sum(axis=1) % 2 == 1
    return out


# -------------------------------------------------- clipping & intersections

def clip_ring_to_box(coords: np.ndarray, minx, miny, maxx, maxy) -> np.ndarray | None:
    """Sutherland–Hodgman clip of a (possibly concave) ring against an
    axis-aligned box. Returns closed ring or None if empty."""
    poly = np.asarray(coords, dtype=np.float64)
    if (poly[0] == poly[-1]).all():
        poly = poly[:-1]

    def clip_edge(pts, keep, intersect):
        if len(pts) == 0:
            return pts
        out = []
        prev = pts[-1]
        prev_in = keep(prev)
        for cur in pts:
            cur_in = keep(cur)
            if cur_in:
                if not prev_in:
                    out.append(intersect(prev, cur))
                out.append(cur)
            elif prev_in:
                out.append(intersect(prev, cur))
            prev, prev_in = cur, cur_in
        return np.array(out) if out else np.empty((0, 2))

    def x_cut(xv):
        def f(p, q):
            t = (xv - p[0]) / (q[0] - p[0])
            return np.array([xv, p[1] + t * (q[1] - p[1])])
        return f

    def y_cut(yv):
        def f(p, q):
            t = (yv - p[1]) / (q[1] - p[1])
            return np.array([p[0] + t * (q[0] - p[0]), yv])
        return f

    poly = clip_edge(poly, lambda p: p[0] >= minx, x_cut(minx))
    poly = clip_edge(poly, lambda p: p[0] <= maxx, x_cut(maxx))
    poly = clip_edge(poly, lambda p: p[1] >= miny, y_cut(miny))
    poly = clip_edge(poly, lambda p: p[1] <= maxy, y_cut(maxy))
    if len(poly) < 3:
        return None
    return np.vstack([poly, poly[:1]])


def box_clip_area(coords: np.ndarray, minx, miny, maxx, maxy) -> float:
    """Area of ring ∩ box (0.0 when disjoint)."""
    clipped = clip_ring_to_box(coords, minx, miny, maxx, maxy)
    return 0.0 if clipped is None else shoelace_area(clipped)


def _convex_clip_area(subject: np.ndarray, clip: np.ndarray) -> float:
    """Area of subject ∩ clip where *clip* is convex (Sutherland–Hodgman with
    arbitrary convex clip edges). Tiles/boxes are convex → used for exact
    J1/J2 intersection areas (partitions.py:474-507 semantics)."""
    poly = np.asarray(subject, dtype=np.float64)
    if (poly[0] == poly[-1]).all():
        poly = poly[:-1]
    c = np.asarray(clip, dtype=np.float64)
    if (c[0] == c[-1]).all():
        c = c[:-1]
    # ensure CCW clip
    if _signed_area(c) < 0:
        c = c[::-1]
    for i in range(len(c)):
        a, b = c[i], c[(i + 1) % len(c)]
        if len(poly) == 0:
            return 0.0
        # keep points left of edge a->b
        out = []
        prev = poly[-1]
        prev_side = _cross(a, b, prev)
        for cur in poly:
            cur_side = _cross(a, b, cur)
            if cur_side >= 0:
                if prev_side < 0:
                    out.append(_seg_line_intersect(prev, cur, a, b))
                out.append(cur)
            elif prev_side >= 0:
                out.append(_seg_line_intersect(prev, cur, a, b))
            prev, prev_side = cur, cur_side
        poly = np.array(out) if out else np.empty((0, 2))
    if len(poly) < 3:
        return 0.0
    return abs(_signed_area(poly))


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _cross(a, b, p) -> float:
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _seg_line_intersect(p, q, a, b):
    d1 = _cross(a, b, p)
    d2 = _cross(a, b, q)
    t = d1 / (d1 - d2)
    return np.array([p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])])


def triangulate_ring(ring: np.ndarray) -> list[np.ndarray]:
    """Ear-clipping triangulation of a simple (possibly concave) ring into
    (3, 2) triangles whose interiors partition the polygon. O(n²) — fine
    for the admin/AOI/katana shapes these pipelines carry (≤ a few hundred
    vertices); runs inside broadcast index builds, never per row."""
    r = np.asarray(ring, dtype=np.float64)
    if (r[0] == r[-1]).all():
        r = r[:-1]
    if _signed_area(r) < 0:
        r = r[::-1]
    idx = list(range(len(r)))
    tris: list[np.ndarray] = []
    while len(idx) > 3:
        n = len(idx)
        best_k = -1
        for k in range(n):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = r[i0], r[i1], r[i2]
            if _cross(a, b, c) <= 1e-300:
                continue  # reflex or collinear vertex: not an ear
            others = np.array([r[j] for j in idx
                               if j not in (i0, i1, i2)])
            if len(others) and _points_in_triangle(others, a, b, c).any():
                continue
            best_k = k
            break
        if best_k < 0:
            # numerically degenerate ring: drop the flattest vertex and
            # keep going (its triangle contributes ~zero area)
            flat = min(range(n), key=lambda k: abs(
                _cross(r[idx[k - 1]], r[idx[k]], r[idx[(k + 1) % n]])))
            del idx[flat]
            continue
        k = best_k
        tris.append(np.array([r[idx[k - 1]], r[idx[k]],
                              r[idx[(k + 1) % n]]]))
        del idx[k]
    if len(idx) == 3:
        tris.append(r[idx])
    return tris


def _points_in_triangle(pts: np.ndarray, a, b, c) -> np.ndarray:
    """Strict interior test of points vs CCW triangle abc (vectorized)."""
    d1 = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
    d2 = (c[0] - b[0]) * (pts[:, 1] - b[1]) - (c[1] - b[1]) * (pts[:, 0] - b[0])
    d3 = (a[0] - c[0]) * (pts[:, 1] - c[1]) - (a[1] - c[1]) * (pts[:, 0] - c[0])
    return (d1 > 0) & (d2 > 0) & (d3 > 0)


def intersection_area(ring_a: np.ndarray, ring_b: np.ndarray) -> float:
    """Exact area of a ∩ b for arbitrary simple rings (reference
    partitions.py:474-507 handles any shapely polygons there). Fast paths:
    box clip, convex clip; general concave∩concave decomposes the
    fewer-vertex ring into ear-clipped triangles (disjoint interiors) and
    sums convex triangle clips of the other ring."""
    a = np.asarray(ring_a, dtype=np.float64)
    b = np.asarray(ring_b, dtype=np.float64)
    if _is_axis_aligned_box(a):
        minx, miny, maxx, maxy = bounds(a)
        return box_clip_area(ring_b, minx, miny, maxx, maxy)
    if _is_axis_aligned_box(b):
        minx, miny, maxx, maxy = bounds(b)
        return box_clip_area(ring_a, minx, miny, maxx, maxy)
    if _is_convex(a):
        return _convex_clip_area(ring_b, a)
    if _is_convex(b):
        return _convex_clip_area(a, b)
    tri_src, other = (a, b) if len(a) <= len(b) else (b, a)
    return float(sum(_convex_clip_area(other, t)
                     for t in triangulate_ring(tri_src)))


def _is_axis_aligned_box(ring: np.ndarray) -> bool:
    r = ring[:-1] if (ring[0] == ring[-1]).all() else ring
    if len(r) != 4:
        return False
    xs, ys = np.unique(r[:, 0]), np.unique(r[:, 1])
    return len(xs) == 2 and len(ys) == 2


def _is_convex(ring: np.ndarray) -> bool:
    r = ring[:-1] if (ring[0] == ring[-1]).all() else ring
    if len(r) < 4:
        return True
    v = np.roll(r, -1, axis=0) - r
    cross = v[:, 0] * np.roll(v, -1, axis=0)[:, 1] - v[:, 1] * np.roll(v, -1, axis=0)[:, 0]
    return bool((cross >= -1e-12).all() or (cross <= 1e-12).all())
