"""Deterministic content hashes for tiles and tilesets.

Reproduces the reference identifier algorithm bit-for-bit
(/root/reference/geetiles/utils.py:232-250):

    s = str(np.r_[region.envelope.boundary.coords].round(5))
    k = int(sha256(s).hexdigest(), 16) % 10**15
    identifier = hex(k)[2:].zfill(13)

The "envelope boundary coords" of a polygon are the 5 corner points of its
axis-aligned bounding box, starting at (minx, miny) and travelling
counter-clockwise, closing back at (minx, miny) — GEOS envelope ring order.

The string form is numpy's default ``str()`` of an (N, 2) float64 array under
default printoptions; we pin printoptions explicitly so the hash is stable
regardless of caller configuration.
"""

from __future__ import annotations

import hashlib

import numpy as np

_PRINT_OPTS = dict(
    precision=8, suppress=False, floatmode="maxprec", threshold=1000,
    edgeitems=3, linewidth=75, sign="-", legacy=False,
)


def envelope_boundary_coords(minx: float, miny: float, maxx: float, maxy: float) -> np.ndarray:
    """5 closed-ring corner points of the bbox, GEOS envelope order (CCW from
    (minx,miny)). Matches shapely ``polygon.envelope.boundary.coords``."""
    return np.array(
        [[minx, miny], [maxx, miny], [maxx, maxy], [minx, maxy], [minx, miny]],
        dtype=np.float64,
    )


def region_hash_from_bounds(minx: float, miny: float, maxx: float, maxy: float) -> str:
    """Identifier of a geometry from its bounds (utils.py:232-240 parity)."""
    coords = envelope_boundary_coords(minx, miny, maxx, maxy)
    with np.printoptions(**_PRINT_OPTS):
        s = str(coords.round(5))
    return _digest13(s.encode("utf-8"))


def _digest13(b: bytes) -> str:
    k = int(hashlib.sha256(b).hexdigest(), 16) % 10**15
    return hex(k)[2:].zfill(13)


def region_hash(coords: np.ndarray) -> str:
    """Identifier of a polygon given its exterior ring coords (N,2)."""
    c = np.asarray(coords, dtype=np.float64)
    return region_hash_from_bounds(
        c[:, 0].min(), c[:, 1].min(), c[:, 0].max(), c[:, 1].max()
    )


def region_hashes_from_bounds_arrays(
    minx: np.ndarray, miny: np.ndarray, maxx: np.ndarray, maxy: np.ndarray
) -> np.ndarray:
    """``region_hash_from_bounds`` of every row: about 6 us/row on one
    core of a Xeon VM, where a loop over the definition takes about 190.

    Rows whose four rounded values numpy prints positionally (all finite
    and nonzero, 1e-4 <= |v| < 1e8 and max|v| / min|v| <= 1e3: numpy's own
    switch to scientific notation) skip numpy's array printer; their
    strings are built in bulk by ``_positional_hashes``. Any other
    row goes through ``region_hash_from_bounds`` itself."""
    v = np.column_stack([minx, miny, maxx, maxy]).astype(np.float64).round(5)
    av = np.abs(v)
    amax, amin = av.max(axis=1), av.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        fast = (np.isfinite(v).all(axis=1) & (amin >= 1e-4) & (amax < 1e8)
                & (amax / amin <= 1000.0))
    out = np.empty(len(v), dtype=object)
    rows = np.nonzero(fast)[0]
    out[rows] = _positional_hashes(np.rint(v[rows] * 1e5).astype(np.int64))
    for i in np.nonzero(~fast)[0]:
        out[i] = region_hash_from_bounds(minx[i], miny[i], maxx[i], maxy[i])
    return out


_POW10 = 10 ** np.arange(9, dtype=np.int64)


def _positional_hashes(k: np.ndarray) -> list[str]:
    """Identifiers of rows (minx, miny, maxx, maxy) = k / 1e5 that numpy
    prints positionally. Each value's shortest repr is then k / 1e5 written
    out without trailing fraction zeros: it has at most 13 significant
    digits, so no shorter decimal maps to the same double. numpy
    right-aligns the integer parts (sign included) to one width and pads
    the fraction parts with spaces to another; the rows that share both
    widths are laid out together as one uint8 matrix."""
    ip, fp = np.divmod(np.abs(k), 100_000)
    nd = (ip[..., None] >= _POW10[1:]).sum(-1) + 1       # integer digits
    nf = 5 - (fp[..., None] % _POW10[1:6] == 0).sum(-1)  # fraction digits
    wi, wf = (nd + (k < 0)).max(axis=1), nf.max(axis=1)
    out = [""] * len(k)
    for w_int, w_frac in set(zip(wi.tolist(), wf.tolist())):
        rows = np.nonzero((wi == w_int) & (wf == w_frac))[0]
        g_ip, g_fp, g_nd, g_nf = ip[rows], fp[rows], nd[rows], nf[rows]
        cells = np.full((len(rows), 4, w_int + 1 + w_frac), ord(" "), np.uint8)
        for p in range(w_int):
            np.copyto(cells[..., w_int - 1 - p], g_ip // _POW10[p] % 10 + 48,
                      where=p < g_nd, casting="unsafe")
        r, c = np.nonzero(k[rows] < 0)
        cells[r, c, w_int - 1 - g_nd[r, c]] = ord("-")
        cells[..., w_int] = ord(".")
        for t in range(w_frac):
            np.copyto(cells[..., w_int + 1 + t], g_fp // _POW10[4 - t] % 10 + 48,
                      where=t < g_nf, casting="unsafe")
        x0, y0, x1, y1 = cells.transpose(1, 0, 2)
        layout = [b"[[", x0, b" ", y0, b"]\n [", x1, b" ", y0, b"]\n [", x1, b" ",
                  y1, b"]\n [", x0, b" ", y1, b"]\n [", x0, b" ", y0, b"]]"]
        mat = np.concatenate(
            [np.broadcast_to(np.frombuffer(x, np.uint8), (len(rows), len(x)))
             if isinstance(x, bytes) else x for x in layout], axis=1)
        buf, width = memoryview(mat.tobytes()), mat.shape[1]
        for j, i in enumerate(rows.tolist()):
            out[i] = _digest13(buf[j * width:(j + 1) * width])
    return out


def regionlist_hash(identifiers) -> str:
    """Order-dependent hash of a sequence of tile identifiers
    (utils.py:242-250 parity): sha256 of space-joined per-region hashes.

    NB ordering matters — callers must pass identifiers in tileset row
    order (the reference hashes in file order; we sort by a stable key
    before calling this, see tileset.py).
    """
    return _digest13(" ".join(identifiers).encode("utf-8"))
