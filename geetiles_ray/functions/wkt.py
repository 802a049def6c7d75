"""Minimal WKT polygon parser/formatter (S1: the reference reads AOIs from
WKT files, cmds.py:296-297; no shapely in this environment).

Supports POLYGON and MULTIPOLYGON (exterior rings; holes are parsed and
kept but most engine ops use the exterior ring only — the reference's
tiles are rings too)."""

from __future__ import annotations

import re

import numpy as np


def _parse_ring(s: str) -> np.ndarray:
    pts = []
    for pair in s.split(","):
        xy = pair.strip().split()
        pts.append((float(xy[0]), float(xy[1])))
    return np.asarray(pts, dtype=np.float64)


def loads(wkt: str) -> list[list[np.ndarray]]:
    """WKT → list of polygons, each a list of rings (exterior first)."""
    s = wkt.strip()
    m = re.match(r"^\s*(POLYGON|MULTIPOLYGON)\s*(.*)$", s, re.I | re.S)
    if not m:
        raise ValueError(f"unsupported WKT: {s[:40]}...")
    kind = m.group(1).upper()
    body = m.group(2).strip()

    def split_parens(text: str, depth_open: int):
        """Split top-level comma-separated groups of '(...)'."""
        parts, depth, cur = [], 0, []
        for ch in text:
            if ch == "(":
                depth += 1
                if depth == depth_open:
                    cur = []
                    continue
            elif ch == ")":
                depth -= 1
                if depth == depth_open - 1:
                    parts.append("".join(cur))
                    continue
            if depth >= depth_open:
                cur.append(ch)
        return parts

    if kind == "POLYGON":
        rings = split_parens(body, 2)
        return [[_parse_ring(r) for r in rings]]
    polys = []
    # MULTIPOLYGON (((...)),((...))) : split at depth 2 then parse rings
    for poly_body in split_parens(body, 2):
        rings = split_parens("(" + poly_body + ")", 2)
        polys.append([_parse_ring(r) for r in rings])
    return polys


def load_exterior(wkt: str) -> np.ndarray:
    """First polygon's exterior ring — the common AOI case."""
    return loads(wkt)[0][0]


def dumps_polygon(ring: np.ndarray) -> str:
    r = np.asarray(ring, dtype=np.float64)
    if not (r[0] == r[-1]).all():
        r = np.vstack([r, r[:1]])
    body = ", ".join(f"{x:.10g} {y:.10g}" for x, y in r)
    return f"POLYGON (({body}))"


def flatten_geom(polys) -> list[np.ndarray]:
    """utils.py:21-42 analogue: multipart → flat list of exterior rings."""
    out = []
    for p in polys:
        if isinstance(p, np.ndarray):
            out.append(p)
        else:
            out.extend(flatten_geom(p))
    return out
