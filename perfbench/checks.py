"""Output checks for the benchmark, run outside the timed window.

Ingest outputs are checked against the generated pages:

- one row per distinct input URL;
- each kept row carries its URL's minimum ``warc_ts``;
- ``text_extracted`` equals the generated ``text`` byte for byte;
- ``(lon, lat)`` is the documented sha256 geocode of ``(url, lang)``;
- ``tile_id`` is in the tileset and its bbox holds ``(lon, lat)``; a point in
  the gap between tiles must lie in no tile and go to the nearest centre;
- the per-tile counts sum to the number of rows out.

``python3 perfbench/checks.py`` runs the self-test: a correct tiny output
passes, and a dropped row and an altered text are both caught.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pandas as pd

# the geocode contract of functions/geocode.py (FIXTURES.md F1)
AOI_W, AOI_S, AOI_E, AOI_N = 5.8, 49.4, 6.6, 50.2
HOT_BOXES = {"en": (6.05, 49.95), "zh": (6.35, 49.55)}
OUT_COLS = ["url", "warc_ts", "lang", "lon", "lat", "tile_id", "cell_id",
            "text_extracted"]


def geocode_oracle(urls, langs) -> tuple[np.ndarray, np.ndarray]:
    digests = np.frombuffer(b"".join(hashlib.sha256(u.encode()).digest()
                                     for u in urls), dtype=np.uint8)
    digests = digests.reshape(len(urls), 32)
    h1 = digests[:, 0:4].copy().view(">u4").ravel().astype(np.uint64)
    h2 = digests[:, 4:8].copy().view(">u4").ravel().astype(np.uint64)
    u1 = (h1 % 1000000) / 1000000.0
    u2 = (h2 % 1000000) / 1000000.0
    lon = AOI_W + u1 * (AOI_E - AOI_W)
    lat = AOI_S + u2 * (AOI_N - AOI_S)
    langs = np.asarray(langs, dtype=object)
    for lg, (w, s) in HOT_BOXES.items():
        m = langs == lg
        lon[m] = w + u1[m] * 0.1
        lat[m] = s + u2[m] * 0.1
    return lon, lat


def digest(out: pd.DataFrame, counts: pd.DataFrame) -> str:
    """Order-insensitive digest of an ingest result."""
    h = hashlib.sha256()
    rows = out[OUT_COLS].sort_values("url", kind="stable")
    h.update(pd.util.hash_pandas_object(rows, index=False).to_numpy().tobytes())
    cnt = counts[["tile_id", "lang", "n_pages"]].sort_values(
        ["tile_id", "lang"], kind="stable")
    h.update(pd.util.hash_pandas_object(cnt, index=False).to_numpy().tobytes())
    return h.hexdigest()[:16]


def check_ingest(pages: pd.DataFrame, out: pd.DataFrame,
                 counts: pd.DataFrame, tiles: pd.DataFrame) -> list[str]:
    """Every mismatch between an ingest result and its generated input, as
    one message each; an empty list means the output is correct."""
    bad = []
    truth = pages.groupby("url", sort=False).agg(
        warc_ts=("warc_ts", "min"), text=("text", "first"),
        lang=("lang", "first"))
    if len(out) != len(truth):
        bad.append(f"rows out {len(out)} != distinct urls {len(truth)}")
    if out["url"].duplicated().any():
        bad.append("a url appears more than once in the output")
    exp = truth.reindex(out["url"].to_numpy())
    if exp["warc_ts"].isna().any():
        bad.append("an output url is not in the input")
        return bad
    if not (out["warc_ts"].to_numpy() == exp["warc_ts"].to_numpy()).all():
        bad.append("a kept row does not carry its url's minimum warc_ts")
    if not (out["text_extracted"].to_numpy() == exp["text"].to_numpy()).all():
        bad.append("text_extracted differs from the generated text")
    lon, lat = geocode_oracle(out["url"].tolist(), exp["lang"].to_numpy())
    if not ((out["lon"].to_numpy() == lon) & (out["lat"].to_numpy() == lat)).all():
        bad.append("(lon, lat) differs from the geocode of (url, lang)")
    bad += _check_tiles(out, tiles)
    if int(counts["n_pages"].sum()) != len(out):
        bad.append(f"sum n_pages {int(counts['n_pages'].sum())} != rows out {len(out)}")
    return bad


def _check_tiles(out: pd.DataFrame, tiles: pd.DataFrame) -> list[str]:
    t = tiles.set_index("identifier")
    known = out["tile_id"].isin(t.index)
    if not known.all():
        return [f"{int((~known).sum())} rows have a tile_id outside the tileset"]
    box = t.loc[out["tile_id"].to_numpy()]
    lon, lat = out["lon"].to_numpy(), out["lat"].to_numpy()
    inside = ((lon >= box["minx"].to_numpy()) & (lon <= box["maxx"].to_numpy())
              & (lat >= box["miny"].to_numpy()) & (lat <= box["maxy"].to_numpy()))
    gap = np.flatnonzero(~inside)
    if not len(gap):
        return []
    # a point outside its tile must fall in no tile, nearest centre wins
    gx, gy = lon[gap, None], lat[gap, None]
    in_any = ((gx >= t["minx"].to_numpy()) & (gx <= t["maxx"].to_numpy())
              & (gy >= t["miny"].to_numpy()) & (gy <= t["maxy"].to_numpy())).any(1)
    d2 = (gx - t["clon"].to_numpy()) ** 2 + (gy - t["clat"].to_numpy()) ** 2
    own = (lon[gap] - box["clon"].to_numpy()[gap]) ** 2 \
        + (lat[gap] - box["clat"].to_numpy()[gap]) ** 2
    if in_any.any() or (own > d2.min(1)).any():
        return [f"{int(in_any.sum() + (own > d2.min(1)).sum())} rows lie "
                "outside their tile's bbox"]
    return []


def selftest() -> list[str]:
    """Failures of the checks themselves: a correct output must pass, and a
    dropped row and an altered text must both be caught."""
    urls = [f"https://en.site{i}.example/t/{i}" for i in range(4)]
    ts = pd.to_datetime(["2024-01-02", "2024-01-01", "2024-01-03",
                         "2024-01-04"]).astype("datetime64[us]")
    pages = pd.DataFrame({"url": urls + [urls[0]], "warc_ts": list(ts) +
                          [pd.Timestamp("2024-01-01")],
                          "text": ["a b", "c", "d e f", "g", "a b"],
                          "lang": ["en", "de", "zh", "fr", "en"]})
    pages["warc_ts"] = pages["warc_ts"].astype("datetime64[us]")
    truth = pages.sort_values("warc_ts").drop_duplicates("url")
    lon, lat = geocode_oracle(truth["url"].tolist(), truth["lang"].to_numpy())
    out = pd.DataFrame({"url": truth["url"], "warc_ts": truth["warc_ts"],
                        "lang": truth["lang"], "lon": lon, "lat": lat,
                        "tile_id": "t0", "cell_id": 0,
                        "text_extracted": truth["text"]}).reset_index(drop=True)
    tiles = pd.DataFrame({"identifier": ["t0"], "minx": [AOI_W], "maxx": [AOI_E],
                          "miny": [AOI_S], "maxy": [AOI_N],
                          "clon": [6.2], "clat": [49.8]})
    counts = out.groupby(["tile_id", "lang"], as_index=False).size() \
        .rename(columns={"size": "n_pages"})
    failures = []
    if check_ingest(pages, out, counts, tiles):
        failures.append("a correct output was rejected")
    dropped = out.drop(index=1).reset_index(drop=True)
    if not check_ingest(pages, dropped, counts, tiles):
        failures.append("a dropped row was not caught")
    altered = out.copy()
    altered.loc[2, "text_extracted"] = "d e F"
    if not check_ingest(pages, altered, counts, tiles):
        failures.append("an altered text was not caught")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for p in problems:
        print(p)
    print("self-test", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)
