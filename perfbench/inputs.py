"""Seeded page inputs for the ingest workloads.

Writes one Parquet file of crawl pages ``(url, warc_ts, html, text, lang)``.
Every value comes from ``numpy.random.default_rng(seed)``, so one seed
always gives the same file. The ``text`` column is the ground truth that the
output checks compare ``text_extracted`` against.

Two shapes:

- ``crawl``: about 2% of rows re-crawl a URL at a later time, and the html
  carries a script, a comment and paragraphs, so extraction takes the regex
  path.
- ``recrawl``: about 30% of rows re-crawl a URL picked by a Zipf law, a
  fifth of them at the URL's first timestamp (ties at the minimum), and
  the html body is the plain text (the extraction fast path).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = np.array(["en", "zh", "es", "de", "fr"], dtype=object)
LANG_P = [0.44, 0.15, 0.15, 0.13, 0.13]
VOCAB = np.array((
    "the of and to a in is it you that he was for on are with as i his they "
    "be at one have this from or had by hot word but what some we can out "
    "other were all there when up use your how said an each she tile page "
    "crawl web data map grid cell spark ray arrow batch shuffle join"
).split(), dtype=object)
EPOCH_US = np.datetime64("2024-01-01T00:00:00", "us")
HOUR_US = 3_600_000_000


def _texts(rng: np.random.Generator, n: int) -> list[str]:
    n_words = rng.integers(20, 50, n)
    words = VOCAB[rng.integers(0, len(VOCAB), (n, int(n_words.max())))]
    return [" ".join(words[i, :n_words[i]]) for i in range(n)]


def _crawl_html(text: str, k: int) -> bytes:
    words = text.split(" ")
    paras = "</p>\n<p>".join(" ".join(words[i:i + 12])
                             for i in range(0, len(words), 12))
    return (b"<html><head><title>page</title><style>p{margin:0}</style>"
            b"</head><body><script>var t0=Date.now();</script>"
            b"<!-- crawl " + str(k).encode() + b" --><p>"
            + paras.encode() + b"</p></body></html>")


def _plain_html(text: str) -> bytes:
    return (b"<html><head><title>page</title></head><body>"
            + text.encode() + b"</body></html>")


def make_pages(shape: str, n_unique: int, seed: int, path: str) -> dict:
    """Write the ``shape`` page table for ``seed`` to ``path``; return its
    row and distinct-URL counts."""
    rng = np.random.default_rng([seed, 0 if shape == "crawl" else 1])
    langs = rng.choice(LANGS, n_unique, p=LANG_P)
    hosts = rng.integers(0, 97, n_unique)
    urls = np.array([f"https://{lg}.site{h}.example/s{seed}/{i:07d}"
                     for i, (lg, h) in enumerate(zip(langs, hosts))],
                    dtype=object)
    texts = np.array(_texts(rng, n_unique), dtype=object)
    first_us = rng.integers(0, 90 * 24 * HOUR_US, n_unique)

    if shape == "crawl":
        n_re = round(n_unique * 0.02 / 0.98)
        src = rng.integers(0, n_unique, n_re)
        re_us = first_us[src] + rng.integers(1, 720, n_re) * HOUR_US
    elif shape == "recrawl":
        n_re = round(n_unique * 0.30 / 0.70)
        # Zipf ranks over a shuffled URL order: a few URLs take most recrawls
        rank = np.minimum(rng.zipf(1.2, n_re), n_unique) - 1
        src = rng.permutation(n_unique)[rank]
        late = rng.integers(1, 720, n_re) * HOUR_US
        re_us = first_us[src] + np.where(rng.random(n_re) < 0.2, 0, late)
    else:
        raise ValueError(f"unknown page shape {shape!r}")

    rows = np.concatenate([np.arange(n_unique), src])
    ts_us = np.concatenate([first_us, re_us])
    order = rng.permutation(len(rows))
    rows, ts_us = rows[order], ts_us[order]
    if shape == "crawl":
        html = [_crawl_html(texts[r], k) for k, r in enumerate(rows)]
    else:
        html = [_plain_html(texts[r]) for r in rows]
    table = pa.table({
        "url": pa.array(urls[rows], type=pa.string()),
        "warc_ts": pa.array(EPOCH_US + ts_us.astype("timedelta64[us]"),
                            type=pa.timestamp("us")),
        "html": pa.array(html, type=pa.binary()),
        "text": pa.array(texts[rows], type=pa.string()),
        "lang": pa.array(langs[rows], type=pa.string()),
    })
    pq.write_table(table, path)
    return {"rows": table.num_rows, "unique_urls": n_unique}
