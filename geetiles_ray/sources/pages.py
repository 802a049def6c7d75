"""Deterministic Common-Crawl-style web-page table (FIXTURES.md F1).

Schema per BASELINE.json input_hint:
    url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string

Every column is a pure function of the row index (seed-pinned), so the table
regenerates identically at any scale and any parallelism — the byte-identical
``text``-per-``url`` invariant has a closed-form oracle
(``expected_text(url)``), and ~2% of urls are duplicated with a later
``warc_ts`` to exercise dedup (keep-earliest).

Generated as ``ray.data.range(n).map_batches(...)`` — no driver loop, no
materialized list; at 10^12 rows this is just more blocks.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import ray.data

LANGS = ["en", "zh", "es", "de", "fr"]
# cumulative percent thresholds: en 44%, zh 15%, es 15%, de 13%, fr 13%
_LANG_CUM = [44, 59, 74, 87, 100]

_VOCAB = (
    "the of and to a in is it you that he was for on are with as i his they "
    "be at one have this from or had by hot word but what some we can out "
    "other were all there when up use your how said an each she tile page "
    "crawl web data map grid cell spark ray arrow batch shuffle join"
).split()
assert len(_VOCAB) == 64

_EPOCH = datetime(2024, 1, 1)
_WRAP_PRE = b"<html><head><title>page</title></head><body>"
_WRAP_POST = b"</body></html>"

N_HOSTS = 97
DUP_PERIOD = 50  # every 50th row re-crawls the previous row's url → ~2% dups


def lang_of_index(i: np.ndarray) -> np.ndarray:
    """Deterministic language for row i (distribution over _LANG_CUM)."""
    bucket = (i * 7919) % 100  # prime stride decorrelates lang from host/path
    out = np.empty(len(i), dtype=object)
    prev = 0
    for lg, hi in zip(LANGS, _LANG_CUM):
        m = (bucket >= prev) & (bucket < hi)
        out[m] = lg
        prev = hi
    return out


def url_of_index(i: int, lang: str) -> str:
    return f"https://{lang}.site{i % N_HOSTS}.example/{i:08d}"


_VOCAB_ARR = np.array(_VOCAB, dtype=object)


def expected_text(url: str) -> str:
    """The text oracle: words from a fixed 64-word vocab driven by the sha256
    digest of the url — word j is ``VOCAB[(digest[j % 32] + j) % 64]``,
    length ``20 + digest[0] % 30``. Pure function of url (so duplicate
    crawls of a url carry byte-identical text — north-rule invariant)."""
    return expected_texts([url])[0]


def expected_texts(urls) -> list[str]:
    """Vectorized batch form of expected_text (the hot generator path)."""
    n = len(urls)
    if n == 0:
        return []
    digests = np.frombuffer(
        b"".join(hashlib.sha256(u.encode("utf-8")).digest() for u in urls),
        dtype=np.uint8).reshape(n, 32)
    n_words = 20 + (digests[:, 0] % 30).astype(np.int64)
    max_w = int(n_words.max())
    j = np.arange(max_w)
    idx = (digests[:, j % 32].astype(np.int64) + j[None, :]) % 64
    words = _VOCAB_ARR[idx]
    return [" ".join(words[i, :n_words[i]]) for i in range(n)]


def html_of_text(text: str) -> bytes:
    """Crawl-shaped html for a text: head with title+style, body with the
    words re-flowed into <p> paragraphs, a script block and a comment —
    so extraction must do real work (tag strip, script/comment removal,
    whitespace normalize) and still return ``text`` byte-identically
    (paragraph boundaries normalize to the single spaces they replaced)."""
    words = text.split(" ")
    paras = [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]
    body = "</p>\n<p>".join(paras)
    return (_WRAP_PRE + b"<script>var t0=Date.now();</script><!-- crawl -->"
            b"<p>" + body.encode("utf-8") + b"</p>" + _WRAP_POST)


def _gen_batch(batch: pa.Table) -> pa.Table:
    idx = batch["id"].to_numpy()
    # duplicate rule: rows with i % DUP_PERIOD == DUP_PERIOD-1 and i>0 are a
    # re-crawl of row i-1's url, 1000 days... no — +1 hour later.
    is_dup = (idx % DUP_PERIOD == DUP_PERIOD - 1) & (idx > 0)
    src = np.where(is_dup, idx - 1, idx)
    langs = lang_of_index(src)
    urls = [url_of_index(int(s), lg) for s, lg in zip(src, langs)]
    texts = expected_texts(urls)
    htmls = [html_of_text(t) for t in texts]
    ts_us = idx.astype("int64") * 1_000_000 + np.where(is_dup, 3_600_000_000, 0)
    ts = (np.datetime64(_EPOCH, "us") + ts_us.astype("timedelta64[us]"))
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "warc_ts": pa.array(ts, type=pa.timestamp("us")),
        "html": pa.array(htmls, type=pa.binary()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(list(langs), type=pa.string()),
    })


def generate_pages(n: int, override_num_blocks: int | None = None) -> ray.data.Dataset:
    if override_num_blocks is None:
        # ~25k rows per generator task: large enough that task dispatch /
        # object-store put overhead is <5%, small enough to parallelize
        override_num_blocks = max(8, min(n // 25000, 2048))
    return ray.data.range(n, override_num_blocks=override_num_blocks).map_batches(
        _gen_batch, batch_format="pyarrow", batch_size=8192
    )


import re as _re

# compiled once at import (workers import the module once per process, so
# stateless regex needs no per-worker cache)
_SCRIPT_STYLE_RE = _re.compile(
    rb"<(script|style|noscript)\b[^>]*>.*?</\1\s*>", _re.S | _re.I)
_COMMENT_RE = _re.compile(rb"<!--.*?-->", _re.S)
_TAG_RE = _re.compile(rb"<[^>]*>")
_NUM_ENT_RE = _re.compile(r"&#(x[0-9a-fA-F]{1,6}|[0-9]{1,7});")
_NAMED_ENTITIES = {
    "&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
    "&apos;": "'", "&#39;": "'", "&nbsp;": " ",
}


def _decode_entities(s: str) -> str:
    if "&" not in s:
        return s
    for k, v in _NAMED_ENTITIES.items():
        s = s.replace(k, v)
    return _NUM_ENT_RE.sub(_num_entity, s)


def _num_entity(m) -> str:
    """``&#N;`` / ``&#xH;`` → its character; a code point past U+10FFFF
    or a surrogate (unencodable as UTF-8) → U+FFFD, as HTML5 decodes it."""
    g = m.group(1)
    cp = int(g[1:], 16) if g[0] in "xX" else int(g)
    return "\ufffd" if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF else chr(cp)


def extract_text(h: bytes) -> str:
    """One page: html bytes → visible text. Body span → drop script/style/
    noscript/comments → strip tags (tag boundary = word boundary) →
    entity decode → whitespace normalize: runs of whitespace become one
    space and the ends are trimmed, where whitespace is ``str.isspace``
    (the same set the str-pattern ``\\s`` matches, so one ``str.split``
    replaces a regex substitution that matched once per word). Plain
    body text (the fixture generator's shape, and the common fast path)
    passes through byte-identical — the north-rule invariant."""
    lo = h.find(b"<body")
    lo = h.find(b">", lo) + 1 if lo >= 0 else 0
    hi = h.rfind(b"</body>")
    if hi < 0:
        hi = len(h)
    body = h[lo:hi]
    if b"<" in body or b"&" in body:
        body = _SCRIPT_STYLE_RE.sub(b" ", body)
        body = _COMMENT_RE.sub(b" ", body)
        body = _TAG_RE.sub(b" ", body)
        s = _decode_entities(body.decode("utf-8", errors="replace"))
        return " ".join(s.split())
    return body.decode("utf-8", errors="replace")


def extract_text_batch(batch: pa.Table, html_col: str = "html",
                       out_col: str = "text_extracted") -> pa.Table:
    """html → text extraction stage (the graft's payload transform; the
    north rule requires the extracted text to be byte-identical per url)."""
    htmls = batch[html_col].to_pylist()
    out = [extract_text(h) for h in htmls]
    cols = {name: batch[name] for name in batch.column_names}
    cols[out_col] = pa.array(out, type=pa.string())
    return pa.table(cols)


def pages_from_documents(sf_dir: str, parallelism: int = -1) -> ray.data.Dataset:
    """Derive a pages table from the driver's ``documents`` parquet so the
    DuckDB oracle can see the same rows: url is a pure function of doc_id,
    text/lang are taken from the table, warc_ts is synthesized from doc_id.
    Used by __ray_entry__ queries (the sha256(url) geocode then matches the
    SQL in oracle_sql())."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])

    def add_url(batch: pa.Table) -> pa.Table:
        doc_id = batch["doc_id"].to_numpy()
        urls = [f"https://doc{int(d)}.example/" for d in doc_id]
        ts = [_EPOCH + timedelta(seconds=int(d)) for d in doc_id]
        return pa.table({
            "doc_id": batch["doc_id"],
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "text": batch["text"],
            "lang": batch["lang"],
        })

    return ds.map_batches(add_url, batch_format="pyarrow")


URL_FROM_DOCID_SQL = "('https://doc' || CAST(doc_id AS VARCHAR) || '.example/')"
