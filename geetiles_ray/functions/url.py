"""Vectorized URL parsing for web-page tables.

The reference anchors every record to a location via its tile id; a
web-scale crawl pipeline anchors records to their *origin* — scheme /
host / registrable domain / path — for per-domain quality filtering,
politeness bucketing and host-level dedup. One compiled regex, applied
with pandas ``.str.extract`` (C path), no per-row Python.

Registrable domain uses a last-two-labels heuristic (``a.b.site3.example``
→ ``site3.example``) — a public-suffix list is a drop-in replacement and
deliberately NOT bundled (no network, no vendored data files)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

# scheme://authority[path]  (path stops at ? or #; query/fragment dropped)
_URL_RE = r"^([a-z][a-z0-9+.\-]*)://([^/?#]+)([^?#]*)"
_DOMAIN_RE = r"([^.]+\.[^.]+)$"
# authority = [userinfo@]host[:port] — both decorations must be stripped
# before host/domain extraction or 'example.com:8080' yields domain
# 'com:8080' (round-3 advisor finding).
_USERINFO_RE = r"^[^@]*@"
_PORT_RE = r":[0-9]*$"


def parse_urls(urls: pd.Series) -> pd.DataFrame:
    """urls → DataFrame(scheme, host, domain, path). Unparseable rows get
    empty strings (never NaN — keeps Arrow schemas stable). The host is
    the bare hostname: userinfo@ and :port are stripped from the URL
    authority."""
    parts = urls.str.extract(_URL_RE)
    parts.columns = ["scheme", "host", "path"]
    parts["host"] = parts["host"] \
        .str.replace(_USERINFO_RE, "", regex=True) \
        .str.replace(_PORT_RE, "", regex=True)
    parts["domain"] = parts["host"].str.extract(_DOMAIN_RE)[0]
    return parts[["scheme", "host", "domain", "path"]].fillna("")


def add_url_columns(ds: ray.data.Dataset, url_col: str = "url",
                    prefix: str = "") -> ray.data.Dataset:
    """Map stage: append scheme/host/domain/path columns parsed from
    ``url_col`` (optionally name-prefixed)."""

    def f(batch: pa.Table) -> pa.Table:
        parsed = parse_urls(batch[url_col].to_pandas())
        cols = {c: batch[c] for c in batch.column_names}
        for c in parsed.columns:
            cols[prefix + c] = pa.array(parsed[c].to_numpy(dtype=object),
                                        type=pa.string())
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow")


# --------------------------------------------------------------- canonical
# URL canonicalization: the crawl-dedup normalizer (fragment strip, scheme/
# host lowercase, userinfo/default-port strip, tracking-param removal,
# trailing-slash strip). Every step is a plain regex with NO lookarounds so
# Python re (engine, via pandas .str.replace C path) and RE2 (DuckDB
# regexp_replace in the SQL twin) execute it identically; the twin replays
# the same chain as a CTE (queries.py SQL_CANONICAL_URLS), so an oracle
# value-hash match proves both regex engines agreed on every row.
#
# Step order matters and is part of the contract:
#   1. fragment strip   2. lower(scheme)+lower(host), drop userinfo@
#   3. default-port strip (http:80 / https:443)
#   4. split at the FIRST '?' into base + query — '&' is a legal PATH
#      character (RFC 3986), so the tracking-param steps must never see
#      the base or they corrupt 'http://h/a&b' (round-4 advisor finding)
#   5. on the query substring only: '?' → '&' unify, tracking params out
#      (utm_*, fbclid, gclid, ref), first '&' back to '?'
#   6. recombine   7. trailing-slash strip (end of string only)
_TRACKING_PARAMS = r"(utm_[^=&]*|fbclid|gclid|ref)"
# (pattern, replacement, first_match_only) — replacement syntax '\1' is
# shared verbatim by re.sub and DuckDB regexp_replace. PORT steps run on
# the whole URL; QUERY steps run on the '?...' substring only.
CANON_PORT_STEPS: list[tuple[str, str, bool]] = [
    (r"^(http://[^/?#:]*):80([/?]|$)", r"\1\2", False),
    (r"^(https://[^/?#:]*):443([/?]|$)", r"\1\2", False),
]
CANON_QUERY_STEPS: list[tuple[str, str, bool]] = [
    (r"\?", "&", False),
    (r"&" + _TRACKING_PARAMS + r"=[^&]*", "", False),
    (r"&", "?", True),
]
CANON_TRAILING_SLASH: tuple[str, str, bool] = (r"([^:/])/$", r"\1", False)
_SPLIT_RE = r"^([^:/?#]+)://([^/?#]*)(.*)$"
_QUERY_SPLIT_RE = r"^([^?]*)(\?.*)?$"


def _apply_steps(s: pd.Series, steps) -> pd.Series:
    for pat, repl, first in steps:
        s = s.str.replace(pat, repl, n=1 if first else -1, regex=True)
    return s


def canonicalize_urls(urls: pd.Series) -> pd.Series:
    """Vectorized canonical form of each URL (see step list above).
    Unparseable rows (no scheme://authority) pass through with only the
    fragment stripped; null URLs stay null (SQL ``NULL || x`` semantics)."""
    s = urls.str.replace(r"#.*$", "", regex=True)
    parts = s.str.extract(_SPLIT_RE)
    rebuilt = (parts[0].str.lower() + "://"
               + parts[1].str.replace(_USERINFO_RE, "", regex=True).str.lower()
               + parts[2].fillna(""))
    s = rebuilt.where(parts[0].notna(), s)
    s = _apply_steps(s, CANON_PORT_STEPS)
    qp = s.str.extract(_QUERY_SPLIT_RE)
    base, qry = qp[0].fillna(""), qp[1].fillna("")
    s = (base + _apply_steps(qry, CANON_QUERY_STEPS)).where(s.notna())
    return _apply_steps(s, [CANON_TRAILING_SLASH])


def domain_stats(ds: ray.data.Dataset, url_col: str = "url",
                 lang_col: str = "lang",
                 size_col: str = "n_chars") -> pd.DataFrame:
    """Per-registrable-domain aggregate: page count, distinct hosts,
    distinct languages, total characters.

    Plan: map-side parse + pre-aggregation to (domain, host, lang) partials
    (each batch emits ≤ |domains×hosts×langs| rows, not |pages|), one
    ``dedup.fold_partials`` over the partials, then the distinct-counting
    final fold on the dimension-sized result (#domains × #langs rows —
    this is a catalog, not a corpus; at 10⁹ domains swap the driver fold
    for a second fold by domain)."""
    from ..pipelines.dedup import fold_partials

    def local(batch: pa.Table) -> pa.Table:
        urls = batch[url_col].to_pandas()
        parsed = parse_urls(urls)
        df = pd.DataFrame({
            "domain": parsed["domain"],
            "host": parsed["host"],
            "lang": batch[lang_col].to_pandas(),
            "sz": batch[size_col].to_numpy(zero_copy_only=False),
        })
        g = df.groupby(["domain", "host", "lang"], sort=False).agg(
            __n=("sz", "size"), __sz=("sz", "sum")).reset_index()
        g["__sz"] = g["__sz"].astype("int64")
        g["__n"] = g["__n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    partial = ds.select_columns([url_col, lang_col, size_col]) \
        .map_batches(local, batch_format="pyarrow")
    agg = fold_partials(partial, ["domain", "host", "lang"],
                        [("__n", "sum"), ("__sz", "sum")]).to_pandas()
    out = agg.groupby("domain").agg(
        n_pages=("__n", "sum"),
        n_hosts=("host", "nunique"),
        n_langs=("lang", "nunique"),
        sum_chars=("__sz", "sum"),
    ).reset_index().sort_values("domain").reset_index(drop=True)
    return out.astype({"n_pages": "int64", "n_hosts": "int64",
                       "n_langs": "int64", "sum_chars": "int64"})
