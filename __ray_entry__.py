"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in geetiles_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (pipelines/flagship.py):
    pages (derived from documents + synthetic crawl metadata) → dedup by url
    → html text extraction → geocode → UTM-grid tile assignment → per-tile
    language counts. Returns the assignment Dataset."""
    from geetiles_ray.pipelines import flagship
    from geetiles_ray.sources import pages as pagesmod

    sf_dir = "/root/testdata/sf0.001"
    docs = pagesmod.pages_from_documents(sf_dir)

    # give the documents crawl-shaped payloads (html wrapping the text) so the
    # full input_hint schema flows through the pipeline
    import pyarrow as pa

    def to_pages(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        htmls = [pagesmod.html_of_text(t) for t in texts]
        return pa.table({
            "url": batch["url"], "warc_ts": batch["warc_ts"],
            "html": pa.array(htmls, type=pa.binary()),
            "text": batch["text"], "lang": batch["lang"],
        })

    pages = docs.map_batches(to_pages, batch_format="pyarrow")
    assigned, _counts = flagship.run(pages)
    return assigned.select_columns(
        ["url", "lang", "lon", "lat", "tile_id", "cell_id", "text_extracted"])


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline (SURVEY.md §2 coverage)."""
    from geetiles_ray.pipelines.queries import REGISTRY

    return {name: fn for name, (fn, _sql) in REGISTRY.items()}


def oracle_sql() -> dict[str, str]:
    """DuckDB oracle per query (same column names, same value arithmetic).
    Queries whose semantics are not SQL-expressible have no entry (the
    driver then records a rows-only check)."""
    from geetiles_ray.pipelines.queries import REGISTRY

    return {name: sql for name, (_fn, sql) in REGISTRY.items() if sql is not None}
