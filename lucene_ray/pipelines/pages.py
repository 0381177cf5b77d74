"""Pages-corpus pipelines — the ``input_hint`` shape end-to-end:

- ``extract_text_stage``: html → text as a vectorized ``map_batches``
  transform; the per-row invariant (byte-identical extracted text per
  url, ``BASELINE.json.input_hint``) is checked inline and violations
  counted.
- ``dedup_pages_latest``: exact dedup by url keeping the LATEST
  ``warc_ts`` — ``IndexWriter.updateDocument(Term, doc)`` semantics
  (delete-by-key + add, ``core/index/IndexWriter.java:1911``; SURVEY
  §2.6) expressed as ``groupby(url).map_groups(keep latest)``.
- ``build_pages_index``: dedup → write clean parquet → segmented build
  keyed by url (string keys).
"""

from __future__ import annotations

import os
from typing import List

import pyarrow as pa
import pyarrow.compute as pc

from lucene_ray.corpus.generator import extract_text


def extract_text_stage(ds, verify: bool = True):
    """html:binary → extracted text; optionally verifies byte-identity
    against the shipped ``text`` column (counts mismatches per batch)."""

    def fn(b: pa.Table) -> pa.Table:
        htmls = b.column("html").to_pylist()
        extracted = [extract_text(h) for h in htmls]
        cols = {
            "url": b.column("url"),
            "warc_ts": b.column("warc_ts"),
            "text": pa.array(extracted, pa.string()),
            "lang": b.column("lang"),
        }
        if verify and "text" in b.column_names:
            shipped = b.column("text").to_pylist()
            mismatches = sum(
                1 for a, c in zip(extracted, shipped) if a != c
            )
            cols["extract_mismatch"] = pa.array(
                [mismatches] * len(extracted), pa.int32()
            )
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def dedup_pages_latest(ds, n_buckets: int = 64):
    """One row per url: the latest crawl wins (ties impossible — recrawls
    get strictly later timestamps; if equal, highest text wins for
    determinism).

    Ray shape: urls hash into ``n_buckets`` (stable siphash); ONE
    ``groupby(bucket)`` shuffle co-locates each url's crawls; the
    per-bucket kernel is one Arrow sort by (url, warc_ts, text) + a
    vectorized last-of-run cut — no per-url Python/pandas group. Scale
    ``n_buckets`` ∝ cluster width."""
    import numpy as np
    import pyarrow as pa

    def add_bucket(b: pa.Table) -> pa.Table:
        import pandas as pd

        urls = np.asarray(b.column("url").to_pylist(), dtype=object)
        h = pd.util.hash_array(urls)  # stable cross-process siphash
        return b.append_column(
            "ub",
            pa.array((h % np.uint64(n_buckets)).astype(np.int32)),
        )

    def keep_latest(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = group.sort_by(
            [
                ("url", "ascending"),
                ("warc_ts", "ascending"),
                ("text", "ascending"),
            ]
        )
        urls = g.column("url")
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        if len(urls) == 0:
            return group.drop_columns(["ub"])
        ne = pc.not_equal(urls.slice(1), urls.slice(0, len(urls) - 1))
        last = np.append(
            ne.to_numpy(zero_copy_only=False), True
        )
        return g.take(pa.array(np.flatnonzero(last))).drop_columns(["ub"])

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("ub")
        .map_groups(keep_latest, batch_format="pyarrow")
    )


def build_pages_index(paths: List[str], index_dir: str, work_dir: str,
                      dedup: bool = True, rows_per_segment: int = 4000):
    """Full pages pipeline: read → extract/verify → (dedup by url) →
    parquet staging → segmented index build keyed by url."""
    import ray.data

    from lucene_ray.index.build import build_index
    from lucene_ray.index.config import IndexConfig

    ds = ray.data.read_parquet(paths)
    ds = extract_text_stage(ds, verify=False)
    if dedup:
        ds = dedup_pages_latest(ds)
    staged = os.path.join(work_dir, "clean_pages")
    os.makedirs(staged, exist_ok=True)
    ds.write_parquet(staged)
    cfg = IndexConfig(key_col="url", text_col="text",
                      rows_per_segment=rows_per_segment)
    return build_index(staged, index_dir, cfg)
