"""SORTED_SET multi-valued doc values + facet counts over them.

Reference semantics: ``core/index/DocValuesType.java:25-51`` defines
``SORTED_SET`` (a per-doc SET of string ords, deduplicated and sorted
at write time — ``core/index/SortedSetDocValuesWriter.java``) and
``SORTED_NUMERIC``; facet counting over them is
``lucene/facet/src/java/org/apache/lucene/facet/sortedset/SortedSetDocValuesFacetCounts.java``
(each matching doc contributes each value of its set once).

Ray mapping: a multi-valued field is a ``list<string>`` /
``list<int64>`` Arrow column flowing through the standard ``dv_cols``
column store (``dv.parquet`` holds list columns natively; merge
concat+take preserves them). The per-doc dedup+sort happens in a
vectorized Arrow kernel at ingest — the ``SortedSetDocValuesWriter``
ord-dedup role — so readers can count by ``list_flatten`` without
re-deduplicating.

The driver's ``documents`` table has no multi-valued column, so the
gate pipeline derives a deterministic ``tags`` set per doc (the
distinct tokens of length ≥ ``TAG_MIN_LEN`` among the doc's first
``TAG_TOKENS`` whitespace tokens) inside ``map_batches`` — zero-copy
Arrow in, Arrow out, no Python row loop — and streams the tagged
corpus to scratch parquet that feeds the standard partitioned build.
At 100 TB this derivation stage pipelines with the build fan-out; the
scratch materialization exists only because ``build_index`` plans
docid bases from parquet footers.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from lucene_ray.index.config import IndexConfig
from lucene_ray.pipelines.index_cache import CACHE_ROOT

TAG_TOKENS = 8
TAG_MIN_LEN = 4

MV_CONFIG = IndexConfig(
    rows_per_segment=2048,
    num_buckets=2,
    keyword_cols=("lang",),
    dv_cols=("tags", "lang"),
)


def derive_tags(b: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized SORTED_SET ingest kernel: append a ``tags``
    ``list<string>`` column = sorted distinct ≥``TAG_MIN_LEN``-char
    tokens among the first ``TAG_TOKENS`` whitespace tokens.

    Pure Arrow: split → slice → flatten+parent-indices → filter →
    distinct (group_by) → sort → rebuild list offsets via bincount."""
    import pyarrow.compute as pc

    text = b.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.list_slice(
        pc.split_pattern(text, " "), 0, TAG_TOKENS
    )
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    keep = pc.greater_equal(pc.utf8_length(flat), TAG_MIN_LEN)
    flat = pc.filter(flat, keep)
    parents = pc.filter(parents, keep)
    pairs = (
        pa.table({"p": parents, "v": flat})
        .group_by(["p", "v"])
        .aggregate([])
        .sort_by([("p", "ascending"), ("v", "ascending")])
    )
    p = np.asarray(pairs.column("p"), dtype=np.int64)
    counts = np.bincount(p, minlength=len(b))
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    values = pairs.column("v").combine_chunks()
    tags = pa.ListArray.from_arrays(pa.array(offsets), values)
    return b.append_column("tags", tags)


def tagged_corpus(sf_dir: str) -> str:
    """documents + derived ``tags`` → scratch parquet dir (cached)."""
    import ray.data

    docs = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"mvtags:{os.path.abspath(docs)}:{os.path.getmtime(docs)}:"
        f"{TAG_TOKENS}:{TAG_MIN_LEN}".encode()
    ).hexdigest()[:16]
    out = os.path.join(CACHE_ROOT, f"mvtags_{tag}")
    if os.path.exists(os.path.join(out, "_DONE")):
        return out
    os.makedirs(out, exist_ok=True)
    (
        ray.data.read_parquet(docs)
        .map_batches(derive_tags, batch_format="pyarrow", batch_size=4096)
        .write_parquet(out)
    )
    with open(os.path.join(out, "_DONE"), "w") as f:
        f.write("ok")
    return out


def _mv_index(sf_dir: str) -> str:
    corpus = tagged_corpus(sf_dir)
    # the index cache keys on the scratch corpus dir via a shim sf_dir:
    # build directly with a content-derived tag instead
    idx_tag = hashlib.sha1(
        f"mvidx:{corpus}:{sorted(MV_CONFIG.to_json().items())}".encode()
    ).hexdigest()[:16]
    idx = os.path.join(CACHE_ROOT, f"mvidx_{idx_tag}")
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        from lucene_ray.index.build import build_index

        build_index(
            [
                os.path.join(corpus, f)
                for f in os.listdir(corpus)
                if f.endswith(".parquet")
            ],
            idx,
            MV_CONFIG,
        )
    return idx


def facet_multivalued(sf_dir: str):
    """Driver-gate entry: SORTED_SET facet counts of ``tags`` over the
    'data' match set → (tag, n)."""
    from lucene_ray.search.searcher import IndexSearcher

    idx = _mv_index(sf_dir)
    s = IndexSearcher(idx)
    t = s.facet_counts("data", "tags")
    return pa.table({"tag": t.column("value"), "n": t.column("n")})


def sql_facet_multivalued() -> str:
    """Unnest-based oracle: same derivation (first ``TAG_TOKENS``
    space-tokens, length ≥ ``TAG_MIN_LEN``, distinct per doc), counted
    over the docs matching term 'data'."""
    return f"""
with tok as (
  select doc_id, t.term
  from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (select distinct doc_id from tok where term = 'data'),
tags as (
  select distinct doc_id, t.term as tag
  from (
    select doc_id, string_split(text, ' ')[1:{TAG_TOKENS}] as toks
    from documents
  ), unnest(toks) as t(term)
  where length(t.term) >= {TAG_MIN_LEN}
)
select tg.tag, count(*)::bigint as n
from tags tg join m using (doc_id)
group by tg.tag
"""
