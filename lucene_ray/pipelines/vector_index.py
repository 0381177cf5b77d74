"""Index-resident vector search gate — ``KnnFloatVectorField`` end to
end: documents and their embeddings are indexed TOGETHER (one segment
holds postings, docmap, norms AND ``vectors.hnsw.npz``), then KNN runs
against the index's own segments via ``search.knn_index`` — the shape
of ``core/document/KnnFloatVectorField.java`` +
``core/search/KnnFloatVectorQuery.java``, where vectors live in the
leaf, not in a side file keyed off the corpus.

The input composition (embeddings LEFT JOIN documents on vec_id =
doc_id, so the index holds one vector per embedding row) is a
driver-side DuckDB join materialized once into a scratch parquet — at
100 TB this would be a Ray Data zip/join producing the build's input
shards; the BUILD itself is the standard partition fan-out either way.
The HNSW gate entries (``pipelines/hnsw_knn.py``) search this same
index.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.vectors import EF_SEARCH
from lucene_ray.pipelines.index_cache import CACHE_ROOT
from lucene_ray.pipelines.knn import KNN_K, QUERY_VEC_IDS, _load_queries
from lucene_ray.search.knn_index import knn_search_index

VEC_CONFIG = IndexConfig(
    rows_per_segment=1024,
    num_buckets=2,
    vector_col="embedding",
)


def _joined_input(sf_dir: str) -> str:
    """embeddings LEFT JOIN documents → one scratch parquet (doc_id,
    text, embedding), one row per embedding, cached by content mtime."""
    import duckdb

    docs = os.path.join(sf_dir, "documents.parquet")
    emb = os.path.join(sf_dir, "embeddings.parquet")
    tag = hashlib.sha1(
        f"vecjoin:v2:{os.path.abspath(docs)}:{os.path.getmtime(docs)}:"
        f"{os.path.getmtime(emb)}".encode()
    ).hexdigest()[:16]
    out = os.path.join(CACHE_ROOT, f"vecjoin_{tag}.parquet")
    if os.path.exists(out):
        return out
    os.makedirs(CACHE_ROOT, exist_ok=True)
    tmp = out + f".tmp{os.getpid()}"
    duckdb.sql(
        f"""
        copy (
          select e.vec_id as doc_id, d.text, e.embedding
          from '{emb}' e left join '{docs}' d on d.doc_id = e.vec_id
          order by e.vec_id
        ) to '{tmp}' (format parquet)
        """
    )
    os.replace(tmp, out)
    return out


def build_vector_index(sf_dir: str) -> str:
    """Build (or reuse) the vector-resident index; returns its dir."""
    src = _joined_input(sf_dir)
    tag = hashlib.sha1(
        f"vecidx:v3:{src}:{os.path.getmtime(src)}:{VEC_CONFIG.rows_per_segment}".encode()
    ).hexdigest()[:16]
    idx_dir = os.path.join(CACHE_ROOT, f"vecidx_{tag}")
    if not os.path.exists(os.path.join(idx_dir, "manifest.json")):
        build_index(src, idx_dir, VEC_CONFIG)
    return idx_dir


def resident_knn(
    sf_dir: str, ef: int = EF_SEARCH, exact: bool = True, allowed_keys=None
) -> pa.Table:
    """The standard KNN query set against the index's own per-segment
    vectors+graphs → (qid, rank, vec_id, sim_bp), the schema of
    ``knn_cosine``. ``exact``: the ``KnnFloatVectorQuery.java``
    visitedLimit exact fallback on every leaf, provably
    brute-force-identical. ``allowed_keys``: the doc ids the filter
    accepts."""
    idx = build_vector_index(sf_dir)
    q = _load_queries(sf_dir)
    res = knn_search_index(
        idx, q, k=KNN_K, ef=ef, exact=exact, allowed_keys=allowed_keys
    )
    qids = np.asarray([QUERY_VEC_IDS[i] for i in res.column("qi").to_pylist()])
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "rank": res.column("rank"),
            "vec_id": res.column("key"),
            "sim_bp": res.column("sim_bp"),
        }
    )


def knn_index_resident(sf_dir: str):
    """Gate entry: :func:`resident_knn` in gate-exact mode, so it
    hash-matches ``sql_knn_cosine``. The approximate graph path and the
    deleted-doc mask stay pinned in tests/test_vector_index.py."""
    return resident_knn(sf_dir)
