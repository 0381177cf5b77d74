"""HNSW graph ANN over the ``embeddings`` table — the reference's
graph-based vector index (`lucene/core/src/java/org/apache/lucene/util/
hnsw/HnswGraphBuilder.java`, `HnswGraphSearcher.java`,
`core/search/KnnFloatVectorQuery.java`).

Gate wrappers over the one vector store: the embeddings are indexed
with their documents (``pipelines/vector_index.py``), so every segment
carries its own deterministic HNSW graph (``index/vectors.py``), and
the query set runs through ``search.knn_index.knn_search_index`` — one
task per segment, tiny vectorized merge (sim basis points desc, vec_id
asc, like ``knn_cosine``). The filtered variant hands the filter to the
same search as the doc ids it accepts, so each segment's accept mask is
"live and key allowed" and the filter gates collection DURING graph
traversal (``KnnFloatVectorQuery``'s acceptOrds + visitedLimit
fallback).

The gate entries run in gate-exact mode, provably brute-force-identical;
recall of the approximate graph path and build determinism are pinned
in ``tests/test_hnsw_knn.py``.
"""

from __future__ import annotations

from lucene_ray.index.vectors import EF_SEARCH
from lucene_ray.pipelines.knn import _lang_keys
from lucene_ray.pipelines.vector_index import resident_knn


def hnsw_knn(sf_dir: str, ef: int = EF_SEARCH, gate_exact: bool = False):
    """→ (qid, rank, vec_id, sim_bp) like ``knn_cosine``.

    ``gate_exact``: force every segment down the exact-scan fallback
    (``KnnFloatVectorQuery.java``'s visitedLimit-exceeded path) so the
    result is provably brute-force-identical and hash-matches
    ``sql_knn_cosine``. The default is the approximate graph path."""
    return resident_knn(sf_dir, ef=ef, exact=gate_exact)


def knn_hnsw(sf_dir: str):
    """Gate entry — :func:`hnsw_knn` in gate-exact mode."""
    return hnsw_knn(sf_dir, gate_exact=True)


def hnsw_knn_filtered(
    sf_dir: str,
    lang: str = "en",
    ef: int = EF_SEARCH,
    gate_exact: bool = False,
):
    """Filtered HNSW — ``KnnFloatVectorQuery``'s filter evaluated DURING
    graph traversal, vs ``knn_filtered``'s brute-prefilter plan. The
    filter side reads only doc_id with the lang predicate pushed into
    the parquet scan; the sorted ids ride the query broadcast, and each
    segment task builds its own accept bitset."""
    return resident_knn(
        sf_dir, ef=ef, exact=gate_exact, allowed_keys=_lang_keys(sf_dir, lang)
    )


def knn_hnsw_filtered(sf_dir: str):
    """Gate entry — :func:`hnsw_knn_filtered` in gate-exact mode,
    so it hash-matches ``sql_knn_filtered``."""
    return hnsw_knn_filtered(sf_dir, gate_exact=True)
