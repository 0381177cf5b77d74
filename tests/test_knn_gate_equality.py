"""The graph-backed KNN gate entries equal brute force row for row.

``knn_hnsw`` and ``knn_index_resident`` run the exact per-segment scan
(the ``KnnFloatVectorQuery`` visitedLimit fallback), so their tables
must equal ``knn_cosine``'s: same query ids, ranks, vector ids and
basis points. ``knn_hnsw_filtered`` must equal ``knn_filtered`` the
same way.
"""

from lucene_ray.pipelines.hnsw_knn import knn_hnsw, knn_hnsw_filtered
from lucene_ray.pipelines.knn import knn_cosine, knn_filtered
from lucene_ray.pipelines.vector_index import knn_index_resident

SF = "/root/testdata/sf0.001"


def _rows(t):
    return list(
        zip(*(t.column(c).to_pylist() for c in ("qid", "rank", "vec_id", "sim_bp")))
    )


def test_unfiltered_entries_equal_brute_force(ray_session):
    want = _rows(knn_cosine(SF))
    assert len(want) == 15
    assert _rows(knn_hnsw(SF)) == want
    assert _rows(knn_index_resident(SF)) == want


def test_filtered_entry_equals_brute_force(ray_session):
    want = _rows(knn_filtered(SF))
    assert len(want) == 15
    assert _rows(knn_hnsw_filtered(SF)) == want
