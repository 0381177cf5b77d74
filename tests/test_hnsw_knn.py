"""HNSW graph ANN: recall vs brute force, determinism, graph persistence."""

import numpy as np
import pytest

from lucene_ray.index.vectors import (
    EF_SEARCH,
    _levels_for,
    _normalize,
    _ShardGraph,
    graph_to_bytes,
)


def _brute_topk(v, q, k):
    vn = _normalize(v.astype(np.float64))
    qn = q / np.linalg.norm(q)
    sims = vn @ qn
    order = np.lexsort((np.arange(len(v)), -sims))[:k]
    return list(order)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(7)
    # 3 gaussian clusters + noise: adversarial enough for graph search
    cents = rng.normal(size=(3, 32))
    v = np.concatenate(
        [c + 0.3 * rng.normal(size=(120, 32)) for c in cents]
        + [rng.normal(size=(40, 32))]
    )
    return v


def test_levels_deterministic_and_distributed():
    ids = np.arange(10_000, dtype=np.int64)
    l1 = _levels_for(ids)
    l2 = _levels_for(ids)
    assert np.array_equal(l1, l2)
    # geometric-ish: most nodes at level 0, some above
    assert (l1 == 0).mean() > 0.8
    assert l1.max() >= 1


def test_recall_vs_brute_force(cloud):
    v = cloud
    g = _ShardGraph(v, np.arange(len(v), dtype=np.int64))
    rng = np.random.default_rng(11)
    hits = total = 0
    for _ in range(20):
        q = rng.normal(size=32)
        qn = q / np.linalg.norm(q)
        truth = set(_brute_topk(v, q, 10))
        got = {row for _, row in g.search(qn, 10, EF_SEARCH)}
        hits += len(truth & got)
        total += 10
    assert hits / total >= 0.9, f"recall {hits / total:.3f}"


def test_build_deterministic(cloud):
    v = cloud
    ids = np.arange(len(v), dtype=np.int64)
    a = _ShardGraph(v, ids)
    b = _ShardGraph(v, ids)
    assert a.entry == b.entry and a.max_level == b.max_level
    for la, lb in zip(a.nbrs, b.nbrs):
        assert np.array_equal(la, lb)


def test_save_load_roundtrip(tmp_path, cloud):
    v = cloud[:100]
    g = _ShardGraph(v, np.arange(100, dtype=np.int64))
    p = tmp_path / "graph.npz"
    p.write_bytes(graph_to_bytes(g))
    h = _ShardGraph.load(str(p))
    q = _normalize(v[:1].astype(np.float64))[0]
    assert g.search(q, 5, 32) == h.search(q, 5, 32)


def test_pipeline_rows(ray_session):
    import os

    from lucene_ray.pipelines.hnsw_knn import knn_hnsw

    t = knn_hnsw("/root/testdata/sf0.001")
    assert t.num_rows == 15  # 3 queries x k=5
    assert t.column_names == ["qid", "rank", "vec_id", "sim_bp"]
    # query vector 0 must find itself at rank 0 with sim 1.0
    import pyarrow.compute as pc

    r0 = t.filter(pc.equal(t.column("qid"), 0)).to_pydict()
    assert r0["vec_id"][0] == 0 and r0["sim_bp"][0] == 10000


def test_filtered_recall_and_membership(cloud):
    """Filtered search returns only accepted rows, with high recall vs
    brute force over the accepted subset."""
    v = cloud
    g = _ShardGraph(v, np.arange(len(v), dtype=np.int64))
    accept = np.arange(len(v)) % 3 == 0  # ~1/3 selective
    rng = np.random.default_rng(23)
    hits = total = 0
    for _ in range(20):
        q = rng.normal(size=32)
        qn = q / np.linalg.norm(q)
        got = [row for _, row in g.search_filtered(qn, 10, 48, accept)]
        assert all(accept[r] for r in got)
        vn = _normalize(v.astype(np.float64))
        sims = vn @ qn
        sims[~accept] = -np.inf
        truth = set(np.lexsort((np.arange(len(v)), -sims))[:10])
        hits += len(truth & set(got))
        total += 10
    assert hits / total >= 0.9, f"filtered recall {hits / total:.3f}"


def test_filtered_sparse_falls_back_exact(cloud):
    """A highly selective filter must trip the visit budget and fall
    back to the exact scan — full recall guaranteed."""
    v = cloud
    g = _ShardGraph(v, np.arange(len(v), dtype=np.int64))
    accept = np.zeros(len(v), dtype=bool)
    accept[[3, 77, 200, 311]] = True
    q = _normalize(v[5:6].astype(np.float64))[0]
    got = [row for _, row in g.search_filtered(q, 3, 48, accept)]
    vn = _normalize(v.astype(np.float64))
    sims = vn @ q
    sims[~accept] = -np.inf
    truth = list(np.lexsort((np.arange(len(v)), -sims))[:3])
    assert got == truth


def test_filtered_empty_accept(cloud):
    g = _ShardGraph(cloud[:50], np.arange(50, dtype=np.int64))
    q = _normalize(cloud[:1].astype(np.float64))[0]
    assert g.search_filtered(q, 5, 48, np.zeros(50, dtype=bool)) == []


def test_filtered_pipeline_rows(ray_session):
    from lucene_ray.pipelines.hnsw_knn import hnsw_knn_filtered

    t = hnsw_knn_filtered("/root/testdata/sf0.001")
    assert t.column_names == ["qid", "rank", "vec_id", "sim_bp"]
    assert t.num_rows > 0
    # every hit's vec_id must belong to an en doc
    import os

    import pyarrow.parquet as pq

    en = set(
        pq.read_table(
            "/root/testdata/sf0.001/documents.parquet",
            columns=["doc_id"],
            filters=[("lang", "=", "en")],
        ).column("doc_id").to_pylist()
    )
    assert all(v in en for v in t.column("vec_id").to_pylist())
