"""Pre-filtered vector search (KnnFloatVectorQuery filter role), and the
basis-point rounding every KNN path ranks by."""

import numpy as np
import pyarrow.parquet as pq

from lucene_ray.index.vectors import exact_bp, to_bp
from lucene_ray.pipelines.knn import KNN_K, QUERY_VEC_IDS, knn_filtered

SF = "/root/testdata/sf0.001"


def brute(lang="en"):
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    ok = {
        int(d)
        for d, l in zip(
            docs.column("doc_id").to_pylist(), docs.column("lang").to_pylist()
        )
        if l == lang
    }
    emb = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(emb.column("vec_id"), dtype=np.int64)
    arr = emb.column("embedding").combine_chunks()
    m = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    mn = m / n
    out = {}
    for q in QUERY_VEC_IDS:
        qv = mn[int(np.flatnonzero(ids == q)[0])]
        keep = np.array([i in ok for i in ids])
        bp = np.floor(mn[keep] @ qv * 10000 + 0.5).astype(np.int64)
        kid = ids[keep]
        sel = np.lexsort((kid, -bp))[:KNN_K]
        out[q] = [(int(kid[i]), int(bp[i])) for i in sel]
    return out, ok


def test_matches_bruteforce_and_respects_filter(ray_session):
    t = knn_filtered(SF).to_pandas()
    want, ok = brute()
    for q in QUERY_VEC_IDS:
        sub = t[t.qid == q].sort_values("rank")
        got = list(zip(sub.vec_id.astype(int), sub.sim_bp.astype(int)))
        assert got == want[q]
        assert all(v in ok for v, _ in got)


def test_bp_rounding_half_up_and_self_hit():
    """bp = floor(sim*1e4 + 0.5): a self-similarity one ulp off 1.0 on
    either side still reads 10000 (plain floor would give 9999 below),
    and values round to the nearest basis point."""
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    assert to_bp(np.array([below, 1.0, above])).tolist() == [10000] * 3
    assert to_bp(np.array([0.12344, 0.12346, -0.00004, -0.00006])).tolist() == [
        1234,
        1235,
        0,
        -1,
    ]
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 24)).astype(np.float32)
    xn = x / np.linalg.norm(x.astype(np.float64), axis=1, keepdims=True)
    assert (np.diag(exact_bp(x, xn)) == 10000).all()
