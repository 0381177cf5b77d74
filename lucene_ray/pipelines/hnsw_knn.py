"""HNSW graph ANN over the ``embeddings`` table — the reference's
graph-based vector index (`lucene/core/src/java/org/apache/lucene/util/
hnsw/HnswGraphBuilder.java`, `HnswGraphSearcher.java`,
`core/search/KnnFloatVectorQuery.java`) re-expressed Ray-Data-first.

Clean-room implementation of the published HNSW algorithm (Malkov &
Yashunin, "Efficient and robust approximate nearest neighbor search
using Hierarchical Navigable Small World graphs", 2016):

- **Sharded like Lucene segments.** Lucene builds ONE graph per segment
  and merges per-segment top-k (`KnnFloatVectorQuery` rewrites to the
  union of per-leaf results). Here each Ray block of the embeddings
  table becomes one shard: a `map_batches` task builds that shard's
  graph independently (embarrassingly parallel — no cross-shard
  coordination), persists it as an `.npz`, and emits one meta row. At
  100 TB each shard is bounded by the block size, so build memory is
  O(shard), never O(corpus).
- **Deterministic.** Level assignment hashes the vector id
  (splitmix64 → uniform → floor(-ln(u)·mL)) instead of an RNG, so
  rebuilds are bit-identical; insertion order is row order within the
  shard; all candidate heaps tie-break on vector index.
- **Query**: one task per shard loads its graph (memory-mapped arrays),
  runs best-first search with `ef` candidates for every query in the
  broadcast query matrix, returns per-shard top-k; the driver merges
  the tiny per-shard results (same final ordering rules as
  ``knn_cosine``: sim basis points desc, vec_id asc).

Approximate by construction, so the driver gate records a rows-only
check; recall versus brute force and build determinism are pinned in
``tests/test_hnsw_knn.py``.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import List

import numpy as np
import pyarrow as pa

from lucene_ray.pipelines.knn import KNN_K, QUERY_VEC_IDS, _emb_path, _load_queries

from lucene_ray.index.vectors import (  # noqa: F401 — re-exports
    EF_CONSTRUCTION,
    EF_SEARCH,
    M,
    _ShardGraph,
    _levels_for,
    _normalize,
)

SHARD_ROWS = 1024  # vectors per shard at bench sf; a knob, not a limit
CACHE_ROOT = os.environ.get("LUCENE_RAY_CACHE", "/tmp/lucene_ray_idx")


def build_hnsw(sf_dir: str) -> str:
    """Build (or reuse) the sharded HNSW index; returns its dir.

    One `map_batches` task per shard builds that shard's graph and
    writes `shard_<first_vec_id>.npz`; `_DONE` commits the set
    (two-phase, like the segment builds)."""
    import ray
    import ray.data

    emb = _emb_path(sf_dir)
    tag = hashlib.sha1(
        f"hnsw:v2:{os.path.abspath(emb)}:{os.path.getmtime(emb)}:{M}:"
        f"{EF_CONSTRUCTION}:{SHARD_ROWS}".encode()
    ).hexdigest()[:16]
    idx_dir = os.path.join(CACHE_ROOT, f"hnsw_{tag}")
    marker = os.path.join(idx_dir, "_DONE")
    if os.path.exists(marker):
        return idx_dir
    os.makedirs(idx_dir, exist_ok=True)

    def build_shard(b: pa.Table) -> pa.Table:
        arr = b.column("embedding").combine_chunks()
        m = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        ids = np.asarray(b.column("vec_id"), dtype=np.int64)
        g = _ShardGraph(m, ids)
        name = f"shard_{int(ids.min()):012d}.npz"
        g.save(os.path.join(idx_dir, name))
        return pa.table(
            {"shard": pa.array([name]), "rows": pa.array([len(ids)], pa.int64())}
        )

    ds = ray.data.read_parquet(emb, columns=["vec_id", "embedding"])
    metas = ds.map_batches(
        build_shard, batch_format="pyarrow", batch_size=SHARD_ROWS
    ).take_all()  # tiny: one meta row per shard
    with open(os.path.join(idx_dir, "shards.txt"), "w") as f:
        for r in sorted(m["shard"] for m in metas):
            f.write(r + "\n")
    with open(marker, "w"):
        pass
    return idx_dir


def hnsw_knn(sf_dir: str, ef: int = EF_SEARCH, gate_exact: bool = False):
    """→ (qid, rank, vec_id, sim_bp) like ``knn_cosine`` — per-shard
    graph search fanned out as one task per shard, tiny driver merge.

    ``gate_exact``: force every shard down the exact-scan fallback
    (``KnnFloatVectorQuery.java``'s visitedLimit-exceeded path, scored
    bit-identically to brute-force ``knn_cosine``) so the result is
    provably brute-force-identical and the driver can hash-match it
    against ``sql_knn_cosine``. The approximate graph path (default)
    carries the bench; recall vs brute force is pinned in
    ``tests/test_hnsw_knn.py``."""
    import ray
    import ray.data

    idx_dir = build_hnsw(sf_dir)
    with open(os.path.join(idx_dir, "shards.txt")) as f:
        shards = [ln.strip() for ln in f if ln.strip()]
    q = _load_queries(sf_dir)
    qn = _normalize(q.astype(np.float64))
    q_ref = ray.put(qn)

    def search_shard(b: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        out_q: List[int] = []
        out_v: List[int] = []
        out_s: List[int] = []
        for name in b.column("shard").to_pylist():
            g = _ShardGraph.load(os.path.join(idx_dir, name))
            if gate_exact:
                for qi, hits in enumerate(g.exact_topk(qm, KNN_K)):
                    for bp, row in hits:
                        out_q.append(qi)
                        out_v.append(int(g.ids[row]))
                        out_s.append(bp)
                continue
            for qi in range(qm.shape[0]):
                for sim, row in g.search(qm[qi], KNN_K, ef):
                    out_q.append(qi)
                    out_v.append(int(g.ids[row]))
                    out_s.append(int(math.floor(sim * 10000 + 0.5)))
        return pa.table(
            {
                "qi": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim_bp": pa.array(out_s, pa.int64()),
            }
        )

    sds = ray.data.from_items([{"shard": s} for s in shards])
    cand = sds.map_batches(
        search_shard, batch_format="pyarrow", batch_size=1
    ).to_pandas()  # ≤ n_shards * n_queries * k rows — tiny
    rows = []
    for qi in range(len(QUERY_VEC_IDS)):
        sub = cand[cand.qi == qi].sort_values(
            ["sim_bp", "vec_id"], ascending=[False, True]
        ).head(KNN_K)
        for rank, (_, r) in enumerate(sub.iterrows()):
            rows.append((QUERY_VEC_IDS[qi], rank, int(r.vec_id), int(r.sim_bp)))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "rank": pa.array([r[1] for r in rows], pa.int32()),
            "vec_id": pa.array([r[2] for r in rows], pa.int64()),
            "sim_bp": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def knn_hnsw(sf_dir: str):
    """Driver-gate entry — runs in gate-exact mode (the Lucene exact-
    fallback path, provably brute-force-identical) so it hash-matches
    ``sql_knn_cosine``; the approximate graph path stays on for the
    bench and the recall tests in tests/test_hnsw_knn.py."""
    return hnsw_knn(sf_dir, gate_exact=True)


def hnsw_knn_filtered(
    sf_dir: str,
    lang: str = "en",
    ef: int = EF_SEARCH,
    gate_exact: bool = False,
):
    """Filtered HNSW — ``KnnFloatVectorQuery``'s filter evaluated DURING
    graph traversal (`core/search/KnnFloatVectorQuery.java`: acceptOrds
    bitset + visitedLimit fallback to exact), vs ``knn_filtered``'s
    brute-prefilter plan. Ray shape: the filter side reads only doc_id
    with the lang predicate pushed into the parquet scan, the sorted id
    set rides one ``ray.put`` broadcast with the query matrix, and each
    shard task masks its own rows locally — per-shard accept bitsets,
    like Lucene's per-leaf bitsets."""
    import pyarrow.parquet as pq_

    import ray
    import ray.data

    idx_dir = build_hnsw(sf_dir)
    with open(os.path.join(idx_dir, "shards.txt")) as f:
        shards = [ln.strip() for ln in f if ln.strip()]
    q = _load_queries(sf_dir)
    qn = _normalize(q.astype(np.float64))
    ids = pq_.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id"],
        filters=[("lang", "=", lang)],
    ).column("doc_id")
    allowed = np.sort(np.asarray(ids, dtype=np.int64))
    bcast = ray.put((qn, allowed))

    def search_shard(b: pa.Table) -> pa.Table:
        qm, ok_ids = ray.get(bcast)
        out_q: List[int] = []
        out_v: List[int] = []
        out_s: List[int] = []
        for name in b.column("shard").to_pylist():
            g = _ShardGraph.load(os.path.join(idx_dir, name))
            pos = np.searchsorted(ok_ids, g.ids)
            safe = np.minimum(pos, max(len(ok_ids) - 1, 0))
            accept = (
                np.zeros(len(g.ids), dtype=bool)
                if len(ok_ids) == 0
                else ok_ids[safe] == g.ids
            )
            if not accept.any():
                continue
            if gate_exact:
                for qi, hits in enumerate(
                    g.exact_topk(qm, KNN_K, accept=accept)
                ):
                    for bp, row in hits:
                        out_q.append(qi)
                        out_v.append(int(g.ids[row]))
                        out_s.append(bp)
                continue
            for qi in range(qm.shape[0]):
                for sim, row in g.search_filtered(qm[qi], KNN_K, ef, accept):
                    out_q.append(qi)
                    out_v.append(int(g.ids[row]))
                    out_s.append(int(math.floor(sim * 10000 + 0.5)))
        return pa.table(
            {
                "qi": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim_bp": pa.array(out_s, pa.int64()),
            }
        )

    sds = ray.data.from_items([{"shard": s} for s in shards])
    cand = sds.map_batches(
        search_shard, batch_format="pyarrow", batch_size=1
    ).to_pandas()  # ≤ n_shards * n_queries * k rows — tiny
    rows = []
    for qi in range(len(QUERY_VEC_IDS)):
        sub = cand[cand.qi == qi].sort_values(
            ["sim_bp", "vec_id"], ascending=[False, True]
        ).head(KNN_K)
        for rank, (_, r) in enumerate(sub.iterrows()):
            rows.append((QUERY_VEC_IDS[qi], rank, int(r.vec_id), int(r.sim_bp)))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], pa.int64()),
            "rank": pa.array([r[1] for r in rows], pa.int32()),
            "vec_id": pa.array([r[2] for r in rows], pa.int64()),
            "sim_bp": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def knn_hnsw_filtered(sf_dir: str):
    """Driver-gate entry — gate-exact mode (exact scan over the accepted
    rows, the visitedLimit fallback) so it hash-matches
    ``sql_knn_filtered``; approximate traversal stays for bench/tests."""
    return hnsw_knn_filtered(sf_dir, gate_exact=True)
