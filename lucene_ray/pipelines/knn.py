"""Similarity search over the ``embeddings`` table.

Brute-force cosine top-k: the query matrix is broadcast once via
``ray.put`` and every ``map_batches`` task scores its batch with one
float64 matmul (``index.vectors.exact_bp``) — the scale path (per-batch
partial top-k, tiny global reduce). An LSH-bucketed variant lives in
``pipelines/lsh_knn.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from lucene_ray.index.vectors import _normalize, exact_bp

QUERY_VEC_IDS = [0, 1, 2]
KNN_K = 5


def _emb_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "embeddings.parquet")


def _load_queries(sf_dir: str, vec_ids=QUERY_VEC_IDS) -> np.ndarray:
    """Read ONLY the query vectors, in ``vec_ids`` order (predicate
    pushdown — never the full embedding table in this process)."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(
        _emb_path(sf_dir),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(vec_ids))],
    )
    vid = np.asarray(tbl.column("vec_id"))
    order = {int(v): i for i, v in enumerate(vid)}
    rows = [tbl.column("embedding")[order[q]].as_py() for q in vec_ids]
    return np.array(rows, dtype=np.float64)


def partial_topk_table(per_q) -> pa.Table:
    """One batch's partial top-k rows. ``per_q``: per query index, a
    (vec_ids int64, sim_bp int64) pair — possibly different candidate
    subsets per query. The cut uses the FINAL ordering (bp desc, vec_id
    asc) so it can never drop a global winner. Shared by knn_cosine /
    knn_filtered / knn_quantized so the tie/rounding discipline lives in
    exactly one place."""
    out_q, out_v, out_s = [], [], []
    for qi, (ids, bp) in enumerate(per_q):
        order = np.lexsort((ids, -bp))[: min(KNN_K, len(ids))]
        out_q.extend([qi] * len(order))
        out_v.extend(ids[order])
        out_s.extend(bp[order])
    return pa.table(
        {
            "qi": pa.array(out_q, pa.int32()),
            "vec_id": pa.array(out_v, pa.int64()),
            "sim_bp": pa.array(out_s, pa.int64()),
        }
    )


def reduce_topk(partials) -> pa.Table:
    """Distributed global reduce → (qid, rank, vec_id, sim_bp).

    Partial rows grow with block count (k × n_queries × n_blocks), so
    the reduce runs as ``groupby(qi).map_groups`` — the shuffle routes
    each query's partials to one task's top-k cut — and the driver takes
    only the final k rows per query, never the partial set."""

    def topk(group: pa.Table) -> pa.Table:
        bp = np.asarray(group.column("sim_bp"), dtype=np.int64)
        ids = np.asarray(group.column("vec_id"), dtype=np.int64)
        order = np.lexsort((ids, -bp))[: min(KNN_K, len(ids))]
        qi = int(group.column("qi")[0].as_py())
        return pa.table(
            {
                "qid": pa.array(
                    [int(QUERY_VEC_IDS[qi])] * len(order), pa.int64()
                ),
                "rank": pa.array(
                    np.arange(len(order), dtype=np.int32)
                ),
                "vec_id": pa.array(ids[order]),
                "sim_bp": pa.array(bp[order]),
            }
        )

    rows = (
        partials.groupby("qi")
        .map_groups(topk, batch_format="pyarrow")
        .take_all()
    )  # ≤ k rows per query — the only driver-resident data
    rows.sort(key=lambda r: (r["qid"], r["rank"]))
    return pa.table(
        {
            "qid": pa.array([r["qid"] for r in rows], pa.int64()),
            "rank": pa.array([r["rank"] for r in rows], pa.int32()),
            "vec_id": pa.array([r["vec_id"] for r in rows], pa.int64()),
            "sim_bp": pa.array([r["sim_bp"] for r in rows], pa.int64()),
        }
    )


def _lang_keys(sf_dir: str, lang: str) -> np.ndarray:
    """Sorted doc ids of ``lang`` — the filter side reads ONLY the
    doc_id column, with the predicate pushed into the parquet read."""
    import pyarrow.parquet as pq

    ids = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id"],
        filters=[("lang", "=", lang)],
    ).column("doc_id")
    return np.sort(np.asarray(ids, dtype=np.int64))


def _brute_force(sf_dir: str, allowed: np.ndarray = None):
    """Brute-force cosine top-k over the embeddings, optionally over the
    ``allowed`` vec ids only: the query matrix (and the filter) broadcast
    once, every batch scores with :func:`exact_bp`, partial top-k per
    batch, distributed reduce."""
    import ray
    import ray.data

    bcast = ray.put((_normalize(_load_queries(sf_dir)), allowed))

    def score_batch(b: pa.Table) -> pa.Table:
        qm, ok_ids = ray.get(bcast)
        arr = b.column("embedding").combine_chunks()
        emb = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        vec_ids = np.asarray(b.column("vec_id"), dtype=np.int64)
        if ok_ids is not None:
            keep = np.isin(vec_ids, ok_ids)
            emb, vec_ids = emb[keep], vec_ids[keep]
        bp = exact_bp(emb, qm)
        return partial_topk_table([(vec_ids, bp[:, qi]) for qi in range(len(qm))])

    ds = ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
    return reduce_topk(partials)


def knn_cosine(sf_dir: str):
    """→ (qid, rank, vec_id, sim_bp) — cosine top-k per query vector,
    sim as integer basis points (floor(sim*1e4 + 0.5), the identical
    expression on both engine and oracle sides) for exact comparison;
    ties broken by lower vec_id (same rule as the docid tie-break)."""
    return _brute_force(sf_dir)


def knn_filtered(sf_dir: str, lang: str = "en"):
    """Pre-filtered vector search — ``KnnFloatVectorQuery``'s filter
    argument (``core/search/KnnFloatVectorQuery.java``: the kNN search
    only visits documents accepted by the filter — Lucene evaluates the
    filter into a per-segment bitset first). The sorted id set is
    broadcast once with the queries (8 bytes/id — the "broadcast small
    side" pattern; a non-selective filter at cluster scale would instead
    co-partition ids and vectors and semi-join per partition), and every
    embedding batch masks by membership before the same scoring as
    ``knn_cosine``."""
    return _brute_force(sf_dir, _lang_keys(sf_dir, lang))


def sql_knn_filtered(lang: str = "en") -> str:
    ids = ", ".join(str(i) for i in QUERY_VEC_IDS)
    return f"""
with q as (
  select vec_id as qid, embedding as qe from embeddings where vec_id in ({ids})
),
sims as (
  select q.qid, e.vec_id,
         cast(floor(list_cosine_similarity(e.embedding, q.qe) * 10000 + 0.5) as bigint) as sim_bp
  from embeddings e
  join documents d on d.doc_id = e.vec_id and d.lang = '{lang}'
  cross join q
),
ranked as (
  select qid, vec_id, sim_bp,
         row_number() over (partition by qid order by sim_bp desc, vec_id asc) as rn
  from sims
)
select qid, cast(rn - 1 as int) as rank, vec_id, sim_bp
from ranked where rn <= {KNN_K}
"""


def sql_knn_cosine() -> str:
    ids = ", ".join(str(i) for i in QUERY_VEC_IDS)
    return f"""
with q as (
  select vec_id as qid, embedding as qe from embeddings where vec_id in ({ids})
),
sims as (
  select q.qid, e.vec_id,
         cast(floor(list_cosine_similarity(e.embedding, q.qe) * 10000 + 0.5) as bigint) as sim_bp
  from embeddings e, q
),
ranked as (
  select qid, vec_id, sim_bp,
         row_number() over (partition by qid order by sim_bp desc, vec_id asc) as rn
  from sims
)
select qid, cast(rn - 1 as int) as rank, vec_id, sim_bp
from ranked where rn <= {KNN_K}
"""
