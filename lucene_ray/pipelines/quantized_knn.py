"""Scalar-quantized vector search — the ``Lucene99ScalarQuantizedVectorsFormat``
role (``lucene/core/src/java/org/apache/lucene/codecs/lucene99/
Lucene99ScalarQuantizedVectorsFormat.java``, ``ScalarQuantizer.java``).

Lucene stores int-quantized copies of float vectors (4x smaller, integer
dot products) and scores candidates on the quantized form. This rebuild
keeps the quantized fast path AND makes the final top-k **provably
exact**: every batch scores with one int32 matmul over int8 codes, keeps
only candidates whose quantized score plus a per-pair *error bound*
could still reach the top-k, and re-ranks that small survivor set with
exact float arithmetic. The quantizer, the bound and the survivor rule
live in ``index/vectors.py`` (``quantize``, ``int8_survivors``); the
rule can never drop a true top-k member, so the same oracle as
brute-force ``knn_cosine`` checks this pipeline hash-exactly, while the
float path touches only the few survivors per batch.

At 100 TB the quantized codes are the resident working set (16 GB/B
vectors per 64-dim int8 segment vs 64 GB float32); the exact re-rank
reads full vectors for ~k..3k rows per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from lucene_ray.index.vectors import (
    _normalize,
    dequantize,
    int8_survivors,
    quantize,
    rerank_bp,
)
from lucene_ray.pipelines.knn import (
    KNN_K,
    _emb_path,
    _load_queries,
    partial_topk_table,
    reduce_topk,
)


def knn_quantized(sf_dir: str):
    """→ (qid, rank, vec_id, sim_bp) — identical schema AND values to
    ``knn_cosine`` (the error-bounded pruning is exact by construction);
    scoring runs on int8 codes, float math only on survivors."""
    import ray
    import ray.data

    qn = _normalize(_load_queries(sf_dir))  # same qn as knn_cosine
    q_codes = quantize(qn)
    q_l1 = np.abs(dequantize(q_codes)).sum(axis=1)
    broadcast = ray.put((q_codes, qn, q_l1))

    def score_batch(b: pa.Table) -> pa.Table:
        qc, qm, ql1 = ray.get(broadcast)
        arr = b.column("embedding").combine_chunks()
        emb = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        x = _normalize(emb)
        keeps = int8_survivors(quantize(x), np.abs(x).sum(axis=1), qc, ql1, KNN_K)
        vec_ids = np.asarray(b.column("vec_id"), dtype=np.int64)
        return partial_topk_table(
            [(vec_ids[keep], bp) for keep, bp in zip(keeps, rerank_bp(emb, keeps, qm))]
        )

    ds = ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
    return reduce_topk(partials)
