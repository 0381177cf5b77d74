"""Scalar-quantized vector search — the ``Lucene99ScalarQuantizedVectorsFormat``
role (``lucene/core/src/java/org/apache/lucene/codecs/lucene99/
Lucene99ScalarQuantizedVectorsFormat.java``, ``ScalarQuantizer.java``).

Lucene stores int-quantized copies of float vectors (4x smaller, integer
dot products) and scores candidates on the quantized form. This rebuild
keeps the quantized fast path AND makes the final top-k **provably
exact**: every batch scores with one int32 matmul over int8 codes, keeps
only candidates whose quantized score plus a per-pair *error bound*
could still reach the top-k, and re-ranks that small survivor set with
exact float arithmetic. The bound

    |x.y - x_hat.y_hat|  <=  delta * (sum|x_i| + sum|y_hat_j|),
    delta = 1/254  (symmetric int8 over [-1, 1] after normalization)

follows from x.y - x_hat.y_hat = x.(y - y_hat) + (x - x_hat).y_hat with
per-component quantization error <= delta, so pruning candidates with
``approx + eps < theta - 1e-4`` (theta = k-th largest ``approx - eps``;
the extra basis-point quantum protects same-bucket vec_id tie-breaks in
the final (bp, vec_id) order) can never drop a true top-k member — the same oracle as brute-force
``knn_cosine`` therefore checks this pipeline hash-exactly, while the
float path touches only the few survivors per batch.

At 100 TB the quantized codes are the resident working set (16 GB/B
vectors per 64-dim int8 segment vs 64 GB float32); the exact re-rank
reads full vectors for ~k..3k rows per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from lucene_ray.pipelines.knn import (
    KNN_K,
    _emb_path,
    _load_queries,
    partial_topk_table,
    reduce_topk,
)

SCALE = 127  # symmetric int8: codes in [-127, 127]
DELTA = 1.0 / (2 * SCALE)  # max per-component dequantization error


def quantize(m: np.ndarray) -> np.ndarray:
    """Symmetric int8 quantization of row-normalized vectors (components
    in [-1, 1]): code = round(x * 127). Matches the reference's
    confidence-interval quantizer with the interval pinned to [-1, 1]."""
    return np.clip(np.rint(m * SCALE), -SCALE, SCALE).astype(np.int8)


def dequantize(q: np.ndarray) -> np.ndarray:
    return q.astype(np.float64) / SCALE


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def knn_quantized(sf_dir: str):
    """→ (qid, rank, vec_id, sim_bp) — identical schema AND values to
    ``knn_cosine`` (the error-bounded pruning is exact by construction);
    scoring runs on int8 codes, float math only on survivors."""
    import ray
    import ray.data

    qn = _normalize(_load_queries(sf_dir))  # same qn as knn_cosine
    q_codes = quantize(qn)
    # per-query constant term of the error bound: delta * sum|y_hat|
    q_l1_hat = np.abs(dequantize(q_codes)).sum(axis=1)
    broadcast = ray.put((q_codes, qn, q_l1_hat))

    def score_batch(b: pa.Table) -> pa.Table:
        qc, qm, ql1 = ray.get(broadcast)
        arr = b.column("embedding").combine_chunks()
        emb = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        emb = _normalize(emb)
        codes = quantize(emb)
        # quantized scores: ONE integer matmul, then rescale. int32 dots
        # (<= 64*127^2 ~ 1e6) are exact; /127^2 adds ~1e-16, covered by
        # the 1e-9 slack below
        approx = (codes.astype(np.int32) @ qc.T.astype(np.int32)) / (
            SCALE * SCALE
        )  # (batch, nq) == emb_hat . q_hat
        # bound: |x.y - x_hat.y_hat| <= delta*sum|x| + delta*sum|y_hat|
        doc_l1 = np.abs(emb).sum(axis=1)
        eps = DELTA * (doc_l1[:, None] + ql1[None, :]) + 1e-9
        vec_ids = np.asarray(b.column("vec_id"), dtype=np.int64)
        keep_union = np.zeros(len(emb), dtype=bool)
        keeps = []
        for qi in range(qm.shape[0]):
            a, e = approx[:, qi], eps[:, qi]
            k = min(KNN_K, len(a))
            # theta: k-th largest guaranteed score; anything whose upper
            # bound can't reach it can't be in the true top-k
            lower = a - e
            theta = np.partition(lower, len(lower) - k)[len(lower) - k]
            # slack of one bp quantum: the FINAL order is (bp, vec_id),
            # so a pruned candidate must be a full bucket below the
            # k-th survivor or a same-bucket smaller-vec_id tie could
            # outrank it (the ADVICE r01 rounded-cut rule)
            keep = np.flatnonzero(a + e >= theta - 1e-4)
            keeps.append(keep)
            keep_union[keep] = True
        # exact float re-rank of the (small) survivor union — the SAME
        # matmul shape/operands as knn_cosine's score_batch, so scores
        # are bit-identical to the brute-force pipeline
        sub = np.flatnonzero(keep_union)
        pos = np.full(len(emb), -1, np.int64)
        pos[sub] = np.arange(len(sub))
        sims_sub = emb[sub] @ qm.T  # (survivors, nq)
        return partial_topk_table(
            [
                (
                    vec_ids[keep],
                    np.floor(
                        sims_sub[pos[keep], qi] * 10000 + 0.5
                    ).astype(np.int64),
                )
                for qi, keep in enumerate(keeps)
            ]
        )

    ds = ray.data.read_parquet(_emb_path(sf_dir), columns=["vec_id", "embedding"])
    partials = ds.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
    return reduce_topk(partials)

