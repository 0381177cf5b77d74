"""KNN search over INDEX-RESIDENT vectors — ``KnnFloatVectorQuery``
against segments that store their own vectors + HNSW graph
(``core/search/KnnFloatVectorQuery.java``,
``core/codecs/lucene99/Lucene99HnswVectorsFormat.java``): per-leaf graph
search with live-doc masking, per-leaf top-k, then the TopDocs.merge
ordering (score desc, global docid asc).

Ray shape: one task per segment (the segment is the unit of parallel
work everywhere in this engine); the query matrix broadcasts once via
``ray.put``; per-segment results are k × n_queries rows, so the merge
input is tiny regardless of corpus size. Deleted docs participate as a
rejected accept-bitset during traversal — exactly Lucene's liveDocs
path — with the visit-budget exact fallback guaranteeing recall when
most of a segment is deleted.
"""

from __future__ import annotations

import math
import os
from typing import List, Tuple

import numpy as np
import pyarrow as pa

from lucene_ray.index.deletes import load_deleted
from lucene_ray.index.manifest import load_manifest, segment_dir
from lucene_ray.index.vectors import (
    BYTE_VECTORS_FILE,
    EF_SEARCH,
    VECTORS_FILE,
    _ShardGraph,
    byte_dot_topk,
    load_byte_vectors,
)


def _search_segment(
    seg_dir: str,
    base_docid: int,
    qm: np.ndarray,
    k: int,
    ef: int,
    n_docs: int,
    exact: bool = False,
) -> List[Tuple[int, int, int]]:
    """→ [(qi, global_docid, sim_bp)] — one segment's top-k per query,
    deleted docs masked out during graph traversal.

    ``exact``: force the visitedLimit-exceeded exact-scan fallback
    (``KnnFloatVectorQuery.java``) — per-leaf exact top-k over live
    docs, scored bit-identically to brute-force ``knn_cosine``, so the
    merged result is provably brute-force-identical."""
    g = _ShardGraph.load(os.path.join(seg_dir, VECTORS_FILE))
    deleted = load_deleted(seg_dir, n_docs)
    out: List[Tuple[int, int, int]] = []
    if exact:
        accept = None
        if deleted is not None and deleted.any():
            accept = ~deleted.astype(bool)
        rows_tie = np.arange(len(g.ids), dtype=np.int64)  # docid order
        # full scan on int8 codes + error-bounded exact re-rank of the
        # survivors (provably identical to the float scan; falls back to
        # it on pre-int8 segments) — the scalar-quantized scoring path
        for qi, hits in enumerate(
            g.exact_topk_quantized(qm, k, accept=accept, tie=rows_tie)
        ):
            for bp, row in hits:
                out.append((qi, base_docid + int(row), bp))
        return out
    if deleted is not None and deleted.any():
        accept = ~deleted.astype(bool)
        for qi in range(qm.shape[0]):
            for sim, row in g.search_filtered(qm[qi], k, ef, accept):
                out.append(
                    (qi, base_docid + int(row), int(math.floor(sim * 10000 + 0.5)))
                )
    else:
        for qi in range(qm.shape[0]):
            for sim, row in g.search(qm[qi], k, ef):
                out.append(
                    (qi, base_docid + int(row), int(math.floor(sim * 10000 + 0.5)))
                )
    return out


def knn_search_index_byte(
    index_dir: str, q_codes: np.ndarray, k: int = 10
) -> pa.Table:
    """KNN over INDEX-RESIDENT BYTE vectors — ``KnnByteVectorQuery``
    against segments built with ``vector_encoding="byte"``: per-leaf
    exact integer-dot-product top-k over live docs (one int32 GEMM per
    segment — byte similarity's flat scoring path), TopDocs.merge
    ordering (dot desc, global docid asc). → (qi, rank, docid, key,
    dot). Same Ray shape as :func:`knn_search_index`: one task per
    segment, query codes broadcast once."""
    import pyarrow.parquet as pq

    import ray

    man = load_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    q_codes = np.ascontiguousarray(q_codes, dtype=np.int8)
    q_ref = ray.put(q_codes)

    @ray.remote(num_cpus=1)
    def seg_task(sdir: str, base: int, n_docs: int):
        codes = load_byte_vectors(os.path.join(sdir, BYTE_VECTORS_FILE))
        deleted = load_deleted(sdir, n_docs)
        accept = None
        if deleted is not None and deleted.any():
            accept = ~deleted.astype(bool)
        out = []
        for qi, hits in enumerate(
            byte_dot_topk(codes, ray.get(q_ref), k, accept=accept)
        ):
            for dot, row in hits:
                out.append((qi, base + int(row), dot))
        return out

    futs = [
        seg_task.remote(
            s.get("dir") or segment_dir(index_dir, int(s["seg_id"])),
            int(s["base_docid"]),
            int(s["n_docs"]),
        )
        for s in man.segments
        if (s.get("vectors") or {}).get("encoding") == "byte"
    ]
    rows: List[Tuple[int, int, int]] = []
    for part in ray.get(futs):
        rows.extend(part)
    out_q: List[int] = []
    out_rank: List[int] = []
    out_doc: List[int] = []
    out_dot: List[int] = []
    for qi in range(q_codes.shape[0]):
        cand = sorted(
            ((s, d) for (q, d, s) in rows if q == qi),
            key=lambda t: (-t[0], t[1]),
        )[:k]
        for rank, (s, d) in enumerate(cand):
            out_q.append(qi)
            out_rank.append(rank)
            out_doc.append(d)
            out_dot.append(s)
    keys: List[object] = [None] * len(out_doc)
    key_type = pa.int64()
    doc_arr = np.asarray(out_doc, dtype=np.int64)
    for s in man.segments:
        base, n = int(s["base_docid"]), int(s["n_docs"])
        mask = (doc_arr >= base) & (doc_arr < base + n)
        if not mask.any():
            continue
        sdir = s.get("dir") or segment_dir(index_dir, int(s["seg_id"]))
        dm = pq.read_table(
            os.path.join(sdir, "docmap.parquet"), columns=["key"]
        ).column("key")
        key_type = dm.type
        vals = dm.take(pa.array(doc_arr[mask] - base)).to_pylist()
        for pos, v in zip(np.flatnonzero(mask), vals):
            keys[pos] = v
    return pa.table(
        {
            "qi": pa.array(out_q, pa.int32()),
            "rank": pa.array(out_rank, pa.int32()),
            "docid": pa.array(out_doc, pa.int64()),
            "key": pa.array(keys, key_type),
            "dot": pa.array(out_dot, pa.int64()),
        }
    )


def knn_search_index(
    index_dir: str,
    query_matrix: np.ndarray,
    k: int = 10,
    ef: int = EF_SEARCH,
    exact: bool = False,
) -> pa.Table:
    """→ (qi, rank, docid, key, sim_bp) global top-k per query row of
    ``query_matrix`` (unnormalized vectors accepted)."""
    import pyarrow.parquet as pq

    import ray

    man = load_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    qm = np.asarray(query_matrix, dtype=np.float64)
    norms = np.linalg.norm(qm, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    qm = qm / norms
    q_ref = ray.put(qm)

    @ray.remote(num_cpus=1)
    def seg_task(sdir: str, base: int, n_docs: int):
        return _search_segment(
            sdir, base, ray.get(q_ref), k, ef, n_docs, exact=exact
        )

    futs = [
        seg_task.remote(
            s.get("dir") or segment_dir(index_dir, int(s["seg_id"])),
            int(s["base_docid"]),
            int(s["n_docs"]),
        )
        for s in man.segments
        if s.get("vectors")
        and (s.get("vectors") or {}).get("encoding") != "byte"
    ]
    rows: List[Tuple[int, int, int]] = []
    for part in ray.get(futs):
        rows.extend(part)
    # global merge: sim desc, global docid asc (TopDocs.merge ordering)
    out_q: List[int] = []
    out_rank: List[int] = []
    out_doc: List[int] = []
    out_sim: List[int] = []
    for qi in range(qm.shape[0]):
        cand = sorted(
            ((s, d) for (q, d, s) in rows if q == qi),
            key=lambda t: (-t[0], t[1]),
        )[:k]
        for rank, (s, d) in enumerate(cand):
            out_q.append(qi)
            out_rank.append(rank)
            out_doc.append(d)
            out_sim.append(s)
    # resolve keys through per-segment docmaps (only segments that
    # contributed hits are touched)
    # key-type-agnostic: resolve through the Arrow column's native type
    # (int or string keys both work); ≤ k×n_queries rows reach here
    keys: List[object] = [None] * len(out_doc)
    key_type = pa.int64()
    doc_arr = np.asarray(out_doc, dtype=np.int64)
    for s in man.segments:
        base, n = int(s["base_docid"]), int(s["n_docs"])
        mask = (doc_arr >= base) & (doc_arr < base + n)
        if not mask.any():
            continue
        sdir = s.get("dir") or segment_dir(index_dir, int(s["seg_id"]))
        dm = pq.read_table(
            os.path.join(sdir, "docmap.parquet"), columns=["key"]
        ).column("key")
        key_type = dm.type
        vals = dm.take(pa.array(doc_arr[mask] - base)).to_pylist()
        for pos, v in zip(np.flatnonzero(mask), vals):
            keys[pos] = v
    return pa.table(
        {
            "qi": pa.array(out_q, pa.int32()),
            "rank": pa.array(out_rank, pa.int32()),
            "docid": pa.array(out_doc, pa.int64()),
            "key": pa.array(keys, key_type),
            "sim_bp": pa.array(out_sim, pa.int64()),
        }
    )
