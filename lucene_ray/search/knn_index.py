"""KNN search over INDEX-RESIDENT vectors — ``KnnFloatVectorQuery`` /
``KnnByteVectorQuery`` against segments that store their own vectors
(``core/search/KnnFloatVectorQuery.java``,
``core/codecs/lucene99/Lucene99HnswVectorsFormat.java``): per-leaf
search over the leaf's accepted docs, per-leaf top-k, then the
TopDocs.merge ordering (score desc, global docid asc).

Ray shape: one task per segment (the segment is the unit of parallel
work everywhere in this engine); the query matrix broadcasts once via
``ray.put``; per-segment results are k × n_queries rows, so the merge
input is tiny regardless of corpus size. Each segment's accept mask is
"live and key allowed" — Lucene's acceptOrds bitset: deleted docs and
docs outside the filter still traverse the graph but are never
collected, with the visit-budget exact fallback guaranteeing recall
when the mask rejects most of a segment. The scorer follows the
segment's ``vectors.encoding``: float segments search their HNSW graph
(or, ``exact``, scan their int8 codes with an exact re-rank); byte
segments take the exact integer dot product.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucene_ray.index.deletes import load_deleted
from lucene_ray.index.manifest import load_manifest, segment_dir
from lucene_ray.index.vectors import (
    BYTE_VECTORS_FILE,
    EF_SEARCH,
    VECTORS_FILE,
    _normalize,
    _ShardGraph,
    byte_dot_topk,
    load_byte_vectors,
    to_bp,
)


def _docmap_keys(seg_dir: str) -> pa.Array:
    return (
        pq.read_table(os.path.join(seg_dir, "docmap.parquet"), columns=["key"])
        .column("key")
        .combine_chunks()
    )


def _accept(seg_dir: str, n_docs: int, allowed_keys) -> Optional[np.ndarray]:
    """Per-segment accept mask: live and (when a filter is given) key
    allowed; None when every doc is accepted."""
    deleted = load_deleted(seg_dir, n_docs)
    ok = np.ones(n_docs, dtype=bool) if deleted is None else ~deleted.astype(bool)
    if allowed_keys is not None:
        keys = _docmap_keys(seg_dir)
        ok &= pc.is_in(keys, value_set=allowed_keys.cast(keys.type)).to_numpy(
            zero_copy_only=False
        )
    return None if ok.all() else ok


def _search_segment(seg_dir, encoding, n_docs, q, k, ef, exact, allowed_keys):
    """→ (qi, row, score) int64 arrays: one segment's top-k per query
    over its accepted docs, scored by the segment's encoding."""
    accept = _accept(seg_dir, n_docs, allowed_keys)
    if encoding == "byte":
        codes = load_byte_vectors(os.path.join(seg_dir, BYTE_VECTORS_FILE))
        hits = byte_dot_topk(codes, q, k, accept=accept)
    elif exact:
        # the visitedLimit-exceeded exact fallback of
        # ``KnnFloatVectorQuery.java`` on every leaf: an int8 scan with an
        # error-bounded exact re-rank, ties by docid order
        g = _ShardGraph.load(os.path.join(seg_dir, VECTORS_FILE))
        tie = np.arange(len(g.ids), dtype=np.int64)
        hits = g.exact_topk_quantized(q, k, accept=accept, tie=tie)
    else:
        g = _ShardGraph.load(os.path.join(seg_dir, VECTORS_FILE))
        hits = [
            [
                (int(to_bp(sim)), row)
                for sim, row in (
                    g.search(qv, k, ef)
                    if accept is None
                    else g.search_filtered(qv, k, ef, accept)
                )
            ]
            for qv in q
        ]
    qi = np.repeat(np.arange(len(hits)), [len(h) for h in hits])
    flat = [hit for h in hits for hit in h]
    score = np.array([s for s, _ in flat], dtype=np.int64)
    row = np.array([r for _, r in flat], dtype=np.int64)
    return qi, row, score


def _knn(
    index_dir, q, k, encoding, score_col, ef=EF_SEARCH, exact=True, allowed_keys=None
):
    """The fan-out: one task per segment of ``encoding`` (the query
    matrix and the filter broadcast once), then one vectorized (query,
    score desc, global docid asc) merge cut to k and one docmap key
    resolution → (qi, rank, docid, key, ``score_col``)."""
    import ray

    man = load_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    if allowed_keys is not None:
        allowed_keys = pa.array(allowed_keys)
    bcast = ray.put((q, allowed_keys))
    segs = [
        (
            s.get("dir") or segment_dir(index_dir, int(s["seg_id"])),
            int(s["base_docid"]),
            int(s["n_docs"]),
        )
        for s in man.segments
        if s.get("vectors")
        and (s["vectors"].get("encoding") == "byte") == (encoding == "byte")
    ]

    @ray.remote(num_cpus=1)
    def seg_task(sdir: str, n_docs: int):
        qm, allowed = ray.get(bcast)
        return _search_segment(sdir, encoding, n_docs, qm, k, ef, exact, allowed)

    parts = ray.get([seg_task.remote(sdir, n) for sdir, _, n in segs])
    empty = np.empty(0, np.int64)
    qi = np.concatenate([empty] + [p[0] for p in parts])
    docid = np.concatenate(
        [empty] + [p[1] + base for p, (_, base, _) in zip(parts, segs)]
    )
    score = np.concatenate([empty] + [p[2] for p in parts])
    order = np.lexsort((docid, -score, qi))
    qi, docid, score = qi[order], docid[order], score[order]
    rank = np.arange(len(qi)) - np.searchsorted(qi, qi)
    top = rank < k
    qi, rank, docid, score = qi[top], rank[top], docid[top], score[top]
    # resolve keys through the docmaps of the segments that hold hits,
    # in the key column's native Arrow type (int or string keys)
    keys, where = [], []
    for sdir, base, n in segs:
        at = np.flatnonzero((docid >= base) & (docid < base + n))
        if len(at):
            keys.append(_docmap_keys(sdir).take(pa.array(docid[at] - base)))
            where.append(at)
    key = (
        pa.concat_arrays(keys).take(pa.array(np.argsort(np.concatenate(where))))
        if keys
        else pa.array([], pa.int64())
    )
    return pa.table(
        {
            "qi": pa.array(qi, pa.int32()),
            "rank": pa.array(rank, pa.int32()),
            "docid": pa.array(docid, pa.int64()),
            "key": key,
            score_col: pa.array(score, pa.int64()),
        }
    )


def knn_search_index(
    index_dir: str,
    query_matrix: np.ndarray,
    k: int = 10,
    ef: int = EF_SEARCH,
    exact: bool = False,
    allowed_keys=None,
) -> pa.Table:
    """→ (qi, rank, docid, key, sim_bp) global top-k per query row of
    ``query_matrix`` (unnormalized vectors accepted) over the float
    vector segments.

    ``exact``: every leaf takes the visitedLimit-exceeded exact scan
    (``KnnFloatVectorQuery.java``), so the result equals brute force.
    ``allowed_keys``: the filter, as the doc keys it accepts (the
    ``KnnFloatVectorQuery`` filter role); None accepts every live doc.
    """
    qm = _normalize(np.asarray(query_matrix, dtype=np.float64))
    return _knn(index_dir, qm, k, "float32", "sim_bp", ef, exact, allowed_keys)


def knn_search_index_byte(
    index_dir: str, q_codes: np.ndarray, k: int = 10
) -> pa.Table:
    """KNN over INDEX-RESIDENT BYTE vectors — ``KnnByteVectorQuery``
    against segments built with ``vector_encoding="byte"``: per-leaf
    exact integer-dot-product top-k over live docs (one int32 GEMM per
    segment — byte similarity's flat scoring path), TopDocs.merge
    ordering (dot desc, global docid asc). → (qi, rank, docid, key,
    dot)."""
    q_codes = np.ascontiguousarray(q_codes, dtype=np.int8)
    return _knn(index_dir, q_codes, k, "byte", "dot")
