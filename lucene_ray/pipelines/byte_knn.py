"""KnnByteVectorField end to end — byte-valued vectors as an INDEX
field type with byte dot-product scoring
(``core/document/KnnByteVectorField.java`` +
``core/search/KnnByteVectorQuery.java``;
``VectorUtil.dotProductScore``: score = 0.5 + dot / (dim · 2^15)).

The synthetic embeddings are ``list<float>``; byte vectors derive
deterministically (the rule a quantizing user applies, and the SQL
oracle replicates exactly in integer/double arithmetic):

    b[i] = clip(floor(embedding[i] * 64), -128, 127)   (signed int8)

One index is built per sf_dir with ``vector_encoding="byte"`` — each
segment stores the codes verbatim in a flat checksummed sidecar —
then the standard query set runs through
``search.knn_index.knn_search_index_byte`` (per-segment exact integer
GEMM + TopDocs.merge). Output carries BOTH the raw integer dot (the
exact ranking key) and the reference's float32 dotProductScore.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.pipelines.index_cache import CACHE_ROOT
from lucene_ray.pipelines.knn import KNN_K, QUERY_VEC_IDS, _load_queries
from lucene_ray.pipelines.vector_index import _joined_input
from lucene_ray.search.knn_index import knn_search_index_byte

BYTE_CONFIG = IndexConfig(
    rows_per_segment=1024,
    num_buckets=2,
    vector_col="bvec",
    vector_encoding="byte",
)


def to_byte_codes(emb: np.ndarray) -> np.ndarray:
    """float embedding matrix → signed byte codes (the deterministic
    derivation above; float64 multiply + floor, exact in SQL)."""
    return np.clip(
        np.floor(emb.astype(np.float64) * 64.0), -128, 127
    ).astype(np.int8)


def _byte_input(sf_dir: str) -> str:
    """The vector index's input (embeddings LEFT JOIN documents, one row
    per embedding) with the embedding replaced by the derived byte
    vectors → one scratch parquet (doc_id, text, bvec list<int8>),
    cached."""
    import pyarrow.parquet as pq

    src = _joined_input(sf_dir)
    tag = hashlib.sha1(f"bytevec:v2:{src}".encode()).hexdigest()[:16]
    out = os.path.join(CACHE_ROOT, f"bytevec_{tag}.parquet")
    if os.path.exists(out):
        return out
    t = pq.read_table(src)
    emb = t.column("embedding").combine_chunks()
    codes = to_byte_codes(
        np.asarray(emb.values, dtype=np.float64).reshape(len(emb), -1)
    )
    bvec = pa.FixedSizeListArray.from_arrays(
        pa.array(codes.reshape(-1), pa.int8()), codes.shape[1]
    ).cast(pa.list_(pa.int8()))
    tmp = out + f".tmp{os.getpid()}"
    pq.write_table(t.drop(["embedding"]).append_column("bvec", bvec), tmp)
    os.replace(tmp, out)
    return out


def build_byte_index(sf_dir: str) -> str:
    src = _byte_input(sf_dir)
    tag = hashlib.sha1(
        f"byteidx:v1:{src}:{os.path.getmtime(src)}".encode()
    ).hexdigest()[:16]
    idx_dir = os.path.join(CACHE_ROOT, f"byteidx_{tag}")
    if not os.path.exists(os.path.join(idx_dir, "manifest.json")):
        build_index(src, idx_dir, BYTE_CONFIG)
    return idx_dir


def knn_byte(sf_dir: str):
    """→ (qid, rank, vec_id, dot, score) — the standard query set over
    the byte-vector index; dot = exact integer dot product (the ranking
    key), score = float32 ``dotProductScore``."""
    idx = build_byte_index(sf_dir)
    qm = _load_queries(sf_dir)
    q_codes = to_byte_codes(qm)
    res = knn_search_index_byte(idx, q_codes, k=KNN_K)
    dim = q_codes.shape[1]
    qids = np.asarray(
        [QUERY_VEC_IDS[i] for i in res.column("qi").to_pylist()]
    )
    dot = np.asarray(res.column("dot"), dtype=np.int64)
    score = (0.5 + dot / float(dim * (1 << 15))).astype(np.float32)
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "rank": res.column("rank").cast(pa.int64()),
            "vec_id": res.column("key").cast(pa.int64()),
            "dot": pa.array(dot, pa.int64()),
            "score": pa.array(score, pa.float32()),
        }
    )


def sql_knn_byte() -> str:
    qids = ", ".join(str(q) for q in QUERY_VEC_IDS)
    return f"""
with b as (
  select vec_id,
         list_transform(embedding,
           x -> cast(greatest(-128, least(127, floor(x * 64.0))) as bigint)
         ) as bv,
         len(embedding) as dim
  from embeddings
),
q as (select vec_id as qid, bv as qv, dim from b where vec_id in ({qids})),
d as (
  select q.qid, b.vec_id,
         cast(list_sum(list_transform(generate_series(1, b.dim),
              i -> b.bv[i] * q.qv[i])) as bigint) as dot,
         b.dim
  from q cross join b
),
r as (
  select qid, vec_id, dot, dim,
         row_number() over (
           partition by qid order by dot desc, vec_id asc
         ) - 1 as rank
  from d
)
select qid, cast(rank as bigint) as rank, vec_id, dot,
       cast(0.5 + dot / (dim * 32768.0) as float) as score
from r where rank < {KNN_K}
order by qid, rank
"""
