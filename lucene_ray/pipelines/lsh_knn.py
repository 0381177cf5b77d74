"""LSH-bucketed approximate nearest neighbor — the scale path for
similarity search (brute force lives in ``pipelines.knn``).

Random-hyperplane LSH (SimHash for vectors): ``n_bits`` signed
projections bucket each vector; candidates = vectors sharing a bucket
with the query under any of ``n_tables`` independent hash tables; exact
cosine re-rank on candidates only.

Plan (fully distributed — nothing reads the embedding table on the
driver):

  - the ``nq`` query vectors load via parquet predicate pushdown (footer
    + matching row groups only); their bucket signatures and normalized
    rows broadcast once (``ray.put``) — the classic tiny-side broadcast;
  - ONE ``map_batches`` pass signatures each batch, masks rows whose
    bucket matches any query bucket in any table, and exact-cosine
    re-ranks the survivors against the broadcast query matrix, emitting a
    per-batch partial top-k (the same partial-reduce shape as
    ``knn.knn_cosine``);
  - a ``groupby(qid)`` over the tiny partials produces the global top-k.

At 10^12 rows the candidate mask prunes each batch to the bucket hit
rate (~``nq * n_tables / 2^n_bits`` of rows); no shuffle of the
embedding table ever happens.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
import pyarrow as pa

from lucene_ray.index.vectors import _normalize, exact_bp
from lucene_ray.pipelines.knn import _load_queries

N_TABLES = 8
N_BITS = 12


def _planes(dim: int) -> np.ndarray:
    """±1 (Rademacher) hyperplane entries from md5("t:b:d") — sign
    random projections, a standard LSH family for cosine. Chosen over
    seeded Gaussians because the identical entry is computable in ANSI
    SQL (DuckDB md5), which upgrades this pipeline from a rows-only
    driver check to a full value-hash oracle (``sql_lsh_knn``)."""
    import hashlib

    out = np.empty((N_TABLES, N_BITS, dim), dtype=np.int64)
    for t in range(N_TABLES):
        for b in range(N_BITS):
            for d in range(dim):
                h = hashlib.md5(f"{t}:{b}:{d}".encode()).digest()
                out[t, b, d] = 1 if (h[0] >> 7) & 1 else -1
    return out


def _quantize(emb: np.ndarray) -> np.ndarray:
    """float → int64 micro-units, floor(x*1e6 + 0.5). Projections against
    ±1 planes then sum INTEGERS — order-free, so numpy matmul and SQL
    ``sum()`` agree bit-for-bit (a float dot's last-ulp would depend on
    summation order and could flip a sign bit near zero)."""
    return np.floor(emb.astype(np.float64) * 1e6 + 0.5).astype(np.int64)


def _signatures(emb: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """→ int64[n, N_TABLES] bucket ids from sign patterns."""
    q = _quantize(emb)
    n = emb.shape[0]
    out = np.empty((n, N_TABLES), dtype=np.int64)
    pows = 1 << np.arange(N_BITS, dtype=np.int64)
    for t in range(N_TABLES):
        bits = (q @ planes[t].T) > 0
        out[:, t] = bits @ pows
    return out


def lsh_knn(sf_dir: str, query_vec_ids: List[int] = (0, 1, 2), k: int = 5):
    """→ (qid, rank, vec_id, sim_bp): ANN top-k via hyperplane LSH with
    exact cosine re-rank of candidates; recall < 1 by construction, but
    deterministic — ``sql_lsh_knn`` replicates the identical plan in
    DuckDB for the driver's full value-hash gate."""
    import ray
    import ray.data

    q_emb = _load_queries(sf_dir, query_vec_ids)
    planes = _planes(q_emb.shape[1])
    q_sig = _signatures(q_emb, planes)  # (nq, T) — signatures are
    # norm-invariant (sign of projection), so raw vectors are fine here
    bcast = ray.put((planes, q_sig, _normalize(q_emb)))

    def stage(b: pa.Table) -> pa.Table:
        pl, qs, qm = ray.get(bcast)
        a = b.column("embedding").combine_chunks()
        emb = np.asarray(a.values, dtype=np.float64).reshape(len(a), -1)
        sig = _signatures(emb, pl)
        vids = np.asarray(b.column("vec_id"), dtype=np.int64)
        out_q, out_v, out_s = [], [], []
        for qi in range(qs.shape[0]):
            cand = np.flatnonzero((sig == qs[qi][None, :]).any(axis=1))
            bp = exact_bp(emb[cand], qm[qi : qi + 1])[:, 0]
            top = np.lexsort((vids[cand], -bp))[:k]  # partial top-k by the
            # final ordering — can never drop a global winner
            out_q.extend([int(query_vec_ids[qi])] * len(top))
            out_v.extend(vids[cand][top])
            out_s.extend(bp[top])
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim_bp": pa.array(out_s, pa.int64()),
            }
        )

    def topk(group: pa.Table) -> pa.Table:
        bp = np.asarray(group.column("sim_bp"), dtype=np.int64)
        vid = np.asarray(group.column("vec_id"), dtype=np.int64)
        sel = np.lexsort((vid, -bp))[:k]
        return pa.table(
            {
                "qid": group.column("qid").take(sel),
                "rank": pa.array(np.arange(len(sel), dtype=np.int32)),
                "vec_id": pa.array(vid[sel], pa.int64()),
                "sim_bp": pa.array(bp[sel], pa.int64()),
            }
        )

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    partials = ds.map_batches(stage, batch_format="pyarrow", batch_size=4096)
    return partials.groupby("qid").map_groups(topk, batch_format="pyarrow")


def sql_lsh_knn(query_vec_ids: List[int] = (0, 1, 2), k: int = 5) -> str:
    """Exact DuckDB replication of ``lsh_knn``: the same md5-derived ±1
    planes, the same integer-quantized projections (order-free sums), the
    same bucket match across tables, the same cosine bp re-rank. ANN
    recall is whatever the hash family gives — but it is the SAME recall
    on both sides, so the driver's value-hash gate applies."""
    ids = ", ".join(str(i) for i in query_vec_ids)
    return f"""
with dims as (
  select unnest(range((select len(embedding) from embeddings limit 1))) as d
),
signs as (
  select tt.t, bb.b, dims.d,
         case when (('0x' || substr(md5(tt.t || ':' || bb.b || ':' || dims.d), 1, 16))::UBIGINT >> 63) & 1 = 1
              then 1 else -1 end as s
  from dims,
       (select unnest(range({N_TABLES})) as t) tt,
       (select unnest(range({N_BITS})) as b) bb
),
comp as (
  select e.vec_id, dims.d,
         cast(floor(cast(e.embedding[dims.d + 1] as double) * 1000000 + 0.5) as bigint) as qv
  from embeddings e, dims
),
proj as (
  select c.vec_id, s.t, s.b, sum(c.qv * s.s) as p
  from comp c join signs s using (d)
  group by 1, 2, 3
),
buckets as (
  select vec_id, t,
         sum(case when p > 0 then (1::BIGINT << b) else 0 end) as bucket
  from proj group by vec_id, t
),
cand as (
  select distinct qb.vec_id as qid, b.vec_id
  from buckets b
  join buckets qb on b.t = qb.t and b.bucket = qb.bucket
  where qb.vec_id in ({ids})
),
sims as (
  select c.qid, c.vec_id,
         cast(floor(list_cosine_similarity(e.embedding, q.embedding) * 10000 + 0.5) as bigint) as sim_bp
  from cand c
  join embeddings e on e.vec_id = c.vec_id
  join embeddings q on q.vec_id = c.qid
),
ranked as (
  select qid, vec_id, sim_bp,
         row_number() over (partition by qid order by sim_bp desc, vec_id asc) as rn
  from sims
)
select qid, cast(rn - 1 as int) as rank, vec_id, sim_bp
from ranked where rn <= {k}
"""
