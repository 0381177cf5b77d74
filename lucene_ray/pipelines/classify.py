"""Naive Bayes text classification — the ``lucene/classification``
module's role (``classification/src/java/org/apache/lucene/
classification/SimpleNaiveBayesClassifier.java``: classify text into the
values of a class field using corpus statistics; the reference reads
them from an index, this engine aggregates them in one Ray pass).

Plan (two stages, both streaming):

1. **Train** — ``map_batches`` emits per-batch pre-aggregated
   (lang, term, cnt) partials (the combiner that keeps the shuffle
   small), a ``groupby(lang, term)`` sums them, and the resulting class
   stats — vocab × n_classes log-probabilities, a few hundred KB — come
   to the driver and broadcast via ``ray.put``. The big table never
   materializes; only the aggregate does (same shape as
   ``collection_stats``).
2. **Classify** — an actor pool maps each batch's tokens to vocabulary
   codes and scores every class with ONE ``counts @ logprob`` integer
   matmul per batch.

Determinism device (and what makes the DuckDB oracle exact): per-
(term, class) log-probabilities quantize to integer micro-nats,
``floor(ln(p) * 1e6 + 0.5)``, so scores are INTEGER sums — order-free,
identical in numpy and SQL (a float log-prob sum's last ulp would
depend on summation order and could flip an argmax on a near-tie).
Multinomial NB with add-one smoothing: ``p(w|c) = (cnt + 1) /
(tot_c + V)``, prior ``dc_c / n_docs``; ties break by ascending class
name on both sides.
"""

from __future__ import annotations

import os

from lucene_ray.cluster import actor_pool
from typing import Dict, Tuple

import numpy as np
import pyarrow as pa

SCALE = 1_000_000  # micro-nats


def _lp(x: float) -> int:
    return int(np.floor(np.log(x) * SCALE + 0.5))


def nb_train(sf_dir: str):
    """→ (classes sorted asc, vocab dict term→code, lp_matrix
    int64[V+1, C] — last row = unseen-term smoothing, prior_lp
    int64[C])."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        langs = b.column("lang").to_pylist()
        texts = b.column("text").to_pylist()
        agg: Dict[Tuple[str, str], int] = {}
        for lang, t in zip(langs, texts):
            for w in (t or "").split():
                k = (lang, w)
                agg[k] = agg.get(k, 0) + 1
        if not agg:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "term": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        ks = sorted(agg)
        return pa.table(
            {
                "lang": pa.array([k[0] for k in ks]),
                "term": pa.array([k[1] for k in ks]),
                "cnt": pa.array([agg[k] for k in ks], pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "text"]
    )
    stats = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "term"])
        .sum("cnt")
        .to_pandas()
    )  # vocab × classes aggregate only — tiny
    cnt_col = [c for c in stats.columns if c.startswith("sum")][0]
    classes = sorted(stats["lang"].unique())
    vocab = {t: i for i, t in enumerate(sorted(stats["term"].unique()))}
    V, C = len(vocab), len(classes)
    counts = np.zeros((V, C), dtype=np.int64)
    ci = {c: i for i, c in enumerate(classes)}
    counts[
        [vocab[t] for t in stats["term"]],
        [ci[l] for l in stats["lang"]],
    ] = stats[cnt_col].to_numpy()
    tot = counts.sum(axis=0)  # tokens per class
    # doc counts per class for the prior
    import pyarrow.parquet as pq

    langs = (
        pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["lang"]
        )
        .column("lang")
        .to_pylist()
    )
    n_docs = len(langs)
    dc = np.array([langs.count(c) for c in classes], dtype=np.int64)
    lp = np.empty((V + 1, C), dtype=np.int64)
    for c in range(C):
        denom = float(tot[c] + V)
        lp[:V, c] = np.floor(
            np.log((counts[:, c] + 1) / denom) * SCALE + 0.5
        ).astype(np.int64)
        lp[V, c] = _lp(1.0 / denom)  # unseen term
    prior_lp = np.array(
        [_lp(dc[c] / float(n_docs)) for c in range(C)], dtype=np.int64
    )
    return classes, vocab, lp, prior_lp


def nb_classify(sf_dir: str):
    """→ (doc_id, lang_pred, score_bp): argmax class per document under
    the trained model (score_bp = integer micro-nat log posterior of the
    winning class)."""
    import ray
    import ray.data

    classes, vocab, lp, prior_lp = nb_train(sf_dir)
    model = ray.put((classes, vocab, lp, prior_lp))

    class Score:
        def __init__(self):
            self.classes, self.vocab, self.lp, self.prior = ray.get(model)
            self.unk = len(self.vocab)

        def __call__(self, b: pa.Table) -> pa.Table:
            import pandas as pd

            texts = b.column("text").to_pylist()
            n = len(texts)
            toks_per_doc = [(t or "").split() for t in texts]
            lens = np.array([len(t) for t in toks_per_doc], dtype=np.int64)
            scores = np.tile(self.prior, (n, 1))
            if lens.sum():
                flat = np.concatenate(
                    [t for t in toks_per_doc if t]
                ).astype(object)
                # vectorized vocabulary lookup (C path, no per-token loop)
                codes = (
                    pd.Series(flat)
                    .map(self.vocab)
                    .fillna(self.unk)
                    .to_numpy(dtype=np.int64)
                )
                starts = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(lens, out=starts[1:])
                sums = np.add.reduceat(
                    self.lp[codes],
                    np.minimum(starts[:-1], len(codes) - 1),
                    axis=0,
                )
                # reduceat on an empty doc repeats the next doc's slice —
                # mask those rows to zero
                sums[lens == 0] = 0
                scores += sums
            # np.argmax takes the FIRST maximum → ascending class name
            best = np.argmax(scores, axis=1)
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "lang_pred": pa.array(
                        [self.classes[c] for c in best], pa.string()
                    ),
                    "score_bp": pa.array(
                        scores[np.arange(n), best], pa.int64()
                    ),
                }
            )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    return ds.map_batches(Score, batch_format="pyarrow", concurrency=actor_pool()).sort(
        "doc_id"
    )


def sql_nb_classify() -> str:
    """The identical model in DuckDB: same add-one smoothing, same
    integer micro-nat quantization, same (score desc, lang asc)
    tie-break."""
    return f"""
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
cls as (select lang, count(*)::bigint as dc from documents group by lang),
n as (select count(*)::bigint as nd from documents),
cstat as (
  select d.lang, t.term, count(*)::bigint as cnt
  from tok t join documents d using (doc_id) group by 1, 2
),
ctot as (select lang, sum(cnt)::bigint as tot from cstat group by lang),
vocab as (select count(distinct term)::bigint as v from tok),
lp as (
  select c.lang, w.term,
         cast(floor(ln((coalesce(s.cnt, 0) + 1)
                       / cast(ct.tot + vv.v as double)) * {SCALE} + 0.5)
              as bigint) as lp
  from (select distinct term from tok) w
  cross join (select lang from cls) c
  left join cstat s on s.lang = c.lang and s.term = w.term
  join ctot ct on ct.lang = c.lang
  cross join vocab vv
),
prior as (
  select cls.lang,
         cast(floor(ln(cls.dc / cast(n.nd as double)) * {SCALE} + 0.5)
              as bigint) as plp
  from cls, n
),
docscore as (
  select d.doc_id, p.lang,
         cast(p.plp + coalesce(sum(l.lp), 0) as bigint) as score
  from documents d
  cross join prior p
  left join tok t on t.doc_id = d.doc_id
  left join lp l on l.lang = p.lang and l.term = t.term
  group by 1, 2, p.plp
),
ranked as (
  select doc_id, lang, score,
         row_number() over (
           partition by doc_id order by score desc, lang asc) as rn
  from docscore
)
select doc_id, lang as lang_pred, score as score_bp
from ranked where rn = 1
order by doc_id
"""


# --------------------------------------------------------------------------
# k-nearest-neighbor classification — the ``lucene/classification``
# ``KNearestNeighborClassifier.java`` role (classify by majority vote of
# the k most similar neighbors). The reference's neighbors come from an
# MLT query over the index; this engine's come from exact cosine over
# the embedding column — the KnnVector-era form of the same classifier.
# --------------------------------------------------------------------------

KNN_CLS_K = 5


def knn_classify(
    sf_dir: str,
    k: int = KNN_CLS_K,
    block_rows: int = 2048,
    n_lists: int | None = None,
):
    """→ (vec_id, label_pred, votes) sorted by vec_id: per vector, the
    majority label of its k nearest OTHER vectors by cosine; neighbor
    set pinned by (sim_bp desc, cand_id asc), vote ties by
    (votes desc, label asc) — all integer, hash-exact vs the oracle.

    Plan — EXACT kNN join with **bound-ordered IVF scanning** (no block
    cross product, no partial-top-k shuffle, no driver reduce):

    1. reuse :func:`ivf_knn.build_ivf` (labels carried via
       ``extra_cols``) + :func:`ivf_knn.ivf_radii`;
    2. one task per query row-group chunk (footer-planned). Each task
       scans CANDIDATE lists in decreasing upper-bound order
       ``ub_j = cos(max(0, θ_ij − r_i − r_j))`` (sphere triangle
       inequality) while maintaining the chunk's running top-k in
       composite integer keys ``(bp << 40) − cand_id``;
    3. exact early stop: once ``floor(ub·1e4 + .5) <`` the STRICT
       minimum k-th-best bp across the chunk's queries, no remaining
       list can contribute a neighbor (``<`` not ``≤``: an equal-bp
       candidate with a smaller id could still displace on the id
       tie-break);
    4. votes are finalized inside the task — the output IS the final
       (vec_id, label_pred, votes) rows; nothing reduces on the driver.

    Worst case (unclustered data) degrades to the brute-force scan cost;
    clustered real embeddings prune most lists per chunk."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    from lucene_ray.index.vectors import _normalize
    from lucene_ray.pipelines.ivf_knn import build_ivf, ivf_chunks, ivf_radii

    path = os.path.join(sf_dir, "embeddings.parquet")
    n_rows = pq.ParquetFile(path).metadata.num_rows  # footer only
    C = n_lists or max(1, min(64, n_rows // max(block_rows, 1)))
    ivf_dir = build_ivf(sf_dir, n_lists=C, extra_cols=("label",))
    cents = np.load(os.path.join(ivf_dir, "centroids.npy"))
    data_dir = os.path.join(ivf_dir, "data")
    radii = ivf_radii(ivf_dir, cents)
    chunks = ivf_chunks(data_dir, block_rows)

    theta_cc = np.arccos(np.clip(cents @ cents.T, -1.0, 1.0))
    gap = np.maximum(theta_cc - radii[:, None] - radii[None, :], 0.0)
    ub = np.cos(gap)  # C×C upper bound on any cross-list cosine
    ub_ref = ray.put(ub)
    chunks_ref = ray.put(chunks)

    items = [
        {"lid": lid, "fp": fp, "lo": lo, "hi": hi}
        for lid in sorted(chunks)
        for (fp, lo, hi) in chunks[lid]
    ]

    NEG = np.iinfo(np.int64).min

    def _load(fp: str, lo: int, hi: int):
        t = pq.ParquetFile(fp).read_row_groups(
            list(range(lo, hi)), columns=["vec_id", "embedding", "label"]
        )
        arr = t.column("embedding").combine_chunks()
        m = _normalize(
            np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        )
        return (
            np.asarray(t.column("vec_id"), dtype=np.int64),
            m,
            np.asarray(t.column("label"), dtype=np.int32),
        )

    def classify_chunk(batch: pa.Table) -> pa.Table:
        ub_m = ray.get(ub_ref)
        all_chunks = ray.get(chunks_ref)
        out_id, out_lab, out_votes = [], [], []
        for row in batch.to_pylist():
            q_ids, q_mat, _ = _load(row["fp"], row["lo"], row["hi"])
            nq = len(q_ids)
            lid = int(row["lid"])
            # running top-k state: composite keys + labels, sentinel NEG
            keys = np.full((nq, k), NEG, dtype=np.int64)
            labs = np.full((nq, k), -1, dtype=np.int32)
            order = np.argsort(-ub_m[lid])  # lists by decreasing bound
            for j in order:
                ubj_bp = int(np.floor(ub_m[lid, j] * 10000 + 0.5))
                kth = keys[:, -1]
                # strict <: equal-bp candidates can displace on id ties
                if (kth > NEG).all() and ubj_bp < int((kth >> 40).min()):
                    break
                for fp, lo, hi in all_chunks[int(j)]:
                    c_ids, c_mat, c_lab = _load(fp, lo, hi)
                    bp = np.floor(q_mat @ c_mat.T * 10000 + 0.5).astype(
                        np.int64
                    )
                    cand_keys = (bp << 40) - c_ids[None, :]
                    if int(j) == lid:  # mask self-pairs
                        cand_keys[q_ids[:, None] == c_ids[None, :]] = NEG
                    merged = np.concatenate([keys, cand_keys], axis=1)
                    lab_m = np.concatenate(
                        [labs, np.broadcast_to(c_lab, (nq, len(c_ids)))],
                        axis=1,
                    )
                    # ascending sort + reverse — negating would overflow
                    # the int64-min sentinel (−NEG == NEG) and rank
                    # sentinels first
                    sel = np.argsort(merged, axis=1)[:, ::-1][:, :k]
                    rows_ix = np.arange(nq)[:, None]
                    keys = merged[rows_ix, sel]
                    labs = lab_m[rows_ix, sel]
            for qi in range(nq):
                got = labs[qi][keys[qi] > NEG]
                if len(got) == 0:
                    continue  # singleton corpus: no other vectors
                ls, counts = np.unique(got, return_counts=True)
                win = np.lexsort((ls, -counts))[0]
                out_id.append(int(q_ids[qi]))
                out_lab.append(int(ls[win]))
                out_votes.append(int(counts[win]))
        return pa.table(
            {
                "vec_id": pa.array(out_id, pa.int64()),
                "label_pred": pa.array(out_lab, pa.int32()),
                "votes": pa.array(out_votes, pa.int64()),
            }
        )

    ds = ray.data.from_items(items, override_num_blocks=max(1, len(items)))
    return ds.map_batches(classify_chunk, batch_format="pyarrow").sort(
        "vec_id"
    )

def sql_knn_classify(k: int = KNN_CLS_K) -> str:
    """Same neighbor pinning and vote tie-breaks in DuckDB; cosine in
    basis points via the proven floor(x·1e4 + 0.5) parity."""
    return f"""
with sims as (
  select a.vec_id as q, b.vec_id as c, b.label,
         cast(floor(list_cosine_similarity(a.embedding, b.embedding) * 10000 + 0.5)
              as bigint) as bp
  from embeddings a join embeddings b on a.vec_id <> b.vec_id
),
ranked as (
  select q, c, label, bp,
         row_number() over (partition by q order by bp desc, c asc) as rn
  from sims
),
votes as (
  select q, label, count(*)::bigint as v
  from ranked where rn <= {k} group by q, label
),
best as (
  select q, label, v,
         row_number() over (partition by q order by v desc, label asc) as rn
  from votes
)
select q as vec_id, cast(label as int) as label_pred, v as votes
from best where rn = 1
order by vec_id
"""
