"""Shard-partitioned distributed query tier — SURVEY §3.2's 100-TB shape.

The replica tier (``searcher.search_dataset``) opens the WHOLE index in
every actor: perfect QPS scaling while one node's storage holds the
index, impossible beyond it. This module is the complement: **N shard
actors own disjoint segment subsets** (each opens only its share of
postings/docmaps/DV), every query fans out to all shards, and a
``groupby(qid)`` reduce applies the TopDocs.merge tie-break
(``core/search/TopDocs.java:203-228``: score desc, then global docid
asc — leaf order is docid-base order, so (score, seg_idx, doc) equals
(score, global docid)).

Bit-exactness vs the replica tier needs GLOBAL term statistics: BM25
weights use corpus df, a shard only sees its own. The classic
distributed-IR fix, phase 0 **global stats exchange**: every shard looks
up its local per-term (df, ttf) for the query stream's terms (term-dict
bisects — no postings touched), a tiny ``groupby(term).sum`` merges
them, and the summed map broadcasts (``ray.put``) into the scoring
phase, where ``IndexSearcher.stats_override`` pins it. Collection-level
stats (doc_count, avgdl) were always manifest-global, shard or not.

Why WAND pruning stays rank-identical: each shard returns its LOCAL
top-k under the GLOBAL weights; any global top-k hit lives in some
shard and ranks ≤ k inside it, so the union of shard top-k's contains
the global top-k; block-max pruning inside a shard only skips docs that
can't enter that shard's top-k.

Ray shape: one ``map_batches`` actor-pool stage per shard over the same
query Dataset, ``union``, ``groupby(qid).map_groups`` merge. Everything
streams; per-shard pools size independently (``concurrency``), so hot
shards can scale out on a real cluster.
"""

from __future__ import annotations

import gc
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from lucene_ray.index.manifest import load_manifest
from lucene_ray.search.query import parse_query, query_terms
from lucene_ray.search.searcher import IndexSearcher


def shard_plan(index_dir: str, n_shards: int) -> List[List[int]]:
    """Deterministic segment → shard assignment: greedy bin-pack by doc
    count (largest first) so shards balance even with skewed segment
    sizes; ties broken by seg_id for stability."""
    man = load_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    segs = sorted(
        ((int(s.get("n_docs", 0)), int(s["seg_id"])) for s in man.segments),
        key=lambda t: (-t[0], t[1]),
    )
    n_shards = max(1, min(n_shards, max(1, len(segs))))
    loads = [0] * n_shards
    plan: List[List[int]] = [[] for _ in range(n_shards)]
    for n_docs, seg_id in segs:
        i = int(np.argmin(loads))
        plan[i].append(seg_id)
        loads[i] += max(1, n_docs)
    return [sorted(p) for p in plan if p]


class ShardStatsActor:
    """Phase 0: per-term LOCAL (df, ttf) from this shard's term
    dictionaries — bisect lookups only, no postings decode."""

    def __init__(self, index_dir: str, segment_ids: Sequence[int], shard: int):
        self.searcher = IndexSearcher(index_dir, segment_ids=segment_ids)
        self.shard = int(shard)

    def __call__(self, batch: pa.Table) -> pa.Table:
        terms = set()
        for q in batch.column("query").to_pylist():
            terms.update(query_terms(parse_query(q, self.searcher.analyzer)))
        states = self.searcher.term_states(sorted(terms))
        ts, dfs, ttfs = [], [], []
        for t, (_, df, ttf) in states.items():
            ts.append(t)
            dfs.append(int(df))
            ttfs.append(int(ttf))
        # shard column: a term repeats across query batches, so the
        # reduce dedupes per (term, shard) BEFORE summing across shards
        return pa.table(
            {
                "term": pa.array(ts, pa.string()),
                "shard": pa.array([self.shard] * len(ts), pa.int32()),
                "df": pa.array(dfs, pa.int64()),
                "ttf": pa.array(ttfs, pa.int64()),
            }
        )


class ShardSearcherActor:
    """Phase 1: score this shard's segments under the exchanged GLOBAL
    stats; emit the shard-local top-k per query."""

    def __init__(
        self,
        index_dir: str,
        segment_ids: Sequence[int],
        k: int = 10,
        stats_ref=None,
        similarity: Optional[str] = None,
    ):
        import ray

        self.searcher = IndexSearcher(
            index_dir, similarity=similarity, segment_ids=segment_ids
        )
        if stats_ref is not None:
            self.searcher.stats_override = ray.get(stats_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_qid, out_rank, out_key = [], [], []
        out_docid, out_score, out_total = [], [], []
        for qid, qtext in zip(
            batch.column("qid").to_pylist(), batch.column("query").to_pylist()
        ):
            res = self.searcher.search(qtext, self.k)
            for r in range(len(res["docids"])):
                out_qid.append(qid)
                out_rank.append(r)
                out_key.append(res["keys"][r])
                out_docid.append(int(res["docids"][r]))
                out_score.append(float(res["scores"][r]))
                out_total.append(int(res["total_hits"]))
        return pa.table(
            {
                "qid": pa.array(out_qid),
                "rank": pa.array(out_rank, pa.int32()),
                "key": pa.array(out_key),
                "docid": pa.array(out_docid, pa.int64()),
                "score": pa.array(out_score, pa.float32()),
                "shard_total": pa.array(out_total, pa.int64()),
            }
        )


def merge_topk(group: pa.Table, k: int) -> pa.Table:
    """TopDocs.merge across shards: (score desc, global docid asc)."""
    scores = np.asarray(group.column("score"), dtype=np.float32)
    docids = np.asarray(group.column("docid"), dtype=np.int64)
    order = np.lexsort((docids, -scores))[:k]
    # total = Σ per-shard totals (one row per shard-hit; dedupe by docid
    # is unnecessary — shards are disjoint, totals repeat per rank row)
    qid = group.column("qid")[0]
    df = group.select(["qid", "shard_total", "rank"]).to_pandas()
    total = int(
        df[df["rank"] == 0]["shard_total"].sum()
    )  # one rank-0 row per shard that matched
    return pa.table(
        {
            "qid": pa.array([qid.as_py()] * len(order)),
            "rank": pa.array(np.arange(len(order), dtype=np.int32)),
            "key": group.column("key").take(pa.array(order)),
            "docid": pa.array(docids[order]),
            "score": pa.array(scores[order], pa.float32()),
            "total_hits": pa.array([total] * len(order), pa.int64()),
        }
    )


def search_dataset_sharded(
    index_dir: str,
    queries_ds,
    k: int = 10,
    n_shards: int = 4,
    concurrency=None,
    similarity: Optional[str] = None,
    chunk_queries: int = 250_000,
):
    """Distributed sharded search: queries Dataset (qid, query) → results
    Dataset (qid, rank, key, docid, score, total_hits), bit-exact vs the
    replica tier's ranking.

    ``chunk_queries``: streams longer than this run the phase-0/1
    exchange per chunk of that many queries, so the driver-resident
    stats dict is bounded by a CHUNK's distinct-term count instead of
    the whole stream's.  Per-term (df, ttf) depend only on the index,
    never on other queries, so chunked results are identical to the
    one-shot exchange (tested in ``tests/test_sharded.py``).
    """
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from lucene_ray.cluster import actor_pool

    n_total = queries_ds.count()
    if chunk_queries and n_total > chunk_queries:
        n_chunks = -(-n_total // chunk_queries)
        # chunks run SEQUENTIALLY (materialize each before the next):
        # that is the point — one chunk's stats dict / actor pools are
        # live at a time; per-chunk results are tiny (≤ k rows/query)
        parts = [
            search_dataset_sharded(
                index_dir,
                part,
                k=k,
                n_shards=n_shards,
                concurrency=concurrency,
                similarity=similarity,
                chunk_queries=0,
            ).materialize()
            for part in queries_ds.split(n_chunks)
        ]
        out = parts[0]
        return out.union(*parts[1:]) if len(parts) > 1 else out

    plan = shard_plan(index_dir, n_shards)
    # Every shard's pool must place its first actor at once, with a CPU
    # left for the merge's tasks: a pool whose actor cannot be placed
    # waits for CPUs that only finished pools give back, and Ray Data
    # drops a finished pool's actors without ray.kill, so they hold
    # their CPUs until the driver collects the handles' reference
    # cycles. Per-pool size divides the rest of the cluster by shard
    # count, so 4 pools do not each claim the whole node.
    from lucene_ray.cluster import cluster_cpus

    spare = max(1, cluster_cpus() - 1)
    per_pool = max(1, spare // len(plan))
    actor_cpus = min(1.0, spare / len(plan))
    conc = concurrency or actor_pool(per_actor_cpus=actor_cpus, cap=per_pool)
    # the actors of earlier calls, still held by uncollected cycles
    gc.collect()
    queries_ds = queries_ds.materialize()  # consumed once per shard, twice
    # coalesce the query stream: from_items-style inputs arrive as
    # hundreds of tiny blocks, and every block becomes a task in EVERY
    # per-shard stage — repartition once to ~2 blocks per phase-1 actor
    n_q = queries_ds.count()
    want_blocks = max(1, min(64, n_q // 64))
    if queries_ds.num_blocks() > 2 * want_blocks:
        queries_ds = queries_ds.repartition(want_blocks).materialize()

    # ---- phase 0: global stats exchange -----------------------------------
    stats_parts = [
        queries_ds.map_batches(
            ShardStatsActor,
            fn_constructor_kwargs={
                "index_dir": index_dir,
                "segment_ids": p,
                "shard": si,
            },
            concurrency=(1, min(2, per_pool)),
            num_cpus=actor_cpus,
            batch_format="pyarrow",
            batch_size=512,  # parse-only stage: fewer, fatter tasks
        )
        for si, p in enumerate(plan)
    ]
    stats_ds = stats_parts[0]
    if len(stats_parts) > 1:
        stats_ds = stats_ds.union(*stats_parts[1:])
    # the stats exchange is tiny by construction — |distinct query terms|
    # × n_shards rows — so the dedupe-then-sum reduce runs on the driver
    # (two Ray-Data groupby shuffles here cost seconds of fixed overhead
    # per query stream; the classic distributed-IR exchange is one
    # gather of per-shard term stats, exactly this)
    import time as _time

    _t0 = _time.time()
    seen: Dict[Tuple[str, int], Tuple[int, int]] = {}
    for r in stats_ds.take_all():
        seen[(r["term"], int(r["shard"]))] = (int(r["df"]), int(r["ttf"]))
    stats: Dict[str, Tuple[int, int]] = {}
    for (term, _shard), (df, ttf) in seen.items():
        d, t = stats.get(term, (0, 0))
        stats[term] = (d + df, t + ttf)
    stats_ref = ray.put(stats)
    gc.collect()  # phase 0's actors give their CPUs back to phase 1's
    if os.environ.get("LUCENE_RAY_PROFILE"):
        print(f"[sharded] phase0 {_time.time() - _t0:.2f}s", flush=True)
        _t0 = _time.time()

    # ---- phase 1: per-shard top-k under global stats -----------------------
    parts = [
        queries_ds.map_batches(
            ShardSearcherActor,
            fn_constructor_kwargs={
                "index_dir": index_dir,
                "segment_ids": p,
                "k": k,
                "stats_ref": stats_ref,
                "similarity": similarity,
            },
            concurrency=conc,
            num_cpus=actor_cpus,
            batch_format="pyarrow",
            # large batches: per-task dispatch costs ~ms and every query
            # visits EVERY shard, so small batches multiply into
            # thousands of tiny tasks (queries/batch × shards)
            batch_size=128,
        )
        for p in plan
    ]
    res = parts[0]
    if len(parts) > 1:
        res = res.union(*parts[1:])

    # ---- phase 2: TopDocs.merge per query ----------------------------------
    import functools

    if os.environ.get("LUCENE_RAY_PROFILE"):
        res = res.materialize()
        print(f"[sharded] phase1 {_time.time() - _t0:.2f}s", flush=True)
    return res.groupby("qid").map_groups(
        functools.partial(merge_topk, k=k), batch_format="pyarrow"
    )
