"""Per-layer measurements for the traced run (``--trace 1``).

Spans and counters sit around calls into each layer's public functions,
made from here: the package itself is not changed. Every workload's
traced run reports every per-layer metric, measured on that workload's
own corpus, index and query stream; ``ingest`` probes its index with a
Zipf sample since it sends no queries of its own.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

import numpy as np

from perfbench.common import (
    CONFIG,
    QUERY_CLASSES,
    WORK_DIR,
    Tracer,
    fresh_dir,
    import_searcher_s,
    index_config,
    median,
    percentile,
    query_class,
    spawn_service,
)


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def probe_merge_bucket(index_dir: str, built, tracer: Tracer) -> None:
    """Merge bucket 0 of the first force-merge group in-process."""
    from lucene_ray.index.merge import merge_bucket

    segs = sorted(built.segments, key=lambda s: s["base_docid"])
    per = -(-len(segs) // CONFIG["merge_segments"])
    ids = [s["seg_id"] for s in segs[:per]]
    out = fresh_dir(os.path.join(WORK_DIR, "probe_merge"))
    os.makedirs(out)
    with tracer.span("merge.merge_bucket"):
        merge_bucket(index_dir, ids, 0, out)
    fresh_dir(out)


def probe_partitions(paths: List[str], n_docs: int, tracer: Tracer) -> None:
    """Read, analyze, invert and write the first few build partitions
    in-process, one layer call at a time."""
    from lucene_ray.analysis.analyzer import analyzer_for_config
    from lucene_ray.index.build import plan_partitions, read_partition
    from lucene_ray.index.segment import invert_texts, write_segment

    cfg = index_config(n_docs)
    analyzer = analyzer_for_config(cfg)
    out = fresh_dir(os.path.join(WORK_DIR, "probe_segments"))
    for item in plan_partitions(sorted(paths), cfg.rows_per_segment)[: CONFIG["probe_partitions"]]:
        with tracer.span("segment.read_partition"):
            tbl = read_partition(
                item["path"], item["row_start"], item["row_end"], [cfg.key_col, cfg.text_col]
            )
        texts = tbl.column(cfg.text_col).to_pylist()
        with tracer.span("analysis.analyze_flat"):
            _, lengths, _ = analyzer.analyze_flat(texts)
        tracer.add("analysis.tokens", int(np.sum(lengths)))
        with tracer.span("segment.invert_texts"):
            inv = invert_texts(texts, analyzer, with_positions=cfg.positions)
        tracer.add("segment.postings", len(inv.pair_docids))
        keys = tbl.column(cfg.key_col).combine_chunks()
        with tracer.span("segment.write_segment"):
            write_segment(
                os.path.join(out, f"seg_{item['seg_id']:06d}"),
                item["seg_id"], item["base_docid"], keys, inv, cfg,
            )
    fresh_dir(out)


def _open_searcher(index_dir: str):
    """A searcher with every term-dictionary bucket loaded (absent-term
    lookups) but no query-level cache filled."""
    from lucene_ray.search.searcher import IndexSearcher

    s = IndexSearcher(index_dir)
    s.term_states([f"zz{i}qq" for i in range(64)])
    return s


def probe_queries(index_dir: str, queries: List[str], tracer: Tracer) -> None:
    from lucene_ray.search.query import parse_query, query_terms

    k = CONFIG["k"]
    s = _open_searcher(index_dir)
    parsed = []
    for q in queries:
        with tracer.span("query.parse_query"):
            parsed.append(parse_query(q, s.analyzer))
    for i, p in enumerate(parsed):
        terms = sorted(set(query_terms(p)))
        tracer.add("searcher.terms", len(terms))
        with tracer.span("searcher.term_states", request=i):
            states = s.term_states(terms)
        with tracer.span("codecs.decode", request=i):
            for t in terms:
                for seg, ti in zip(s.segments, states[t][0]):
                    if ti is not None:
                        seg.decoded(ti)

    s = _open_searcher(index_dir)
    for i, q in enumerate(queries):
        cls = query_class(q)
        with tracer.span(f"searcher.{cls}.cold", request=i):
            res = s.search(q, k)
        with tracer.span(f"searcher.{cls}.warm", request=i):
            s.search(q, k)
        tracer.add("searcher.hits", int(res["total_hits"]))

    bs = CONFIG["batch_size"]
    for rep in range(3):
        for lo in range(0, len(queries), bs):
            qs = queries[lo : lo + bs]
            with tracer.span("searcher.search_batch"):
                s.search_batch(list(range(len(qs))), qs, k)
            with tracer.span("searcher.search_each"):
                for q in qs:
                    s.search(q, k)


SEARCH_TASK = "task::SearcherWorker.search_batch"


def _actor_busy(t0: float, t1: float, n_actors: int, n_tasks: int) -> float:
    """Share of [t0, t1] (epoch s) the searcher actors spent executing
    the ``n_tasks`` search calls sent in it, from Ray's task
    timeline: their mean duration there times their count, since the
    timeline may miss some events. Events reach the GCS about once a
    second, so this waits up to 10 s for them."""
    import ray

    deadline = time.time() + 10
    while True:
        durations = [
            e["dur"] / 1e6
            for e in ray.timeline()
            if e.get("cat") == SEARCH_TASK
            and t0 <= e["ts"] / 1e6 <= t1
        ]
        if len(durations) >= n_tasks or time.time() > deadline:
            break
        time.sleep(0.5)
    if not durations:
        return 0.0
    return float(np.mean(durations)) * n_tasks / ((t1 - t0) * n_actors)


def probe_service(svc, index_dir: str, queries: List[str], tracer: Tracer) -> None:
    """Round trip of one 16-query batch through an actor minus the same
    batch's in-process ``search_batch`` time (both warm)."""
    import pyarrow as pa
    import ray

    k = CONFIG["k"]
    bs = CONFIG["batch_size"]
    s = _open_searcher(index_dir)
    actor = svc.actors[0]
    for b in range(CONFIG["probe_batches"]):
        qs = [queries[(b * bs + j) % len(queries)] for j in range(bs)]
        tbl = pa.table({"qid": pa.array(range(bs), pa.int64()), "query": pa.array(qs)})
        ray.get(actor.search_batch.remote(tbl))
        s.search_batch(list(range(bs)), qs, k)
        with tracer.span("service.round_trip"):
            ray.get(actor.search_batch.remote(tbl))
        with tracer.span("service.in_process"):
            s.search_batch(list(range(bs)), qs, k)


def trace_all(
    tracer: Tracer,
    paths: List[str],
    index_dir: str,
    built,
    merged,
    n_docs: int,
    queries: List[str],
    repeat_query_share: float,
    late_ms: List[float],
    service: Optional[tuple],
) -> Dict[str, float]:
    """Run the probes and turn spans/counters into per-layer metrics."""
    probe_partitions(paths, n_docs, tracer)
    probe_queries(index_dir, queries, tracer)
    if service is None:
        svc, _ = spawn_service(index_dir, tracer)
        t0 = time.time()
        probe_service(svc, index_dir, queries, tracer)
        busy = _actor_busy(t0, time.time(), len(svc.actors), 2 * CONFIG["probe_batches"])
        svc.shutdown()
    else:
        svc, t0, t1, n_tasks = service
        busy = _actor_busy(t0, t1, len(svc.actors), n_tasks)
        probe_service(svc, index_dir, queries, tracer)

    c = tracer.counters
    nq = max(1, len(queries))
    build_wall = tracer.durations("index.build_index")[-1]
    busy_s = sum(
        m["task_metrics"]["t_prep"] + m["metrics"]["build_s"] for m in built.segments
    )
    analysis_s = tracer.total("analysis.analyze_flat")
    out = {
        "build.wall_s": build_wall,
        "build.task_busy_s": busy_s,
        "build.parallel_eff": busy_s / (build_wall * CONFIG["cpus"]),
        "analysis.s": analysis_s,
        "analysis.tokens": c.get("analysis.tokens", 0),
        "segment.read_s": tracer.total("segment.read_partition"),
        "segment.invert_s": tracer.total("segment.invert_texts") - analysis_s,
        "segment.write_s": tracer.total("segment.write_segment"),
        "segment.postings": c.get("segment.postings", 0),
        "merge.wall_s": tracer.durations("index.force_merge")[-1],
        "merge.rounds": merged.generation - built.generation,
        "merge.bucket_s": tracer.total("merge.merge_bucket"),
        "query.parse_us": _mean(tracer.durations("query.parse_query")) * 1e6,
        "searcher.term_lookup_us": _mean(tracer.durations("searcher.term_states")) * 1e6,
        "searcher.terms_per_query": c.get("searcher.terms", 0) / nq,
        "codecs.decode_us": _mean(tracer.durations("codecs.decode")) * 1e6,
        "searcher.hits_per_query": c.get("searcher.hits", 0) / nq,
        "searcher.assembly_us_per_query": (
            tracer.total("searcher.search_batch") - tracer.total("searcher.search_each")
        ) / (3 * nq) * 1e6,
        "service.spawn_s": median(tracer.durations("service.spawn")),
        "service.warmup_s": median(tracer.durations("service.warmup")),
        "service.overhead_ms_per_batch": (
            median(tracer.durations("service.round_trip"))
            - median(tracer.durations("service.in_process"))
        ) * 1e3,
        "service.actor_busy_frac": busy,
        "import.searcher_s": import_searcher_s(),
        "generator.late_ms_p99": percentile(late_ms, 99),
        "repeat_query_share": repeat_query_share,
    }
    for cls in QUERY_CLASSES:
        for phase in ("cold", "warm"):
            out[f"searcher.{cls}.{phase}_ms"] = _mean(
                tracer.durations(f"searcher.{cls}.{phase}")
            ) * 1e3
    return out
