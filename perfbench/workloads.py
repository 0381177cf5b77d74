"""The three workloads. Each returns a ``Run``: the end-to-end samples,
the deterministic work counters, the attempted/failed counts and, when
traced, the per-layer metrics.

- ``ingest``: ``build_index`` + ``force_merge(..., 8)`` in a closed loop
  over a seeded ~256k-doc ``pages`` corpus (no query work).
- ``serve_hot``: closed loop of ``SearcherService.search`` calls over the
  6120-query ``bench.py`` set (16-query batches round-robin over 4
  actors); almost every query repeats, so the per-searcher caches serve
  nearly every term.
- ``serve_zipf``: one-query requests sent round-robin (the
  ``SearcherService.search`` policy) from a seeded Zipf generator, about
  half of them first touches: a closed loop on each fresh pool, then an
  open loop at a fixed rate.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pyarrow as pa

from perfbench import layers, verify
from perfbench.common import (
    CONFIG,
    WORK_DIR,
    Tracer,
    fresh_dir,
    hot_base_queries,
    hot_queries,
    index_bytes,
    index_config,
    median,
    no_gc,
    percentile,
    ray_start,
    ray_stop,
    repeat_share,
    rss_mb,
    session_worker_pids,
    spawn_service,
    write_corpus,
    zipf_queries,
)


@dataclass
class Run:
    setup_s: List[float]
    throughput_per_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    rss_mb: float
    attempted: int
    failed: int
    named: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def _warm_workers(n: int) -> None:
    """Run the build hot path once per worker slot: imports, allocator and
    numpy caches, so the timed loop measures steady-state throughput."""
    import ray

    @ray.remote
    def warm(i: int) -> int:
        import lucene_ray.search.searcher  # noqa: F401
        from lucene_ray.analysis.analyzer import Analyzer
        from lucene_ray.index.segment import invert_texts

        texts = [f"w{j} warm up pad " * 20 for j in range(2000)]
        invert_texts(texts, Analyzer(), with_positions=True)
        return i

    ray.get([warm.remote(i) for i in range(n)])


def fixed_ops(seconds: float, nominal_s: float) -> int:
    """Operations a closed loop runs: as many whole ones as fit in
    ``seconds`` at the nominal time per operation, at least one. The
    count is fixed before timing starts: a count that grows as the code
    gets faster (whole operations until time is up) made the figures
    bimodal."""
    return max(1, int(seconds / nominal_s))


def _build(paths, index_dir: str, n_docs: int, tracer: Tracer):
    """One ingest operation: build then merge to 8 segments. Traced, the
    in-process merge-bucket probe runs between the two (untimed).
    → (built manifest, merged manifest, build s, merge s, start time)."""
    from lucene_ray.index.build import build_index
    from lucene_ray.index.merge import force_merge

    cfg = index_config(n_docs)
    fresh_dir(index_dir)
    t0 = time.perf_counter()
    with tracer.span("index.build_index"):
        built = build_index(paths, index_dir, cfg)
    t1 = time.perf_counter()
    if tracer.enabled and not tracer.durations("merge.merge_bucket"):
        layers.probe_merge_bucket(index_dir, built, tracer)
    t2 = time.perf_counter()
    with tracer.span("index.force_merge"):
        merged = force_merge(index_dir, CONFIG["merge_segments"])
    t3 = time.perf_counter()
    return built, merged, t1 - t0, t3 - t2, t0


def _index_counters(built, merged, n_docs: int) -> Dict[str, float]:
    built_ids = {s["seg_id"] for s in built.segments}
    rewritten = sum(s["bytes"] for s in merged.segments if s["seg_id"] not in built_ids)
    return {
        "index_bytes_per_doc": index_bytes(merged) / n_docs,
        "segment.count": len(merged.segments),
        "segment.built": len(built.segments),
        "merge.bytes_rewritten_per_doc": rewritten / n_docs,
    }


# -- ingest -----------------------------------------------------------------


def run_ingest(seed: int, seconds: float, tracer: Tracer, size: dict) -> Run:
    n_docs = size["ingest_docs"]
    setups = []
    for i in range(CONFIG["ingest_setup_repeats"]):
        if i:
            ray_stop()
        t0 = time.perf_counter()
        ray_start()
        _warm_workers(3 * CONFIG["cpus"])
        setups.append(time.perf_counter() - t0)

    paths = write_corpus("ingest", n_docs, seed)
    index_dir = os.path.join(WORK_DIR, "ingest_index")
    builds, merges, cycle_ms, late_ms = [], [], [], []
    first = None
    bad_cycles = 0
    t_prev = time.perf_counter()
    for _ in range(fixed_ops(seconds, CONFIG["ingest_nominal_cycle_s"])):
        # closed loop: each cycle is due when the previous one ends
        built, merged, b_s, m_s, t_op = _build(paths, index_dir, n_docs, tracer)
        late_ms.append((t_op - t_prev) * 1e3)
        t_prev = time.perf_counter()
        builds.append(b_s)
        merges.append(m_s)
        cycle_ms.append((b_s + m_s) * 1e3)
        # every cycle must produce the same complete index
        shape = (merged.total_docs, len(merged.segments), index_bytes(merged))
        first = first or shape
        if shape != first or shape[0] != n_docs:
            bad_cycles += 1
    # peak resident memory of the workers that built and merged
    worker_hwm = sum(rss_mb(p, "VmHWM") for p in session_worker_pids())

    problems = verify.check_ingest(index_dir, merged, n_docs)
    if problems:
        print("check_index:", problems[:10])
    oracle = verify.text_oracle(paths, index_dir, n_docs, seed)
    failed = bad_cycles + (1 if problems else 0) + oracle["failed"]
    # ingest sends no queries: its query counters and probes use a
    # seeded Zipf sample over its own corpus vocabulary
    probe = verify.sample_distinct(
        zipf_queries(seed, 4 * CONFIG["ingest_probe_queries"], vocab_seed=seed),
        seed,
        CONFIG["ingest_probe_queries"],
    )
    counters = _index_counters(built, merged, n_docs)
    counters.update(verify.reference(index_dir, probe)[1])
    counters.update(oracle["counters"])
    run = Run(
        setup_s=setups,
        throughput_per_s=n_docs / (median(cycle_ms) / 1e3),
        latency_p50_ms=percentile(cycle_ms, 50),
        latency_p99_ms=percentile(cycle_ms, 99),
        rss_mb=worker_hwm,
        attempted=len(cycle_ms) + oracle["attempted"],
        failed=failed,
        named={
            "build_docs_per_s": n_docs / median(builds),
            "merge_docs_per_s": n_docs / median(merges),
            "index_bytes_per_doc": counters["index_bytes_per_doc"],
            "cycles": len(cycle_ms),
        },
        counters=counters,
    )
    if tracer.enabled:
        run.layers = layers.trace_all(
            tracer, paths, index_dir, built, merged, n_docs,
            queries=probe,
            repeat_query_share=0.0,
            late_ms=late_ms,
            service=None,
        )
    shutil.rmtree(os.path.dirname(paths[0]))  # seeded corpus: not reused
    return run


# -- serve ------------------------------------------------------------------


def actor_pids(svc) -> List[int]:
    import ray

    return ray.get([a.__ray_call__.remote(lambda self: os.getpid()) for a in svc.actors])


def _shutdown_service(svc) -> None:
    pids = actor_pids(svc)
    svc.shutdown()
    deadline = time.time() + 60
    while any(os.path.exists(f"/proc/{p}") for p in pids):
        if time.time() > deadline:
            raise RuntimeError(f"searcher actors {pids} did not exit")
        time.sleep(0.01)


def _hot_loop(svc, calls: int, queries: List[str], qid_base: int):
    """Closed loop of ``calls`` ``SearcherService.search`` calls over the
    whole hot query set; each starts when the previous one has returned.
    → (result tables, call latencies ms, gaps between calls ms, queries
    done, wall s)."""
    tables, lat_ms, gap_ms = [], [], []
    t_start = t_prev = time.perf_counter()
    with no_gc():
        for _ in range(calls):
            lo = qid_base + len(tables) * len(queries)
            t0 = time.perf_counter()
            gap_ms.append((t0 - t_prev) * 1e3)
            tables.append(svc.search(list(range(lo, lo + len(queries))), queries,
                                     batch_size=CONFIG["batch_size"]))
            t_prev = time.perf_counter()
            lat_ms.append((t_prev - t0) * 1e3)
    return tables, lat_ms, gap_ms, len(tables) * len(queries), t_prev - t_start


def _one_query_tables(queries: List[str], qid_base: int) -> List[pa.Table]:
    return [
        pa.table({"qid": pa.array([qid_base + i], pa.int64()), "query": pa.array([q], pa.string())})
        for i, q in enumerate(queries)
    ]


def _zipf_closed(svc, queries: List[str], qid_base: int):
    """Closed loop: one-query requests sent round-robin over the actors
    (the ``SearcherService.search`` policy) with ``zipf_depth`` of them in
    flight; each completion releases the next. → (result tables, wall s)."""
    import ray

    actors = svc.actors
    tables = _one_query_tables(queries, qid_base)
    refs, pending = [], set()
    with no_gc():
        t0 = time.perf_counter()
        for i, t in enumerate(tables):
            if len(pending) >= CONFIG["zipf_depth"]:
                ready, _ = ray.wait(list(pending), num_returns=1)
                pending.difference_update(ready)
            refs.append(actors[i % len(actors)].search_batch.remote(t))
            pending.add(refs[-1])
        ray.wait(list(pending), num_returns=len(pending))
        wall = time.perf_counter() - t0
    return ray.get(refs), wall


def _zipf_open(svc, queries: List[str], qid_base: int):
    """Open loop: request ``i`` is due at ``i / rate`` and goes to actor
    ``i % n``. Latency is timed from the due time. → (result tables,
    latencies ms, send lateness ms, wall s)."""
    import ray

    rate = float(CONFIG["zipf_rate_qps"])
    actors = svc.actors
    n = len(queries)
    tables = _one_query_tables(queries, qid_base)
    refs: List[Optional[object]] = [None] * n
    done = [0.0] * n
    late_ms = [0.0] * n
    pending = {}
    i = 0
    with no_gc():
        t0 = time.perf_counter() + 0.05
        while i < n or pending:
            now = time.perf_counter()
            due = t0 + i / rate
            if i < n and now >= due:
                refs[i] = actors[i % len(actors)].search_batch.remote(tables[i])
                late_ms[i] = (time.perf_counter() - due) * 1e3
                pending[refs[i]] = i
                i += 1
                continue
            timeout = max(0.0, due - now) if i < n else None
            if not pending:
                time.sleep(timeout)
                continue
            ready, _ = ray.wait(list(pending), num_returns=1, timeout=timeout)
            t = time.perf_counter()
            for r in ready:
                done[pending.pop(r)] = t
    lat_ms = [(done[j] - (t0 + j / rate)) * 1e3 for j in range(n)]
    return ray.get(refs), lat_ms, late_ms, max(done) - t0


def _serve_index(paths, n_docs: int, tracer: Tracer):
    """Build and merge the serve index with this checkout's code, on every
    run and outside the timed region, so the serve workloads always read
    what the code under test writes. → (dir, built, merged)."""
    index_dir = os.path.join(WORK_DIR, f"serve_index_{n_docs}")
    built, merged, _, _, _ = _build(paths, index_dir, n_docs, tracer)
    return index_dir, built, merged


def run_serve(kind: str, seed: int, seconds: float, tracer: Tracer, size: dict,
              late_limit: Optional[float] = None) -> Run:
    """Both serve workloads run in rounds: each round spawns and warms a
    fresh searcher pool (one set-up sample) and measures a share of
    ``seconds`` on it, so one run averages over several pools.

    ``serve_hot`` reports the QPS of its closed loop. ``serve_zipf`` sends
    each round's share of its stream first in a closed loop on the fresh
    pool, where most queries are first touches, and reports that loop's
    QPS (the pool's capacity for the stream); the rest goes in the open
    loop at the fixed rate, which gives the latencies and the generator's
    lateness. Capacity is measured in the closed loop because the open
    loop leaves the actors idle most of the time, and the mean in-actor
    service time it gives moved about twice as much from run to run."""
    ray_start()
    n_docs = size["serve_docs"]
    # fixed corpus (the default vocabulary's seed) so the hot base queries
    # and the Zipf stream hit real terms; the seed drives the query stream
    paths = write_corpus("serve", n_docs, 42)
    index_dir, built, merged = _serve_index(paths, n_docs, tracer)
    # the text oracle needs the index only: run it while the build's
    # workers are warm and before the actors take every CPU
    oracle = verify.text_oracle(paths, index_dir, n_docs, 42)
    hot = hot_queries()
    rounds = CONFIG["serve_rounds"][kind]
    hot_calls = fixed_ops(seconds / rounds, len(hot) / CONFIG["hot_nominal_qps"])
    half_s = seconds / rounds / 2
    n_closed = fixed_ops(half_s, 1 / CONFIG["zipf_nominal_qps"])
    n_open = fixed_ops(half_s, 1 / CONFIG["zipf_rate_qps"])
    zipf_stream = zipf_queries(seed, rounds * (n_closed + n_open))
    stream: List[str] = []  # query text by qid
    setups, results, lat_ms, gap_ms = [], [], [], []
    n_done, wall, open_done, open_wall = 0, 0.0, 0, 0.0
    svc = None
    for _ in range(rounds):
        if svc is not None:
            _shutdown_service(svc)
        svc, setup = spawn_service(index_dir, tracer)
        setups.append(setup)
        t_wall0 = time.time()
        if kind == "serve_hot":
            tables, r_lat, r_gap, r_done, r_wall = _hot_loop(
                svc, hot_calls, hot, len(stream)
            )
            stream += hot * len(tables)
            r_tasks = len(tables) * -(-len(hot) // CONFIG["batch_size"])
        else:
            part = zipf_stream[len(stream) : len(stream) + n_closed + n_open]
            tables, r_wall = _zipf_closed(svc, part[:n_closed], len(stream))
            o_tables, r_lat, r_gap, o_wall = _zipf_open(
                svc, part[n_closed:], len(stream) + n_closed
            )
            tables += o_tables
            stream += part
            r_done, r_tasks = n_closed, len(part)
            open_done += len(r_lat)
            open_wall += o_wall
        t_wall1 = time.time()
        results += tables
        lat_ms += r_lat
        gap_ms += r_gap
        n_done += r_done
        wall += r_wall
    if kind == "serve_hot":
        check_set = hot_base_queries()
    else:
        check_set = verify.sample_distinct(stream, seed, CONFIG["zipf_check_queries"])
    actor_rss = sum(rss_mb(p) for p in actor_pids(svc))
    layer_metrics = {}
    if tracer.enabled:
        layer_metrics = layers.trace_all(
            tracer, paths, index_dir, built, merged, n_docs,
            queries=check_set,
            repeat_query_share=repeat_share(stream),
            late_ms=gap_ms,
            service=(svc, t_wall0, t_wall1, r_tasks),
        )
    _shutdown_service(svc)
    served = verify.check_served(index_dir, stream, verify.collect(results), check_set)
    failed = served["failed"] + oracle["failed"]
    late_p99 = percentile(gap_ms, 99)
    if kind == "serve_zipf":
        # the generator must keep the offered rate. Scheduler jitter on a
        # busy 4-CPU host puts its p99 send lateness at 2-9 ms; a generator
        # that cannot keep up piles lateness far past the limit (25 ms,
        # under 4 intervals at 150 QPS)
        limit = CONFIG["zipf_late_limit_ms"] if late_limit is None else late_limit
        if late_p99 > limit:
            failed += 1
            print(f"invalid run: generator p99 lateness {late_p99:.2f} ms > {limit:.2f} ms")
    counters = _index_counters(built, merged, n_docs)
    counters.update(served["counters"])
    counters.update(oracle["counters"])
    named = {
        "qps": n_done / wall,
        "actor_rss_mb": actor_rss,
        "repeat_query_share": repeat_share(stream),
        "requests": len(stream),
    }
    if kind == "serve_zipf":
        named.update({
            "open_loop_qps": open_done / open_wall,
            "latency_p50_ms": percentile(lat_ms, 50),
            "latency_p99_ms": percentile(lat_ms, 99),
            "latency_samples": len(lat_ms),
            "generator.late_ms_p99": late_p99,
        })
    return Run(
        setup_s=setups,
        throughput_per_s=n_done / wall,
        latency_p50_ms=percentile(lat_ms, 50),
        latency_p99_ms=percentile(lat_ms, 99),
        rss_mb=actor_rss,
        attempted=len(stream) + oracle["attempted"],
        failed=failed,
        named=named,
        counters=counters,
        layers=layer_metrics,
    )


WORKLOADS = {
    "ingest": run_ingest,
    "serve_hot": lambda *a, **kw: run_serve("serve_hot", *a, **kw),
    "serve_zipf": lambda *a, **kw: run_serve("serve_zipf", *a, **kw),
}
