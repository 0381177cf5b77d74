"""Persistent searcher serving pool — the long-lived-process shape of the
reference's search deployment (an ``IndexSearcher`` held open in a warm
JVM; ``core/search/IndexSearcher.java:87-104`` is explicitly designed to
be shared across many queries/threads, and the reference's published
benchmark protocol measures steady-state QPS after JVM/index warmup).

``search_dataset`` (searcher.py) is the Ray-Data surface: it spins an
actor pool per pipeline execution, which is right for batch jobs but pays
per-call actor cold start (fresh worker process: interpreter + pandas /
pyarrow import + index open ≈ 1 s) — noise when measuring serving
throughput. ``SearcherService`` keeps the actors alive across calls:

- N detached-scope ``SearcherWorker`` actors, each holding one warm
  ``IndexSearcher``: mmapped segments and the searcher's byte-bounded
  LRU of term states, index-wide term arrays (live docids, BM25
  denominators and freqs, read by term, disjunction, conjunction and
  exact-phrase top-k), index-wide term positions (exact phrases, in the
  narrowest unsigned dtype that holds them), per-posting 64-bit position
  signatures (built when a term's positions are read a second time; they
  drop phrase candidates before positions are read) and the index-wide
  norm inverses (phrase bounds), all persisting across queries: the
  production steady state. Each reader's decode cache fills only for
  queries scored per segment (exhaustive scoring, other query types);
- queries submitted as pyarrow-table shards round-robin across the pool
  (``submit`` returns object refs; ``search`` gathers);
- ``warmup`` pushes one tiny batch through every actor so the first
  timed query doesn't pay lazy numpy/module init.

At cluster scale this is the serving tier: one pool per index
generation, refreshed by swapping index_dir after a merge round
(segment files are write-once, so old actors stay consistent while
draining)."""

from __future__ import annotations

from typing import List, Optional

import pyarrow as pa

import ray

from lucene_ray.index.manifest import load_manifest
from lucene_ray.search.searcher import SearcherActor


@ray.remote
class SearcherWorker:
    """One warm IndexSearcher; batch API identical to SearcherActor."""

    def __init__(self, index_dir: str, k: int, similarity: Optional[str]):
        self.index_dir = index_dir
        self.k = k
        self.similarity = similarity
        self.inner = SearcherActor(index_dir, k=k, similarity=similarity)

    def search_batch(self, batch: pa.Table) -> pa.Table:
        return self.inner(batch)

    def generation(self) -> int:
        return int(self.inner.searcher.manifest.generation)

    def maybe_refresh(self) -> bool:
        """``SearcherManager.maybeRefresh`` (``core/search/
        SearcherManager.java:28-120``): reopen over the CURRENT committed
        manifest if its generation advanced — segments are write-once, so
        the new searcher mmaps new segment dirs and drops merged-away
        ones; in-flight batches on the old searcher stay consistent
        (acquire/release swap). → True if a new searcher was opened."""
        man = load_manifest(self.index_dir)
        if man is None or man.generation == self.generation():
            return False
        self.inner = SearcherActor(
            self.index_dir, k=self.k, similarity=self.similarity
        )
        return True

    def ping(self) -> bool:
        return True


class SearcherService:
    """A fixed pool of warm searcher actors with round-robin sharding."""

    def __init__(
        self,
        index_dir: str,
        num_actors: int = 4,
        k: int = 10,
        similarity: Optional[str] = None,
        num_cpus: float = 1,
    ):
        self.k = k
        self.actors = [
            SearcherWorker.options(num_cpus=num_cpus).remote(
                index_dir, k, similarity
            )
            for _ in range(num_actors)
        ]
        # block until every actor has opened the index (constructor ran)
        ray.get([a.ping.remote() for a in self.actors])

    def warmup(self, queries: List[str]) -> None:
        """Run ``queries`` through EVERY actor (untimed cache/module warm)."""
        batch = pa.table(
            {
                "qid": pa.array(range(len(queries)), pa.int64()),
                "query": pa.array(queries, pa.string()),
            }
        )
        ray.get([a.search_batch.remote(batch) for a in self.actors])

    def search(
        self, qids: List[int], queries: List[str], batch_size: int = 16
    ) -> pa.Table:
        """Shard (qid, query) into batches, round-robin across the pool,
        gather one result table (qid, rank, key, docid, score)."""
        n = len(qids)
        qid_arr = pa.array(qids, pa.int64())
        q_arr = pa.array(queries, pa.string())
        refs = []
        for i, s in enumerate(range(0, n, batch_size)):
            e = min(s + batch_size, n)
            batch = pa.table({"qid": qid_arr[s:e], "query": q_arr[s:e]})
            refs.append(
                self.actors[i % len(self.actors)].search_batch.remote(batch)
            )
        parts = ray.get(refs)
        if not parts:
            return pa.table({})
        # every part has the same schema, zero-hit ones included
        # (``IndexSearcher.search_batch``); permissive promotion only
        # matters for a pool whose actors serve different indexes
        return pa.concat_tables(parts, promote_options="permissive")

    def maybe_refresh(self) -> bool:
        """Near-real-time reopen across the whole pool
        (``SearcherManager.maybeRefresh`` — the serving tier picks up a
        new commit generation without restarting actors). → True if any
        actor reopened."""
        return any(
            ray.get([a.maybe_refresh.remote() for a in self.actors])
        )

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
