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
  drop phrase candidates before positions are read), exact-phrase
  entries (a phrase's matches in the layout of a term's arrays, built on
  the phrase's second search, or its first when that verifies every
  candidate anyway; a repeated phrase then reads no positions) with the
  "seen" markers of phrases searched once, the index-wide norm
  inverses (phrase bounds and entries), and the answers to query
  strings (a repeated string with an exact count is one lookup, no
  parse, term lookup or scoring), all persisting across queries:
  the production steady state. Queries scored per segment (exhaustive
  scoring, other query types) read slices of the same term entries, and
  constant-score leaves cache their per-segment match sets in the same
  byte-bounded LRU (``IndexSearcher.CACHE_BYTES``);
- queries submitted as pyarrow-table shards round-robin across the pool
  (``submit`` returns object refs; ``search`` gathers);
- ``warmup`` pushes one tiny batch through every actor so the first
  timed query doesn't pay lazy numpy/module init; every actor then
  holds the answers to the warmup queries.

At cluster scale this is the serving tier: one pool per index
generation, refreshed by ``maybe_refresh`` after a commit. Refresh after
a merge before serving on: the merge deletes its source segment
directories, and a ``SegmentReader`` loads several files lazily on first
touch (term-dictionary parts, docmap, doc values, term vectors, point,
geo and range sidecars), so an actor opened before the merge fails with
``FileNotFoundError`` on any of them it has not loaded yet; only what is
already loaded or mmapped survives the unlink."""

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
        manifest if its generation advanced — the new searcher opens the
        new segment dirs and drops merged-away ones. The old searcher is
        not safe to keep after a merge: the merge deleted its source
        segment dirs, so it fails on every file it had not loaded yet (see
        the module docstring). → True if a new searcher was opened."""
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
        """Run ``queries`` through EVERY actor (untimed cache/module warm;
        each actor caches their answers)."""
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
        gather one result table (qid, rank, key, docid, score). No queries
        still send one empty batch to one actor, so the result has the
        schema of every other call."""
        n = len(qids)
        qid_arr = pa.array(qids, pa.int64())
        q_arr = pa.array(queries, pa.string())
        refs = []
        for i, s in enumerate(range(0, max(n, 1), batch_size)):
            e = min(s + batch_size, n)
            batch = pa.table({"qid": qid_arr[s:e], "query": q_arr[s:e]})
            refs.append(
                self.actors[i % len(self.actors)].search_batch.remote(batch)
            )
        parts = ray.get(refs)
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
