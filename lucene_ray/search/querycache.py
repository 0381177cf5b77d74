"""The engine's one cache policy: ``LRUCache``, a byte-bounded LRU with
hit/miss counters, and ``LRUQueryCache`` on top of it — per-(query,
segment) match-set caching for constant-score clauses, the role of
``LRUQueryCache``
(``lucene/core/src/java/org/apache/lucene/search/LRUQueryCache.java:61-120``).

``LRUCache`` holds every cross-query reuse in a searcher process: the
reader's decoded postings/positions (``SegmentReader``), the searcher's
term states, index-wide term arrays (docids, BM25 denominators, run
maxima, freqs), term positions, position signatures and norm inverses,
and similarity scorers
(``IndexSearcher``), and the query cache below. Segments are
immutable, so entries never go stale; the bounds only cap memory in
long-lived serving actors. This module imports nothing from the package,
so the index layer can use it.

What the query cache holds mirrors the reference's
``UsageTrackingQueryCachingPolicy`` intuition (cheap to reuse, expensive
to recompute): doc-values range filters and dictionary-expanding
multi-term queries (prefix / wildcard / fuzzy), whose evaluation cost is
dominated by term-dict scans and dv column compares, and whose results
are constant-score docid sets. Scoring term queries are NOT cached
(scores are cheap to recompute and caching them defeats pruning).

Policy knobs follow the reference's defaults scaled to this engine:
``max_entries`` bounds the number of cached (query, segment) sets and
``min_segment_docs`` skips tiny segments where recomputation is cheaper
than cache bookkeeping (``LRUQueryCache.java`` skips leaves < 10k docs /
3% of the index). Deletes are applied AFTER cache lookup (live-docs
filtering happens at collection, like the reference — the cache stores
the raw match set).
"""

from __future__ import annotations

import collections
from typing import Hashable, Optional

import numpy as np


class LRUCache:
    """Least-recently-used cache bounded by the summed ``nbytes`` of its
    entries (and optionally by their count). ``get`` counts a hit or a
    miss and marks a hit most recent; ``in`` does neither. An entry
    larger than ``max_bytes`` is handed back by ``put`` but not kept."""

    def __init__(self, max_bytes: float, max_entries: Optional[int] = None):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._data: "collections.OrderedDict[Hashable, tuple]" = (
            collections.OrderedDict()
        )
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable):
        """The cached value, or None on a miss."""
        hit = self._data.get(key)
        if hit is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return hit[0]

    def put(self, key: Hashable, value, nbytes: int):
        """Store ``value`` as the most recent entry, evicting the least
        recent ones past the bounds; returns ``value``."""
        old = self._data.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        if nbytes > self.max_bytes:
            return value
        self._data[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.max_bytes or (
            self.max_entries is not None and len(self._data) > self.max_entries
        ):
            self.nbytes -= self._data.popitem(last=False)[1][1]
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


class LRUQueryCache(LRUCache):
    """Match sets keyed by (query, segment), bounded by entry count."""

    def __init__(self, max_entries: int = 1000, min_segment_docs: int = 10_000):
        super().__init__(float("inf"), max_entries)
        self.min_segment_docs = min_segment_docs

    @staticmethod
    def cache_key(query) -> str:
        """Stable identity of a constant-score query plan — dataclass
        repr is deterministic over field values (Query.equals/hashCode
        role)."""
        return repr(query)

    def get(self, query, seg) -> Optional[np.ndarray]:  # type: ignore[override]
        if seg.n_docs < self.min_segment_docs:
            return None
        return super().get((self.cache_key(query), seg.seg_dir))

    def put(self, query, seg, docids: np.ndarray) -> None:  # type: ignore[override]
        if seg.n_docs >= self.min_segment_docs:
            super().put((self.cache_key(query), seg.seg_dir), docids, docids.nbytes)
