"""The engine's one query-time cache: ``LRUCache``, an LRU bounded by the
summed bytes of its entries, with hit/miss counters.

One ``LRUCache`` per ``IndexSearcher`` (``IndexSearcher.cache``, sized by
``IndexSearcher.CACHE_BYTES``) holds every cross-query reuse of a
searcher process, so one number bounds a long-lived actor's query-time
memory:

- term states (``("states", t)``): per-segment ``TermInfo`` and the
  summed df/ttf;
- one postings entry per term key (``("postings", t)``): the term's live
  postings as ascending global docids and freqs, for every field and
  every similarity; positions row-aligned beside it (``("pos", t)``),
  their position signatures (``("sig", t)``), and for default-field
  terms the BM25 denominators and run maxima derived from it
  (``("bm25", t)``). A query scored per segment reads one segment's
  postings as a slice of these entries;
- exact-phrase entries in the same layout (``("phrase", terms)``) and the
  "seen" markers of phrases searched once;
- the raw match sets of constant-score leaves per segment (``("match",
  repr(q), seg_dir)``): multi-term expansions, term-in-set unions,
  doc-values ranges, geo and range-field filters — dictionary scans and
  column compares, expensive to recompute and cheap to reuse (the role
  of the reference's query cache). A match set
  keeps its segment's deleted docs: tombstones are applied after the
  lookup, as the reference applies live docs at collection, so a set
  stays valid when only the segment's deletions change and can be
  carried to a reopened searcher;
- norm inverses and similarity scorers;
- answers (``("topk", query, k, mode, after)``): the top-k dict that
  ``IndexSearcher.search`` returned for a query string (the role of
  Solr's ``queryResultCache``), its arrays read-only. An answer is
  valid because a searcher is point-in-time: its segments, deletions
  and statistics never change. Left out: ``mode="exhaustive"``, the
  uncached reference that checks the other paths; searches while
  ``stats_override`` is set, the one attribute changed after
  construction, whose statistics the key does not name; and GTE
  answers, so a large phrase's second search still runs, builds its
  phrase entry and counts exactly. A reopened searcher could carry
  them only across a commit that changes no doc, deletion or
  statistic (a merge-only one).

Segments are immutable, so entries never go stale; the bound only caps
memory. This module imports nothing from the package.
"""

from __future__ import annotations

import collections
from typing import Hashable


class LRUCache:
    """Least-recently-used cache bounded by the summed ``nbytes`` of its
    entries. ``get`` counts a hit or a miss and marks a hit most recent;
    ``in`` does neither. An entry larger than ``max_bytes`` is handed
    back by ``put`` but not kept."""

    def __init__(self, max_bytes: float):
        self.max_bytes = max_bytes
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
        recent ones past the bound; returns ``value``."""
        old = self._data.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        if nbytes > self.max_bytes:
            return value
        self._data[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.max_bytes:
            self.nbytes -= self._data.popitem(last=False)[1][1]
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)
