"""Mean latency per query class of one in-process ``IndexSearcher``.

Runs the seeded Zipf query stream of the ``serve_zipf`` benchmark
workload (``perfbench.common.zipf_queries``) in order against one
searcher, so first touches and repeats fall as they do when serving, and
prints the mean milliseconds per class (term / disjunction / conjunction
/ phrase, ``perfbench.common.query_class``), then one line per cache
(the readers' decode caches summed, the searcher cache, the query cache)
with its hits, misses and megabytes held.

``--check`` then re-runs every query with ``mode="exhaustive"`` and
asserts that the top-10 docids and float32 scores are equal, and that the
hit count follows the TotalHits rule for every class: an ``EQ`` count
equals the exhaustive one, and a ``GTE`` count (a pruned path skipped
candidates) lies between 1000 and the exhaustive one. For every term,
disjunction and conjunction query with a full first page, page 2 through
``after=(score[-1], docid[-1])`` must equal exhaustive ranks 11-20
(docids and float32 score bytes).

Usage: python tools/query_class_profile.py <index_dir> [--seed N] [--n N] [--check]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np

from lucene_ray.search.searcher import IndexSearcher
from perfbench.common import QUERY_CLASSES, query_class, zipf_queries

K = 10
TOTAL_HITS_THRESHOLD = 1000  # the pruned exact-phrase path counts exactly up to here


def same_hits(got: dict, want: dict, start: int) -> bool:
    """``got``'s hits equal ``want``'s ranks ``start``.. ``start + K``:
    docids and float32 score bytes."""
    ids = want["docids"][start : start + K]
    scores = np.asarray(want["scores"][start : start + K], np.float32)
    return np.array_equal(got["docids"], ids) and (
        np.asarray(got["scores"], np.float32).tobytes() == scores.tobytes()
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("index_dir")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=1200)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()

    queries = zipf_queries(args.seed, args.n)
    searcher = IndexSearcher(args.index_dir)
    ms = {c: [] for c in QUERY_CLASSES}
    results = []
    t_all = time.perf_counter()
    for q in queries:
        t0 = time.perf_counter()
        results.append(searcher.search(q, k=K))
        ms[query_class(q)].append((time.perf_counter() - t0) * 1e3)
    total_s = time.perf_counter() - t_all

    print(f"{args.n} queries, seed {args.seed}, "
          f"{len(searcher.segments)} segments, total {total_s:.2f} s")
    print(f"{'class':<12} {'n':>5} {'mean_ms':>9} {'total_s':>8}")
    for c in QUERY_CLASSES:
        v = ms[c]
        mean = sum(v) / len(v) if v else 0.0
        print(f"{c:<12} {len(v):>5} {mean:>9.2f} {sum(v) / 1e3:>8.2f}")

    caches = {
        "decode": [seg.decode_cache for seg in searcher.segments],
        "searcher": [searcher.cache],
        "query": [searcher.query_cache] if searcher.query_cache else [],
    }
    for name, cs in caches.items():
        hits = sum(c.hits for c in cs)
        misses = sum(c.misses for c in cs)
        mb = sum(c.nbytes for c in cs) / 2**20
        print(f"cache {name:<9} hits {hits:>7} misses {misses:>7} {mb:>8.1f} MB")

    if not args.check:
        return 0
    bad = 0
    for q, got in zip(queries, results):
        want = searcher.search(q, k=2 * K, mode="exhaustive")
        same = same_hits(got, want, 0)
        if got["relation"] == "EQ":
            same = same and got["total_hits"] == want["total_hits"]
        else:
            same = same and TOTAL_HITS_THRESHOLD <= got["total_hits"] <= want["total_hits"]
        paged = query_class(q) in ("term", "disjunction", "conjunction")
        if paged and len(got["docids"]) == K:
            after = (float(got["scores"][-1]), int(got["docids"][-1]))
            same = same and same_hits(searcher.search(q, k=K, after=after), want, K)
        if not same:
            bad += 1
            print(f"MISMATCH {q!r}")
    print(f"check: {len(queries) - bad}/{len(queries)} equal to exhaustive")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
