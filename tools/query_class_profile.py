"""Mean latency per query class of one in-process ``IndexSearcher``.

Runs the seeded Zipf query stream of the ``serve_zipf`` benchmark
workload (``perfbench.common.zipf_queries``) in order against one
searcher, so first touches and repeats fall as they do when serving,
then a seeded stream of ``N_MIXED`` "mixed" queries (``mixed_queries``:
nested booleans and terms beside phrases, in the shapes of
``MIXED_SHAPES``, over the same vocabulary and Zipf skew). Per class
(term / disjunction / conjunction / phrase,
``perfbench.common.query_class``, and mixed) it prints the share of
queries answered from the searcher's result cache (a ``("topk", …)``
hit; 0 on a checkout without result entries) and the mean and total
milliseconds of the others, the queries it executed, so a class's mean
times execution and not lookups. Then one line for the searcher's one
cache: its hits, misses and megabytes held, and per entry kind
(``KINDS``: term states, postings, BM25 parts, positions, signatures,
phrase entries, match sets, cached answers, the rest as "other") the
hits and misses of the stream's lookups and the megabytes held. For the
phrase and mixed classes it also prints deterministic work counters:
the candidates handed to the exact-phrase kernel
(``_exact_phrase_hits``) per executed query, the share of doc-conjunction
candidates the position-signature filter (``_signature_filter``)
passes, and the cached phrase entries (``("phrase", terms)``, built by
``_phrase_postings``) the class's queries hit and built, with the built
entries' megabytes.

``--check`` then re-runs every query with ``mode="exhaustive"`` and
asserts that the top-10 docids and float32 scores are equal, and that the
hit count follows the TotalHits rule for every class: an ``EQ`` count
equals the exhaustive one, and a ``GTE`` count (a pruned path skipped
candidates) lies between 1000 and the exhaustive one. For every term,
disjunction, conjunction and mixed query with a full first page, page 2
through ``after=(score[-1], docid[-1])`` must equal exhaustive ranks
11-20 (docids and float32 score bytes).

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
from lucene_ray.corpus.generator import make_vocab
from perfbench.common import CONFIG, QUERY_CLASSES, query_class, zipf_queries

K = 10
TOTAL_HITS_THRESHOLD = 1000  # the pruned exact-phrase path counts exactly up to here


# nested booleans and terms beside phrases over 3 Zipf-ranked words,
# N_MIXED of them after the Zipf stream
N_MIXED = 700
MIXED_SHAPES = (
    "+{a} +({b} {c})",
    '{a} "{b} {c}"',
    "+{a} {b}",
    '+"{a} {b}" -{c}',
    "+{a} +{b} {c}",
    "+({a} {b}) -{c}",
    "+{a} -({b} {c})",
)


def mixed_queries(seed: int, n: int, vocab_seed: int = 42) -> list:
    """Seeded stream of ``n`` queries, each of a uniformly drawn
    ``MIXED_SHAPES`` shape, its words ranked in ``make_vocab(vocab_seed)``
    with the Zipf skew of ``zipf_queries``."""
    vocab = make_vocab(seed=vocab_seed)
    rng = np.random.default_rng([seed, 0x313D])
    shapes = rng.integers(0, len(MIXED_SHAPES), size=n)
    ranks = np.minimum(rng.zipf(CONFIG["zipf_alpha"], size=(n, 3)) - 1, len(vocab) - 1)
    return [
        MIXED_SHAPES[s].format(**{v: vocab[r] for v, r in zip("abc", rk)})
        for s, rk in zip(shapes, ranks)
    ]


# the searcher cache's entry kinds, by the first element of their keys
KINDS = ("states", "postings", "bm25", "pos", "sig", "phrase", "match", "topk")


def kind_of(key) -> str:
    return key[0] if key[0] in KINDS else "other"


def count_cache_traffic(searcher: IndexSearcher) -> dict:
    """Wrap ``searcher.cache.get`` as an instance attribute (drop it to
    unwrap) → per entry kind (``kind_of``), the ``[hits, misses]`` of its
    lookups."""
    traffic = {k: [0, 0] for k in KINDS + ("other",)}
    get = searcher.cache.get

    def counting_get(key):
        hit = get(key)
        traffic[kind_of(key)][hit is None] += 1
        return hit

    searcher.cache.get = counting_get
    return traffic


def cache_line(cache, traffic: dict) -> str:
    """The cache's hits, misses and MB held, then per entry kind the
    ``traffic`` hits/misses and the MB it holds."""
    held = dict.fromkeys(traffic, 0)
    for key, (_, nbytes) in cache._data.items():
        held[kind_of(key)] += nbytes
    kinds = "  ".join(
        f"{k} {h}/{m} {held[k] / 2**20:.1f}" for k, (h, m) in traffic.items()
    )
    return (
        f"cache hits {cache.hits} misses {cache.misses} "
        f"{cache.nbytes / 2**20:.1f} MB; by kind hits/misses MB: {kinds}"
    )


def count_phrase_work(searcher: IndexSearcher) -> dict:
    """Wrap ``searcher``'s exact-phrase kernel, signature filter, phrase
    entry builder and searcher-cache lookups as instance attributes (the
    filter and the builder only where the checkout has them; drop the
    attributes to unwrap) → the counters they add to: ``verified``, the
    candidates handed to the kernel; ``filter_in`` / ``filter_kept``, the
    candidates the filter saw and kept; ``entry_hits``, the lookups that
    found a cached phrase entry (``("phrase", terms)``, "seen" markers
    not counted); ``entry_builds`` / ``entry_bytes``, the phrase entries
    built and their bytes."""
    work = {
        "verified": 0,
        "filter_in": 0,
        "filter_kept": 0,
        "entry_hits": 0,
        "entry_builds": 0,
        "entry_bytes": 0,
    }
    kernel = searcher._exact_phrase_hits
    filt = getattr(searcher, "_signature_filter", None)
    build = getattr(searcher, "_phrase_postings", None)
    get = searcher.cache.get

    def counting_get(key):
        hit = get(key)
        if key[0] == "phrase" and isinstance(hit, tuple):
            work["entry_hits"] += 1
        return hit

    def counting_build(*args, **kwargs):
        entry = build(*args, **kwargs)
        work["entry_builds"] += 1
        work["entry_bytes"] += sum(a.nbytes for a in entry)
        return entry

    def counting_kernel(decoded, cand=None, rows=None):
        work["verified"] += len(
            cand
            if cand is not None
            else IndexSearcher._doc_conjunction([ids for ids, _, _ in decoded])
        )
        return kernel(decoded, cand, rows)

    def counting_filter(terms, states, cand, rows):
        kept = filt(terms, states, cand, rows)
        work["filter_in"] += len(cand)
        work["filter_kept"] += len(kept[0])
        return kept

    searcher._exact_phrase_hits = counting_kernel
    searcher.cache.get = counting_get
    if filt is not None:
        searcher._signature_filter = counting_filter
    if build is not None:
        searcher._phrase_postings = counting_build
    return work


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

    queries = [(q, query_class(q)) for q in zipf_queries(args.seed, args.n)]
    queries += [(q, "mixed") for q in mixed_queries(args.seed, N_MIXED)]
    classes = QUERY_CLASSES + ("mixed",)
    searcher = IndexSearcher(args.index_dir)
    ms = {c: [] for c in classes}
    work = count_phrase_work(searcher)
    traffic = count_cache_traffic(searcher)
    by_class = {c: dict.fromkeys(work, 0) for c in classes}
    answered = dict.fromkeys(classes, 0)  # queries answered from the cache
    results = []
    t_all = time.perf_counter()
    for q, c in queries:
        before = dict(work)
        cached = traffic["topk"][0]
        t0 = time.perf_counter()
        results.append(searcher.search(q, k=K))
        t = (time.perf_counter() - t0) * 1e3
        if traffic["topk"][0] > cached:
            answered[c] += 1
        else:
            ms[c].append(t)
        for name, v in work.items():
            by_class[c][name] += v - before[name]
    total_s = time.perf_counter() - t_all
    for name in ("_exact_phrase_hits", "_signature_filter", "_phrase_postings"):
        searcher.__dict__.pop(name, None)
    searcher.cache.__dict__.pop("get", None)

    print(f"{args.n} + {N_MIXED} mixed queries, seed {args.seed}, "
          f"{len(searcher.segments)} segments, total {total_s:.2f} s")
    print(f"{'class':<12} {'n':>5} {'cached':>7} {'executed':>8} {'mean_ms':>9} {'total_s':>8}")
    for c in classes:
        v = ms[c]
        n = len(v) + answered[c]
        mean = sum(v) / len(v) if v else 0.0
        print(
            f"{c:<12} {n:>5} {answered[c] / max(n, 1):>7.1%} {len(v):>8}"
            f" {mean:>9.2f} {sum(v) / 1e3:>8.2f}"
        )

    for c in ("phrase", "mixed"):
        w = by_class[c]
        rate = w["filter_kept"] / w["filter_in"] if w["filter_in"] else 1.0
        print(
            f"work {c:<7} verified/query {w['verified'] / max(len(ms[c]), 1):>8.1f}"
            f"  filter kept {w['filter_kept']}/{w['filter_in']} ({rate:.1%})"
            f"  phrase entries: hits {w['entry_hits']} builds"
            f" {w['entry_builds']} {w['entry_bytes'] / 2**20:.1f} MB"
        )

    print(cache_line(searcher.cache, traffic))

    if not args.check:
        return 0
    bad = 0
    for (q, c), got in zip(queries, results):
        want = searcher.search(q, k=2 * K, mode="exhaustive")
        same = same_hits(got, want, 0)
        if got["relation"] == "EQ":
            same = same and got["total_hits"] == want["total_hits"]
        else:
            same = same and TOTAL_HITS_THRESHOLD <= got["total_hits"] <= want["total_hits"]
        paged = c in ("term", "disjunction", "conjunction", "mixed")
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
