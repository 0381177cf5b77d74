"""Postings and positions decode times of one index, in process.

Takes the distinct text terms of the seeded ``serve_zipf`` query stream
(``perfbench.common.zipf_queries``) that the index holds, and prints,
each the best of ``--repeat`` passes:

- single blob: microseconds per call of ``SegmentReader.decoded`` and
  ``SegmentReader.positions`` (both uncached), one call per
  (segment, term), by the class of the term's df in that segment;
- index-wide: microseconds per term of a fresh searcher's
  ``_term_postings`` and ``_term_positions`` (every segment of one
  term), by the class of the term's index-wide df, with the total over
  all terms;
- whole bucket: seconds of ``merge._decode_source`` over every bucket of
  every segment (all streams the segment holds).

Only these entry points are timed, so the tool runs unchanged on
versions of the package with different decoders.

Usage: python tools/decode_profile.py <index_dir> [--seed 601] [--n 1200]
       [--repeat 3]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lucene_ray.index import merge
from lucene_ray.search.query import parse_query, query_terms
from lucene_ray.search.searcher import IndexSearcher
from perfbench.common import zipf_queries

DF_CLASSES = ((256, "1-256"), (2048, "257-2k"), (20000, "2k-20k"), (None, "20k+"))


def df_class(df: int) -> str:
    for hi, name in DF_CLASSES:
        if hi is None or df <= hi:
            return name
    raise AssertionError


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def best_of(repeat: int, run) -> dict:
    """Per key, the smallest seconds over ``repeat`` passes of ``run()``
    (a dict key → seconds)."""
    best: dict = {}
    for _ in range(repeat):
        for key, dt in run().items():
            best[key] = min(dt, best.get(key, dt))
    return best


def report(title: str, unit_per: str, best: dict, classes: dict) -> None:
    print(f"{title} ({unit_per}):")
    for _, name in DF_CLASSES:
        keys = [k for k in best if classes[k] == name]
        if keys:
            us = 1e6 * sum(best[k] for k in keys) / len(keys)
            print(f"  df {name:>7}: {us:9.1f} us  (n={len(keys)})")
    print(f"  total     : {sum(best.values()):9.4f} s  (n={len(best)})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("index_dir")
    ap.add_argument("--seed", type=int, default=601)
    ap.add_argument("--n", type=int, default=1200)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    s = IndexSearcher(args.index_dir)
    terms = sorted(
        {t for q in zipf_queries(args.seed, args.n)
         for t in query_terms(parse_query(q, s.analyzer))}
    )
    states = s.term_states(terms)
    terms = [t for t in terms if states[t][1] > 0]
    has_pos = all(seg.meta["positions"] for seg in s.segments)
    blobs = [
        (si, t)
        for t in terms
        for si, ti in enumerate(states[t][0])
        if ti is not None
    ]
    blob_class = {(si, t): df_class(states[t][0][si].df) for si, t in blobs}
    term_class = {t: df_class(states[t][1]) for t in terms}
    print(
        f"{args.index_dir}: {len(s.segments)} segments, {len(terms)} terms "
        f"of seed {args.seed}, {len(blobs)} (segment, term) blobs"
    )

    def single(method):
        def run():
            return {
                (si, t): timed(getattr(s.segments[si], method), states[t][0][si])
                for si, t in blobs
            }
        return run

    report("single blob, postings", "per call", best_of(args.repeat, single("decoded")), blob_class)
    if has_pos:
        report("single blob, positions", "per call", best_of(args.repeat, single("positions")), blob_class)

    def index_wide(positions: bool):
        def run():
            fresh = IndexSearcher(args.index_dir)
            st = fresh.term_states(terms)
            if positions:
                for t in terms:
                    fresh._term_postings(t, st[t][0])
                return {t: timed(fresh._term_positions, t, st[t][0]) for t in terms}
            return {t: timed(fresh._term_postings, t, st[t][0]) for t in terms}
        return run

    post = best_of(args.repeat, index_wide(False))
    report("index-wide, postings", "per term", post, term_class)
    total = sum(post.values())
    if has_pos:
        pos = best_of(args.repeat, index_wide(True))
        report("index-wide, positions", "per term", pos, term_class)
        total += sum(pos.values())
    print(f"index-wide postings + positions: {total:.4f} s")

    def buckets():
        out = {}
        for si, seg in enumerate(s.segments):
            flags = (
                bool(seg.meta["positions"]),
                bool(seg.meta.get("offsets")),
                bool(seg.meta.get("payloads")),
            )
            for b in range(seg.n_parts):
                out[(si, b)] = timed(merge._decode_source, seg, b, 0, *flags)
        return out

    whole = best_of(args.repeat, buckets)
    print(f"whole buckets: {sum(whole.values()):.4f} s over {len(whole)} buckets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
