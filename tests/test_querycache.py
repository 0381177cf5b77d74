"""LRUCache, the one cache policy, and its users: LRUQueryCache
(constant-score match-set caching for range and multi-term queries, LRU
eviction, deletes applied after cache lookup), the reader's decode cache
and the searcher's term-state / term-array / scorer cache."""

import numpy as np
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.search.query import PrefixQuery, RangeQuery, parse_query
from lucene_ray.codecs.postings import PostingsView
from lucene_ray.index.config import FIELD_SEP
from lucene_ray.index.segment import SegmentReader
from lucene_ray.search.querycache import LRUCache, LRUQueryCache
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"

CFG = IndexConfig(
    rows_per_segment=150,
    keyword_cols=("lang",),
    dv_cols=("n_chars",),
)


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("qcidx"))
    build_index(DOCS, d, CFG)
    return d


def searcher_with_cache(idx):
    return IndexSearcher(
        idx, query_cache=LRUQueryCache(max_entries=8, min_segment_docs=0)
    )


class TestCaching:
    def test_range_hit_and_identical_results(self, idx):
        s = searcher_with_cache(idx)
        q = "data #n_chars:[100 TO 300]"
        a = s.search(q, k=10**9, mode="exhaustive")
        misses0 = s.query_cache.misses
        assert misses0 > 0 and s.query_cache.hits == 0
        b = s.search(q, k=10**9, mode="exhaustive")
        assert s.query_cache.hits >= len(s.segments)
        assert s.query_cache.misses == misses0  # no new misses
        assert list(a["docids"]) == list(b["docids"])
        assert np.array_equal(a["scores"], b["scores"])

    def test_multiterm_cached(self, idx):
        s = searcher_with_cache(idx)
        r1 = s.search("st*", k=10**9, mode="exhaustive")
        r2 = s.search("st*", k=10**9, mode="exhaustive")
        assert s.query_cache.hits >= len(s.segments)
        assert list(r1["docids"]) == list(r2["docids"])

    def test_results_match_uncached(self, idx):
        cached = searcher_with_cache(idx)
        plain = IndexSearcher(idx, query_cache=None)
        for q in ["s?an data", "fuzzy~1", "#n_chars:[150 TO *] the"]:
            a = cached.search(q, k=10**9, mode="exhaustive")
            a = cached.search(q, k=10**9, mode="exhaustive")  # 2nd = from cache
            b = plain.search(q, k=10**9, mode="exhaustive")
            assert list(a["docids"]) == list(b["docids"]), q
            assert np.array_equal(a["scores"], b["scores"]), q

    def test_lru_eviction(self, idx):
        s = searcher_with_cache(idx)  # max_entries=8
        for lo in range(0, 120, 10):
            s.search(f"#n_chars:[{lo} TO *]", k=5, mode="exhaustive")
        assert len(s.query_cache) <= 8

    def test_min_segment_docs_skips_small_leaves(self, idx):
        s = IndexSearcher(
            idx, query_cache=LRUQueryCache(min_segment_docs=10_000)
        )
        s.search("#n_chars:[100 TO 300] data", k=5, mode="exhaustive")
        assert len(s.query_cache) == 0  # 150-doc segments all below threshold

    def test_boost_differs_key(self, idx):
        s = searcher_with_cache(idx)
        qa = RangeQuery(field="n_chars", lo=100, hi=300)
        qb = RangeQuery(field="n_chars", lo=100, hi=300, boost=2.0)
        assert LRUQueryCache.cache_key(qa) != LRUQueryCache.cache_key(qb)


class TestDeletesAfterCache:
    def test_deletes_applied_on_cached_path(self, ray_session, tmp_path):
        d = str(tmp_path / "qcdel")
        build_index(DOCS, d, CFG)
        s = searcher_with_cache(d)
        before = s.search("st*", k=10**9, mode="exhaustive")
        victims = [int(k) for k in before["keys"][:3]]
        delete_by_keys(d, victims)
        # fresh searcher (new reader generation) with a warm shared cache
        s2 = IndexSearcher(d, query_cache=s.query_cache)
        after = s2.search("st*", k=10**9, mode="exhaustive")
        assert not set(victims) & set(after["keys"])
        assert len(after["keys"]) == len(before["keys"]) - 3


class TestLRUCache:
    def test_evicts_least_recent_under_byte_bound(self):
        c = LRUCache(max_bytes=30)
        for key in "abc":
            c.put(key, key.upper(), 10)
        assert c.get("a") == "A"  # a is now the most recent
        c.put("d", "D", 10)  # 40 bytes > 30: evict b, the least recent
        assert "b" not in c
        assert all(key in c for key in "acd")
        assert c.nbytes == 30 and len(c) == 3
        c.put("e", "E", 20)  # evicts c, then a
        assert "c" not in c and "a" not in c
        assert c.nbytes == 30 and len(c) == 2

    def test_max_entries(self):
        c = LRUCache(max_bytes=10**9, max_entries=2)
        for key in "abc":
            c.put(key, key, 1)
        assert "a" not in c and len(c) == 2

    def test_replacing_a_key_recounts_its_bytes(self):
        c = LRUCache(max_bytes=100)
        c.put("a", 1, 40)
        c.put("a", 2, 10)
        assert c.get("a") == 2 and c.nbytes == 10 and len(c) == 1

    def test_oversize_entry_returned_not_kept(self):
        c = LRUCache(max_bytes=10)
        c.put("a", "A", 5)
        big = np.zeros(4)
        assert c.put("big", big, 11) is big
        assert "big" not in c
        assert "a" in c and c.nbytes == 5

    def test_contains_neither_counts_nor_reorders(self):
        c = LRUCache(max_bytes=20)
        c.put("a", 1, 10)
        c.put("b", 2, 10)
        assert "a" in c and "zz" not in c
        assert (c.hits, c.misses) == (0, 0)
        c.put("c", 3, 10)  # a stays least recent despite the `in`
        assert "a" not in c and "b" in c

    def test_hit_and_miss_counters(self):
        c = LRUCache(max_bytes=100)
        assert c.get("a") is None
        c.put("a", 1, 1)
        assert c.get("a") == 1 and c.get("a") == 1 and c.get("b") is None
        assert (c.hits, c.misses) == (2, 2)


def _text_infos(seg):
    """The default-field terms of ``seg``'s first bucket."""
    return [seg.lookup(t) for t in seg.terms_list(0) if FIELD_SEP not in t]


class TestCacheBounds:
    def test_reader_keeps_a_hot_term_past_the_byte_bound(
        self, idx, monkeypatch
    ):
        monkeypatch.setattr(SegmentReader, "DECODE_CACHE_BYTES", 4096)
        seg = IndexSearcher(idx).segments[0]
        calls = []
        orig = PostingsView.decode_all

        def counting(view):
            calls.append(1)
            return orig(view)

        monkeypatch.setattr(PostingsView, "decode_all", counting)
        hot, *others = _text_infos(seg)
        seg.decoded(hot)
        total = 0
        for info in others:
            ids, freqs = seg.decoded(info)
            total += ids.nbytes + freqs.nbytes
            seg.decoded(hot)  # re-touched after every other term
        assert total > 4 * 4096  # the bound overflowed several times
        assert len(calls) == 1 + len(others)  # hot was decoded once
        assert seg.decode_cache.nbytes <= 4096

    def test_searcher_caches_new_terms_after_the_bound_fills(
        self, idx, monkeypatch
    ):
        monkeypatch.setattr(IndexSearcher, "CACHE_BYTES", 64 << 10)
        s = IndexSearcher(idx)
        terms = [f"zzq{i}" for i in range(2000)]  # absent terms: states only
        s.term_states(terms)
        assert s.cache.nbytes <= 64 << 10
        assert len(s.cache) < len(terms)  # the bound evicted entries
        s.term_states(["data"])
        misses = s.cache.misses
        s.term_states(["data"])
        assert s.cache.misses == misses  # first seen after the fill, cached
        assert s.cache.nbytes <= 64 << 10


WORK_QUERIES = [
    "data",
    "data stream",
    "stream window batch",
    "+data +stream",
    "+data -window",
    '"data stream"',
    '"stream window"',
    "st*",
]


class TestCacheWork:
    """Exact cache traffic of a fixed query list on the fixed 150-doc
    segment index: deterministic work counters, not wall time."""

    @staticmethod
    def _counts(s):
        return (
            sum(seg.decode_cache.hits for seg in s.segments),
            sum(seg.decode_cache.misses for seg in s.segments),
            s.cache.hits,
            s.cache.misses,
        )

    def test_pinned_hits_and_misses(self, idx):
        s = IndexSearcher(idx)
        assert len(s.segments) == 4
        for q in WORK_QUERIES:
            s.search(q, k=10)
        first = self._counts(s)
        for q in WORK_QUERIES:
            s.search(q, k=10)
        second = tuple(b - a for a, b in zip(first, self._counts(s)))
        # (reader hits, reader misses, searcher hits, searcher misses);
        # the term, conjunction and phrase queries read only the searcher
        # cache: per text term one ("states", t) and one ("term", t)
        # entry (data, stream, window, batch: 8 misses), per phrase one
        # ("phrase", terms) lookup, which misses (2 misses): both phrases
        # have few candidates, so the first search verifies them all at
        # once and builds the phrase's entry, never a "seen" marker; per
        # phrase term one ("pos", t) entry (data, stream, window: 3
        # misses), one ("norm_inv",) entry for the entries' denominators
        # (1 miss), and per distinct phrase term a ("sig", t) lookup
        # before positions are read, which misses until the term's
        # positions are cached and then builds the entry: '"data
        # stream"' misses data and stream, '"stream window"' misses
        # stream (built now) and window (4 misses). Every other lookup of
        # the first pass hits (0 + 2 + 2 + 4 + 4 + 6 + 8: a positions
        # miss reads its term's freqs from the term entry, and building
        # stream's signatures reads its positions entry once more).
        # Only "st*" (exhaustive multi-term scoring) reads the 4 readers'
        # decode caches
        assert first == (0, 4, 26, 18)
        # the second pass reads each phrase's entry: per phrase 2 states
        # hits and 1 ("phrase", terms) hit, and no term, positions,
        # signature or norm lookup, so no signature is built; the rest
        # hits as before (2 + 4 + 6 + 4 + 4 + 3 + 3)
        assert second == (4, 0, 26, 0)
        for q in WORK_QUERIES:
            s.search(q, k=10)
        third = tuple(
            c - a - b for a, b, c in zip(first, second, self._counts(s))
        )
        # a third pass reads the same entries as the second
        assert third == (4, 0, 26, 0)
