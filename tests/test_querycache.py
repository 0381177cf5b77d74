"""LRUCache, the one query-time cache, and what the searcher keeps in
it: per-segment match sets of constant-score range and multi-term
queries (LRU eviction under the byte bound, deletes applied after the
lookup), term states, index-wide term entries and scorers."""

import numpy as np
import pytest

import lucene_ray.search.searcher as searcher_mod
from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.search.query import RangeQuery
from lucene_ray.index.config import FIELD_SEP
from lucene_ray.search.querycache import LRUCache
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


def match_keys(s):
    """The searcher cache's match-set keys ``("match", repr(q), seg_dir)``."""
    return [key for key in s.cache._data if key[0] == "match"]


class TestCaching:
    def test_range_hit_and_identical_results(self, idx):
        s = IndexSearcher(idx)
        q = "data #n_chars:[100 TO 300]"
        a = s.search(q, k=10**9, mode="exhaustive")
        assert len(match_keys(s)) == len(s.segments)
        hits0, misses0 = s.cache.hits, s.cache.misses
        b = s.search(q, k=10**9, mode="exhaustive")
        assert s.cache.hits >= hits0 + len(s.segments)
        assert s.cache.misses == misses0  # no new misses
        assert list(a["docids"]) == list(b["docids"])
        assert np.array_equal(a["scores"], b["scores"])

    def test_multiterm_cached(self, idx):
        s = IndexSearcher(idx)
        r1 = s.search("st*", k=10**9, mode="exhaustive")
        hits0, misses0 = s.cache.hits, s.cache.misses
        r2 = s.search("st*", k=10**9, mode="exhaustive")
        assert s.cache.hits >= hits0 + len(s.segments)
        assert s.cache.misses == misses0
        assert list(r1["docids"]) == list(r2["docids"])

    def test_results_match_uncached(self, idx, monkeypatch):
        cached = IndexSearcher(idx)
        monkeypatch.setattr(IndexSearcher, "CACHE_BYTES", 0)
        plain = IndexSearcher(idx)  # keeps nothing
        for q in ["s?an data", "fuzzy~1", "#n_chars:[150 TO *] the"]:
            a = cached.search(q, k=10**9, mode="exhaustive")
            a = cached.search(q, k=10**9, mode="exhaustive")  # 2nd = from cache
            b = plain.search(q, k=10**9, mode="exhaustive")
            assert list(a["docids"]) == list(b["docids"]), q
            assert np.array_equal(a["scores"], b["scores"]), q
        assert len(plain.cache) == 0

    def test_lru_eviction(self, idx, monkeypatch):
        monkeypatch.setattr(IndexSearcher, "CACHE_BYTES", 4 << 10)
        s = IndexSearcher(idx)
        for lo in range(0, 120, 10):
            s.search(f"#n_chars:[{lo} TO *]", k=5, mode="exhaustive")
            assert s.cache.nbytes <= 4 << 10
        # 12 queries x 4 segments of ~150-doc sets: the byte bound evicted
        assert 0 < len(match_keys(s)) < 12 * len(s.segments)

    def test_boost_differs_key(self, idx):
        s = IndexSearcher(idx)
        qa = RangeQuery(field="n_chars", lo=100, hi=300)
        qb = RangeQuery(field="n_chars", lo=100, hi=300, boost=2.0)
        assert repr(qa) != repr(qb)
        a = s.search(qa, k=10**9, mode="exhaustive")
        b = s.search(qb, k=10**9, mode="exhaustive")
        assert len(match_keys(s)) == 2 * len(s.segments)
        assert list(a["docids"]) == list(b["docids"])
        assert np.array_equal(a["scores"] * np.float32(2), b["scores"])


class TestDeletesAfterCache:
    def test_deletes_applied_on_cached_path(self, ray_session, tmp_path):
        d = str(tmp_path / "qcdel")
        build_index(DOCS, d, CFG)
        s = IndexSearcher(d)
        before = s.search("st*", k=10**9, mode="exhaustive")
        victims = [int(k) for k in before["keys"][:3]]
        delete_by_keys(d, victims)
        # fresh searcher (new reader generation) carrying the old
        # searcher's match sets, which keep the deleted docs
        s2 = IndexSearcher(d)
        for key in match_keys(s):
            ids = s.cache.get(key)
            s2.cache.put(key, ids, ids.nbytes)
        misses0 = s2.cache.misses
        after = s2.search("st*", k=10**9, mode="exhaustive")
        assert s2.cache.misses == misses0  # every match set was carried
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


def _text_terms(s):
    """The default-field terms of ``s``'s first segment's first bucket."""
    return [t for t in s.segments[0].terms_list(0) if FIELD_SEP not in t]


class TestCacheBounds:
    def test_searcher_keeps_a_hot_term_past_the_byte_bound(
        self, idx, monkeypatch
    ):
        monkeypatch.setattr(IndexSearcher, "CACHE_BYTES", 4096)
        s = IndexSearcher(idx)
        calls = []
        orig = searcher_mod.read_postings

        def counting(pairs):
            calls.append(1)
            return orig(pairs)

        monkeypatch.setattr(searcher_mod, "read_postings", counting)
        states = s.term_states(_text_terms(s))
        # the rarest term is hot: it fits beside any other term's entry
        hot, *others = sorted(states, key=lambda t: (states[t][1], t))
        s._term_postings(hot, states[hot][0])
        total = 0
        for t in others:
            ids, tf = s._term_postings(t, states[t][0])
            total += ids.nbytes + tf.nbytes
            s._term_postings(hot, states[hot][0])  # re-touched after every other term
        assert total > 4 * 4096  # the bound overflowed several times
        assert len(calls) == 1 + len(others)  # hot was decoded once
        assert s.cache.nbytes <= 4096

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
    def _passes(s, run):
        """The (hits, misses) of the searcher cache ``s.cache`` in each of
        three passes of ``run`` over ``WORK_QUERIES``."""
        out, last = [], (0, 0)
        for _ in range(3):
            for q in WORK_QUERIES:
                run(q)
            now = s.cache.hits, s.cache.misses
            out.append(tuple(b - a for a, b in zip(last, now)))
            last = now
        return out

    def test_pinned_hits_and_misses(self, idx):
        """The entries executions read: every pass runs ``_search``,
        which skips the result cache."""
        s = IndexSearcher(idx)
        assert len(s.segments) == 4
        first, second, third = self._passes(s, lambda q: s._search(q, 10, "auto", None))
        # (hits, misses) of the searcher's one cache, per query of the
        # first pass:
        # - "data": ("states", t), ("postings", t) and ("bm25", t) miss;
        #   building the BM25 part reads the postings entry (hit) and the
        #   ("norm_inv",) entry (miss): 1 hit, 4 misses;
        # - "data stream": data's states, postings and BM25 part hit;
        #   stream's miss, and its BM25 build reads its postings and the
        #   norm inverses (2 hits): 5 hits, 3 misses;
        # - "stream window batch": stream's 3 lookups hit; window and
        #   batch miss 3 each and hit 2 each: 7 hits, 6 misses;
        # - "+data +stream", "+data -window": 2 states, 2 postings and 2
        #   BM25 parts, all hits: 6 hits each;
        # - '"data stream"': 2 states hits, then ("phrase", terms) misses
        #   (few candidates: the first search builds the entry, never a
        #   "seen" marker); the conjunction reads 2 postings (hits); a
        #   ("sig", t) lookup per term misses and builds nothing, as no
        #   positions are cached yet; ("pos", t) misses for both terms,
        #   each build reading its postings (hit); the entry's
        #   denominators read the norm inverses (hit): 7 hits, 5 misses;
        # - '"stream window"': 2 states hits, the phrase entry misses, 2
        #   postings hits; stream's signatures miss and are built from its
        #   cached positions (hit), window's miss; the slots read stream's
        #   positions (hit) and window's (miss, its freqs from the
        #   postings entry: hit); the norm inverses hit: 8 hits, 4 misses;
        # - "st*": a prefix query has no query terms; its match set
        #   misses on each of the 4 segments (one uncached read_postings
        #   call each): 4 misses.
        assert first == (1 + 5 + 7 + 6 + 6 + 7 + 8 + 0, 4 + 3 + 6 + 0 + 0 + 5 + 4 + 4)
        # the second pass reads each term's states, postings and BM25
        # part, each phrase's states and entry (no postings, positions,
        # signatures or norm inverses) and the 4 match sets, and misses
        # nothing
        assert second == (3 + 6 + 9 + 6 + 6 + 3 + 3 + 4, 0)
        # a third pass reads the same entries as the second
        assert third == second

    def test_pinned_result_entries(self, idx):
        """Through ``search``: the first pass executes every query as
        above and misses one ``("topk", query, k, mode, after)`` entry
        per query; later passes read that entry and nothing else."""
        e = IndexSearcher(idx)
        executed = self._passes(e, lambda q: e._search(q, 10, "auto", None))[0]
        s = IndexSearcher(idx)
        first, second, third = self._passes(s, lambda q: s.search(q, k=10))
        n = len(WORK_QUERIES)
        assert first == (executed[0], executed[1] + n)
        assert second == third == (n, 0)
        assert sum(key[0] == "topk" for key in s.cache._data) == n
