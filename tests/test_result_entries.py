"""Cached answers: ``IndexSearcher.search`` keeps the top-k of a query
string as a ``("topk", query, k, mode, after)`` entry in the searcher's
one cache. A repeat must answer exactly as a fresh searcher and
``mode="exhaustive"`` do (docids, float32 score bytes, keys, count and
relation), over tombstones and under a tiny byte budget; a GTE answer,
exhaustive mode and ``stats_override`` are never cached; and no caller
can change a cached answer."""

import numpy as np
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.search.searcher import IndexSearcher
from test_phrase_prune import _zipf_corpus
from test_querycache import CFG, DOCS
from test_wand import write_index

# term / OR / AND / NOT / phrase / wildcard / range / keyword / no-hit
MIXED = [
    "data",
    "data stream",
    "stream window batch",
    "+data +stream",
    "+data -window",
    '"data stream"',
    '"stream window"',
    '+"data stream" -batch',
    "st*",
    "s?an data",
    "#n_chars:[100 TO 300] data",
    "data #n_chars:[150 TO *]",
    "+lang:en stream",
    "zzqqx",
]
# the mix twice, with repeats in between
STREAM = MIXED + MIXED[::3] + MIXED + MIXED[1::2]


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    """The 500-doc testdata corpus in 4 segments, 40 docs deleted."""
    d = str(tmp_path_factory.mktemp("topkidx"))
    build_index(DOCS, d, CFG)
    delete_by_keys(d, list(range(3, 500, 12)))
    return d


def topk_keys(s):
    return [key for key in s.cache._data if key[0] == "topk"]


def assert_same(got, want):
    """Equal answers: docids, float32 score bytes, keys, count and
    relation."""
    assert got["docids"].tolist() == want["docids"].tolist()
    assert got["scores"].astype(np.float32).tobytes() == want["scores"].tobytes()
    assert got["keys"] == want["keys"]
    assert (got["total_hits"], got["relation"]) == (want["total_hits"], want["relation"])


def test_stream_equals_fresh_and_exhaustive(idx):
    s = IndexSearcher(idx)
    assert any(seg.deleted is not None for seg in s.segments)
    ref = IndexSearcher(idx)
    fresh = {q: IndexSearcher(idx).search(q, 10) for q in MIXED}
    for q in STREAM * 2:
        got = s.search(q, 10)
        assert_same(got, fresh[q])
        assert_same(got, ref.search(q, 10, mode="exhaustive"))
    assert len(topk_keys(s)) == len(MIXED)
    hits = s.cache.hits
    for q in MIXED:
        s.search(q, 10)
    assert s.cache.hits == hits + len(MIXED)  # one lookup per repeat


def test_large_phrase_caches_its_exact_answer(tmp_path):
    """A phrase past ``2 · TOTAL_HITS_THRESHOLD`` candidates answers GTE
    on its first search, which is not cached; the second builds the
    phrase entry, reports EQ and is."""
    texts = _zipf_corpus(5, 4500)
    segments = [texts[:1500], texts[1500:3000], texts[3000:]]
    deleted = [np.arange(len(t)) % 9 == 4 for t in segments]
    write_index(str(tmp_path), segments, deleted)
    s = IndexSearcher(str(tmp_path))
    want = IndexSearcher(str(tmp_path)).search('"zzw zzw"', 10, mode="exhaustive")
    first = s.search('"zzw zzw"', 10)
    assert first["relation"] == "GTE"
    assert topk_keys(s) == []
    second = s.search('"zzw zzw"', 10)
    assert_same(second, want)
    assert topk_keys(s) == [("topk", '"zzw zzw"', 10, "auto", None)]
    assert first["docids"].tolist() == second["docids"].tolist()
    assert_same(s.search('"zzw zzw"', 10), want)


def test_k_after_and_mode_get_their_own_entries(idx):
    s = IndexSearcher(idx)
    ref = IndexSearcher(idx)
    page1 = s.search("data stream", 10)
    cursor = (page1["scores"][-1], page1["docids"][-1])
    for k, mode, after in [
        (10, "auto", None),
        (3, "auto", None),
        (10, "wand", None),
        (10, "auto", cursor),
        (10, "exhaustive", None),
    ]:
        got = s.search("data stream", k, mode=mode, after=after)
        assert_same(got, ref.search("data stream", k, mode="exhaustive", after=after))
    assert sorted(topk_keys(s), key=repr) == sorted(
        [
            ("topk", "data stream", 10, "auto", None),
            ("topk", "data stream", 3, "auto", None),
            ("topk", "data stream", 10, "wand", None),
            ("topk", "data stream", 10, "auto", (float(cursor[0]), int(cursor[1]))),
        ],
        key=repr,
    )
    # k=0 reads the k=1 answer: no hits, the exact count
    zero = s.search("data stream", 0)
    assert zero["docids"].tolist() == [] and zero["keys"] == []
    assert zero["total_hits"] == page1["total_hits"]
    assert ("topk", "data stream", 1, "auto", None) in s.cache


def test_answers_cannot_be_changed(idx):
    s = IndexSearcher(idx)
    first = s.search("data", 10)
    again = s.search("data", 10)
    for r in (first, again):
        with pytest.raises(ValueError):
            r["docids"][0] = 7
        with pytest.raises(ValueError):
            r["scores"][0] = 1.0
    want = list(again["keys"])
    first["keys"][0] = "changed"
    again["keys"].append("extra")
    assert s.search("data", 10)["keys"] == want


def test_stats_override_bypasses_the_cache(idx):
    s = IndexSearcher(idx)
    plain = s.search("data", 10)
    infos, df, ttf = s.term_states(["data"])["data"]
    s.stats_override = {"data": (2 * df, 2 * ttf)}
    n_entries = len(s.cache)
    over = s.search("data", 10)
    assert over["scores"].tobytes() != plain["scores"].tobytes()
    assert_same(over, s.search("data", 10, mode="exhaustive"))
    assert_same(s.search("data", 10), over)
    assert len(s.cache) == n_entries  # nothing new, no answer stored
    assert topk_keys(s) == [("topk", "data", 10, "auto", None)]
    s.stats_override = None
    assert_same(s.search("data", 10), plain)


def test_tiny_budget(idx, monkeypatch):
    monkeypatch.setattr(IndexSearcher, "CACHE_BYTES", 4 << 10)
    s = IndexSearcher(idx)
    ref = IndexSearcher(idx)
    for q in STREAM:
        assert_same(s.search(q, 10), ref.search(q, 10, mode="exhaustive"))
        assert s.cache.nbytes <= 4 << 10
