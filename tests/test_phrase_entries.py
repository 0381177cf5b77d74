"""Cached exact-phrase entries (``IndexSearcher._phrase_postings``, keyed
``("phrase", terms)`` in the searcher cache): a phrase's live matches
with their BM25 denominators, run maxima and phrase freqs, in the layout
of a term's index-wide arrays, scored by the term path.

Lifecycle: the first search of a phrase with more than ``2 ·
TOTAL_HITS_THRESHOLD`` candidates keeps the bounded path (the pinned
kernel work of ``tests/test_phrase_prune.py``) and leaves a "seen"
marker; its second search builds the entry; later searches verify no
positions and read no positions or signatures. A phrase with fewer
candidates, and every phrase leaf of the index-wide evaluator, builds
its entry on the first search. Every pass equals ``mode="exhaustive"``
in docids, float32 score bytes and the TotalHits rule, over deletes,
repeated terms, a MultiReader, a shard of some segments, ``after``
cursors, zero and negative boosts, k=1 to 10⁹ and cache bounds small
enough to evict entries."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import lucene_ray.search.searcher as searcher_mod
from lucene_ray.search.query import (
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanQuery,
    PhraseQuery,
    TermQuery,
    parse_query,
)
from lucene_ray.search.searcher import IndexSearcher
from test_index_wide import assert_like_exhaustive
from test_phrase_prune import PINNED, PINNED_CALLS, _zipf_corpus, build
from test_wand import VOCAB, corpora, write_index


def watch(s: IndexSearcher, monkeypatch) -> dict:
    """Record ``s``'s exact-phrase kernel calls and their candidates, its
    phrase entry builds and its searcher-cache lookups → the dict of
    lists they append to (clear them between searches)."""
    log = {"kernel": [], "built": [], "lookups": []}
    kernel = IndexSearcher._exact_phrase_hits

    def counting(decoded, *cand):
        log["kernel"].append(
            len(cand[0])
            if cand
            else len(IndexSearcher._doc_conjunction([d[0] for d in decoded]))
        )
        return kernel(decoded, *cand)

    monkeypatch.setattr(IndexSearcher, "_exact_phrase_hits", staticmethod(counting))
    build_entry, get = s._phrase_postings, s.cache.get

    def building(terms, *args):
        log["built"].append(tuple(terms))
        return build_entry(terms, *args)

    def looking(key):
        log["lookups"].append(key)
        return get(key)

    s._phrase_postings = building
    s.cache.get = looking
    return log


def test_lifecycle_of_pinned_phrases(tmp_path, monkeypatch):
    """First search: the pinned candidates and calls, an entry only for
    the phrase whose candidates are verified at once; second: every
    other entry built; third: no kernel call, no positions or signature
    lookup, and through ``search`` one cached answer per phrase."""
    texts = _zipf_corpus(5, 4500)
    s = build(str(tmp_path), [texts[:1500], texts[1500:3000], texts[3000:]])
    # the reference on its own searcher: exhaustive scoring caches the
    # terms' positions, which would give the pinned searcher signatures
    ref = IndexSearcher(str(tmp_path))
    want = {q: ref.search(q, 10, mode="exhaustive") for q in PINNED}
    terms = {q: parse_query(q, s.analyzer).terms for q in PINNED}
    log = watch(s, monkeypatch)
    first = {}
    for q in PINNED:
        log["kernel"].clear()
        assert_like_exhaustive(s.search(q, 10), want[q])
        first[q] = (sum(log["kernel"]), len(log["kernel"]))
    assert first == {q: (PINNED[q], PINNED_CALLS[q]) for q in PINNED}
    # "xb xa" has 1288 candidates after its signature filter, fewer than
    # 2 · TOTAL_HITS_THRESHOLD: verified at once, so its entry is built now
    assert log["built"] == [terms['"xb xa"']]
    log["built"].clear()
    for q in PINNED:
        got = s.search(q, 10)
        assert_like_exhaustive(got, want[q])
        assert got["relation"] == "EQ"
    assert log["built"] == [terms[q] for q in PINNED if q != '"xb xa"']
    log["built"].clear()
    log["kernel"].clear()
    log["lookups"].clear()
    # a third execution (``_search``, past the result cache) reads only
    # the states and the entry
    for q in PINNED:
        got = s._search(q, 10, "auto", None)
        assert_like_exhaustive(got, want[q])
        assert (got["total_hits"], got["relation"]) == (want[q]["total_hits"], "EQ")
    assert log["kernel"] == [] and log["built"] == []
    assert {key[0] for key in log["lookups"]} == {"states", "phrase"}
    # while a third search is one lookup of its cached answer
    log["lookups"].clear()
    for q in PINNED:
        got = s.search(q, 10)
        assert_like_exhaustive(got, want[q])
        assert (got["total_hits"], got["relation"]) == (want[q]["total_hits"], "EQ")
    assert [key[0] for key in log["lookups"]] == ["topk"] * len(PINNED)


def test_paged_phrase_reads_its_entry(tmp_path, monkeypatch):
    """A top-level exact phrase with an ``after`` cursor reads or builds
    its entry and takes the term path's run-max selection with the
    cursor, never the index-wide evaluator (``_wide``), which would score
    every match of the entry: pages 2 and 3 first (a fresh searcher's
    cursor search builds the entry), then pages 1-3, equal exhaustive."""
    texts = _zipf_corpus(5, 4500)
    s = build(str(tmp_path), [texts[:2000], texts[2000:]])
    q = '"xa xb"'
    full = s.search(q, 30, mode="exhaustive")
    cursors = [None] + [
        (float(full["scores"][i]), int(full["docids"][i])) for i in (9, 19)
    ]
    want = [s.search(q, 10, mode="exhaustive", after=c) for c in cursors]

    def no_wide(self, q, states):
        raise AssertionError("a paged phrase went through _wide")

    monkeypatch.setattr(IndexSearcher, "_wide", no_wide)
    log = watch(s, monkeypatch)
    for i in (1, 2, 0, 1, 2):
        got = s.search(q, 10, after=cursors[i])
        assert_like_exhaustive(got, want[i])
        assert got["relation"] == "EQ"
    assert log["built"] == [("xa", "xb")]


def test_evaluator_leaf_builds_on_first_search(tmp_path, monkeypatch):
    """A phrase leaf of the index-wide evaluator verifies every candidate
    anyway, so ``+"xa xb" xc`` builds the entry on its first search; the
    top-level phrase, its count and a k=0 search then read it."""
    texts = _zipf_corpus(5, 4500)
    s = build(str(tmp_path), [texts[:2000], texts[2000:]])
    want = s.search('"xa xb"', 10, mode="exhaustive")
    tree = '+"xa xb" xc'
    want_tree = s.search(tree, 10, mode="exhaustive")
    log = watch(s, monkeypatch)
    assert_like_exhaustive(s.search(tree, 10), want_tree)
    assert log["built"] == [("xa", "xb")] and len(log["kernel"]) == 1
    log["kernel"].clear()
    got = s.search('"xa xb"', 10)
    assert_like_exhaustive(got, want)
    assert (got["total_hits"], got["relation"]) == (want["total_hits"], "EQ")
    assert s.count('"xa xb"') == want["total_hits"]
    none = s.search('"xa xb"', 0)
    assert (none["total_hits"], none["relation"]) == (want["total_hits"], "EQ")
    assert_like_exhaustive(s.search(tree, 10), want_tree)
    assert log["kernel"] == [] and log["built"] == [("xa", "xb")]


# repeated terms included
phrase_terms = st.lists(st.sampled_from(VOCAB), min_size=2, max_size=3).map(tuple)


def queries_of(terms, boost):
    """A top-level phrase at ``boost`` (boost ≤ 0 takes the evaluator)
    and three evaluator trees with it as a leaf."""
    p = PhraseQuery(terms, boost=boost)
    return [
        p,
        BooleanQuery(((MUST, p), (SHOULD, TermQuery(terms[0])))),
        BooleanQuery(((SHOULD, p), (SHOULD, TermQuery(terms[-1], 0.5)))),
        BooleanQuery(((MUST, TermQuery(terms[-1])), (MUST_NOT, p))),
    ]


@settings(max_examples=60, deadline=None)
@given(
    corpora(),
    st.lists(
        st.tuples(phrase_terms, st.sampled_from([1.0, 2.5, 0.0, -1.5])),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([1, 3, 10**9]),
    st.sampled_from([1, 2, 3, 1000]),
    st.sampled_from([IndexSearcher.CACHE_BYTES, 1 << 12, 1 << 9]),
    st.data(),
)
def test_three_passes_match_exhaustive(
    tmp_path_factory, corpus, phrases, k, threshold, cache_bytes, data
):
    """Three auto passes (marker, build, entry) of phrases and evaluator
    trees, each page 1 and the page after it through ``after`` equal to
    exhaustive; counts equal exhaustive. Small cache bounds evict
    entries and markers between and within passes."""
    segments, deleted = corpus
    root = tmp_path_factory.mktemp("pe")
    whole = str(root / "whole")
    write_index(whole, segments, deleted)
    cut = data.draw(st.integers(1, len(segments)))
    parts = [str(root / "a"), str(root / "b")]
    write_index(parts[0], segments[:cut], deleted[:cut])
    write_index(parts[1], segments[cut:] or segments, deleted[cut:] or deleted)
    owned = data.draw(
        st.lists(st.integers(0, len(segments) - 1), min_size=1, unique=True)
    )
    queries = [q for terms, boost in phrases for q in queries_of(terms, boost)]
    with mock.patch.object(IndexSearcher, "CACHE_BYTES", cache_bytes):
        searchers = [
            IndexSearcher(whole),
            IndexSearcher(parts),
            IndexSearcher(whole, segment_ids=owned),
        ]
    for s in searchers:
        want = {q: s.search(q, k, mode="exhaustive") for q in queries}
        pages = {}
        for q, w in want.items():
            if len(w["docids"]) == k:
                after = (float(w["scores"][-1]), int(w["docids"][-1]))
                pages[q] = (after, s.search(q, k, mode="exhaustive", after=after))
        with mock.patch.object(searcher_mod, "TOTAL_HITS_THRESHOLD", threshold):
            for _ in range(3):
                for q in queries:
                    assert_like_exhaustive(s.search(q, k), want[q], threshold)
                    if q in pages:
                        after, page = pages[q]
                        got = s.search(q, k, after=after)
                        assert_like_exhaustive(got, page)
                        assert got["relation"] == "EQ"
                    assert s.count(q) == want[q]["total_hits"]
        assert s.cache.nbytes <= cache_bytes
