"""Conjunctions (``IndexSearcher._search_conj``) and exact phrases
(``_search_phrase``) run as one pass over the terms' index-wide arrays and
must equal ``mode="exhaustive"``: docids, float32 score bytes, keys, and
the hit count under the TotalHits rule (an EQ count is exact; a GTE count
lies between the threshold and the exact count), on generated indexes
with deletes, opened whole, as a MultiReader and as a shard holding a
subset of the segments. Also: ``k=0`` returns no hits with the count of
``k=1``, and the index-wide arrays leave the readers' decode caches
empty."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucene_ray.search.searcher as searcher_mod
from lucene_ray.search.query import (
    FILTER,
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanQuery,
    PhraseQuery,
    TermQuery,
)
from lucene_ray.search.searcher import IndexSearcher
from test_wand import VOCAB, corpora, write_index

# a conjunction: 1-3 required clauses (MUST or FILTER) and 0-2 MUST_NOT
# clauses of (term, boost); "qq" is absent from every index
required = st.lists(
    st.tuples(
        st.sampled_from([MUST, MUST, FILTER]),
        st.sampled_from(VOCAB + ("qq",)),
        st.sampled_from([0.5, 1.0, 2.0, 3.5]),
    ),
    min_size=1,
    max_size=3,
)
excluded = st.lists(st.sampled_from(VOCAB + ("qq",)), max_size=2)
conjunctions = st.tuples(required, excluded).map(
    lambda c: BooleanQuery(
        tuple((o, TermQuery(t, b)) for o, t, b in c[0])
        + tuple((MUST_NOT, TermQuery(t)) for t in c[1])
    )
)
# repeated terms included
phrases = st.lists(st.sampled_from(VOCAB), min_size=2, max_size=3).map(
    lambda t: PhraseQuery(tuple(t))
)


def assert_like_exhaustive(got, want, threshold=searcher_mod.TOTAL_HITS_THRESHOLD):
    assert got["docids"].tolist() == want["docids"].tolist()
    assert got["scores"].tobytes() == want["scores"].tobytes()
    assert got["keys"] == want["keys"]
    assert want["relation"] == "EQ"
    if got["relation"] == "EQ":
        assert got["total_hits"] == want["total_hits"]
    else:
        assert got["relation"] == "GTE"
        assert threshold <= got["total_hits"] <= want["total_hits"]


def assert_conj_pages(s, q, k):
    """3 pages through ``after`` equal the exhaustive pages, each with
    the exact count."""
    assert IndexSearcher._conj_eligible(q)
    cursor = None
    for _ in range(3):
        got = s.search(q, k, after=cursor)
        want = s.search(q, k, mode="exhaustive", after=cursor)
        assert_like_exhaustive(got, want)
        assert got["relation"] == "EQ"
        if len(got["docids"]) < k:
            break
        cursor = (float(got["scores"][-1]), int(got["docids"][-1]))


@settings(max_examples=100, deadline=None)
@given(
    corpora(),
    st.lists(conjunctions, min_size=1, max_size=3),
    st.lists(phrases, min_size=1, max_size=3),
    st.sampled_from([1, 10, 10**9]),
    st.sampled_from([1, 2, 3, 1000]),
    st.data(),
)
def test_matches_exhaustive(
    tmp_path_factory, corpus, conjs, phrase_qs, k, threshold, data
):
    """Low hit-count thresholds make the phrase pass skip candidates (GTE)
    on these small indexes."""
    segments, deleted = corpus
    root = tmp_path_factory.mktemp("iw")
    whole = str(root / "whole")
    write_index(whole, segments, deleted)
    cut = data.draw(st.integers(1, len(segments)))
    parts = [str(root / "a"), str(root / "b")]
    write_index(parts[0], segments[:cut], deleted[:cut])
    write_index(parts[1], segments[cut:] or segments, deleted[cut:] or deleted)
    owned = data.draw(
        st.lists(st.integers(0, len(segments) - 1), min_size=1, unique=True)
    )
    for s in (
        IndexSearcher(whole),
        IndexSearcher(parts),
        IndexSearcher(whole, segment_ids=owned),
    ):
        for q in conjs:
            assert_conj_pages(s, q, k)
        for q in phrase_qs:
            want = s.search(q, k, mode="exhaustive")
            with mock.patch.object(searcher_mod, "TOTAL_HITS_THRESHOLD", threshold):
                assert_like_exhaustive(s.search(q, k), want, threshold)


TEXTS = [
    "zzw xa xb",
    "zzw zzw xa",
    "xa xb xc",
    "zzw xb xa xb",
    "xc zzw zzw zzw",
    "xa xb xa xb",
] * 20


@pytest.fixture
def searcher(tmp_path):
    mask = np.zeros(len(TEXTS), bool)
    mask[::7] = True
    half = len(TEXTS) // 2
    write_index(str(tmp_path), [TEXTS[:half], TEXTS[half:]], [mask[:half], mask[half:]])
    return IndexSearcher(str(tmp_path))


QUERIES = {
    "term": TermQuery("xa"),
    "disjunction": BooleanQuery(((SHOULD, TermQuery("xa")), (SHOULD, TermQuery("zzw")))),
    "conjunction": BooleanQuery(((MUST, TermQuery("xa")), (MUST_NOT, TermQuery("xc")))),
    "phrase": PhraseQuery(("xa", "xb")),
}


@pytest.mark.parametrize("mode", ["auto", "exhaustive"])
@pytest.mark.parametrize("cls", list(QUERIES))
def test_k0_counts_like_k1(searcher, cls, mode):
    one = searcher.search(QUERIES[cls], 1, mode=mode)
    none = searcher.search(QUERIES[cls], 0, mode=mode)
    assert one["total_hits"] > 0
    assert len(none["docids"]) == len(none["scores"]) == len(none["keys"]) == 0
    assert (none["total_hits"], none["relation"]) == (
        one["total_hits"],
        one["relation"],
    )


def test_k0_phrase_past_the_threshold(searcher):
    """A phrase count that stops short at k=1 stops short at k=0 too."""
    with mock.patch.object(searcher_mod, "TOTAL_HITS_THRESHOLD", 3):
        one = searcher.search(QUERIES["phrase"], 1)
        none = searcher.search(QUERIES["phrase"], 0)
    assert one["relation"] == "GTE"
    assert len(none["docids"]) == 0
    assert (none["total_hits"], none["relation"]) == (
        one["total_hits"],
        one["relation"],
    )


def test_index_wide_arrays_skip_the_decode_caches(searcher):
    """Auto-mode term, disjunction, conjunction and phrase searches read
    the codec straight into the searcher cache; exhaustive scoring still
    goes through the readers' decode caches."""
    for q in QUERIES.values():
        searcher.search(q, 10)
    assert all(len(seg.decode_cache) == 0 for seg in searcher.segments)
    assert searcher.cache.nbytes > 0
    searcher.search(QUERIES["phrase"], 10, mode="exhaustive")
    assert all(len(seg.decode_cache) > 0 for seg in searcher.segments)
