"""BM25 trees of text terms and exact phrases run over the terms'
index-wide arrays (``IndexSearcher._search_wand``, ``_search_phrase`` and
the evaluator ``_wide``) and must equal ``mode="exhaustive"``:
docids, float32 score bytes, keys, and the hit count under the TotalHits
rule (an EQ count is exact; a GTE count lies between the threshold and
the exact count), on generated indexes with deletes, opened whole, as a
MultiReader and as a shard holding a subset of the segments. Also:
``k=0`` returns no hits with the count of ``k=1``; ``count`` of such a
tree equals the per-segment count; cached positions past 255 and 65,535
keep their values in a wider dtype; and the index-wide arrays leave the
readers' decode caches empty."""

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
    query_terms,
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
    assert IndexSearcher._wide_eligible(q)
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


boosts = st.sampled_from([0.0, 0.5, 1.0, 2.5])
# leaves: a term ("qq" is absent from every index) or an exact phrase of
# 1-3 terms, repeated terms included
leaves = st.one_of(
    st.builds(TermQuery, st.sampled_from(VOCAB + ("qq",)), boosts),
    st.builds(
        lambda terms, boost: PhraseQuery(tuple(terms), boost=boost),
        st.lists(st.sampled_from(VOCAB + ("qq",)), min_size=1, max_size=3),
        boosts,
    ),
)


def booleans(children):
    """A boolean of 1-4 clauses of every occur, msm 0-3."""
    return st.builds(
        lambda clauses, msm: BooleanQuery(tuple(clauses), minimum_should_match=msm),
        st.lists(
            st.tuples(st.sampled_from([MUST, FILTER, SHOULD, MUST_NOT]), children),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 3),
    )


# trees of depth <= 3
trees = st.one_of(booleans(leaves), booleans(st.one_of(leaves, booleans(leaves))))


@settings(max_examples=60, deadline=None)
@given(
    corpora(),
    st.lists(trees, min_size=1, max_size=4),
    st.sampled_from([1, 10, 10**9]),
    st.data(),
)
def test_nested_trees_match_exhaustive(tmp_path_factory, corpus, qs, k, data):
    """3 pages through ``after`` of every tree equal the exhaustive
    pages, each with the exact count, ``count`` equals the per-segment
    match count, and the auto searches and counts leave the readers'
    decode caches empty."""
    segments, deleted = corpus
    root = tmp_path_factory.mktemp("nested")
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
        pages = []  # (query, cursor, auto result)
        for q in qs:
            assert IndexSearcher._wide_eligible(q)
            cursor = None
            for _ in range(3):
                got = s.search(q, k, after=cursor)
                pages.append((q, cursor, got))
                if len(got["docids"]) < k:
                    break
                cursor = (float(got["scores"][-1]), int(got["docids"][-1]))
        counts = [s.count(q) for q in qs]  # through the evaluator too
        assert all(len(seg.decode_cache) == 0 for seg in s.segments)
        states = s.term_states(
            query_terms(BooleanQuery(tuple((SHOULD, q) for q in qs)))
        )
        assert counts == [
            sum(len(s._eval(q, si, states).docids) for si in range(len(s.segments)))
            for q in qs
        ]
        for q, cursor, got in pages:
            want = s.search(q, k, mode="exhaustive", after=cursor)
            assert_like_exhaustive(got, want)
            assert got["relation"] == "EQ"


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


def test_count_skips_the_decode_caches(searcher):
    """``count`` of a tree the evaluator covers runs index-wide (the
    fixture has deletes, so no df shortcut applies) and equals the
    per-segment count."""
    queries = list(QUERIES.values()) + [
        "+xa +xb",
        '+"xa xb" -xc',
        'xc "zzw zzw"',
        "+xa +(xb xc)",
    ]
    counts = [searcher.count(q) for q in queries]
    assert all(len(seg.decode_cache) == 0 for seg in searcher.segments)
    for q, c in zip(queries, counts):
        assert c == searcher.search(q, 1, mode="exhaustive")["total_hits"] > 0


@pytest.mark.parametrize("gap", [300, 70_000])
def test_positions_past_uint8(tmp_path, gap):
    """Cached positions keep the narrowest dtype that holds them: a doc
    whose phrase sits past position 255 (uint16) or 65,535 (uint32);
    three auto passes (cold, building signatures, warm) equal
    exhaustive."""
    texts = [
        "xa xb " + "zzw " * gap + "xa xb xc xa",
        "xb xa " + "zzw " * gap + "xa zzw xb",
        "xa xb",
    ] * 2
    write_index(str(tmp_path), [texts[:3], texts[3:]], [np.zeros(3, bool)] * 2)
    s = IndexSearcher(str(tmp_path))
    queries = [
        PhraseQuery(("xa", "xb")),
        PhraseQuery(("xb", "xa")),
        PhraseQuery(("xb", "xc", "xa")),
    ]
    want = [s.search(q, 10, mode="exhaustive") for q in queries]
    for _ in range(3):
        for q, w in zip(queries, want):
            assert_like_exhaustive(s.search(q, 10), w)
    states = s.term_states(["xa"])
    assert s._term_positions("xa", states["xa"][0])[1].dtype == (
        np.uint16 if gap < 1 << 16 else np.uint32
    )
    assert s.search(queries[0], 10)["total_hits"] == 4


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
