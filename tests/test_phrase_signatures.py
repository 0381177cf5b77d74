"""The position-signature filter of exact phrases
(``IndexSearcher._signature_filter``, shared by ``_search_phrase`` and
the index-wide evaluator's phrase leaves) drops only candidates whose
phrase freq is 0: every candidate it drops is checked against
``_exact_phrase_hits``, and auto results (cold, with signatures being
built, and warm) equal ``mode="exhaustive"`` in docids, float32 score
bytes and the TotalHits rule. Covered: docs longer than 64 tokens, so
residues collide; matches across the 63 → 0 wrap; position 0; repeated
terms; 2-4 slot phrases; deletes; indexes opened whole, as a MultiReader
and as a shard of some segments."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lucene_ray.search.searcher as searcher_mod
from lucene_ray.search.query import SHOULD, BooleanQuery, PhraseQuery, TermQuery
from lucene_ray.search.searcher import IndexSearcher
from test_index_wide import assert_like_exhaustive
from test_wand import write_index

WORDS = ("xa", "xb", "xc")
FILL = "ff"


def watch_drops(s: IndexSearcher) -> list:
    """Wrap ``s._signature_filter`` so that every candidate it drops is
    verified by the exact-phrase kernel; → the list of (phrase terms,
    dropped docids) it appends to."""
    inner = s._signature_filter
    seen = []

    def checked(terms, states, cand, rows):
        kept, kept_rows = inner(terms, states, cand, rows)
        dropped = np.setdiff1d(cand, kept).astype(np.uint32)
        if len(dropped):
            slot = {
                t: (s._term_postings(t, states[t][0])[0], *s._term_positions(t, states[t][0]))
                for t in rows
            }
            ids, _ = IndexSearcher._exact_phrase_hits([slot[t] for t in terms], dropped)
            assert len(ids) == 0, (terms, ids)
        seen.append((tuple(terms), dropped))
        return kept, kept_rows

    s._signature_filter = checked
    return seen


@st.composite
def long_corpora(draw):
    """1-3 segments of 1-25 docs of 0-150 tokens, mostly filler, so docs
    run past 64 positions and the content words' residues collide; each
    doc deleted with probability ~1/5."""
    segments, deleted = [], []
    for _ in range(draw(st.integers(1, 3))):
        docs = draw(
            st.lists(
                st.lists(
                    st.sampled_from(WORDS + (FILL,) * 4), min_size=0, max_size=150
                ),
                min_size=1,
                max_size=25,
            )
        )
        segments.append([" ".join(d) for d in docs])
        deleted.append(
            np.array(
                draw(st.lists(st.integers(0, 4), min_size=len(docs), max_size=len(docs)))
            )
            == 0
        )
    return segments, deleted


# 2-4 slots, repeated terms included ("xa xa", "xa xb xa")
phrase_terms = st.lists(st.sampled_from(WORDS), min_size=2, max_size=4).map(tuple)


def without_phrase_entries(s: IndexSearcher) -> None:
    """Keep exact-phrase entries and their markers (``("phrase", terms)``)
    out of ``s``'s searcher cache, so that every search of a phrase runs
    the filter: a phrase with an entry reads no signature."""
    put = s.cache.put
    s.cache.put = lambda key, value, nbytes: (
        value if key[0] == "phrase" else put(key, value, nbytes)
    )


def check_searcher(s: IndexSearcher, queries, k: int, threshold: int) -> list:
    """Three auto passes of every query (the first reads positions, the
    second builds signatures, the third filters with them; phrase entries
    are not kept, see ``without_phrase_entries``) each equal to the
    exhaustive result; → the filter's (terms, dropped) log."""
    without_phrase_entries(s)
    seen = watch_drops(s)
    with mock.patch.object(searcher_mod, "TOTAL_HITS_THRESHOLD", threshold):
        passes = [[s.search(q, k) for q in queries] for _ in range(3)]
    # the reference last: exhaustive scoring caches the terms' positions,
    # which would let the first pass build signatures
    want = [s.search(q, k, mode="exhaustive") for q in queries]
    for got in passes:
        for g, w in zip(got, want):
            assert_like_exhaustive(g, w, threshold)
    return seen


@settings(max_examples=60, deadline=None)
@given(
    long_corpora(),
    st.lists(phrase_terms, min_size=1, max_size=4),
    st.sampled_from([1, 10, 10**9]),
    st.sampled_from([1, 3, 1000]),
    st.data(),
)
def test_filter_is_sound(tmp_path_factory, corpus, terms, k, threshold, data):
    """Top-level phrases (``_search_phrase``) and phrase leaves beside a
    term (the evaluator ``_wide``)."""
    segments, deleted = corpus
    root = tmp_path_factory.mktemp("sig")
    whole = str(root / "whole")
    write_index(whole, segments, deleted)
    cut = data.draw(st.integers(1, len(segments)))
    parts = [str(root / "a"), str(root / "b")]
    write_index(parts[0], segments[:cut], deleted[:cut])
    write_index(parts[1], segments[cut:] or segments, deleted[cut:] or deleted)
    owned = data.draw(
        st.lists(st.integers(0, len(segments) - 1), min_size=1, unique=True)
    )
    queries = [PhraseQuery(t) for t in terms]
    queries += [
        BooleanQuery(((SHOULD, PhraseQuery(t)), (SHOULD, TermQuery(t[0]))))
        for t in terms
    ]
    for s in (
        IndexSearcher(whole),
        IndexSearcher(parts),
        IndexSearcher(whole, segment_ids=owned),
    ):
        check_searcher(s, queries, k, threshold)


def _at(n: int, phrase: str) -> str:
    """A doc with ``phrase`` starting at position ``n`` after filler."""
    return " ".join([FILL] * n + [phrase])


def test_fixed_cases(tmp_path):
    """Matches at position 0, across the 63 → 0 wrap (63/64 and 127/128)
    and far apart at colliding residues; the filter drops the docs that
    only hold the words apart and keeps every match."""
    texts = [
        "xa xb",  # position 0
        _at(63, "xa xb"),  # slot 0 at residue 63, slot 1 at residue 0
        _at(127, "xa xb"),
        _at(62, "xa xa xa"),  # repeated term across the wrap
        _at(63, "xb xa xc xa xb xa"),  # "xa xc xa" across the wrap
        # residue of xb = residue of xa + 1, but 65 positions apart: the
        # signatures cannot tell it from a match, the kernel rejects it
        " ".join(["xa"] + [FILL] * 64 + ["xb"]),
        # the words only apart, at residues the filter rules out
        "xb xc xa",
        _at(10, "xb ff ff xa"),
        " ".join(["xa"] + [FILL] * 80 + ["xb"]),
    ] * 3
    mask = np.zeros(len(texts), bool)
    mask[4] = True
    write_index(str(tmp_path), [texts[:13], texts[13:]], [mask[:13], mask[13:]])
    s = IndexSearcher(str(tmp_path))
    queries = [
        PhraseQuery(("xa", "xb")),
        PhraseQuery(("xa", "xa")),
        PhraseQuery(("xa", "xa", "xa")),
        PhraseQuery(("xa", "xc", "xa")),
        PhraseQuery(("xa", "xc", "xa", "xb")),
        PhraseQuery(("xb", "xa")),
    ]
    seen = check_searcher(s, queries, 10**9, 1000)
    dropped = {t: n for t, n in ((t, len(d)) for t, d in seen) if n}
    # "xa xb": the 3 copies each of "xb xc xa", "xb ff ff xa" and the
    # doc 81 apart
    assert dropped[("xa", "xb")] == 9
    # 4 matching docs per copy, one of them deleted once
    assert s.search(queries[0], 10**9)["total_hits"] == 11
