"""The exact-phrase kernel (``IndexSearcher._exact_phrase_hits``) against a
brute-force per-doc reference, over generated postings: 2-4 slots, the same
term in several slots, matches at position 0, empty intersections, holes in
the position stream, positions at and above 2^21 (and the int64 key path),
deduplicated multi-phrase union slots (several terms stacked at one
position), and candidate subsets of the conjunction; and end to end, a
phrase matching at position 0 of a built index."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lucene_ray.search.searcher as searcher_mod
from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.search.searcher import IndexSearcher

VOCAB = ("zzw", "a", "b", "c")
BIG = 1 << 21


@st.composite
def corpora(draw, big: bool = False):
    """→ {docid: {position: set of terms}}: sparse docids, positions with
    holes, optionally starting at or past 2^21, 1-2 terms per position."""
    docids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True))
    docs = {}
    for d in sorted(docids):
        n = draw(st.integers(0, 12))
        gaps = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        p = draw(st.integers(0, 1)) + (draw(st.sampled_from([0, BIG, BIG + 5])) if big else 0)
        doc = {}
        for g in gaps:
            doc[p] = draw(st.sets(st.sampled_from(VOCAB), min_size=1, max_size=2))
            p += g
        docs[d] = doc
    return docs


slot_lists = st.lists(
    st.frozensets(st.sampled_from(VOCAB), min_size=1, max_size=2),
    min_size=2,
    max_size=4,
)


def slot_postings(docs, slot):
    """One slot's (ids, offs, pos): per doc the sorted, deduplicated
    positions holding any of the slot's terms — a single term's postings,
    or a multi-phrase union slot."""
    ids, pos = [], []
    offs = [0]
    for d in sorted(docs):
        hits = sorted(p for p, terms in docs[d].items() if terms & slot)
        if hits:
            ids.append(d)
            pos += hits
            offs.append(len(pos))
    return (
        np.array(ids, dtype=np.uint32),
        np.array(offs, dtype=np.int64),
        np.array(pos, dtype=np.uint32),
    )


def brute_force(docs, slots):
    out = {}
    for d, doc in docs.items():
        f = sum(
            all(doc.get(p + i, set()) & s for i, s in enumerate(slots))
            for p in doc
        )
        if f:
            out[d] = f
    return out


def kernel(docs, slots, cand=None):
    # a slot set repeated in the phrase passes the same postings object,
    # as a reader's cache does for a repeated term
    postings = {}
    ids, freqs = IndexSearcher._exact_phrase_hits(
        [postings.setdefault(s, slot_postings(docs, s)) for s in slots], cand
    )
    assert ids.dtype == np.uint32 and freqs.dtype == np.uint32
    assert np.all(np.diff(ids.astype(np.int64)) > 0)
    return dict(zip(ids.tolist(), freqs.tolist()))


@settings(max_examples=300, deadline=None)
@given(corpora(), slot_lists)
def test_matches_brute_force(docs, slots):
    assert kernel(docs, slots) == brute_force(docs, slots)


@settings(max_examples=300, deadline=None)
@given(corpora(), slot_lists, st.data())
def test_candidate_subset(docs, slots, data):
    """Verifying a sorted subset of the conjunction finds exactly the
    subset's matches: runs gathered per candidate, never the slot's
    whole position stream."""
    both = IndexSearcher._doc_conjunction(
        [slot_postings(docs, s)[0] for s in slots]
    ).tolist()
    cand = sorted(data.draw(st.lists(st.sampled_from(both), unique=True))) if both else []
    want = {d: f for d, f in brute_force(docs, slots).items() if d in cand}
    assert kernel(docs, slots, np.array(cand, dtype=np.uint32)) == want


@settings(max_examples=200, deadline=None)
@given(corpora(big=True), slot_lists)
def test_positions_past_2_21(docs, slots):
    """Docs starting at or past 2^21: once with 32-bit keys, and once with
    the 32-bit key space capped below 2^21, so every candidate whose
    positions reach 2^21 pushes the key space over the cap and the int64
    keys run."""
    want = brute_force(docs, slots)
    assert kernel(docs, slots) == want
    with mock.patch.object(searcher_mod, "_KEY32_SPACE", BIG - 1):
        assert kernel(docs, slots) == want


def test_fixed_cases():
    zzw, a, b = frozenset({"zzw"}), frozenset({"a"}), frozenset({"b"})
    run = {7: {0: {"zzw"}, 1: {"zzw"}, 2: {"zzw"}, 4: {"zzw"}}}
    # the same term in two slots: overlapping matches at 0 and 1
    assert kernel(run, [zzw, zzw]) == {7: 2}
    assert kernel(run, [zzw, zzw, zzw]) == {7: 1}
    # a phrase at position 0 of each doc
    docs = {0: {0: {"a"}, 1: {"b"}}, 3: {0: {"a"}, 1: {"b"}, 2: {"a"}, 3: {"b"}}}
    assert kernel(docs, [a, b]) == {0: 1, 3: 2}
    # empty intersections: no common doc, and common docs but no match
    assert kernel({1: {0: {"a"}}, 2: {0: {"b"}}}, [a, b]) == {}
    assert kernel({1: {0: {"b"}, 1: {"a"}}}, [a, b]) == {}
    # a term absent from the segment
    assert kernel(docs, [a, frozenset({"c"})]) == {}
    # stacked terms: a union slot counts the shared position once
    stacked = {5: {0: {"a", "b"}, 1: {"c"}}}
    assert kernel(stacked, [frozenset({"a", "b"}), frozenset({"c"})]) == {5: 1}


class TestPhraseKeyPacking:
    def test_high_positions_and_underflow(self, ray_session, tmp_path):
        # doc long enough that pos > 2^21 would previously be required to
        # break; here we exercise the dynamic-shift path with a doc whose
        # phrase occurs at position 0 (pos < term_index underflow case).
        docs = tmp_path / "docs.parquet"
        import pyarrow as pa
        import pyarrow.parquet as pq

        text0 = "beta alpha " + "filler " * 50 + "alpha beta"
        text1 = "alpha beta gamma"
        pq.write_table(
            pa.table({"doc_id": [0, 1], "text": [text0, text1]}),
            str(docs),
        )
        d = str(tmp_path / "idx")
        build_index(str(docs), d, IndexConfig())
        s = IndexSearcher(d)
        r = s.search('"alpha beta"', k=10)
        assert set(r["keys"]) == {0, 1}
        # "beta alpha" matches only doc 0 (at position 0 — underflow guard)
        r2 = s.search('"beta alpha"', k=10)
        assert set(r2["keys"]) == {0}
