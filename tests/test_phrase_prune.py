"""The pruned exact-phrase top-k (``IndexSearcher._search_phrase``, which
``search`` takes for a slop-0 BM25 phrase of 2+ terms) against
``mode="exhaustive"``: equal docids and float32 score bytes, and the
TotalHits rule (an EQ count is exact; a GTE count lies between the
threshold and the exact count). Covered: generated multi-segment indexes
with deletes, repeated terms, k=1, k above the candidate count, low
thresholds that force pruning on small indexes, candidate counts at
999/1000/1001 around the default threshold, and pinned counts of the
candidates the position kernel verifies and of its calls."""

from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.analysis.analyzer import analyzer_for_config
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.manifest import commit_manifest, segment_dir
from lucene_ray.index.segment import invert_texts, write_segment
import lucene_ray.search.searcher as searcher_mod
from lucene_ray.search.query import PhraseQuery
from lucene_ray.search.searcher import IndexSearcher

VOCAB = ("zzw", "xa", "xb", "xc")


def build(index_dir, segments, deleted=None) -> IndexSearcher:
    """Write one segment per list of texts (no Ray), commit, and open a
    searcher; ``deleted``: per segment a bool mask of deleted docs."""
    cfg = IndexConfig(num_buckets=1)
    analyzer = analyzer_for_config(cfg)
    metas, base = [], 0
    for sid, texts in enumerate(segments):
        inv = invert_texts(texts, analyzer, with_positions=True)
        keys = pa.array(np.arange(base, base + len(texts), dtype=np.int64))
        metas.append(
            write_segment(segment_dir(index_dir, sid), sid, base, keys, inv, cfg)
        )
        base += len(texts)
    commit_manifest(index_dir, cfg, metas)
    s = IndexSearcher(index_dir)
    for seg, mask in zip(s.segments, deleted or []):
        if mask is not None and mask.any():
            seg.deleted = mask
    return s


def assert_like_exhaustive(got, want, threshold):
    assert got["docids"].tolist() == want["docids"].tolist()
    assert got["scores"].tobytes() == want["scores"].tobytes()
    assert got["keys"] == want["keys"]
    if got["relation"] == "EQ":
        assert got["total_hits"] == want["total_hits"]
    else:
        assert threshold <= got["total_hits"] <= want["total_hits"]


@st.composite
def corpora(draw):
    """1-3 segments of 1-40 docs over a 4-word vocabulary (long runs of
    the head word), each doc deleted with probability ~1/5."""
    segments, deleted = [], []
    for _ in range(draw(st.integers(1, 3))):
        docs = draw(
            st.lists(
                st.lists(
                    st.sampled_from(VOCAB + ("zzw",) * 3), min_size=0, max_size=14
                ),
                min_size=1,
                max_size=40,
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


phrases = st.lists(st.sampled_from(VOCAB), min_size=2, max_size=3).map(tuple)


@settings(max_examples=100, deadline=None)
@given(
    corpora(),
    st.lists(phrases, min_size=1, max_size=4),
    st.sampled_from([1, 2, 3, 10, 10**9]),
    st.sampled_from([1, 2, 3, 1000]),
)
def test_matches_exhaustive(tmp_path_factory, corpus, queries, k, threshold):
    segments, deleted = corpus
    s = build(str(tmp_path_factory.mktemp("pp")), segments, deleted)
    for terms in queries + [("zzw", "zzw")]:
        q = PhraseQuery(terms)
        with mock.patch.object(searcher_mod, "TOTAL_HITS_THRESHOLD", threshold):
            got = s.search(q, k)
        # the reference second: exhaustive scoring caches the terms'
        # positions, which would give the pruned search signatures
        assert_like_exhaustive(got, s.search(q, k, mode="exhaustive"), threshold)


def _hits_corpus(n_cand: int, n_docs: int, apart: int = 0):
    """``n_docs`` docs, the first ``n_cand`` holding both "xa" and "xb":
    with ``apart``, every ``apart``-th of those only apart (a candidate
    that does not match), the rest 1-3 adjacent pairs at varying
    lengths."""
    texts = []
    for i in range(n_docs):
        if i >= n_cand:
            texts.append("xc " * (1 + i % 5))
        elif apart and i % apart == 0:
            texts.append("xb xc xa " + "xc " * (i % 7))
        else:
            texts.append("xa xb " * (1 + i % 3) + "xc " * (i % 11))
    return texts


@pytest.mark.parametrize("n_cand", [999, 1000, 1001])
def test_threshold_boundary(tmp_path, n_cand):
    """Around the threshold every candidate (here: every one a hit) is
    verified and counted exactly."""
    texts = _hits_corpus(n_cand, 1100)
    s = build(str(tmp_path), [texts[:600], texts[600:]])
    for k in (1, 10, 10**9):
        got = s.search('"xa xb"', k)
        want = s.search('"xa xb"', k, mode="exhaustive")
        assert_like_exhaustive(got, want, 1000)
        assert (got["total_hits"], got["relation"]) == (n_cand, "EQ")


def test_prunes_past_the_threshold(tmp_path):
    """6000 candidates, 4000 hits: the count stops short, rank-identical."""
    texts = _hits_corpus(6000, 6000, apart=3)
    s = build(str(tmp_path), [texts[:2500], texts[2500:]])
    got = s.search('"xa xb"', 10)
    want = s.search('"xa xb"', 10, mode="exhaustive")
    assert_like_exhaustive(got, want, 1000)
    assert got["relation"] == "GTE"


def _zipf_corpus(seed: int, n_docs: int):
    rng = np.random.default_rng(seed)
    words = np.array(["zzw", "xa", "xb", "xc", "xd", "xe", "xf", "xg"])
    p = 1.0 / np.arange(1, len(words) + 1)
    p /= p.sum()
    return [
        " ".join(rng.choice(words, size=int(rng.integers(3, 30)), p=p))
        for _ in range(n_docs)
    ]


PINNED = {
    # phrase: candidates handed to the position kernel; the exhaustive
    # path verifies the whole conjunction (4371, 3912, 3299 and 3299).
    # Position signatures exist for a term from its second phrase on, so
    # only "xb xa" (both terms seen before) is filtered: 2020 without
    # signatures
    '"zzw zzw"': 2010,
    '"zzw xa"': 2007,
    '"xa xb"': 2306,
    '"xb xa"': 1288,
}


def test_pinned_kernel_candidates(tmp_path, monkeypatch):
    """Candidates verified for fixed phrases on a fixed 3-segment index:
    a deterministic work counter of the bound pass."""
    texts = _zipf_corpus(5, 4500)
    s = build(str(tmp_path), [texts[:1500], texts[1500:3000], texts[3000:]])
    # the reference on its own searcher: exhaustive scoring caches the
    # terms' positions, which would give the pinned searcher signatures
    ref = IndexSearcher(str(tmp_path))
    want = {q: ref.search(q, 10, mode="exhaustive") for q in PINNED}
    kernel = IndexSearcher._exact_phrase_hits
    seen = []

    def counting(decoded, *cand):
        seen.append(
            len(cand[0])
            if cand
            else len(IndexSearcher._doc_conjunction([d[0] for d in decoded]))
        )
        return kernel(decoded, *cand)

    monkeypatch.setattr(IndexSearcher, "_exact_phrase_hits", staticmethod(counting))
    got = {}
    for q in PINNED:
        seen.clear()
        assert_like_exhaustive(s.search(q, 10), want[q], 1000)
        got[q] = sum(seen)
    assert got == PINNED


PINNED_CALLS = {
    # phrase: position-kernel calls, one per chunk of descending bound
    # ("xa xb" needs a second chunk to count 1000 hits); a pass per
    # segment made one per (segment, chunk): 3, 3, 6 and 3
    '"zzw zzw"': 1,
    '"zzw xa"': 1,
    '"xa xb"': 2,
    '"xb xa"': 1,
}


def test_pinned_kernel_calls(tmp_path, monkeypatch):
    """Position-kernel calls for the phrases of ``PINNED`` on the same
    3-segment index: the candidates of every segment are verified in one
    call per chunk."""
    texts = _zipf_corpus(5, 4500)
    s = build(str(tmp_path), [texts[:1500], texts[1500:3000], texts[3000:]])
    kernel = IndexSearcher._exact_phrase_hits
    calls = []

    def counting(decoded, *cand):
        calls.append(1)
        return kernel(decoded, *cand)

    monkeypatch.setattr(IndexSearcher, "_exact_phrase_hits", staticmethod(counting))
    got = {}
    for q in PINNED_CALLS:
        calls.clear()
        s.search(q, 10)
        got[q] = len(calls)
    assert got == PINNED_CALLS
