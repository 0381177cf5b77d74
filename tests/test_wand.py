"""The term/disjunction top-k (``IndexSearcher._search_wand``: one pass
over index-wide term arrays, run maxima choosing the candidates) must be
exactly rank-neutral (SURVEY §7.3.7): every eligible query's top-k —
docids AND float32 scores — and its exact hit count equal the exhaustive
scorer's, across tie-heavy Zipf data, multi-segment layouts, deletes,
MultiReaders, shard subsets and cursor pages, for k spanning heap-fill
regimes."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.analysis.analyzer import analyzer_for_config
from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.deletes import _write_deleted
from lucene_ray.index.manifest import commit_manifest, segment_dir
from lucene_ray.index.segment import invert_texts, write_segment
from lucene_ray.search.query import SHOULD, BooleanQuery, TermQuery
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("wandidx"))
    build_index(DOCS, d, IndexConfig(rows_per_segment=100, num_buckets=2))
    return d


@pytest.fixture(scope="module")
def searcher(index_dir):
    return IndexSearcher(index_dir)


QUERIES = [
    "spark",
    "the",
    "data",
    "zzzmissing",
    "spark merge",
    "the a data",
    "customer window vector",
    "spark zzzmissing",
    "a the",
]


class TestWandRankIdentical:
    @pytest.mark.parametrize("q", QUERIES)
    @pytest.mark.parametrize("k", [1, 3, 10, 100])
    def test_matches_exhaustive(self, searcher, q, k):
        w = searcher.search(q, k, mode="auto")
        e = searcher.search(q, k, mode="exhaustive")
        assert list(w["docids"]) == list(e["docids"]), q
        assert np.array_equal(w["scores"], e["scores"]), q
        assert w["keys"] == e["keys"]

    def test_wand_mode_rejects_conjunction(self, searcher):
        with pytest.raises(ValueError):
            searcher.search("+a +b", 10, mode="wand")

    def test_relation_eq_exact_count(self, searcher):
        # the pass counts every hit, however few docs reach the selection
        for q in QUERIES:
            for k in (1, 3, 10, 100):
                r = searcher.search(q, k, mode="wand")
                e = searcher.search(q, k, mode="exhaustive")
                assert r["relation"] == e["relation"] == "EQ", q
                assert r["total_hits"] == e["total_hits"], q

    def test_synthetic_pages_corpus(self, ray_session, tmp_path_factory):
        """Zipf head-term ties across a multi-segment pages corpus."""
        from lucene_ray.corpus.generator import make_vocab, write_corpus

        d = str(tmp_path_factory.mktemp("pages"))
        idx = str(tmp_path_factory.mktemp("pidx"))
        paths = write_corpus(d, 3000, n_files=4, use_ray=False)
        build_index(
            paths, idx, IndexConfig(key_col="url", rows_per_segment=500)
        )
        s = IndexSearcher(idx)
        vocab = make_vocab()
        qs = [
            vocab[0],
            f"{vocab[0]} {vocab[1]}",
            f"{vocab[2]} {vocab[50]} {vocab[800]}",
            vocab[4000],
        ]
        for q in qs:
            for k in (5, 25):
                w = s.search(q, k, mode="auto")
                e = s.search(q, k, mode="exhaustive")
                assert list(w["docids"]) == list(e["docids"]), q
                assert np.array_equal(w["scores"], e["scores"]), q


class TestHitCountThreshold:
    """Exact hit counts (EQ) below and past the 1000-hit threshold: the
    index-wide pass counts every match, so it never reports GTE."""

    def test_exact_count_below_threshold(self, searcher):
        # 500-doc corpus: every WAND query counts exactly, relation EQ
        for q in ["the", "spark merge", "data"]:
            w = searcher.search(q, k=5)
            e = searcher.search(q, k=5, mode="exhaustive")
            assert w["relation"] == "EQ"
            assert w["total_hits"] == e["total_hits"]

    def test_eq_past_threshold(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        docs = tmp_path / "big.parquet"
        n = 3000
        texts = [f"common filler{i % 7}" for i in range(n)]
        pq.write_table(
            pa.table({"doc_id": list(range(n)), "text": texts}), str(docs)
        )
        d = str(tmp_path / "idx")
        build_index(str(docs), d, IndexConfig(rows_per_segment=4000))
        s = IndexSearcher(d)
        for q, hits in (("common filler0", n), ("filler0", 429), ("common", n)):
            r = s.search(q, k=5, mode="wand")
            e = s.search(q, k=5, mode="exhaustive")
            assert list(r["docids"]) == list(e["docids"])  # rank-exact
            assert r["scores"].tobytes() == e["scores"].tobytes()
            assert (r["total_hits"], r["relation"]) == (hits, "EQ")


class TestSearchAfterOnWand:
    def test_pagination_matches_exhaustive(self, searcher):
        full = searcher.search("the a data", k=30, mode="exhaustive")
        pages = []
        cursor = None
        for _ in range(3):
            r = searcher.search("the a data", k=10, after=cursor)
            assert searcher._wand_eligible(
                __import__("lucene_ray.search.query", fromlist=["parse_query"])
                .parse_query("the a data")
            ) is not None  # the query takes the pruned path
            pages.extend(zip(r["docids"], r["scores"]))
            cursor = (float(r["scores"][-1]), int(r["docids"][-1]))
        assert [d for d, _ in pages] == list(full["docids"])
        assert np.array_equal(
            np.array([s for _, s in pages], np.float32), full["scores"]
        )


VOCAB = ("zzw", "xa", "xb", "xc")


def write_index(index_dir, segments, deleted):
    """One segment per list of texts (no Ray), a tombstone bitmap where
    ``deleted`` marks docs, then a commit."""
    cfg = IndexConfig(num_buckets=1)
    analyzer = analyzer_for_config(cfg)
    metas, base = [], 0
    for sid, (texts, mask) in enumerate(zip(segments, deleted)):
        inv = invert_texts(texts, analyzer, with_positions=True)
        keys = pa.array(np.arange(base, base + len(texts), dtype=np.int64))
        sdir = segment_dir(index_dir, sid)
        metas.append(write_segment(sdir, sid, base, keys, inv, cfg))
        if mask.any():
            _write_deleted(sdir, mask, 1)
        base += len(texts)
    commit_manifest(index_dir, cfg, metas)


@st.composite
def corpora(draw):
    """1-4 segments of 1-60 docs over a 4-word vocabulary (long runs of
    the head word, so a doc tops several terms' runs at once), each doc
    deleted with probability ~1/5."""
    segments, deleted = [], []
    for _ in range(draw(st.integers(1, 4))):
        docs = draw(
            st.lists(
                st.lists(
                    st.sampled_from(VOCAB + ("zzw",) * 3), min_size=0, max_size=12
                ),
                min_size=1,
                max_size=60,
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


# a clause list: (term, boost); one clause may also run as a bare TermQuery
clause_lists = st.lists(
    st.tuples(st.sampled_from(VOCAB + ("qq",)), st.sampled_from([0.5, 1.0, 2.0, 3.5])),
    min_size=1,
    max_size=3,
)


def as_query(clauses, bare: bool):
    if bare and len(clauses) == 1:
        return TermQuery(*clauses[0])
    return BooleanQuery(tuple((SHOULD, TermQuery(t, b)) for t, b in clauses))


def assert_pages_like_exhaustive(s, q, k):
    """The first 3 pages through ``after`` equal the exhaustive pages:
    docids, score bytes, keys, and the exact count with relation EQ."""
    cursor = None
    for _ in range(3):
        got = s.search(q, k, mode="wand", after=cursor)
        want = s.search(q, k, mode="exhaustive", after=cursor)
        assert got["docids"].tolist() == want["docids"].tolist()
        assert got["scores"].tobytes() == want["scores"].tobytes()
        assert got["keys"] == want["keys"]
        assert (got["total_hits"], got["relation"]) == (want["total_hits"], "EQ")
        if len(got["docids"]) < k:
            break
        cursor = (float(got["scores"][-1]), int(got["docids"][-1]))


@settings(max_examples=100, deadline=None)
@given(
    corpora(),
    st.lists(st.tuples(clause_lists, st.booleans()), min_size=1, max_size=3),
    st.sampled_from([1, 2, 10, 10**9]),
    st.sampled_from([1, 2, 3, 128]),
    st.data(),
)
def test_index_wide_matches_exhaustive(
    tmp_path_factory, corpus, queries, k, run, data
):
    """On generated indexes opened whole, as a MultiReader of two indexes
    and as a shard holding a subset of the segments (docid bases with
    gaps), with small runs so the run bounds prune."""
    segments, deleted = corpus
    root = tmp_path_factory.mktemp("iw")
    whole = str(root / "whole")
    write_index(whole, segments, deleted)
    # a MultiReader of the first segments and the rest (or, when no
    # segment is left, a second copy of all of them)
    cut = data.draw(st.integers(1, len(segments)))
    parts = [str(root / "a"), str(root / "b")]
    write_index(parts[0], segments[:cut], deleted[:cut])
    write_index(parts[1], segments[cut:] or segments, deleted[cut:] or deleted)
    owned = data.draw(
        st.lists(st.integers(0, len(segments) - 1), min_size=1, unique=True)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IndexSearcher, "RUN", run)
        for s in (
            IndexSearcher(whole),
            IndexSearcher(parts),
            IndexSearcher(whole, segment_ids=owned),
        ):
            for clauses, bare in queries:
                assert_pages_like_exhaustive(s, as_query(clauses, bare), k)


def test_one_doc_tops_every_term(tmp_path):
    """One short doc holds the best posting of both terms: the k best run
    maxima pooled over the terms then belong to fewer than k docs, and
    every other doc scores below them, so only a per-term bound keeps the
    k-th hit."""
    texts = ["zzw xa"] + ["zzw" + " xc" * 8, "xa" + " xc" * 8] * 3
    write_index(str(tmp_path), [texts], [np.zeros(len(texts), bool)])
    s = IndexSearcher(str(tmp_path))
    for k in (2, 3):
        got = s.search("zzw xa", k, mode="wand")
        want = s.search("zzw xa", k, mode="exhaustive")
        assert got["docids"].tolist() == want["docids"].tolist() == list(range(k))
        assert got["scores"].tobytes() == want["scores"].tobytes()


PINNED_SELECTED = {
    # query: (postings handed to the final top-k selection, live hits) at
    # k=10 with 16-posting runs; with 128-posting runs no term here has
    # more than k runs, so every hit is handed over
    "the": (10, 392),
    "data": (10, 379),
    "spark merge": (17, 459),
    "the a data": (15, 486),
}


def test_pinned_postings_selected(index_dir, monkeypatch):
    """Postings that reach the final selection for 4 fixed queries on the
    fixed 5-segment sf0.001 index: a deterministic work counter of the
    run bounds, on a fresh searcher with 16-posting runs."""
    monkeypatch.setattr(IndexSearcher, "RUN", 16)
    s = IndexSearcher(index_dir)
    topk = IndexSearcher._topk_segment
    seen = []

    def counting(r, k):
        seen.append(len(r.docids))
        return topk(r, k)

    monkeypatch.setattr(IndexSearcher, "_topk_segment", staticmethod(counting))
    got = {}
    for q in PINNED_SELECTED:
        want = s.search(q, 10, mode="exhaustive")
        seen.clear()
        r = s.search(q, 10, mode="wand")
        assert r["docids"].tolist() == want["docids"].tolist()
        assert r["scores"].tobytes() == want["scores"].tobytes()
        assert len(seen) == 1 and seen[0] < r["total_hits"], q
        got[q] = (seen[0], r["total_hits"])
    assert got == PINNED_SELECTED
