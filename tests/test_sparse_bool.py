"""Sparse Boolean evaluation and the index-wide evaluator: both must be
result-identical to exhaustive dense-style evaluation."""

import numpy as np
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.search.query import (
    FILTER,
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanQuery,
    PhraseQuery,
    TermQuery,
    parse_query,
)
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("sbidx"))
    build_index(DOCS, d, IndexConfig(rows_per_segment=120))
    return d


@pytest.fixture(scope="module")
def searcher(index_dir):
    return IndexSearcher(index_dir)


def _eval_reference(s, q, seg_idx, states):
    """Dense reference evaluator (the round-1 semantics, kept as oracle)."""
    seg = s.segments[seg_idx]
    n = seg.n_docs
    F32 = np.float32
    scores = np.zeros(n, dtype=F32)
    should_count = np.zeros(n, dtype=np.int32)
    must_mask = None
    not_mask = np.zeros(n, dtype=bool)
    n_should = 0
    for occur, sub in q.clauses:
        r = s._eval(sub, seg_idx, states)
        if occur == SHOULD:
            n_should += 1
            scores[r.docids] += r.scores
            should_count[r.docids] += 1
        elif occur in (MUST, FILTER):
            if occur == MUST:
                scores[r.docids] += r.scores
            m = np.zeros(n, dtype=bool)
            m[r.docids] = True
            must_mask = m if must_mask is None else (must_mask & m)
        else:
            not_mask[r.docids] = True
    msm = q.minimum_should_match
    match = None
    if n_should:
        need = msm if must_mask is not None else max(1, msm)
        match = should_count >= need if need > 0 else None
    if must_mask is None and match is None:
        return np.empty(0, np.uint32), np.empty(0, F32)
    mask = must_mask if must_mask is not None else match
    if must_mask is not None and match is not None:
        mask = must_mask & match
    mask = mask & ~not_mask
    ids = np.flatnonzero(mask).astype(np.uint32)
    return ids, scores[ids]


QUERIES = [
    BooleanQuery(((MUST, TermQuery("data")), (MUST, TermQuery("spark")))),
    BooleanQuery(((MUST, TermQuery("the")), (FILTER, TermQuery("data")))),
    BooleanQuery(
        (
            (MUST, TermQuery("batch")),
            (MUST, TermQuery("stream")),
            (MUST_NOT, TermQuery("window")),
        )
    ),
    BooleanQuery(
        ((MUST, TermQuery("data")), (SHOULD, TermQuery("spark")))
    ),
    BooleanQuery(
        (
            (SHOULD, TermQuery("data")),
            (SHOULD, TermQuery("spark")),
            (SHOULD, TermQuery("merge")),
        ),
        minimum_should_match=2,
    ),
    BooleanQuery(
        ((MUST, PhraseQuery(("batch", "stream"))), (MUST_NOT, TermQuery("the")))
    ),
    BooleanQuery(((MUST, TermQuery("zzzabsent")), (MUST, TermQuery("data")))),
    BooleanQuery(((MUST_NOT, TermQuery("data")),)),  # no positive clause
]


class TestSparseEqualsDense:
    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_per_segment_identical(self, searcher, qi):
        from lucene_ray.search.query import query_terms

        q = QUERIES[qi]
        states = searcher.term_states(query_terms(q))
        for si in range(len(searcher.segments)):
            want_ids, want_scores = _eval_reference(searcher, q, si, states)
            got = searcher._eval_bool(q, si, states)
            assert np.array_equal(got.docids, want_ids), f"seg {si}"
            assert np.array_equal(got.scores, want_scores), f"seg {si}"

    def test_conjunction_fast_path_taken(self, searcher, monkeypatch):
        """A term conjunction and a phrase beside a negation are served
        by the index-wide evaluator: no per-segment evaluation runs."""
        want = {
            qi: searcher.search(QUERIES[qi], k=10, mode="exhaustive") for qi in (0, 5)
        }

        def per_segment(*args):
            raise AssertionError("per-segment evaluation")

        monkeypatch.setattr(IndexSearcher, "_eval", per_segment)
        for qi, w in want.items():
            got = searcher.search(QUERIES[qi], k=10)
            assert got["docids"].tolist() == w["docids"].tolist()
            assert got["scores"].tobytes() == w["scores"].tobytes()
            assert got["total_hits"] == w["total_hits"] > 0

    def test_end_to_end_search_identical(self, searcher):
        r = searcher.search("+the +data -spark", k=10)
        r2 = searcher.search("+the +data -spark", k=10, mode="exhaustive")
        assert list(r["docids"]) == list(r2["docids"])
        assert np.array_equal(r["scores"], r2["scores"])


class TestWarmConjunctionDecodes:
    def test_second_run_decodes_nothing(self, index_dir, monkeypatch):
        """A warm head-term ``+a +b -c`` answers every probe (MUST and
        MUST_NOT alike) from the caches: the second run makes zero calls
        of the postings decoder, whether through a view or through
        ``read_postings``."""
        from lucene_ray.codecs import postings
        from lucene_ray.index import segment

        calls = []
        kernel = postings.decode_postings

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        for module in (postings, segment):
            monkeypatch.setattr(module, "decode_postings", counting)
        s = IndexSearcher(index_dir)
        q = "+query +window -scan"
        want = s.search(q, k=10, mode="exhaustive")
        s = IndexSearcher(index_dir)  # cold again
        runs = []
        for _ in range(2):
            n0 = len(calls)
            runs.append(s.search(q, k=10))
            runs[-1]["decodes"] = len(calls) - n0
        assert runs[0]["decodes"] > 0
        assert runs[1]["decodes"] == 0
        for r in runs:
            assert list(r["docids"]) == list(want["docids"])
            assert r["scores"].tobytes() == want["scores"].tobytes()
            assert (r["total_hits"], r["relation"]) == (
                want["total_hits"], want["relation"]
            )


class TestMinimumShouldMatch:
    """BooleanQuery.minimumNumberShouldMatch over the engine's sparse
    evaluator, checked against a brute-force term-set reference."""

    def _brute(self, searcher, terms, msm):
        import pyarrow.parquet as pq

        tbl = pq.read_table(DOCS, columns=["doc_id", "text"])
        out = set()
        for d, t in zip(
            tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()
        ):
            toks = set((t or "").lower().split())
            if sum(1 for x in terms if x in toks) >= msm:
                out.add(int(d))
        return out

    @pytest.mark.parametrize("msm", [1, 2, 3])
    def test_match_set_vs_bruteforce(self, searcher, msm):
        terms = ["spark", "merge", "window"]
        q = BooleanQuery([(SHOULD, TermQuery(t)) for t in terms], msm)
        r = searcher.search(q, k=10**6)
        got = {int(k) for k in r["keys"]}
        assert got == self._brute(searcher, terms, msm)

    def test_msm_with_absent_term_degrades_to_conjunction(self, searcher):
        q = BooleanQuery(
            [
                (SHOULD, TermQuery("the")),
                (SHOULD, TermQuery("customer")),
                (SHOULD, TermQuery("zzzabsent")),
            ],
            2,
        )
        r = searcher.search(q, k=10**6)
        got = {int(k) for k in r["keys"]}
        assert got == self._brute(searcher, ["the", "customer"], 2)

    def test_msm_scores_sum_all_matching_clauses(self, searcher):
        # a doc matching all 3 terms scores identically with and
        # without msm (msm filters, never re-weights)
        terms = ["spark", "merge", "window"]
        q1 = BooleanQuery([(SHOULD, TermQuery(t)) for t in terms], 0)
        q2 = BooleanQuery([(SHOULD, TermQuery(t)) for t in terms], 2)
        r1 = searcher.search(q1, k=10**6)
        r2 = searcher.search(q2, k=10**6)
        s1 = dict(zip([int(k) for k in r1["keys"]], r1["scores"]))
        s2 = dict(zip([int(k) for k in r2["keys"]], r2["scores"]))
        assert s2  # non-empty
        for d, s in s2.items():
            assert s1[d] == s


class TestCoveringQuery:
    """Per-doc minimum-should-match from a DV expression
    (CoveringQuery.java semantics) vs a brute-force reference."""

    @pytest.fixture(scope="class")
    def cov_searcher(self, ray_session, tmp_path_factory):
        d = str(tmp_path_factory.mktemp("covidx"))
        build_index(
            DOCS, d, IndexConfig(rows_per_segment=120, dv_cols=("n_chars",))
        )
        return IndexSearcher(d)

    def test_match_set_and_scores(self, cov_searcher):
        import math

        import pyarrow.parquet as pq
        from lucene_ray.search.query import CoveringQuery

        terms = ["spark", "merge", "data", "the"]
        q = CoveringQuery(tuple(TermQuery(t) for t in terms), "1 + n_chars / 300")
        r = cov_searcher.search(q, k=10**6)
        got = {int(k) for k in r["keys"]}

        tbl = pq.read_table(DOCS, columns=["doc_id", "text", "n_chars"])
        want = set()
        for d, t, nc in zip(
            tbl.column("doc_id").to_pylist(),
            tbl.column("text").to_pylist(),
            tbl.column("n_chars").to_pylist(),
        ):
            hits = sum(1 for x in terms if x in set((t or "").lower().split()))
            need = max(1, math.floor(1 + nc / 300))
            if hits >= need:
                want.add(int(d))
        assert got == want

    def test_constant_expression_equals_msm(self, cov_searcher):
        # CoveringQuery with a constant min == BooleanQuery msm
        from lucene_ray.search.query import CoveringQuery

        terms = ["spark", "merge", "window"]
        qc = CoveringQuery(tuple(TermQuery(t) for t in terms), "2")
        qb = BooleanQuery([(SHOULD, TermQuery(t)) for t in terms], 2)
        rc = cov_searcher.search(qc, k=10**6)
        rb = cov_searcher.search(qb, k=10**6)
        assert {int(k) for k in rc["keys"]} == {int(k) for k in rb["keys"]}
        sc = dict(zip([int(k) for k in rc["keys"]], rc["scores"]))
        sb = dict(zip([int(k) for k in rb["keys"]], rb["scores"]))
        assert sc == sb
