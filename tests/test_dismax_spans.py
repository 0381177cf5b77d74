"""DisjunctionMaxQuery, ConstantScoreQuery, TermInSetQuery, SpanNearQuery
semantics vs brute-force NumPy / Python references on real testdata."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig, term_key
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.search.query import (
    SHOULD,
    BooleanQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    SpanNearQuery,
    TermInSetQuery,
    TermQuery,
)
from lucene_ray.search.searcher import IndexSearcher, _span_near_match

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def searcher(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("dmxidx"))
    build_index(
        DOCS,
        d,
        IndexConfig(rows_per_segment=150, keyword_cols=("lang", "source")),
    )
    return IndexSearcher(d)


@pytest.fixture(scope="module")
def corpus():
    t = pq.read_table(DOCS, columns=["doc_id", "text", "lang"])
    return {
        int(d): (t_.split(), l)
        for d, t_, l in zip(
            t.column("doc_id").to_pylist(),
            t.column("text").to_pylist(),
            t.column("lang").to_pylist(),
        )
    }


class TestDisMax:
    def test_max_only_tie_zero(self, searcher):
        qa, qb = TermQuery("data"), TermQuery("model")
        dm = searcher.search(DisjunctionMaxQuery((qa, qb)), k=2000)
        ra = searcher.search(qa, k=2000)
        rb = searcher.search(qb, k=2000)
        sa = dict(zip(ra["docids"].tolist(), ra["scores"].tolist()))
        sb = dict(zip(rb["docids"].tolist(), rb["scores"].tolist()))
        assert set(dm["docids"].tolist()) == set(sa) | set(sb)
        for d, s in zip(dm["docids"].tolist(), dm["scores"].tolist()):
            want = np.float32(max(sa.get(d, 0.0), sb.get(d, 0.0)))
            assert s == pytest.approx(float(want), abs=0)

    def test_tie_breaker_blend(self, searcher):
        qa, qb = TermQuery("data"), TermQuery("the")
        tie = 0.37
        dm = searcher.search(DisjunctionMaxQuery((qa, qb), tie), k=2000)
        ra = searcher.search(qa, k=2000)
        rb = searcher.search(qb, k=2000)
        sa = dict(zip(ra["docids"].tolist(), ra["scores"].tolist()))
        sb = dict(zip(rb["docids"].tolist(), rb["scores"].tolist()))
        for d, s in zip(dm["docids"].tolist(), dm["scores"].tolist()):
            a, b = sa.get(d), sb.get(d)
            if a is not None and b is not None:
                want = np.float32(max(a, b) + tie * min(a, b))
            else:
                want = np.float32(a if a is not None else b)
            assert s == pytest.approx(float(want), rel=1e-6)

    def test_single_disjunct_rewrites_to_sub(self, searcher):
        q = DisjunctionMaxQuery((TermQuery("data"),), 0.5)
        got = searcher.search(q, k=50)
        want = searcher.search(TermQuery("data"), k=50)
        assert got["docids"].tolist() == want["docids"].tolist()
        assert got["scores"].tolist() == want["scores"].tolist()


class TestConstantScore:
    def test_wraps_scored_query(self, searcher):
        inner = TermQuery("data")
        got = searcher.search(ConstantScoreQuery(inner, boost=2.5), k=5000)
        want = searcher.search(inner, k=5000)
        assert set(got["docids"].tolist()) == set(want["docids"].tolist())
        assert all(s == np.float32(2.5) for s in got["scores"].tolist())

    def test_composes_in_boolean(self, searcher):
        q = BooleanQuery(
            (
                (SHOULD, TermQuery("data")),
                (SHOULD, ConstantScoreQuery(TermQuery("the"), boost=0.5)),
            )
        )
        r = searcher.search(q, k=30)
        assert r["total_hits"] > 0


class TestTermInSet:
    def test_matches_lang_membership(self, searcher, corpus):
        q = TermInSetQuery("lang", ("en", "fr"))
        r = searcher.search(q, k=10**6)
        want = {d for d, (_, l) in corpus.items() if l in ("en", "fr")}
        got = set()
        for d in r["docids"].tolist():
            got.add(d)
        # translate global docids -> doc keys via the stored keys
        assert len(got) == len(want)
        assert set(r["keys"]) == want

    def test_dedups_terms(self):
        q = TermInSetQuery("lang", ("en", "en", "fr"))
        assert q.terms == ("en", "fr")


def _brute_span(tokens, terms, slop, in_order):
    pos = {t: [i for i, w in enumerate(tokens) if w == t] for t in set(terms)}
    if any(not pos[t] for t in terms):
        return False
    import itertools

    budget = slop + len(terms)
    # brute force over all assignments (test corpus docs are small)
    for combo in itertools.product(*[pos[t] for t in terms]):
        if len(set(combo)) != len(combo):
            continue
        if in_order and any(
            combo[i] >= combo[i + 1] for i in range(len(combo) - 1)
        ):
            continue
        if max(combo) - min(combo) + 1 <= budget:
            return True
    return False


class TestSpanNear:
    @pytest.mark.parametrize("in_order", [True, False])
    @pytest.mark.parametrize("slop", [0, 2, 5])
    def test_matches_brute_force(self, searcher, corpus, in_order, slop):
        terms = ("data", "model")
        q = SpanNearQuery(terms, slop=slop, in_order=in_order)
        r = searcher.search(q, k=10**6)
        got = set(r["keys"])
        want = {
            d
            for d, (toks, _) in corpus.items()
            if _brute_span(toks, terms, slop, in_order)
        }
        assert got == want

    def test_duplicate_terms_need_two_occurrences(self):
        # one occurrence of 'a' must NOT satisfy ("a","a") unordered
        one = [np.array([5]), np.array([5])]
        assert not _span_near_match(one, budget=10, in_order=False)
        two = [np.array([5, 7]), np.array([5, 7])]
        assert _span_near_match(two, budget=3, in_order=False)
        # ordered: strictly increasing within the same list
        assert _span_near_match(two, budget=3, in_order=True)
        assert not _span_near_match(one, budget=10, in_order=True)

    def test_three_term_ordered(self, searcher, corpus):
        terms = ("the", "data", "model")
        q = SpanNearQuery(terms, slop=4, in_order=True)
        r = searcher.search(q, k=10**6)
        want = {
            d
            for d, (toks, _) in corpus.items()
            if _brute_span(toks, terms, 4, True)
        }
        assert set(r["keys"]) == want


def test_span_near_of_keyword_keys_names_the_field(ray_session, tmp_path):
    """A keyword field is indexed without positions: a span over its keys
    raises ``ValueError`` naming the field, on a segment with deletions
    as on one without, instead of reading past the positions."""
    d = str(tmp_path / "kwpos")
    build_index(DOCS, d, IndexConfig(rows_per_segment=150, keyword_cols=("lang",)))
    delete_by_keys(d, list(range(0, 500, 7)))
    s = IndexSearcher(d)
    assert all(seg.deleted is not None for seg in s.segments)
    en = term_key("lang", "en")
    for q in (SpanNearQuery((en, en)), SpanNearQuery((en, "data"), slop=3)):
        with pytest.raises(ValueError, match="'lang' was indexed without position"):
            s.search(q, 10)
