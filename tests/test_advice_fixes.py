"""Regression tests for the round-1 ADVICE findings: phrase key packing,
k3 query-term weighting (duplicate-clause dedup). The knn basis-point
rounding rule is tested in ``tests/test_knn_filtered.py``."""

import numpy as np
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.search.bm25 import BM25Similarity
from lucene_ray.search.query import (
    MUST,
    SHOULD,
    BooleanQuery,
    TermQuery,
    deduplicate_clauses,
    parse_query,
)
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def searcher(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("advidx"))
    build_index(DOCS, d, IndexConfig(rows_per_segment=200))
    return IndexSearcher(d)


class TestClauseDedup:
    def test_linear_qtf_when_k3_disabled(self):
        sim = BM25Similarity()  # k3 = -1 (disabled)
        q = parse_query("data data data")
        dq = deduplicate_clauses(q, sim.compute_query_term_weight)
        assert isinstance(dq, BooleanQuery)
        terms = [s for _, s in dq.clauses]
        assert len(terms) == 1
        assert terms[0] == TermQuery("data", boost=3.0)

    def test_saturated_when_k3_enabled(self):
        sim = BM25Similarity(k3=8.0)
        q = parse_query("data data data")
        dq = deduplicate_clauses(q, sim.compute_query_term_weight)
        (_, t), = dq.clauses
        # ((k3+1)*qtf)/(k3+qtf) = (9*3)/(8+3)
        assert t.boost == pytest.approx(27.0 / 11.0)

    def test_explicit_boosts_sum_linearly(self):
        sim = BM25Similarity(k3=8.0)
        q = parse_query("data^2 data^3")
        dq = deduplicate_clauses(q, sim.compute_query_term_weight)
        (_, t), = dq.clauses
        assert t.boost == pytest.approx(5.0)

    def test_must_clauses_dedup_too(self):
        sim = BM25Similarity()
        q = BooleanQuery(
            ((MUST, TermQuery("a")), (MUST, TermQuery("a")), (SHOULD, TermQuery("b")))
        )
        dq = deduplicate_clauses(q, sim.compute_query_term_weight)
        musts = [s for o, s in dq.clauses if o == MUST]
        assert musts == [TermQuery("a", boost=2.0)]

    def test_msm_gt1_should_not_deduped(self):
        sim = BM25Similarity()
        q = BooleanQuery(
            ((SHOULD, TermQuery("a")), (SHOULD, TermQuery("a"))),
            minimum_should_match=2,
        )
        dq = deduplicate_clauses(q, sim.compute_query_term_weight)
        assert len(dq.clauses) == 2

    def test_duplicate_query_scores_match_boosted(self, searcher):
        """'data data' == 'data^2' bit-for-bit (linear qtf path)."""
        a = searcher.search("data data", k=10, mode="exhaustive")
        b = searcher.search("data^2", k=10, mode="exhaustive")
        assert list(a["docids"]) == list(b["docids"])
        assert np.array_equal(a["scores"], b["scores"])


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
