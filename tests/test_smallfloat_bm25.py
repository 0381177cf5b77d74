"""SmallFloat intToByte4/byte4ToInt and float32 BM25 conformance, and
k3 query-term weighting of repeated clauses (``deduplicate_clauses``).

Expectations computed independently from the published algorithm
(``SmallFloat.java:103-168``, ``BM25Similarity.java:138-286``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.codecs.smallfloat import (
    LENGTH_TABLE,
    LENGTH_TABLE_INT,
    NUM_FREE_VALUES,
    byte4_to_int,
    decode_norms,
    encode_norms,
    int_to_byte4,
)
from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.search.bm25 import BM25Similarity, avg_field_length, idf
from lucene_ray.search.query import (
    MUST,
    SHOULD,
    BooleanQuery,
    TermQuery,
    deduplicate_clauses,
    parse_query,
)
from lucene_ray.search.searcher import IndexSearcher
from test_add_indexes import DOCS


@pytest.fixture(scope="module")
def searcher(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("advidx"))
    build_index(DOCS, d, IndexConfig(rows_per_segment=200))
    return IndexSearcher(d)


class TestSmallFloat:
    def test_num_free_values(self):
        assert NUM_FREE_VALUES == 24

    def test_small_values_exact(self):
        for i in range(24):
            assert int_to_byte4(i) == i
            assert byte4_to_int(i) == i

    def test_known_points(self):
        # hand-computed from the spec
        assert int_to_byte4(100) == 57 and byte4_to_int(57) == 96
        assert int_to_byte4(255) == 70 and byte4_to_int(70) == 248
        assert int_to_byte4(256) == 70

    def test_monotone_and_idempotent_roundtrip(self):
        prev = -1
        for i in range(0, 50000, 7):
            b = int_to_byte4(i)
            d = byte4_to_int(b)
            assert d <= i  # truncating encode
            assert int_to_byte4(d) == b  # decode is a fixpoint
            assert b >= prev
            prev = b

    def test_decode_table_strictly_increasing(self):
        assert (np.diff(LENGTH_TABLE_INT) > 0).all()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=300)
    def test_encode_matches_table_argmax(self, i):
        b = int_to_byte4(i)
        assert LENGTH_TABLE_INT[b] <= i
        if b < 255:
            assert LENGTH_TABLE_INT[b + 1] > i

    def test_vectorized_encode_matches_scalar(self):
        lengths = np.array([0, 1, 23, 24, 25, 100, 255, 256, 1000, 12345, 2**20])
        enc = encode_norms(lengths)
        assert enc.dtype == np.uint8
        assert list(enc) == [int_to_byte4(int(x)) for x in lengths]

    def test_decode_norms(self):
        assert decode_norms(np.array([57], np.uint8))[0] == np.float32(96.0)


class TestBM25:
    def test_idf_float32_narrowing(self):
        v = idf(5, 100)
        expect = np.float32(math.log(1 + (100 - 5 + 0.5) / (5 + 0.5)))
        assert v == expect and v.dtype == np.float32

    def test_avgdl(self):
        assert avg_field_length(1000, 30) == np.float32(1000 / 30.0)

    def test_score_formula_float32_order(self):
        sim = BM25Similarity()
        doc_count, sum_ttf, df = 100, 2500, 10
        sc = sim.scorer(1.0, doc_count, sum_ttf, df)
        # replicate by hand with explicit float32 steps
        w = np.float32(math.log(1 + (100 - 10 + 0.5) / (10 + 0.5)))
        avgdl = np.float32(2500 / 100.0)
        b = np.float32(0.75)
        k1 = np.float32(1.2)
        norm_byte = 40
        lt = LENGTH_TABLE[norm_byte]
        inv = np.float32(1.0) / (k1 * ((np.float32(1.0) - b) + (b * lt) / avgdl))
        freq = np.float32(3.0)
        expect = w - w / (np.float32(1.0) + freq * inv)
        got = sc.score(np.array([3.0], np.float32), np.array([norm_byte], np.uint8))
        assert got.dtype == np.float32
        assert got[0] == expect

    def test_score_monotone_in_freq(self):
        sc = BM25Similarity().scorer(1.0, 1000, 100000, 50)
        freqs = np.arange(1, 200, dtype=np.float32)
        norms = np.full(199, 60, np.uint8)
        s = sc.score(freqs, norms)
        assert (np.diff(s) >= 0).all()
        assert (s < sc.weight).all()  # score < weight always

    def test_score_decreases_with_doc_length(self):
        sc = BM25Similarity().scorer(1.0, 1000, 100000, 50)
        s = sc.score(np.full(256, 2.0, np.float32), np.arange(256, dtype=np.uint8))
        # longer decoded length → smaller normInverse → smaller score
        assert (np.diff(s) <= 0).all()

    def test_k3_query_term_weight(self):
        # fork extra: BM25Similarity.computeQueryTermWeight (:130-136)
        sim = BM25Similarity()
        assert sim.compute_query_term_weight(3) == np.float32(3.0)
        sim3 = BM25Similarity(k3=2.0)
        expect = (np.float32(3.0) * np.float32(2.0)) / (np.float32(2.0) + np.float32(2.0))
        assert sim3.compute_query_term_weight(2) == expect

    def test_matches_duckdb_float_arithmetic(self):
        """The oracle-SQL contract: DuckDB FLOAT math == NumPy float32 math."""
        import duckdb

        sim = BM25Similarity()
        sc = sim.scorer(1.0, 193, 12345, 17)
        got = float(sc.score(np.array([4.0], np.float32), np.array([50], np.uint8))[0])
        lt = float(LENGTH_TABLE[50])
        sql = f"""
        with s as (
          select cast(ln(1 + (193 - 17 + 0.5) / (17 + 0.5)) as float) as w,
                 cast(12345 / cast(193 as double) as float) as avgdl
        )
        select w - w / (cast(1 as float) + cast(4 as float) *
               (cast(1 as float) / (cast(1.2 as float) * ((cast(1 as float) - cast(0.75 as float))
                + (cast(0.75 as float) * cast({lt} as float)) / avgdl))))
        from s
        """
        oracle = duckdb.sql(sql).fetchone()[0]
        assert np.float32(oracle) == np.float32(got)


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
