"""Multi-field document model: keyword (StringField-style) fields, doc
values, field-scoped queries, range filters, field sort — and their
survival through tiered merges."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.check import check_index
from lucene_ray.index.config import IndexConfig, term_key
from lucene_ray.index.merge import force_merge
from lucene_ray.search.query import (
    FILTER,
    MUST,
    SHOULD,
    BooleanQuery,
    RangeQuery,
    TermQuery,
    parse_query,
)
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"

CFG = IndexConfig(
    rows_per_segment=150,
    keyword_cols=("lang", "source"),
    dv_cols=("n_chars", "doc_id"),
)


@pytest.fixture(scope="module")
def corpus():
    return pq.read_table(DOCS)


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("mfidx"))
    build_index(DOCS, d, CFG)
    return d


@pytest.fixture(scope="module")
def searcher(index_dir):
    return IndexSearcher(index_dir)


class TestKeywordFields:
    def test_keyword_term_match_set(self, searcher, corpus):
        langs = corpus.column("lang").to_pylist()
        ids = corpus.column("doc_id").to_pylist()
        for lang in sorted(set(langs)):
            want = sorted(d for d, l in zip(ids, langs) if l == lang)
            r = searcher.search(f"lang:{lang}", k=10**9, mode="exhaustive")
            assert sorted(r["keys"]) == want

    def test_field_values_not_analyzed(self, searcher):
        # parser must not lowercase/tokenize keyword values
        q = parse_query("source:Web-Crawl_01")
        assert q == TermQuery("Web-Crawl_01", field="source")

    def test_filter_clause_does_not_change_scores(self, searcher, corpus):
        """+text-term #lang:X ≡ text-term scores restricted to lang X."""
        langs = corpus.column("lang").to_pylist()
        lang = langs[0]
        ids = corpus.column("doc_id").to_pylist()
        in_lang = {d for d, l in zip(ids, langs) if l == lang}
        full = searcher.search("data", k=10**9, mode="exhaustive")
        filt = searcher.search(f"+data #lang:{lang}", k=10**9, mode="exhaustive")
        want = [
            (d, s) for d, s in zip(full["keys"], full["scores"]) if d in in_lang
        ]
        got = list(zip(filt["keys"], filt["scores"]))
        assert got == want

    def test_keyword_must_scores_with_field_stats(self, searcher, corpus):
        """+lang:X scored: w = idf over the lang field's doc_count; norms
        omitted → norm byte 1 against the field avgdl (== 1)."""
        import math

        langs = corpus.column("lang").to_pylist()
        lang = langs[0]
        df = sum(1 for l in langs if l == lang)
        n = len(langs)
        r = searcher.search(f"+lang:{lang}", k=5, mode="exhaustive")
        w = np.float32(math.log(1 + (n - df + 0.5) / (df + 0.5)))
        k1 = np.float32(1.2)
        inv = np.float32(1.0) / (k1 * ((np.float32(1) - np.float32(0.75)) + (np.float32(0.75) * np.float32(1.0)) / np.float32(1.0)))
        want = w - w / (np.float32(1.0) + np.float32(1.0) * inv)
        assert r["scores"][0] == want

    def test_mixed_conjunction_fast_path(self, searcher, corpus):
        """+text +lang:X in auto mode equals exhaustive scoring."""
        lang = corpus.column("lang").to_pylist()[0]
        q = f"+data +lang:{lang}"
        got = searcher.search(q, k=10**9)
        want = searcher.search(q, k=10**9, mode="exhaustive")
        assert got["total_hits"] == want["total_hits"] > 0
        assert got["keys"] == want["keys"]
        assert got["scores"].tobytes() == want["scores"].tobytes()


class TestRangeAndSort:
    def test_range_filter(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        ncs = corpus.column("n_chars").to_pylist()
        lo, hi = 100, 400
        want = sorted(d for d, c in zip(ids, ncs) if lo <= c <= hi)
        r = searcher.search(f"n_chars:[{lo} TO {hi}]", k=10**9, mode="exhaustive")
        assert sorted(r["keys"]) == want
        assert (r["scores"] == np.float32(1.0)).all()

    def test_open_range(self, searcher, corpus):
        ncs = corpus.column("n_chars").to_pylist()
        r = searcher.search("n_chars:[500 TO *]", k=10**9, mode="exhaustive")
        assert len(r["keys"]) == sum(1 for c in ncs if c >= 500)

    def test_range_as_filter_with_text(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        ncs = {d: c for d, c in zip(ids, corpus.column("n_chars").to_pylist())}
        full = searcher.search("data", k=10**9, mode="exhaustive")
        filt = searcher.search("+data #n_chars:[200 TO 600]", k=10**9, mode="exhaustive")
        want = [
            (d, s)
            for d, s in zip(full["keys"], full["scores"])
            if 200 <= ncs[d] <= 600
        ]
        assert list(zip(filt["keys"], filt["scores"])) == want

    def test_sort_by_field(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        ncs = corpus.column("n_chars").to_pylist()
        langs = corpus.column("lang").to_pylist()
        lang = langs[0]
        want = sorted(
            ((c, d) for d, c, l in zip(ids, ncs, langs) if l == lang),
            key=lambda t: (-t[0], t[1]),
        )[:15]
        r = searcher.search_sorted(f"lang:{lang}", "n_chars", k=15)
        assert [(v, d) for v, d in zip(r["sort_values"], r["keys"])] == want

    def test_sort_ascending(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        ncs = corpus.column("n_chars").to_pylist()
        want = sorted(zip(ncs, ids))[:10]
        r = searcher.search_sorted("n_chars:[* TO *]", "n_chars", k=10, descending=False)
        assert [(v, d) for v, d in zip(r["sort_values"], r["keys"])] == want


class TestMergeAndCheck:
    def test_checkindex_clean(self, ray_session, index_dir):
        assert check_index(index_dir) == []

    def test_merge_preserves_fields(self, ray_session, tmp_path, corpus):
        d = str(tmp_path / "mfmerge")
        build_index(DOCS, d, CFG)
        s1 = IndexSearcher(d)
        langs = sorted(set(corpus.column("lang").to_pylist()))
        before = {
            lang: s1.search(f"+data +lang:{lang}", k=20, mode="exhaustive")
            for lang in langs
        }
        sort_before = s1.search_sorted("n_chars:[0 TO *]", "n_chars", k=25)
        force_merge(d, 1)
        s2 = IndexSearcher(d)
        assert len(s2.segments) == 1
        for lang in langs:
            after = s2.search(f"+data +lang:{lang}", k=20, mode="exhaustive")
            assert list(before[lang]["docids"]) == list(after["docids"])
            assert np.array_equal(before[lang]["scores"], after["scores"])
        sort_after = s2.search_sorted("n_chars:[0 TO *]", "n_chars", k=25)
        assert sort_before["keys"] == sort_after["keys"]
        assert sort_before["sort_values"] == sort_after["sort_values"]
        assert check_index(d) == []


class TestStoredDocument:
    """StoredFields.document role: key + stored (DV) columns by global docid."""

    def test_document_roundtrip(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        nchars = corpus.column("n_chars").to_pylist()
        want = dict(zip(ids, nchars))
        r = searcher.search("the", k=5, mode="exhaustive")
        for d in r["docids"]:
            doc = searcher.document(int(d))
            assert set(doc) == {"doc_id", "n_chars"} | {"doc_id"}
            assert doc["n_chars"] == want[doc["doc_id"]]

    def test_document_field_subset_and_range(self, searcher):
        doc = searcher.document(0, fields=("n_chars",))
        assert "n_chars" in doc and "doc_id" in doc
        import pytest as _pt
        with _pt.raises(ValueError):
            searcher.document(10**9)
