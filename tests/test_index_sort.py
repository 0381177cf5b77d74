"""Index sort (``IndexWriterConfig.setIndexSort`` / ``Sorter.java``):
segments ordered by a numeric DV field at build AND through merges
(merge-sort doc remap), with early-terminating ``search_sorted``."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.check import check_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.merge import force_merge
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"

SORTED_CFG = IndexConfig(
    rows_per_segment=120,
    keyword_cols=("lang",),
    dv_cols=("n_chars", "doc_id"),
    index_sort=("n_chars", "desc"),
)
PLAIN_CFG = IndexConfig(
    rows_per_segment=120,
    keyword_cols=("lang",),
    dv_cols=("n_chars", "doc_id"),
)


@pytest.fixture(scope="module")
def sorted_idx(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("sortedidx"))
    build_index(DOCS, d, SORTED_CFG)
    return d


@pytest.fixture(scope="module")
def plain_idx(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("plainidx"))
    build_index(DOCS, d, PLAIN_CFG)
    return d


def seg_dv_sorted_desc(idx, field="n_chars"):
    s = IndexSearcher(idx)
    for seg in s.segments:
        vals = np.asarray(seg.dv(field))
        if not (np.diff(vals) <= 0).all():
            return False
    return True


def score_key_multiset(r):
    return sorted(zip([float(s) for s in r["scores"]], r["keys"]))


class TestBuildSort:
    def test_segments_sorted_and_check_green(self, sorted_idx):
        assert seg_dv_sorted_desc(sorted_idx)
        assert check_index(sorted_idx) == []

    def test_stable_ties_keep_doc_order(self, sorted_idx):
        """Within equal n_chars, docids keep original row (doc_id) order."""
        s = IndexSearcher(sorted_idx)
        for seg in s.segments:
            vals = np.asarray(seg.dv("n_chars"))
            dids = np.asarray(seg.dv("doc_id"))
            for i in range(1, len(vals)):
                if vals[i] == vals[i - 1]:
                    assert dids[i] > dids[i - 1]

    def test_bm25_results_equal_plain_index(self, sorted_idx, plain_idx):
        """Per-doc scores are order-independent: same (score, key)
        multiset as the unsorted index."""
        a = IndexSearcher(sorted_idx)
        b = IndexSearcher(plain_idx)
        for q in ["data", "the merge", "+spark +merge", '"batch stream"']:
            ra = a.search(q, k=10**9, mode="exhaustive")
            rb = b.search(q, k=10**9, mode="exhaustive")
            assert score_key_multiset(ra) == score_key_multiset(rb), q

    def test_search_sorted_equals_plain_index(self, sorted_idx, plain_idx):
        a = IndexSearcher(sorted_idx)
        b = IndexSearcher(plain_idx)
        ra = a.search_sorted("#lang:en", "n_chars", k=25, descending=True)
        rb = b.search_sorted("#lang:en", "n_chars", k=25, descending=True)
        assert ra["keys"] == rb["keys"]
        assert ra["sort_values"] == rb["sort_values"]
        assert ra["total_hits"] == rb["total_hits"]

    def test_opposite_direction_falls_back(self, sorted_idx, plain_idx):
        ra = IndexSearcher(sorted_idx).search_sorted(
            "#lang:en", "n_chars", k=25, descending=False
        )
        rb = IndexSearcher(plain_idx).search_sorted(
            "#lang:en", "n_chars", k=25, descending=False
        )
        assert ra["keys"] == rb["keys"]
        assert ra["sort_values"] == rb["sort_values"]

    def test_sort_field_must_be_dv(self, ray_session, tmp_path):
        with pytest.raises(ValueError, match="dv_cols"):
            build_index(
                DOCS,
                str(tmp_path / "bad"),
                IndexConfig(
                    rows_per_segment=120,
                    dv_cols=("doc_id",),
                    index_sort=("n_chars", "desc"),
                ),
            )


class TestMergeSort:
    @pytest.fixture(scope="class")
    def merged_idx(self, ray_session, tmp_path_factory):
        d = str(tmp_path_factory.mktemp("sortedmerge"))
        build_index(DOCS, d, SORTED_CFG)
        force_merge(d, 2)
        return d

    def test_merged_segments_stay_sorted(self, merged_idx):
        s = IndexSearcher(merged_idx)
        assert len(s.segments) < 5  # merge actually happened
        assert seg_dv_sorted_desc(merged_idx)
        assert check_index(merged_idx) == []

    def test_merged_results_equal_unmerged(self, merged_idx, sorted_idx):
        """Scores, keys and phrase/position semantics survive the doc
        remap (positions runs permuted with their postings)."""
        a = IndexSearcher(merged_idx)
        b = IndexSearcher(sorted_idx)
        for q in [
            "data",
            "the merge spark",
            "+batch +stream -window",
            '"batch stream"',
            '"merge sort"',
        ]:
            ra = a.search(q, k=10**9, mode="exhaustive")
            rb = b.search(q, k=10**9, mode="exhaustive")
            assert score_key_multiset(ra) == score_key_multiset(rb), q
            assert ra["total_hits"] == rb["total_hits"], q

    def test_merged_search_sorted(self, merged_idx, sorted_idx):
        ra = IndexSearcher(merged_idx).search_sorted(
            "#lang:en", "n_chars", k=25, descending=True
        )
        rb = IndexSearcher(sorted_idx).search_sorted(
            "#lang:en", "n_chars", k=25, descending=True
        )
        assert ra["keys"] == rb["keys"]
        assert ra["sort_values"] == rb["sort_values"]

    def test_pruned_equals_exhaustive_on_sorted(self, merged_idx):
        s = IndexSearcher(merged_idx)
        a = s.search("data merge", k=10)
        b = s.search("data merge", k=10, mode="exhaustive")
        assert list(a["docids"]) == list(b["docids"])
        assert np.array_equal(a["scores"], b["scores"])

    def test_keyword_and_range_survive(self, merged_idx):
        s = IndexSearcher(merged_idx)
        r = s.search("#lang:en the", k=10**9, mode="exhaustive")
        tbl = pq.read_table(DOCS, columns=["doc_id", "lang"])
        en = {
            k
            for k, v in zip(
                tbl.column("doc_id").to_pylist(), tbl.column("lang").to_pylist()
            )
            if v == "en"
        }
        assert set(int(k) for k in r["keys"]) <= en


class TestStringFieldSort:
    """SortField.STRING over a string DV column: per-segment ordinal
    cut + raw-value global merge must equal a brute-force sort in both
    directions, multi-segment."""

    @pytest.fixture(scope="class")
    def str_searcher(self, ray_session, tmp_path_factory):
        from lucene_ray.index.build import build_index
        from lucene_ray.search.searcher import IndexSearcher

        d = str(tmp_path_factory.mktemp("stridx"))
        build_index(
            DOCS,
            d,
            IndexConfig(rows_per_segment=120, dv_cols=("lang", "n_chars")),
        )
        return IndexSearcher(d)

    @pytest.mark.parametrize("descending", [False, True])
    def test_vs_bruteforce(self, str_searcher, descending):
        import pyarrow.parquet as pq

        tbl = pq.read_table(DOCS, columns=["doc_id", "text", "lang"])
        match = [
            (l, int(d))
            for d, t, l in zip(
                tbl.column("doc_id").to_pylist(),
                tbl.column("text").to_pylist(),
                tbl.column("lang").to_pylist(),
            )
            if "data" in (t or "").split()
        ]
        match.sort(key=lambda x: x[1])
        match.sort(key=lambda x: x[0], reverse=descending)
        r = str_searcher.search_sorted(
            "data", "lang", k=25, descending=descending
        )
        got = list(zip(r["sort_values"], [int(x) for x in r["keys"]]))
        assert got == match[:25]

    def test_after_cursor_strings(self, str_searcher):
        r1 = str_searcher.search_sorted("data", "lang", k=10, descending=False)
        after = (r1["sort_values"][-1], int(r1["docids"][-1]))
        r2 = str_searcher.search_sorted(
            "data", "lang", k=10, descending=False, after=after
        )
        full = str_searcher.search_sorted("data", "lang", k=20, descending=False)
        assert [int(x) for x in r2["keys"]] == [
            int(x) for x in full["keys"][10:20]
        ]


class TestStringIndexSortEarlyTermination:
    """``search_sorted`` on a string-index-sorted index takes the string
    ordinal path, not the numeric early exit (which raised TypeError
    descending and skipped the string merge ascending)."""

    @pytest.fixture(scope="class")
    def indexes(self, ray_session, tmp_path_factory):
        base = tmp_path_factory.mktemp("stridx")
        plain_d = str(base / "plain")
        sorted_d = str(base / "sorted")
        cfg = IndexConfig(rows_per_segment=300, dv_cols=("lang",))
        build_index(DOCS, plain_d, cfg)
        build_index(
            DOCS,
            sorted_d,
            IndexConfig(
                rows_per_segment=300,
                dv_cols=("lang",),
                index_sort=("lang", "asc"),
            ),
        )
        return IndexSearcher(plain_d), IndexSearcher(sorted_d)

    # keys can differ between the two indexes on ties (different docid
    # order), but the ordered top-k VALUE sequence and total are unique

    def test_descending_no_typeerror_and_matches(self, indexes):
        plain, srt = indexes
        a = plain.search_sorted("data", "lang", k=10, descending=True)
        b = srt.search_sorted("data", "lang", k=10, descending=True)
        assert b["sort_values"] == sorted(b["sort_values"], reverse=True)
        assert a["sort_values"] == b["sort_values"]
        assert a["total_hits"] == b["total_hits"]

    def test_ascending_matches_plain(self, indexes):
        plain, srt = indexes
        a = plain.search_sorted("data", "lang", k=10, descending=False)
        b = srt.search_sorted("data", "lang", k=10, descending=False)
        assert b["sort_values"] == sorted(b["sort_values"])
        assert a["sort_values"] == b["sort_values"]
        assert a["total_hits"] == b["total_hits"]
