"""SORTED_SET multi-valued doc values: ingest kernel semantics (per-doc
dedup + sort — ``core/index/SortedSetDocValuesWriter.java``), facet
counting over list DV columns
(``lucene/facet/.../SortedSetDocValuesFacetCounts.java``: one count per
matching doc per set value), and merge survival (facets over a merged
index == facets over the unmerged segments)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.merge import force_merge
from lucene_ray.index.segment import normalize_sorted_set_dv
from lucene_ray.pipelines.facet_multi import TAG_MIN_LEN, TAG_TOKENS, derive_tags
from lucene_ray.search.searcher import IndexSearcher


class TestDeriveTags:
    def test_dedup_sort_minlen_window(self):
        tbl = pa.table(
            {
                "doc_id": [0, 1, 2],
                "text": [
                    "zebra apple zebra apple bb zebra apple zebra IGNORED",
                    "a bb ccc",
                    "",
                ],
            }
        )
        out = derive_tags(tbl)
        tags = out.column("tags").to_pylist()
        # doc 0: first 8 tokens = zebra apple ×4; deduped + sorted;
        # "IGNORED" is the 9th token and outside the window
        assert tags[0] == ["apple", "zebra"]
        # doc 1: every token shorter than TAG_MIN_LEN
        assert tags[1] == []
        assert tags[2] == []
        assert TAG_TOKENS == 8 and TAG_MIN_LEN == 4

    def test_all_empty_batch(self):
        tbl = pa.table({"doc_id": [0, 1], "text": ["a b", "c"]})
        out = derive_tags(tbl)
        assert out.column("tags").to_pylist() == [[], []]


def _build_mv(tmp_path, rows_per_segment=40):
    n = 120
    rng = np.random.default_rng(3)
    vocab = ["alpha", "bravo", "charlie", "delta", "data"]
    texts, tags, nums = [], [], []
    for i in range(n):
        words = list(rng.choice(vocab, size=6))
        texts.append(" ".join(words))
        tags.append(sorted({w for w in words if len(w) >= 4}))
        nums.append(sorted({int(x) for x in rng.integers(0, 5, size=3)}))
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": texts,
            "tags": pa.array(tags, pa.list_(pa.string())),
            "nums": pa.array(nums, pa.list_(pa.int64())),
        }
    )
    src = str(tmp_path / "docs.parquet")
    pq.write_table(tbl, src)
    idx = str(tmp_path / "idx")
    build_index(
        src,
        idx,
        IndexConfig(
            rows_per_segment=rows_per_segment,
            num_buckets=2,
            dv_cols=("tags", "nums"),
        ),
    )
    return idx, tbl


class TestSortedSetFacets:
    def test_facet_counts_list_string(self, ray_session, tmp_path):
        idx, tbl = _build_mv(tmp_path)
        s = IndexSearcher(idx)
        got = s.facet_counts("data", "tags")
        # oracle: docs whose text contains 'data', one count per set value
        want = {}
        for text, tags in zip(
            tbl.column("text").to_pylist(), tbl.column("tags").to_pylist()
        ):
            if "data" in text.split():
                for t in tags:
                    want[t] = want.get(t, 0) + 1
        got_d = dict(
            zip(got.column("value").to_pylist(), got.column("n").to_pylist())
        )
        assert got_d == want
        # sorted (n desc, value asc)
        rows = list(zip(got.column("n").to_pylist(), got.column("value").to_pylist()))
        assert rows == sorted(rows, key=lambda r: (-r[0], r[1]))

    def test_facet_counts_list_numeric(self, ray_session, tmp_path):
        idx, tbl = _build_mv(tmp_path)
        s = IndexSearcher(idx)
        got = s.facet_counts("alpha", "nums")
        want = {}
        for text, nums in zip(
            tbl.column("text").to_pylist(), tbl.column("nums").to_pylist()
        ):
            if "alpha" in text.split():
                for v in nums:
                    want[v] = want.get(v, 0) + 1
        got_d = dict(
            zip(got.column("value").to_pylist(), got.column("n").to_pylist())
        )
        assert got_d == want

    def test_merge_survival(self, ray_session, tmp_path):
        idx, _ = _build_mv(tmp_path, rows_per_segment=25)
        s = IndexSearcher(idx)
        assert len(s.segments) > 1
        before = s.facet_counts("data", "tags")
        force_merge(idx, max_segments=1)
        s2 = IndexSearcher(idx)
        assert len(s2.segments) == 1
        after = s2.facet_counts("data", "tags")
        assert before.equals(after)


class TestSortedSetDVNormalize:
    """List-typed DV columns get the ``SortedSetDocValuesWriter``
    discipline (per-doc dedup + sort) at segment-write time, so
    ``facet_counts`` counts a doc once per distinct value even when the
    caller supplies duplicates."""

    def test_dedup_and_sort(self):
        t = pa.table(
            {
                "tags": pa.array(
                    [["b", "a", "b", "a"], ["z"], [], None],
                    pa.list_(pa.string()),
                ),
                "plain": pa.array([1, 2, 3, 4], pa.int64()),
            }
        )
        out = normalize_sorted_set_dv(t)
        assert out.column("tags").to_pylist() == [["a", "b"], ["z"], [], []]
        # non-list columns untouched
        assert out.column("plain").to_pylist() == [1, 2, 3, 4]

    def test_numeric_lists(self):
        t = pa.table(
            {"nums": pa.array([[3, 1, 3, 2], [5, 5]], pa.list_(pa.int64()))}
        )
        out = normalize_sorted_set_dv(t)
        assert out.column("nums").to_pylist() == [[1, 2, 3], [5]]

    def test_all_empty(self):
        t = pa.table({"x": pa.array([[], []], pa.list_(pa.string()))})
        out = normalize_sorted_set_dv(t)
        assert out.column("x").to_pylist() == [[], []]

    def test_facet_counts_dedup_duplicates_at_build(self, ray_session, tmp_path):
        # duplicates supplied by the CALLER must count once per doc
        # (SortedSetDocValuesFacetCounts semantics)
        n = 30
        tbl = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": ["data point"] * n,
                "tags": pa.array(
                    [["dup", "dup", "other"]] * n, pa.list_(pa.string())
                ),
            }
        )
        src = str(tmp_path / "docs.parquet")
        pq.write_table(tbl, src)
        idx = str(tmp_path / "idx")
        build_index(
            src,
            idx,
            IndexConfig(rows_per_segment=15, num_buckets=2, dv_cols=("tags",)),
        )
        s = IndexSearcher(idx)
        got = dict(
            zip(
                s.facet_counts("data", "tags").column("value").to_pylist(),
                s.facet_counts("data", "tags").column("n").to_pylist(),
            )
        )
        assert got == {"dup": n, "other": n}
