"""1-D point index (``LongPoint`` / BKD role, ``index/points.py``):
range filters answered by binary search over a sorted memmapped
(value, docid) permutation must be IDENTICAL to the doc-values scan
path, through builds, merges, nulls, timestamps, and bound-normalization
fallbacks."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.check import check_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.merge import force_merge
from lucene_ray.index.points import (
    build_point_files,
    normalize_bound,
    point_range_docids,
)
from lucene_ray.search.query import BooleanQuery, RangeQuery, TermQuery
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"

POINT_CFG = IndexConfig(
    rows_per_segment=120,
    keyword_cols=("lang",),
    dv_cols=("n_chars", "doc_id"),
    point_cols=("n_chars", "doc_id"),
)
SCAN_CFG = IndexConfig(
    rows_per_segment=120,
    keyword_cols=("lang",),
    dv_cols=("n_chars", "doc_id"),
)


@pytest.fixture(scope="module")
def point_idx(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pointidx"))
    build_index(DOCS, d, POINT_CFG)
    return d


@pytest.fixture(scope="module")
def scan_idx(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("scanidx"))
    build_index(DOCS, d, SCAN_CFG)
    return d


def hits(idx_dir, q, k=500):
    r = IndexSearcher(idx_dir).search(q, k=k)
    return sorted(zip(r["keys"], [float(s) for s in r["scores"]]))


RANGES = [
    RangeQuery("n_chars", lo=100, hi=300),
    RangeQuery("n_chars", lo=100, hi=300, include_lo=False),
    RangeQuery("n_chars", lo=100, hi=300, include_hi=False),
    RangeQuery("n_chars", lo=100, hi=300, include_lo=False, include_hi=False),
    RangeQuery("n_chars", lo=None, hi=250),
    RangeQuery("n_chars", lo=250, hi=None),
    RangeQuery("n_chars", lo=None, hi=None),
    RangeQuery("n_chars", lo=-5, hi=0),  # empty
    RangeQuery("doc_id", lo=17, hi=17),  # point lookup
    RangeQuery("n_chars", lo=100.5, hi=300.5),  # fallback: non-integral
]


class TestPointVsScan:
    def test_meta_and_check(self, point_idx):
        s = IndexSearcher(point_idx)
        assert all(
            set(seg.meta["points"]) == {"n_chars", "doc_id"}
            for seg in s.segments
        )
        assert check_index(point_idx) == []

    @pytest.mark.parametrize("q", RANGES, ids=range(len(RANGES)))
    def test_range_results_identical(self, point_idx, scan_idx, q):
        assert hits(point_idx, q) == hits(scan_idx, q)

    def test_point_path_actually_used(self, point_idx):
        s = IndexSearcher(point_idx)
        seg = s.segments[0]
        pi = seg.point_index("n_chars")
        assert pi is not None and len(pi[0]) == seg.n_docs
        assert (np.diff(pi[0]) >= 0).all()
        # and the scan-config index has no sidecar
        assert seg.point_index("lang") is None

    def test_range_never_touches_dv_column(self, point_idx, monkeypatch):
        """With a point sidecar the range path must not read the DV
        column at all (the O(maxDoc) scan is what the index exists to
        avoid)."""
        from lucene_ray.index.segment import SegmentReader

        s = IndexSearcher(point_idx)

        def boom(self, col):
            raise AssertionError(f"DV scan of {col!r} on the point path")

        monkeypatch.setattr(SegmentReader, "dv", boom)
        q = BooleanQuery(
            (
                ("SHOULD", TermQuery("the")),
                ("FILTER", RangeQuery("n_chars", lo=150, hi=400)),
            )
        )
        r = s.search(q, k=5)
        assert len(r["keys"]) > 0

    def test_filtered_bool_query(self, point_idx, scan_idx):
        q = BooleanQuery(
            (
                ("SHOULD", TermQuery("the")),
                ("FILTER", RangeQuery("n_chars", lo=150, hi=400)),
            )
        )
        assert hits(point_idx, q) == hits(scan_idx, q)

    def test_merge_rebuilds_points(self, point_idx, scan_idx, tmp_path):
        import shutil

        d = str(tmp_path / "merged")
        shutil.copytree(point_idx, d)
        force_merge(d, max_segments=1)
        s = IndexSearcher(d)
        assert len(s.segments) == 1
        assert set(s.segments[0].meta["points"]) == {"n_chars", "doc_id"}
        assert check_index(d) == []
        for q in RANGES:
            assert hits(d, q) == hits(scan_idx, q)


class TestNullsAndTimestamps:
    @pytest.fixture(scope="class")
    def ts_idx(self, ray_session, tmp_path_factory):
        """Inline corpus: timestamp point col + an int col with nulls."""
        rng = np.random.default_rng(7)
        n = 240
        base = np.datetime64("2024-01-01T00:00:00", "us")
        ts = base + rng.integers(0, 10**9, n).astype("timedelta64[us]")
        n_tok = rng.integers(1, 50, n)
        nullable = [int(v) if v % 3 else None for v in rng.integers(0, 90, n)]
        tbl = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(
                    [f"alpha beta doc{i % 7}" for i in range(n)]
                ),
                "warc_ts": pa.array(ts, pa.timestamp("us")),
                "n_tok": pa.array(n_tok, pa.int64()),
                "maybe": pa.array(nullable, pa.int64()),
            }
        )
        root = tmp_path_factory.mktemp("tscorpus")
        src = str(root / "docs.parquet")
        pq.write_table(tbl, src)
        pdir, sdir = str(root / "pidx"), str(root / "sidx")
        cols = ("warc_ts", "n_tok", "maybe")
        build_index(
            src,
            pdir,
            IndexConfig(rows_per_segment=100, dv_cols=cols, point_cols=cols),
        )
        build_index(
            src, sdir, IndexConfig(rows_per_segment=100, dv_cols=cols)
        )
        return pdir, sdir

    def test_check_green(self, ts_idx):
        assert check_index(ts_idx[0]) == []

    def test_timestamp_range_identical(self, ts_idx):
        pdir, sdir = ts_idx
        lo = np.datetime64("2024-01-03T00:00:00", "us")
        hi = np.datetime64("2024-01-08T12:00:00", "us")
        for q in (
            RangeQuery("warc_ts", lo=lo, hi=hi),
            RangeQuery("warc_ts", lo=lo, hi=None, include_lo=False),
            RangeQuery("warc_ts", lo=None, hi=hi, include_hi=False),
        ):
            assert hits(pdir, q) == hits(sdir, q)

    def test_nullable_col_identical(self, ts_idx):
        pdir, sdir = ts_idx
        for q in (
            RangeQuery("maybe", lo=10, hi=60),
            RangeQuery("maybe", lo=None, hi=None),  # matches non-null only
        ):
            assert hits(pdir, q) == hits(sdir, q)

    @pytest.mark.parametrize("desc", [True, False])
    def test_timestamp_field_sort(self, ts_idx, desc):
        """'latest N pages by warc_ts' — field sort over a TIMESTAMP DV
        column, walk path vs scan path identical (datetime64 keys sort
        via the order-preserving int64 view)."""
        pdir, sdir = ts_idx
        a = IndexSearcher(pdir).search_sorted(
            "alpha", "warc_ts", k=9, descending=desc, point_walk_min=0
        )
        b = IndexSearcher(sdir).search_sorted(
            "alpha", "warc_ts", k=9, descending=desc
        )
        assert a["keys"] == b["keys"]
        assert [str(v) for v in a["sort_values"]] == [
            str(v) for v in b["sort_values"]
        ]
        vals = np.array(a["sort_values"], dtype="datetime64[us]")
        diffs = np.diff(vals.view("i8"))
        assert (diffs <= 0).all() if desc else (diffs >= 0).all()

    @pytest.mark.parametrize("desc", [True, False])
    def test_nullable_int_sort_via_maybe(self, ts_idx, desc):
        """Sort by the nullable INT column: both paths must agree (the
        point sidecar drops nulls; ints with nulls come back as float64
        with NaN from arrow→numpy, whose keys sort last)."""
        pdir, sdir = ts_idx
        a = IndexSearcher(pdir).search_sorted(
            "alpha", "maybe", k=8, descending=desc, point_walk_min=0
        )
        b = IndexSearcher(sdir).search_sorted(
            "alpha", "maybe", k=8, descending=desc
        )
        assert a["keys"] == b["keys"]

    @pytest.mark.parametrize("desc", [True, False])
    def test_nullable_timestamp_sort_excludes_nat(
        self, ray_session, tmp_path, desc
    ):
        """Null timestamps carry no sort key: excluded on BOTH paths —
        NaT views as INT64_MIN and would otherwise rank FIRST under
        descending negation (round-2 review finding)."""
        base = np.datetime64("2024-01-01", "us")
        ts = [base + np.timedelta64(i, "h") if i % 4 else None for i in range(200)]
        tbl = pa.table(
            {
                "doc_id": pa.array(range(200), pa.int64()),
                "text": pa.array(["alpha beta"] * 200),
                "when": pa.array(ts, pa.timestamp("us")),
            }
        )
        src = str(tmp_path / "nt.parquet")
        pq.write_table(tbl, src)
        pdir, sdir = str(tmp_path / "p"), str(tmp_path / "s")
        build_index(src, pdir, IndexConfig(
            rows_per_segment=80, dv_cols=("when",), point_cols=("when",)))
        build_index(src, sdir, IndexConfig(
            rows_per_segment=80, dv_cols=("when",)))
        a = IndexSearcher(pdir).search_sorted(
            "alpha", "when", k=10, descending=desc, point_walk_min=0
        )
        b = IndexSearcher(sdir).search_sorted(
            "alpha", "when", k=10, descending=desc
        )
        assert a["keys"] == b["keys"]
        assert all(v is not None for v in b["sort_values"])
        assert not any(int(k_) % 4 == 0 for k_ in b["keys"])  # nulls out

    def test_point_doc_sets_exclude_nulls(self, ts_idx):
        s = IndexSearcher(ts_idx[0])
        for seg in s.segments:
            vals, docs, info = seg.point_index("maybe")
            import pyarrow.compute as pc

            want = np.flatnonzero(np.asarray(pc.is_valid(seg.dv("maybe"))))
            assert np.array_equal(np.sort(np.asarray(docs)), want)
            assert info["kind"] == "i64"


class TestSortedWalk:
    """Point-based competitive iterator for field sort
    (``NumericComparator`` role): identical results to the
    gather-and-sort path, including docid tie-breaks."""

    @pytest.mark.parametrize("desc", [True, False])
    @pytest.mark.parametrize("q", ["the", "#lang:en", "*:*"])
    def test_sort_identical(self, point_idx, scan_idx, q, desc):
        from lucene_ray.search.query import MatchAllQuery

        query = MatchAllQuery() if q == "*:*" else q
        for k in (1, 7, 25):
            a = IndexSearcher(point_idx).search_sorted(
                query, "n_chars", k=k, descending=desc, point_walk_min=0
            )
            b = IndexSearcher(scan_idx).search_sorted(
                query, "n_chars", k=k, descending=desc
            )
            assert a["keys"] == b["keys"]
            assert a["sort_values"] == b["sort_values"]
            assert a["total_hits"] == b["total_hits"]

    @pytest.mark.parametrize("desc", [True, False])
    @pytest.mark.parametrize("q", ["the", "#lang:en"])
    def test_search_after_pages(self, point_idx, scan_idx, q, desc):
        """searchAfter for field sort: paging through the full ranking k
        at a time (walk path, with cursor seek) must reproduce the
        one-shot full ranking, and must match the scan path page by
        page. n_chars has many ties → exercises the docid tie rules."""
        full = IndexSearcher(scan_idx).search_sorted(
            q, "n_chars", k=10**6, descending=desc
        )
        want = list(zip(full["keys"], full["sort_values"], full["docids"]))
        for idx_dir, walk_min in ((point_idx, 0), (scan_idx, 1024)):
            s = IndexSearcher(idx_dir)
            got, after, k = [], None, 7
            while True:
                r = s.search_sorted(
                    q, "n_chars", k=k, descending=desc,
                    point_walk_min=walk_min, after=after,
                )
                if not r["keys"]:
                    break
                got.extend(
                    zip(r["keys"], r["sort_values"], r["docids"])
                )
                after = (r["sort_values"][-1], int(r["docids"][-1]))
            assert [g[:2] for g in got] == [w[:2] for w in want]
            assert [int(g[2]) for g in got] == [int(w[2]) for w in want]

    @pytest.mark.parametrize("d1", ["desc", "asc"])
    @pytest.mark.parametrize("d2", ["desc", "asc"])
    def test_multi_sort_walk_equals_scan(self, point_idx, scan_idx, d1, d2):
        """Multi-field sort: primary point-walk pruning (superset pool)
        must equal the full gather+sort, for every direction combo.
        n_chars is tie-heavy so the secondary field decides often."""
        spec = (("n_chars", d1), ("doc_id", d2))
        for q in ("the", "#lang:en"):
            a = IndexSearcher(point_idx).search_sorted_multi(
                q, spec, k=15, point_walk_min=0
            )
            b = IndexSearcher(scan_idx).search_sorted_multi(
                q, spec, k=15
            )
            assert a["keys"] == b["keys"]
            assert a["sort_values"] == b["sort_values"]

    @pytest.mark.parametrize("desc", [True, False])
    def test_kernel_tie_heavy(self, desc):
        """Random fuzz with few distinct values (ties span chunks)."""
        from lucene_ray.index.points import sorted_topk_candidates

        rng = np.random.default_rng(23)
        for trial in range(40):
            n = int(rng.integers(1, 3000))
            vals = rng.integers(0, 5, n).astype(np.int64)
            order = np.argsort(vals, kind="stable")
            docs = np.arange(n, dtype=np.uint32)[order]
            svals = vals[order]
            m = int(rng.integers(1, n + 1))
            match = np.sort(
                rng.choice(n, size=m, replace=False).astype(np.uint32)
            )
            k = int(rng.integers(1, 20))
            cv, cd = sorted_topk_candidates(svals, docs, match, k, desc)
            ck = -cv if desc else cv
            got = [
                (int(cd[i]), int(cv[i]))
                for i in np.lexsort((cd, ck))[:k]
            ]
            mv = vals[match]
            mk = -mv if desc else mv
            want = [
                (int(match[i]), int(mv[i]))
                for i in np.lexsort((match, mk))[:k]
            ]
            assert got == want, (trial, n, m, k, desc)


class TestReviewRegressions:
    """Confirmed round-2 self-review findings."""

    def test_nan_float_column_skips_sidecar(self, ray_session, tmp_path):
        """A float point column containing NaN gets NO sidecar (NaN
        breaks the binary search's total order AND the scan path's NaN
        semantics can't be sliced) — every query keeps scan semantics."""
        tbl = pa.table(
            {
                "doc_id": pa.array(range(5), pa.int64()),
                "text": pa.array(["alpha beta"] * 5),
                "score": pa.array(
                    [1.0, float("nan"), 3.0, None, 2.0], pa.float64()
                ),
            }
        )
        src = str(tmp_path / "nan.parquet")
        pq.write_table(tbl, src)
        d = str(tmp_path / "nanidx")
        build_index(
            src,
            d,
            IndexConfig(dv_cols=("score",), point_cols=("score",)),
        )
        s = IndexSearcher(d)
        assert all(
            seg.point_index("score") is None for seg in s.segments
        )
        assert check_index(d) == []
        r = s.search(RangeQuery("score", lo=2.0, hi=None), k=10)
        assert sorted(r["keys"]) == [2, 4]  # NaN and null excluded

    def test_bound_types_scan_parity(self):
        """normalize_bound must REJECT bound types the pyarrow compare
        kernels reject, so behavior never depends on sidecar presence."""
        assert normalize_bound(True, {"kind": "f64", "type": "double"}) not in (
            1.0,
            1,
        )
        assert not isinstance(
            normalize_bound(True, {"kind": "i64", "type": "int64"}), int
        )
        # raw int on a timestamp column: arrow has no such compare kernel
        got = normalize_bound(5, {"kind": "i64", "type": "timestamp[us]"})
        assert not isinstance(got, int)
        # datetime-likes still normalize
        import datetime

        assert (
            normalize_bound(
                datetime.datetime(1970, 1, 1, 0, 0, 1),
                {"kind": "i64", "type": "timestamp[us]"},
            )
            == 1_000_000
        )


class TestKernel:
    def test_normalize_bound_fallbacks(self):
        info = {"kind": "i64", "type": "int64"}
        assert normalize_bound(None, info) is None
        assert normalize_bound(7, info) == 7
        assert normalize_bound(7.0, info) == 7
        sentinel = normalize_bound(7.5, info)
        assert sentinel is not None and not isinstance(sentinel, int)
        tsinfo = {"kind": "i64", "type": "timestamp[us]"}
        got = normalize_bound(np.datetime64("1970-01-01T00:00:01", "us"), tsinfo)
        assert got == 1_000_000

    def test_build_and_search_roundtrip(self):
        tbl = pa.table({"v": pa.array([5, 1, None, 3, 3, 9], pa.int64())})
        (vb, db, info), = build_point_files(tbl, ["v"]).values()
        vals = np.frombuffer(vb, np.int64)
        docs = np.frombuffer(db, np.uint32)
        assert vals.tolist() == [1, 3, 3, 5, 9]
        assert docs.tolist() == [1, 3, 4, 0, 5]  # stable on ties
        got = point_range_docids(vals, docs, 3, 5, True, True, info)
        assert got.tolist() == [0, 3, 4]
        got = point_range_docids(vals, docs, 3, 5, False, False, info)
        assert got.tolist() == []
        assert point_range_docids(vals, docs, 2.5, None, True, True, info) is None
