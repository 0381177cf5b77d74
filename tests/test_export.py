"""Streaming match-set export sink: per-segment partitioned Parquet,
resume skips finished partitions, rows equal the searcher's match set."""

import os

import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.pipelines.export import export_matches
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("expidx"))
    build_index(DOCS, d, IndexConfig(rows_per_segment=150, num_buckets=2))
    return d


class TestExport:
    def test_rows_match_search(self, index_dir, tmp_path):
        out = str(tmp_path / "out")
        n = export_matches(index_dir, "the data", out)
        s = IndexSearcher(index_dir)
        r = s.search("the data", k=10**6)
        assert n == len(r["keys"])
        files = []
        for part in sorted(os.listdir(out)):
            if not part.startswith("seg="):
                continue  # _query.json resume manifest lives alongside
            files.append(os.path.join(out, part, "part.parquet"))
        t = pq.read_table(files)
        assert sorted(t.column("key").to_pylist()) == sorted(
            int(k) for k in r["keys"]
        )
        # scores agree per key
        got = dict(zip(t.column("key").to_pylist(), t.column("score").to_pylist()))
        want = dict(
            zip((int(k) for k in r["keys"]), (float(x) for x in r["scores"]))
        )
        assert got == want

    def test_resume_skips_finished_partitions(self, index_dir, tmp_path):
        out = str(tmp_path / "out2")
        n1 = export_matches(index_dir, "data", out)
        stamps = {
            p: os.path.getmtime(os.path.join(out, p, "part.parquet"))
            for p in os.listdir(out)
            if p.startswith("seg=")
        }
        n2 = export_matches(index_dir, "data", out)
        assert n1 == n2
        for p, ts in stamps.items():
            assert os.path.getmtime(os.path.join(out, p, "part.parquet")) == ts


class TestExportQueryScopedResume:
    """Resume markers are query-scoped: a partition written by an export
    of a DIFFERENT query into the same out_dir is discarded, not counted
    as done."""

    def test_different_query_partitions_discarded(self, ray_session, tmp_path):
        idx = str(tmp_path / "idx")
        build_index(DOCS, idx, IndexConfig(rows_per_segment=200))

        out = str(tmp_path / "exp")
        n_a = export_matches(idx, "data", out)
        # re-run same query: resume path counts finished partitions
        assert export_matches(idx, "data", out) == n_a

        fresh = str(tmp_path / "exp_fresh")
        n_b_fresh = export_matches(idx, "search", fresh)
        # different query into the SAME dir must not reuse query-A partitions
        n_b = export_matches(idx, "search", out)
        assert n_b == n_b_fresh
        assert n_b != n_a  # distinct match sets, else the test is vacuous
