"""SearcherService (persistent serving pool) parity with search_dataset."""

import pyarrow as pa
import pytest
import ray
import ray.data

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.search.searcher import IndexSearcher, search_dataset
from lucene_ray.search.service import SearcherService

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("svcidx"))
    build_index(DOCS, d, IndexConfig(rows_per_segment=200))
    return d


QUERIES = ["data", "the model", "+data +model", '"the data"', "zzz_nohit"]


def test_service_matches_dataset_surface(index_dir):
    svc = SearcherService(index_dir, num_actors=2, k=5)
    svc.warmup(QUERIES[:2])
    got = svc.search(list(range(len(QUERIES))), QUERIES, batch_size=2)
    svc.shutdown()

    qds = ray.data.from_items(
        [{"qid": i, "query": q} for i, q in enumerate(QUERIES)]
    )
    want_rows = (
        search_dataset(index_dir, qds, k=5, concurrency=2)
        .sort(["qid", "rank"])
        .take_all()
    )
    got_rows = sorted(
        got.to_pylist(), key=lambda r: (r["qid"], r["rank"])
    )
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows, want_rows):
        assert g["qid"] == w["qid"] and g["rank"] == w["rank"]
        assert g["docid"] == w["docid"]
        assert g["score"] == pytest.approx(w["score"], rel=0, abs=0)


def test_service_heterogeneous_batch_sizes(index_dir):
    svc = SearcherService(index_dir, num_actors=1, k=3)
    t = svc.search([7, 8], ["data", "data"], batch_size=1)
    svc.shutdown()
    rows = t.to_pylist()
    by_qid = {}
    for r in rows:
        by_qid.setdefault(r["qid"], []).append(r)
    assert set(by_qid) == {7, 8}
    # identical query → identical ranked docids on both shards
    assert [r["docid"] for r in by_qid[7]] == [r["docid"] for r in by_qid[8]]


def test_maybe_refresh_picks_up_new_generation(ray_session, tmp_path):
    """SearcherManager.maybeRefresh role: the pool reopens over a newer
    commit generation and serves the newly indexed docs; without a new
    commit, refresh is a no-op."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(DOCS)
    p1 = str(tmp_path / "a.parquet")
    p2 = str(tmp_path / "b.parquet")
    pq.write_table(tbl.slice(0, 250), p1)
    pq.write_table(tbl.slice(250), p2)
    d = str(tmp_path / "idx")
    cfg = IndexConfig(rows_per_segment=200)
    build_index([p1], d, cfg)

    svc = SearcherService(d, num_actors=2, k=500)
    assert svc.maybe_refresh() is False  # same generation: no-op
    before = {r["key"] for r in svc.search([0], ["the"]).to_pylist()}
    assert before and max(int(k) for k in before) < 250

    # second commit: resumable build covers the remaining rows and
    # commits a higher manifest generation (segments are write-once)
    build_index([p1, p2], d, cfg)
    assert svc.maybe_refresh() is True
    after = {r["key"] for r in svc.search([0], ["the"]).to_pylist()}
    svc.shutdown()
    assert before <= after
    assert any(int(k) >= 250 for k in after)


BATCH_SCHEMA = pa.schema(
    [
        ("qid", pa.int64()),
        ("rank", pa.int32()),
        ("key", pa.int64()),  # the corpus's doc_id column
        ("docid", pa.int64()),
        ("score", pa.float32()),
    ]
)


def test_search_batch_schema_and_rows(index_dir):
    """``search_batch``: one row per (qid, rank) under one schema, whether
    the batch has hits or none; rows equal per-query ``search``."""
    s = IndexSearcher(index_dir)
    qids = [7, 3, 11, 5, 9]
    t = s.search_batch(qids, QUERIES, k=5)
    assert t.schema == BATCH_SCHEMA
    want = []
    for qid, q in zip(qids, QUERIES):
        r = s.search(q, 5)
        want += [
            {"qid": qid, "rank": i, "key": key, "docid": int(d), "score": float(sc)}
            for i, (key, d, sc) in enumerate(zip(r["keys"], r["docids"], r["scores"]))
        ]
    assert t.to_pylist() == want and t.num_rows > 5
    empty = s.search_batch([1, 2], ["zzz_nohit", "zzz_nohit zzz_other"], k=5)
    assert empty.schema == BATCH_SCHEMA and empty.num_rows == 0


def test_empty_search_has_the_result_schema(index_dir):
    """``SearcherService.search`` with no queries returns an empty table
    with the schema of every other call."""
    svc = SearcherService(index_dir, num_actors=2, k=5)
    empty = svc.search([], [])
    hits = svc.search([0, 1], ["data", "zzz_nohit"])
    svc.shutdown()
    assert empty.num_rows == 0 and hits.num_rows > 0
    assert empty.schema == hits.schema == BATCH_SCHEMA
