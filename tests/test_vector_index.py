"""Index-resident vectors: per-segment graph storage, KNN with live-doc
masking, merge rebuild, checksum coverage, string keys, and the
add_indexes / merge guards against mixed vector segments."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.add_indexes import add_indexes
from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.manifest import load_manifest, segment_dir
from lucene_ray.index.merge import force_merge
from lucene_ray.index.vectors import VECTORS_FILE
from lucene_ray.search.knn_index import knn_search_index

DIM = 16
N = 200


def _mk_input(root) -> str:
    rng = np.random.default_rng(5)
    v = rng.normal(size=(N, DIM)).astype(np.float32)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(N), pa.int64()),
            "text": pa.array([f"doc number {i} data" for i in range(N)]),
            "embedding": pa.array(
                [row.tolist() for row in v], pa.list_(pa.float32())
            ),
        }
    )
    src = str(root / "docs.parquet")
    pq.write_table(tbl, src)
    return src


def _write_vec_corpus(path: str, n: int = 60, dim: int = 8, str_keys=False):
    rng = np.random.default_rng(7)
    keys = (
        [f"doc-{i:04d}" for i in range(n)]
        if str_keys
        else list(range(n))
    )
    emb = rng.standard_normal((n, dim)).astype(np.float32)
    tbl = pa.table(
        {
            "doc_id": pa.array(keys),
            "text": pa.array([f"alpha beta doc {i} gamma" for i in range(n)]),
            "embedding": pa.array(list(emb), pa.list_(pa.float32())),
        }
    )
    pq.write_table(tbl, path)
    return emb


CFG = IndexConfig(rows_per_segment=64, num_buckets=1, vector_col="embedding")


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("vecidx")
    src = _mk_input(root)
    d = str(root / "idx")
    build_index(src, d, CFG)
    return d, src


def _brute(src, qv, k, exclude=()):
    t = pq.read_table(src)
    m = np.asarray(t.column("embedding").combine_chunks().values).reshape(
        len(t), DIM
    ).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = np.asarray(qv, dtype=np.float64)
    q = q / np.linalg.norm(q)
    sims = m @ q
    bp = np.floor(sims * 10000 + 0.5).astype(np.int64)
    for e in exclude:
        bp[e] = np.iinfo(np.int64).min
    order = np.lexsort((np.arange(len(m)), -bp))[:k]
    return list(order)


class TestVectorIndex:
    def test_segments_carry_vectors(self, idx):
        d, _ = idx
        man = load_manifest(d)
        assert all(s.get("vectors") for s in man.segments)
        for s in man.segments:
            sd = segment_dir(d, s["seg_id"])
            assert os.path.exists(os.path.join(sd, VECTORS_FILE))
            assert VECTORS_FILE in s["checksums"]
            assert s["vectors"]["dim"] == DIM

    def test_knn_recall_vs_brute(self, idx):
        d, src = idx
        t = pq.read_table(src)
        qm = np.asarray(
            t.column("embedding").combine_chunks().values
        ).reshape(len(t), DIM)[[0, 7, 33]]
        res = knn_search_index(d, qm, k=10)
        hits = total = 0
        for qi in range(3):
            got = [
                k
                for q, k in zip(
                    res.column("qi").to_pylist(), res.column("key").to_pylist()
                )
                if q == qi
            ]
            truth = _brute(src, qm[qi], 10)
            hits += len(set(got) & set(truth))
            total += 10
        assert hits / total >= 0.9, f"recall {hits / total:.2f}"

    def test_self_hit_rank0(self, idx):
        d, src = idx
        t = pq.read_table(src)
        qm = np.asarray(
            t.column("embedding").combine_chunks().values
        ).reshape(len(t), DIM)[[42]]
        res = knn_search_index(d, qm, k=5).to_pydict()
        assert res["key"][0] == 42 and res["sim_bp"][0] == 10000

    def test_deleted_docs_masked(self, ray_session, tmp_path_factory):
        from lucene_ray.index.deletes import delete_by_keys

        root = tmp_path_factory.mktemp("vecdel")
        src = _mk_input(root)
        d = str(root / "idx")
        build_index(src, d, CFG)
        t = pq.read_table(src)
        qm = np.asarray(
            t.column("embedding").combine_chunks().values
        ).reshape(len(t), DIM)[[42]]
        before = knn_search_index(d, qm, k=5).to_pydict()
        assert before["key"][0] == 42
        delete_by_keys(d, [42])
        after = knn_search_index(d, qm, k=5).to_pydict()
        assert 42 not in after["key"]
        truth = _brute(src, qm[0], 5, exclude=[42])
        # graph + exact fallback should track the brute ranking closely
        assert len(set(after["key"]) & set(truth)) >= 4

    def test_merge_rebuilds_graph(self, ray_session, tmp_path_factory):
        root = tmp_path_factory.mktemp("vecmerge")
        src = _mk_input(root)
        d = str(root / "idx")
        build_index(src, d, CFG)
        man = load_manifest(d)
        assert len(man.segments) >= 2
        force_merge(d, max_segments=1)
        man2 = load_manifest(d)
        merged = [s for s in man2.segments if s.get("merged_from")]
        assert merged and merged[0]["vectors"]["count"] == N
        t = pq.read_table(src)
        qm = np.asarray(
            t.column("embedding").combine_chunks().values
        ).reshape(len(t), DIM)[[10]]
        res = knn_search_index(d, qm, k=5).to_pydict()
        assert res["key"][0] == 10

    def test_pipeline_entry(self, ray_session):
        from lucene_ray.pipelines.vector_index import knn_index_resident

        t = knn_index_resident("/root/testdata/sf0.001")
        assert t.column_names == ["qid", "rank", "vec_id", "sim_bp"]
        assert t.num_rows > 0
        r0 = t.to_pydict()
        assert r0["vec_id"][0] == r0["qid"][0] and r0["sim_bp"][0] == 10000


class TestAddIndexesVectorCol:
    def test_vector_col_mismatch_rejected(self, ray_session, tmp_path):
        src = str(tmp_path / "p.parquet")
        _write_vec_corpus(src)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        build_index(
            src,
            a,
            IndexConfig(
                rows_per_segment=30, num_buckets=2, vector_col="embedding"
            ),
        )
        build_index(src, b, IndexConfig(rows_per_segment=30, num_buckets=2))
        with pytest.raises(ValueError, match="vector_col"):
            add_indexes(a, [b])


class TestMixedVectorMerge:
    def test_merge_refuses_mixed_vector_segments(self, ray_session, tmp_path):
        src = str(tmp_path / "p.parquet")
        _write_vec_corpus(src)
        idx = str(tmp_path / "idx")
        build_index(
            src,
            idx,
            IndexConfig(
                rows_per_segment=30, num_buckets=2, vector_col="embedding"
            ),
        )
        # simulate a corrupt/legacy adoption: strip one segment's vectors
        segs = sorted(
            s
            for s in os.listdir(os.path.join(idx, "segments"))
            if s.startswith("seg_")
        )
        assert len(segs) >= 2
        victim = os.path.join(idx, "segments", segs[0])
        mp = os.path.join(victim, "meta.json")
        with open(mp) as f:
            meta = json.load(f)
        assert meta.get("vectors")
        del meta["vectors"]
        with open(mp, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError, match="mixed vector"):
            force_merge(idx, max_segments=1)


class TestStringKeyKnn:
    def test_knn_index_string_keys(self, ray_session, tmp_path):
        src = str(tmp_path / "p.parquet")
        emb = _write_vec_corpus(src, str_keys=True)
        idx = str(tmp_path / "idx")
        build_index(
            src,
            idx,
            IndexConfig(
                rows_per_segment=30, num_buckets=2, vector_col="embedding"
            ),
        )
        q = emb[:2].astype(np.float64)
        res = knn_search_index(idx, q, k=3, exact=True)
        assert res.num_rows == 6
        assert res.column("key").type == pa.string()
        keys = res.column("key").to_pylist()
        assert all(k.startswith("doc-") for k in keys)
        # a query identical to a stored vector must rank it first
        by_q = {}
        for r in res.to_pylist():
            by_q.setdefault(r["qi"], []).append(r)
        assert by_q[0][0]["key"] == "doc-0000"
        assert by_q[1][0]["key"] == "doc-0001"
