"""KnnByteVectorField: byte-vector ingest (vector_encoding="byte"),
exact integer dot-product search, merge survival, deletes masking,
mixed-encoding guard, oracle parity."""
import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.check import check_index
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.index.merge import force_merge
from lucene_ray.index.vectors import byte_dot_topk
from lucene_ray.pipelines.byte_knn import knn_byte, sql_knn_byte, to_byte_codes
from lucene_ray.search.knn_index import knn_search_index_byte

SF = "/root/testdata/sf0.001"


def _mk_index(tmp_path, n=600, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    codes = rng.integers(-128, 128, size=(n, dim)).astype(np.int8)
    bvec = pa.FixedSizeListArray.from_arrays(
        pa.array(codes.reshape(-1), pa.int8()), dim
    ).cast(pa.list_(pa.int8()))
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(["alpha beta"] * n),
            "bvec": bvec,
        }
    )
    src = os.path.join(tmp_path, "docs.parquet")
    pq.write_table(tbl, src)
    idx = os.path.join(tmp_path, "index")
    cfg = IndexConfig(
        rows_per_segment=150, num_buckets=2,
        vector_col="bvec", vector_encoding="byte",
    )
    build_index(src, idx, cfg)
    return idx, codes


def _brute(codes, q, k):
    d = codes.astype(np.int64) @ q.astype(np.int64)
    order = np.lexsort((np.arange(len(codes)), -d))[:k]
    return [(int(d[i]), int(i)) for i in order]


class TestByteIndex:
    def test_search_equals_brute(self, ray_session, tmp_path):
        idx, codes = _mk_index(tmp_path)
        q = codes[:3]
        res = knn_search_index_byte(idx, q, k=7)
        qi = np.asarray(res.column("qi"))
        for j in range(3):
            rows = np.flatnonzero(qi == j)
            got = list(
                zip(
                    np.asarray(res.column("dot"))[rows],
                    np.asarray(res.column("docid"))[rows],
                )
            )
            want = _brute(codes, q[j], 7)
            assert [(int(a), int(b)) for a, b in got] == want

    def test_merge_survival(self, ray_session, tmp_path):
        idx, codes = _mk_index(tmp_path)
        q = codes[:2]
        before = knn_search_index_byte(idx, q, k=5).to_pydict()
        force_merge(idx, max_segments=1)
        assert check_index(idx) == []
        after = knn_search_index_byte(idx, q, k=5).to_pydict()
        assert before["docid"] == after["docid"]
        assert before["dot"] == after["dot"]

    def test_deletes_masked(self, ray_session, tmp_path):
        idx, codes = _mk_index(tmp_path)
        q = codes[:1]
        top = knn_search_index_byte(idx, q, k=3)
        victim = int(top.column("key")[0].as_py())
        delete_by_keys(idx, [victim])
        after = knn_search_index_byte(idx, q, k=3)
        assert victim not in [int(x) for x in after.column("key").to_pylist()]

    def test_mixed_encoding_merge_rejected(self, ray_session, tmp_path):
        # one byte segment + one float segment in the same index → the
        # merge must refuse, not silently drop a sidecar
        idx, codes = _mk_index(tmp_path, n=150)
        rng = np.random.default_rng(0)
        fl = rng.normal(size=(150, 8)).astype(np.float32)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(fl.reshape(-1), pa.float32()), 8
        ).cast(pa.list_(pa.float32()))
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(150, 300), pa.int64()),
                "text": pa.array(["alpha beta"] * 150),
                "bvec": emb,
            }
        )
        src2 = os.path.join(tmp_path, "docs2.parquet")
        pq.write_table(tbl, src2)
        cfg_f = IndexConfig(
            rows_per_segment=150, num_buckets=2, vector_col="bvec"
        )
        build_index(src2, idx, cfg_f)
        with pytest.raises(ValueError, match="mixed byte- and float"):
            force_merge(idx, max_segments=1)

    def test_encoding_validated(self):
        with pytest.raises(ValueError, match="vector_encoding"):
            IndexConfig(vector_col="v", vector_encoding="int4")


class TestByteKernel:
    def test_accept_mask(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(-128, 128, size=(100, 4)).astype(np.int8)
        q = codes[:2]
        accept = np.zeros(100, dtype=bool)
        accept[40:] = True
        res = byte_dot_topk(codes, q, 5, accept=accept)
        for hits in res:
            assert all(r >= 40 for _, r in hits)
        # equals brute over the accepted subset
        d = codes[40:].astype(np.int64) @ q[0].astype(np.int64)
        order = np.lexsort((np.arange(60), -d))[:5]
        want = [(int(d[i]), int(i) + 40) for i in order]
        assert res[0] == want


def _assert_matches_oracle(sf):
    got = knn_byte(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"create view embeddings as select * from "
        f"'{sf}/embeddings.parquet'"
    )
    want = con.execute(sql_knn_byte()).df()
    assert len(got) == len(want) > 0
    for c in ["qid", "rank", "vec_id", "dot", "score"]:
        assert (got[c].values == want[c].values).all(), c


class TestGateOracle:
    def test_matches_oracle(self, ray_session):
        _assert_matches_oracle(SF)

    def test_more_documents_than_embeddings(self, ray_session, tmp_path):
        """Documents without an embedding (sf0.1 holds 5000 documents
        and 2000 embeddings) stay out of the byte index: one vector per
        embedding row."""
        docs = pq.read_table(f"{SF}/documents.parquet")
        extra = docs.slice(0, 100).set_column(
            0, "doc_id", pa.array(np.arange(100) + 10**6, pa.int64())
        )
        pq.write_table(
            pa.concat_tables([docs, extra]), tmp_path / "documents.parquet"
        )
        pq.write_table(
            pq.read_table(f"{SF}/embeddings.parquet"),
            tmp_path / "embeddings.parquet",
        )
        _assert_matches_oracle(str(tmp_path))

    def test_byte_code_rule(self):
        x = np.array([[0.99, -1.2, 0.005, -0.006]])
        assert to_byte_codes(x).tolist() == [[63, -77, 0, -1]]
