"""Regression tests for the round-3 ADVICE findings (fixed in round 4).

1. ``add_indexes`` refuses num_buckets mismatches (merge assumes uniform
   part counts).
2. ``_adopt_one``'s idempotency check verifies lineage + base_docid
   before reusing a pre-existing segment dir (a stale retry rebuilds).

The vector findings of that round (vector_col mismatch, mixed vector
merge, string keys in ``knn_search_index``) are tested in
``tests/test_vector_index.py``.
"""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.add_indexes import _adopt_one, add_indexes
from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig


def _write_vec_corpus(path: str, n: int = 60, dim: int = 8):
    rng = np.random.default_rng(7)
    keys = list(range(n))
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


class TestAddIndexesCompat:
    def test_num_buckets_mismatch_rejected(self, ray_session, tmp_path):
        src = str(tmp_path / "p.parquet")
        _write_vec_corpus(src)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        build_index(src, a, IndexConfig(rows_per_segment=30, num_buckets=2))
        build_index(src, b, IndexConfig(rows_per_segment=30, num_buckets=4))
        with pytest.raises(ValueError, match="num_buckets"):
            add_indexes(a, [b])


class TestAdoptIdempotency:
    def test_stale_adoption_rebuilt(self, ray_session, tmp_path):
        src = str(tmp_path / "p.parquet")
        _write_vec_corpus(src)
        a = str(tmp_path / "a")
        build_index(src, a, IndexConfig(rows_per_segment=30, num_buckets=2))
        seg0 = os.path.join(
            a,
            "segments",
            sorted(
                s
                for s in os.listdir(os.path.join(a, "segments"))
                if s.startswith("seg_")
            )[0],
        )
        dest = str(tmp_path / "dest")
        # first adoption
        m1 = _adopt_one(seg0, dest, 7, 100)
        assert m1["base_docid"] == 100
        # same retry → reused verbatim
        m2 = _adopt_one(seg0, dest, 7, 100)
        assert m2 == m1
        # retry with a DIFFERENT base (dest changed between attempts)
        # must rebuild, not return the stale meta
        m3 = _adopt_one(seg0, dest, 7, 250)
        assert m3["base_docid"] == 250
        with open(
            os.path.join(dest, "segments", "seg_000007", "meta.json")
        ) as f:
            on_disk = json.load(f)
        assert on_disk["base_docid"] == 250
