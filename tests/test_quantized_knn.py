"""Scalar-quantized KNN (``Lucene99ScalarQuantizedVectorsFormat`` role):
the int8 fast path + error-bounded pruning + exact re-rank must equal
brute-force ``knn_cosine`` exactly, and the error bound must hold for
arbitrary vectors."""

import numpy as np
import pytest

from lucene_ray.index.vectors import DELTA, dequantize, quantize
from lucene_ray.pipelines.knn import knn_cosine
from lucene_ray.pipelines.quantized_knn import knn_quantized

SF = "/root/testdata/sf0.001"


class TestExactness:
    def test_equals_brute_force(self, ray_session):
        a = knn_cosine(SF).to_pandas()
        b = knn_quantized(SF).to_pandas()
        assert a.equals(b)


class TestIvfQuantized:
    def test_nprobe_all_equals_brute_force(self, ray_session):
        from lucene_ray.pipelines.ivf_knn import N_LISTS, ivf_knn_quantized

        a = knn_cosine(SF).to_pandas()
        b = ivf_knn_quantized(SF, nprobe=N_LISTS).to_pandas()
        assert a.equals(b)

    def test_partial_probe_recall(self, ray_session):
        """nprobe < n_lists: a valid (possibly lossy) subset — every
        returned neighbor must appear in the brute-force ranking with
        the same bp, and recall should be non-trivial."""
        from lucene_ray.pipelines.ivf_knn import ivf_knn_quantized

        full = knn_cosine(SF).to_pandas()
        part = ivf_knn_quantized(SF, nprobe=2).to_pandas()
        truth = {
            (int(r.qid), int(r.vec_id)): int(r.sim_bp)
            for _, r in full.iterrows()
        }
        hits = sum(
            1
            for _, r in part.iterrows()
            if truth.get((int(r.qid), int(r.vec_id))) == int(r.sim_bp)
        )
        assert hits >= len(part) * 0.4  # self-neighbor always probed

    def test_codes_stored_in_layout(self, ray_session):
        import pyarrow.dataset as pads

        from lucene_ray.pipelines.ivf_knn import build_ivf_quantized

        d = build_ivf_quantized(SF)
        schema = pads.dataset(
            f"{d}/data", partitioning="hive"
        ).schema
        assert "code" in schema.names
        t = str(schema.field("code").type)
        assert "int8" in t and "fixed_size_list" in t


class TestBound:
    def test_error_bound_holds(self):
        rng = np.random.default_rng(11)
        for d in (8, 64, 384):
            x = rng.normal(size=(64, d))
            y = rng.normal(size=(4, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            xh, yh = dequantize(quantize(x)), dequantize(quantize(y))
            exact = x @ y.T
            approx = xh @ yh.T
            eps = DELTA * (
                np.abs(x).sum(axis=1)[:, None] + np.abs(yh).sum(axis=1)[None, :]
            )
            assert (np.abs(exact - approx) <= eps + 1e-12).all()

    def test_quantize_roundtrip_error(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(100, 32))
        err = np.abs(dequantize(quantize(x)) - x)
        assert err.max() <= DELTA + 1e-12

    def test_pruning_never_drops_topk(self, ray_session):
        """Adversarial near-tie vectors: many docs within quantization
        noise of each other — exactness must still hold (the bound, not
        luck, protects the top-k)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        rng = np.random.default_rng(5)
        base = rng.normal(size=64)
        base /= np.linalg.norm(base)
        n = 300
        # vectors clustered tightly around `base` (cosine gaps ~1e-3)
        vecs = base[None, :] + rng.normal(scale=2e-3, size=(n, 64))
        vecs[:3] = (
            np.vstack([base, base, base])
            + rng.normal(scale=2e-3, size=(3, 64))
        )
        tbl = pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    [v.astype(np.float32) for v in vecs],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([0] * n, pa.int32()),
            }
        )
        import tempfile, os

        with tempfile.TemporaryDirectory() as td:
            pq.write_table(tbl, os.path.join(td, "embeddings.parquet"))
            a = knn_cosine(td).to_pandas()
            b = knn_quantized(td).to_pandas()
            assert a.equals(b)
