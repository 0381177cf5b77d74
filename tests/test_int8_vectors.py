"""int8 scalar-quantized index-resident vectors
(``Lucene99ScalarQuantizedVectorsFormat`` role): codes are stored
beside the raw float32 vectors, the exact-scan path scans codes with an
error-bounded prune + exact re-rank, and the result is provably
identical to the float scan (``index.vectors.int8_survivors`` bound)."""

import numpy as np
import pytest

from lucene_ray.index.vectors import _ShardGraph, graph_to_bytes


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(42)
    v = rng.standard_normal((400, 32)).astype(np.float32)
    ids = np.arange(400, dtype=np.int64) * 3 + 1  # non-dense ids
    return _ShardGraph(v, ids), v


class TestQuantizedExactScan:
    def test_matches_float_scan(self, graph):
        g, v = graph
        rng = np.random.default_rng(7)
        qm = rng.standard_normal((5, 32))
        qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        assert g.codes is not None and g.codes.dtype == np.int8
        assert g.exact_topk_quantized(qm, 10) == g.exact_topk(qm, 10)

    def test_matches_with_accept_mask(self, graph):
        g, v = graph
        rng = np.random.default_rng(9)
        qm = rng.standard_normal((3, 32))
        qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        accept = rng.random(400) < 0.3
        assert g.exact_topk_quantized(
            qm, 8, accept=accept
        ) == g.exact_topk(qm, 8, accept=accept)

    def test_matches_with_custom_tie(self, graph):
        g, v = graph
        rng = np.random.default_rng(11)
        qm = rng.standard_normal((2, 32))
        qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        tie = np.arange(400, dtype=np.int64)[::-1].copy()
        assert g.exact_topk_quantized(
            qm, 6, tie=tie
        ) == g.exact_topk(qm, 6, tie=tie)

    def test_duplicate_vectors_tiebreak(self):
        # identical vectors → identical bp; ties must resolve by id on
        # both paths (exercises the θ−1e-4 same-bucket slack)
        base = np.ones((50, 8), dtype=np.float32)
        ids = np.arange(50, dtype=np.int64)
        g = _ShardGraph(base, ids)
        qm = np.ones((1, 8)) / np.sqrt(8)
        got = g.exact_topk_quantized(qm, 5)
        assert got == g.exact_topk(qm, 5)
        assert [r for _, r in got[0]] == [0, 1, 2, 3, 4]

    def test_save_load_roundtrip_keeps_codes(self, graph, tmp_path):
        g, v = graph
        p = str(tmp_path / "g.npz")
        with open(p, "wb") as fh:
            fh.write(graph_to_bytes(g))
        g2 = _ShardGraph.load(p)
        assert g2.codes is not None
        assert np.array_equal(g2.codes, g.codes)
        rng = np.random.default_rng(3)
        qm = rng.standard_normal((2, 32))
        qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        assert g2.exact_topk_quantized(qm, 7) == g.exact_topk_quantized(
            qm, 7
        )

    def test_pre_codes_graph_falls_back(self, graph, tmp_path):
        g, v = graph
        p = str(tmp_path / "g.npz")
        with open(p, "wb") as fh:
            fh.write(graph_to_bytes(g))
        g2 = _ShardGraph.load(p)
        g2.codes = None  # simulate a pre-int8 graph file
        rng = np.random.default_rng(5)
        qm = rng.standard_normal((2, 32))
        qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        assert g2.exact_topk_quantized(qm, 7) == g.exact_topk(qm, 7)
