"""Shuffle-native dedup/ANN plans: completeness properties vs brute force.

The round-2 rewrites (pigeonhole-banded SimHash, distributed MinHash
verify, block nested-loop embedding near-dup, bucketed LSH ANN) must
produce exactly what the round-1 driver-side implementations produced —
these tests pin the plans to small brute-force oracles.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _popcount64(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


class TestSimhashBanding:
    def test_banding_equals_bruteforce(self, ray_session):
        from lucene_ray.pipelines.dedup import simhash_pairs, simhash64

        got = simhash_pairs(SF, max_hamming=8).to_pandas()
        got_pairs = set(zip(got["a"], got["b"], got["hamming"]))

        tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        cache = {}
        ids = tbl.column("doc_id").to_pylist()
        fps = np.array(
            [simhash64(t or "", cache) for t in tbl.column("text").to_pylist()],
            dtype=np.uint64,
        )
        order = np.argsort(np.asarray(ids))
        ids = np.asarray(ids)[order]
        fps = fps[order]
        want = set()
        for i in range(len(fps) - 1):
            ham = _popcount64(fps[i] ^ fps[i + 1 :])
            for j in np.flatnonzero(ham <= 8):
                want.add((int(ids[i]), int(ids[i + 1 + j]), int(ham[j])))
        assert got_pairs == want
        assert len(want) > 0  # corpus has injected near-dups

    def test_pigeonhole_band_layout(self):
        # max_hamming+1 bands tile all 64 bits with no gaps/overlap
        for mh in (3, 8):
            bounds = np.linspace(0, 64, mh + 2).astype(np.int64)
            assert bounds[0] == 0 and bounds[-1] == 64
            assert (np.diff(bounds) >= 1).all()


class TestMinhashDistributedVerify:
    def test_matches_direct_jaccard(self, ray_session):
        from lucene_ray.pipelines.dedup import (
            JACCARD_TAU,
            minhash_lsh_dedup,
            shingle_hashes,
        )

        got = minhash_lsh_dedup(SF).to_pandas()
        tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        sh = {
            int(d): shingle_hashes(t or "")
            for d, t in zip(
                tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()
            )
        }
        for a, b, j_bp in zip(got["a"], got["b"], got["j_bp"]):
            sa, sb = sh[int(a)], sh[int(b)]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            j = inter / (len(sa) + len(sb) - inter)
            assert j >= JACCARD_TAU
            assert int(np.floor(j * 10000)) == int(j_bp)
        assert len(got) > 0


class TestEmbeddingBlockJoin:
    def test_block_pairs_equal_bruteforce(self, ray_session):
        from lucene_ray.pipelines.dedup import embedding_near_dup

        # tiny blocks force the multi-block path (block-pair tasks)
        got = embedding_near_dup(SF, tau=0.45, block_rows=16).to_pandas()
        got_set = set(zip(got["a"], got["b"], got["c_bp"]))

        tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        arr = tbl.column("embedding").combine_chunks()
        mat = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        n = np.linalg.norm(mat, axis=1, keepdims=True)
        n[n == 0] = 1.0
        mat = mat / n
        ids = np.asarray(tbl.column("vec_id"), dtype=np.int64)
        sims = mat @ mat.T
        ii, jj = np.nonzero(np.triu(sims >= 0.45, k=1))
        want = set()
        for i, j in zip(ii, jj):
            a, b = sorted((int(ids[i]), int(ids[j])))
            want.add((a, b, int(np.floor(sims[i, j] * 10000))))
        assert got_set == want
        assert len(want) > 0

    def test_no_duplicate_pairs(self, ray_session):
        from lucene_ray.pipelines.dedup import embedding_near_dup

        got = embedding_near_dup(SF, tau=0.45, block_rows=16).to_pandas()
        assert not got.duplicated(["a", "b"]).any()
        assert (got["a"] < got["b"]).all()


class TestLshKnn:
    def test_topk_subset_of_bruteforce_order(self, ray_session):
        """Every returned hit must carry the exact cosine bp, ranks must
        descend, and rank 0 for a query on itself is the query vector."""
        from lucene_ray.pipelines.lsh_knn import lsh_knn

        got = lsh_knn(SF, query_vec_ids=[0, 1, 2], k=5).to_pandas()
        tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        arr = tbl.column("embedding").combine_chunks()
        mat = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        nn = np.linalg.norm(mat, axis=1, keepdims=True)
        nn[nn == 0] = 1.0
        mat = mat / nn
        ids = np.asarray(tbl.column("vec_id"), dtype=np.int64)
        pos = {int(v): i for i, v in enumerate(ids)}
        for qid, grp in got.groupby("qid"):
            grp = grp.sort_values("rank")
            assert grp.iloc[0]["vec_id"] == qid  # self is always in its bucket
            assert (np.diff(grp["sim_bp"].to_numpy()) <= 0).all()
            for _, r in grp.iterrows():
                sim = float(mat[pos[int(qid)]] @ mat[pos[int(r.vec_id)]])
                assert int(np.floor(sim * 10000 + 0.5)) == int(r.sim_bp)


class TestDedupComponents:
    def test_matches_union_find_on_testdata(self, ray_session, tmp_path):
        """Engine components == driver union-find over the verified pairs."""
        from lucene_ray.pipelines.dedup import dedup_components, minhash_lsh_dedup

        sf = "/root/testdata/sf0.001"
        pairs = minhash_lsh_dedup(sf).to_pandas()
        docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])
        parent = {int(d): int(d) for d in docs.column("doc_id").to_pylist()}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(pairs["a"], pairs["b"]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        want = {d: find(d) for d in parent}

        got = dedup_components(sf).to_pandas()
        assert len(got) == len(want)
        for d, c, k in zip(got["doc_id"], got["component"], got["keep"]):
            assert want[int(d)] == int(c)
            assert int(k) == (1 if int(c) == int(d) else 0)

    def test_transitive_chain_needs_multiple_rounds(self, ray_session, tmp_path):
        """A near-dup CHAIN (ends not pairwise similar) still collapses to
        one component — exercises >1 propagation round."""
        from lucene_ray.pipelines.dedup import dedup_components, shingles

        words = [f"tok{i:03d}" for i in range(80)]
        texts = [" ".join(words[s : s + 40]) for s in (0, 2, 4, 6, 8)]

        def jac(x, y):
            sx, sy = shingles(x), shingles(y)
            return len(sx & sy) / len(sx | sy)

        assert jac(texts[0], texts[1]) >= 0.8  # adjacent: near-dups
        assert jac(texts[0], texts[-1]) < 0.8  # ends: not
        t = pa.table(
            {
                "doc_id": pa.array(list(range(5)), pa.int64()),
                "text": pa.array(texts),
            }
        )
        d = tmp_path / "chain"
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        got = dedup_components(str(d)).to_pandas().sort_values("doc_id")
        assert list(got["component"]) == [0, 0, 0, 0, 0]
        assert list(got["keep"]) == [1, 0, 0, 0, 0]

    def test_no_pairs_all_singletons(self, ray_session, tmp_path):
        from lucene_ray.pipelines.dedup import dedup_components

        t = pa.table(
            {
                "doc_id": pa.array([7, 9, 11], pa.int64()),
                "text": pa.array(
                    ["alpha beta gamma delta", "one two three four", "x y z w"]
                ),
            }
        )
        d = tmp_path / "nodups"
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        got = dedup_components(str(d)).to_pandas().sort_values("doc_id")
        assert list(got["component"]) == [7, 9, 11]
        assert list(got["keep"]) == [1, 1, 1]


class TestSpanDedup:
    def test_matches_bruteforce(self, ray_session):
        from lucene_ray.pipelines.dedup import span_dedup

        w = 10
        got = span_dedup(SF, w=w).to_pandas()
        tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        rows = sorted(
            zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist())
        )
        seen = {}
        want = {}
        for did, txt in rows:
            ws = (txt or "").split(" ")
            chunks = [
                " ".join(ws[i : i + w]) for i in range(0, len(ws), w)
            ] or [""]
            kept = []
            for j, c in enumerate(chunks):
                if c not in seen:
                    seen[c] = (did, j)
                if seen[c] == (did, j):
                    kept.append(c)
            want[did] = (len(chunks), len(kept), " ".join(kept))
        assert len(got) == len(want)
        for r in got.itertuples(index=False):
            assert (r.n_chunks, r.n_kept, r.kept_text) == want[r.doc_id], r.doc_id
        assert any(got["n_kept"] < got["n_chunks"])  # non-trivial corpus

    def test_first_occurrence_ordering(self, ray_session, tmp_path):
        from lucene_ray.pipelines.dedup import span_dedup

        # doc 5 repeats its own first span; doc 9 repeats doc 5's span.
        t = pa.table(
            {
                "doc_id": pa.array([5, 9], pa.int64()),
                "text": pa.array(["a b a b c d", "a b x y"]),
            }
        )
        d = tmp_path / "sd"
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        got = (
            span_dedup(str(d), w=2)
            .to_pandas()
            .set_index("doc_id")
        )
        # doc 5 chunks: ['a b','a b','c d'] -> keep idx0 + 'c d'
        assert got.loc[5, "kept_text"] == "a b c d"
        assert (got.loc[5, "n_chunks"], got.loc[5, "n_kept"]) == (3, 2)
        # doc 9 chunks: ['a b','x y'] -> 'a b' already owned by doc 5
        assert got.loc[9, "kept_text"] == "x y"
        assert (got.loc[9, "n_chunks"], got.loc[9, "n_kept"]) == (2, 1)


class TestPointerJumpingChain:
    """``propagate_min_labels`` uses pointer jumping: chain-shaped
    clusters whose eccentricity exceeds ``max_rounds`` still converge."""

    def test_long_chain_converges(self, ray_session):
        import ray.data

        from lucene_ray.pipelines.dedup import propagate_min_labels

        # path graph 0-1-2-...-n: eccentricity n-1 from the min node;
        # one-hop propagation needs ~n rounds, pointer jumping O(log n)
        n = 200
        pairs = ray.data.from_items(
            [{"a": i, "b": i + 1} for i in range(n - 1)]
        )
        labels = propagate_min_labels(pairs, max_rounds=12).to_pandas()
        assert len(labels) == n
        assert (labels["l"] == 0).all()

    def test_two_components(self, ray_session):
        import ray.data

        from lucene_ray.pipelines.dedup import propagate_min_labels

        pairs = ray.data.from_items(
            [{"a": i, "b": i + 1} for i in range(0, 49)]
            + [{"a": i, "b": i + 1} for i in range(100, 149)]
        )
        lab = propagate_min_labels(pairs, max_rounds=10).to_pandas()
        lab = dict(zip(lab["u"], lab["l"]))
        assert all(lab[i] == 0 for i in range(50))
        assert all(lab[i] == 100 for i in range(100, 150))
