"""Naive Bayes classification (lucene/classification role): model
shapes, integer micro-nat scoring parity with a naive recompute, and
deterministic tie-breaking; kNN classification against brute force and
its cache key."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.pipelines.classify import SCALE, nb_classify, nb_train

SF = "/root/testdata/sf0.001"
DOCS = f"{SF}/documents.parquet"


@pytest.fixture(scope="module")
def model(ray_session):
    return nb_train(SF)


@pytest.fixture(scope="module")
def result(ray_session):
    return nb_classify(SF).to_pandas()


def test_model_shapes(model):
    classes, vocab, lp, prior = model
    assert classes == sorted(classes)
    assert lp.shape == (len(vocab) + 1, len(classes))
    assert prior.shape == (len(classes),)
    assert (lp < 0).all() and (prior < 0).all()  # log probs


def test_one_prediction_per_doc(result):
    tbl = pq.read_table(DOCS, columns=["doc_id", "lang"])
    assert len(result) == tbl.num_rows
    assert set(result["lang_pred"]) <= set(tbl.column("lang").to_pylist())
    assert result["doc_id"].is_monotonic_increasing


def test_score_matches_naive_recompute(model, result):
    """Vectorized reduceat scoring == per-token naive sum for a sample."""
    classes, vocab, lp, prior = model
    tbl = pq.read_table(DOCS, columns=["doc_id", "text"])
    texts = dict(
        zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist())
    )
    unk = len(vocab)
    for _, row in result.head(25).iterrows():
        toks = (texts[row["doc_id"]] or "").split()
        scores = prior.copy()
        for w in toks:
            scores = scores + lp[vocab.get(w, unk)]
        best = int(np.argmax(scores))
        assert classes[best] == row["lang_pred"]
        assert int(scores[best]) == row["score_bp"]


def test_empty_doc_ties_break_ascending(model):
    """A doc with no tokens scores = priors; equal priors must resolve
    to the first class in ascending order (the documented tie rule)."""
    classes, vocab, lp, prior = model
    if len(set(prior.tolist())) == 1:  # uniform priors in the testdata
        assert int(np.argmax(prior)) == 0


def _write_embeddings(path: str, labels: np.ndarray) -> None:
    rng = np.random.default_rng(7)
    n, dim = len(labels), 8
    emb = rng.normal(size=(n, dim))
    # opposite directions along dim0 so COSINE neighbors are label-determined
    emb[:, 0] += (labels * 2.0 - 1.0) * 50.0
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(emb.astype(np.float64)), pa.list_(pa.float64())),
            "label": pa.array(labels.astype(np.int64)),
        }
    )
    pq.write_table(t, path)


class TestKnnClassify:
    def test_multi_block_equals_single_block(self, ray_session):
        from lucene_ray.pipelines.classify import knn_classify

        sf = "/root/testdata/sf0.001"
        single = knn_classify(sf, block_rows=10**6).to_pandas()
        multi = knn_classify(sf, block_rows=64).to_pandas()
        assert single.equals(multi)

    def test_vs_bruteforce(self, ray_session):
        import numpy as np
        import pyarrow.parquet as pq
        from lucene_ray.pipelines.classify import KNN_CLS_K, knn_classify

        sf = "/root/testdata/sf0.001"
        got = knn_classify(sf).to_pandas().set_index("vec_id")
        tbl = pq.read_table(sf + "/embeddings.parquet")
        ids = np.asarray(tbl.column("vec_id"), dtype=np.int64)
        labs = np.asarray(tbl.column("label"), dtype=np.int32)
        arr = tbl.column("embedding").combine_chunks()
        mat = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        bp = np.floor(mat @ mat.T * 10000 + 0.5).astype(np.int64)
        for qi in range(0, len(ids), 37):
            others = np.arange(len(ids)) != qi
            cand = ids[others]
            cbp = bp[qi][others]
            clab = labs[others]
            order = np.lexsort((cand, -cbp))[:KNN_CLS_K]
            vl, vc = np.unique(clab[order], return_counts=True)
            win = np.lexsort((vl, -vc))[0]
            row = got.loc[ids[qi]]
            assert row["label_pred"] == vl[win]
            assert row["votes"] == vc[win]

    def test_regenerated_embeddings_not_stale(self, ray_session, tmp_path):
        from lucene_ray.pipelines.classify import knn_classify

        sf = str(tmp_path)
        path = os.path.join(sf, "embeddings.parquet")
        labels_a = np.array([0] * 10 + [1] * 10)
        _write_embeddings(path, labels_a)
        a = knn_classify(sf, k=3).to_pandas()
        assert set(a["label_pred"]) == {0, 1}

        # regenerate IN PLACE: same row count, flipped labels, bumped mtime
        _write_embeddings(path, 1 - labels_a)
        os.utime(path, (os.path.getmtime(path) + 5, os.path.getmtime(path) + 5))
        b = knn_classify(sf, k=3).to_pandas()
        merged = a.merge(b, on="vec_id", suffixes=("_old", "_new"))
        assert (merged["label_pred_new"] == 1 - merged["label_pred_old"]).all()
