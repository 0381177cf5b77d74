"""lucene/join surface: JoinUtil query-time join + block-join parent top-k."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.search.query import (
    MUST,
    SHOULD,
    BooleanQuery,
    JoinQuery,
    TermQuery,
)
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def join_index(tmp_path_factory, ray_session):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("joinidx")
    rows = [
        # (doc_id, text, lang, source)
        (0, "alpha beta", "en", "s1"),
        (1, "alpha gamma", "en", "s1"),
        (2, "beta beta", "de", "s2"),
        (3, "delta", "de", "s2"),
        (4, "alpha delta", "fr", "s3"),
        (5, "epsilon", "fr", "s3"),
        (6, "zeta", "en", "s4"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array([r[2] for r in rows]),
            "source": pa.array([r[3] for r in rows]),
        }
    )
    src = str(d / "docs.parquet")
    pq.write_table(t, src)
    idx = str(d / "idx")
    cfg = IndexConfig(
        rows_per_segment=3,
        num_buckets=1,
        keyword_cols=("lang", "source"),
        dv_cols=("lang", "source"),
    )
    build_index([src], idx, cfg)
    return idx


def test_join_semi_join(join_index):
    s = IndexSearcher(join_index)
    # docs matching 'alpha' live in s1, s3 → join returns every s1/s3 doc
    r = s.search(
        JoinQuery(from_query="alpha", from_field="source", to_field="source"),
        k=100,
        mode="exhaustive",
    )
    assert sorted(r["keys"]) == [0, 1, 4, 5]


def test_join_on_other_field(join_index):
    s = IndexSearcher(join_index)
    # 'zeta' matches doc 6 (lang=en) → all en docs
    r = s.search(
        JoinQuery(from_query="zeta", from_field="lang", to_field="lang"),
        k=100,
        mode="exhaustive",
    )
    assert sorted(r["keys"]) == [0, 1, 6]


def test_join_empty_from_side(join_index):
    s = IndexSearcher(join_index)
    r = s.search(
        JoinQuery(from_query="absentterm", from_field="source", to_field="source"),
        k=100,
        mode="exhaustive",
    )
    assert len(r["keys"]) == 0


def test_join_composes_with_every_consumer(join_index):
    """A JoinQuery is rewritten wherever it sits, so every consumer of a
    match set answers it as it answers the keyword-term disjunction it
    rewrites to, and it works as a clause of a boolean."""
    s = IndexSearcher(join_index)
    join = JoinQuery(from_query="alpha", from_field="source", to_field="source")
    terms = BooleanQuery(
        tuple((SHOULD, TermQuery(v, field="source")) for v in ("s1", "s3"))
    )
    assert s._rewrite_join(join) == terms
    assert s.count(join) == s.count(terms) == 4
    assert s.facet_counts(join, "lang").equals(s.facet_counts(terms, "lang"))
    assert s.group_topk(join, "lang").equals(s.group_topk(terms, "lang"))
    got, want = (s.search_sorted(q, "source", k=10) for q in (join, terms))
    assert got["docids"].tolist() == want["docids"].tolist()
    assert got["keys"] == want["keys"] and got["sort_values"] == want["sort_values"]
    drill = (("lang", "fr"),)
    assert s.drill_sideways(join, drill, ("lang", "source")) == s.drill_sideways(
        terms, drill, ("lang", "source")
    )
    r = s.search(BooleanQuery(((MUST, join), (MUST, TermQuery("delta")))), k=10)
    assert r["keys"] == [4]  # s1/s3 docs 0, 1, 4, 5 ∩ delta docs 3, 4


def test_parent_topk_max_scoremode(join_index):
    s = IndexSearcher(join_index)
    t = s.parent_topk("beta", "source", k=10)
    parents = t.column("parent").to_pylist()
    scores = t.column("score").to_pylist()
    # 'beta' matches docs 0 (s1) and 2 (s2, tf=2 → higher score)
    assert set(parents) == {"s1", "s2"}
    assert scores == sorted(scores, reverse=True)
    # the carried child is the argmax doc of each parent
    best = dict(zip(parents, t.column("key").to_pylist()))
    assert best["s2"] == 2 and best["s1"] == 0


def test_parent_topk_k_cut(join_index):
    s = IndexSearcher(join_index)
    t = s.parent_topk("alpha", "source", k=1)
    assert t.num_rows == 1


class TestBlockJoinTotal:
    def test_total_and_avg_vs_bruteforce(self, ray_session, tmp_path_factory):
        import numpy as np
        import pyarrow.parquet as pq
        from lucene_ray.index.build import build_index
        from lucene_ray.index.config import IndexConfig
        from lucene_ray.search.searcher import IndexSearcher

        docs = "/root/testdata/sf0.001/documents.parquet"
        d = str(tmp_path_factory.mktemp("bjt"))
        build_index(
            docs, d, IndexConfig(rows_per_segment=150, dv_cols=("source",))
        )
        s = IndexSearcher(d)
        t = s.parent_topk_agg("data", "source", k=100)

        r = s.search("data", k=10**6)
        tot, cnt = {}, {}
        for key_, sc in zip(r["keys"], r["scores"]):
            pass  # need source per hit — resolve via stored doc
        tbl = pq.read_table(docs, columns=["doc_id", "source"])
        src = dict(
            zip(tbl.column("doc_id").to_pylist(), tbl.column("source").to_pylist())
        )
        for key_, sc in zip(r["keys"], r["scores"]):
            g = src[int(key_)]
            bp = int(np.floor(np.float64(sc) * 10000 + 0.5))
            tot[g] = tot.get(g, 0) + bp
            cnt[g] = cnt.get(g, 0) + 1
        want = sorted(tot.items(), key=lambda kv: (-kv[1], kv[0]))
        got = list(
            zip(t.column("parent").to_pylist(), t.column("total_bp").to_pylist())
        )
        assert got == want
        for p_, n, tb, ab in zip(
            t.column("parent").to_pylist(),
            t.column("n_children").to_pylist(),
            t.column("total_bp").to_pylist(),
            t.column("avg_bp").to_pylist(),
        ):
            assert n == cnt[p_]
            assert ab == tb // n
