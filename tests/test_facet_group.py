"""Facet counting + grouped top-k over match sets (lucene/facet and
lucene/grouping roles over doc-values columns), and every consumer of a
query's match set (counts, facets, field and expression sorts, groups,
block joins, diversified top-k, drill-sideways) against a reference built
from ``search(q, mode="exhaustive")`` on an index with tombstones."""

from collections import Counter

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.search.query import (
    SHOULD,
    BooleanQuery,
    RangeQuery,
    TermQuery,
    WildcardQuery,
)
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"

CFG = IndexConfig(
    rows_per_segment=150,
    keyword_cols=("lang",),
    dv_cols=("lang", "n_chars"),
)


@pytest.fixture(scope="module")
def searcher(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fgidx"))
    build_index(DOCS, d, CFG)
    return IndexSearcher(d)


@pytest.fixture(scope="module")
def corpus():
    return pq.read_table(DOCS)


class TestFacets:
    def test_counts_match_bruteforce(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        langs = corpus.column("lang").to_pylist()
        texts = corpus.column("text").to_pylist()
        match = {d for d, t in zip(ids, texts) if "data" in (t or "").split()}
        want = {}
        for d, l in zip(ids, langs):
            if d in match:
                want[l] = want.get(l, 0) + 1
        t = searcher.facet_counts("data", "lang")
        got = dict(zip(t.column("value").to_pylist(), t.column("n").to_pylist()))
        assert got == want
        # sorted by (count desc, value asc)
        ns = t.column("n").to_pylist()
        assert ns == sorted(ns, reverse=True)

    def test_empty_match_set(self, searcher):
        t = searcher.facet_counts("zzzabsent", "lang")
        assert t.num_rows == 0


class TestGrouping:
    def test_group_topk_matches_global_order(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        langs = {d: l for d, l in zip(ids, corpus.column("lang").to_pylist())}
        full = searcher.search("data", k=10**9, mode="exhaustive")
        per_group = {}
        for d, s in zip(full["keys"], full["scores"]):
            per_group.setdefault(langs[d], []).append((-float(s), d))
        t = searcher.group_topk("data", "lang", k_per_group=3)
        for g in set(t.column("group").to_pylist()):
            want = [d for _, d in sorted(per_group[g])[:3]]
            sel = [
                (r, k)
                for grp, r, k in zip(
                    t.column("group").to_pylist(),
                    t.column("rank").to_pylist(),
                    t.column("key").to_pylist(),
                )
                if grp == g
            ]
            got = [k for _, k in sorted(sel)]
            assert got == want

    def test_group_scores_are_search_scores(self, searcher):
        t = searcher.group_topk("data", "lang", k_per_group=1)
        full = searcher.search("data", k=1)
        # the overall best doc is rank 0 of its own group
        best_key = full["keys"][0]
        rows = dict(
            zip(t.column("key").to_pylist(), t.column("score").to_pylist())
        )
        assert best_key in rows
        assert np.float32(rows[best_key]) == full["scores"][0]


class TestDrillSideways:
    """DrillSideways (lucene/facet DrillSideways.java): each dim counts
    with its own filter removed; hits = fully drilled."""

    @pytest.fixture(scope="class")
    def ds_searcher(self, ray_session, tmp_path_factory):
        d = str(tmp_path_factory.mktemp("dsidx"))
        build_index(
            DOCS,
            d,
            IndexConfig(
                rows_per_segment=150,
                keyword_cols=("lang", "source"),
                dv_cols=("lang", "source"),
            ),
        )
        return IndexSearcher(d)

    def test_matches_bruteforce(self, ds_searcher, corpus):
        rows = list(
            zip(
                corpus.column("doc_id").to_pylist(),
                corpus.column("lang").to_pylist(),
                corpus.column("source").to_pylist(),
                corpus.column("text").to_pylist(),
            )
        )
        base = [(d, l, s_) for d, l, s_, t in rows if "data" in (t or "").split()]
        r = ds_searcher.drill_sideways(
            "data",
            drill_downs=(("lang", "en"), ("source", "src0")),
            facet_fields=("lang", "source"),
        )
        want_lang = {}
        for _, l, s_ in base:
            if s_ == "src0":
                want_lang[l] = want_lang.get(l, 0) + 1
        want_source = {}
        for _, l, s_ in base:
            if l == "en":
                want_source[s_] = want_source.get(s_, 0) + 1
        assert r["facets"]["lang"] == want_lang
        assert r["facets"]["source"] == want_source
        assert r["hits"] == sum(
            1 for _, l, s_ in base if l == "en" and s_ == "src0"
        )

    def test_no_drilldown_dim_counts_fully_drilled(self, ds_searcher, corpus):
        """A facet dim WITHOUT a drill-down counts over base + all
        filters (n_chars-free case: facet lang, drill source only)."""
        r = ds_searcher.drill_sideways(
            "data", drill_downs=(("source", "src0"),), facet_fields=("lang",)
        )
        rows = list(
            zip(
                corpus.column("lang").to_pylist(),
                corpus.column("source").to_pylist(),
                corpus.column("text").to_pylist(),
            )
        )
        want = {}
        for l, s_, t in rows:
            if s_ == "src0" and "data" in (t or "").split():
                want[l] = want.get(l, 0) + 1
        assert r["facets"]["lang"] == want
        assert r["hits"] == sum(want.values())


class TestFacetRanges:
    def test_ranges_match_bruteforce(self, searcher, corpus):
        ids = corpus.column("doc_id").to_pylist()
        ncs = corpus.column("n_chars").to_pylist()
        texts = corpus.column("text").to_pylist()
        match_nc = [
            n for d, t, n in zip(ids, texts, ncs)
            if "data" in (t or "").split()
        ]
        ranges = (("a", 0, 249), ("b", 250, 449), ("c", 400, 10**12))
        t = searcher.facet_ranges("data", "n_chars", ranges)
        got = dict(zip(t.column("range").to_pylist(), t.column("n").to_pylist()))
        for lab, lo, hi in ranges:
            assert got[lab] == sum(1 for n in match_nc if lo <= n <= hi)
        # output preserves caller's range order
        assert t.column("range").to_pylist() == ["a", "b", "c"]

    def test_overlapping_ranges_double_count(self, searcher, corpus):
        # one doc inside both overlapping ranges counts once per range
        full = (("all1", 0, 10**12), ("all2", 0, 10**12))
        t = searcher.facet_ranges("data", "n_chars", full)
        ns = t.column("n").to_pylist()
        assert ns[0] == ns[1] > 0

    def test_empty_match_set_ranges(self, searcher):
        t = searcher.facet_ranges("zzzabsent", "n_chars", (("a", 0, 10**12),))
        assert t.column("n").to_pylist() == [0]


class TestFacetTaxonomy:
    def test_hierarchy_vs_bruteforce(self, ray_session, tmp_path_factory, corpus):
        from lucene_ray.index.build import build_index
        from lucene_ray.index.config import IndexConfig
        from lucene_ray.search.searcher import IndexSearcher

        d = str(tmp_path_factory.mktemp("taxidx"))
        build_index(
            DOCS,
            d,
            IndexConfig(
                rows_per_segment=150, dv_cols=("source", "lang")
            ),
        )
        s = IndexSearcher(d)
        t = s.facet_taxonomy("data", ("source", "lang"))
        got = dict(zip(t.column("path").to_pylist(), t.column("n").to_pylist()))

        ids = corpus.column("doc_id").to_pylist()
        texts = corpus.column("text").to_pylist()
        srcs = corpus.column("source").to_pylist()
        langs = corpus.column("lang").to_pylist()
        want = {}
        for i, tx in zip(range(len(ids)), texts):
            if "data" in (tx or "").split():
                want[srcs[i]] = want.get(srcs[i], 0) + 1
                p = f"{srcs[i]}/{langs[i]}"
                want[p] = want.get(p, 0) + 1
        assert got == want
        # parent count == sum of its children
        for p, n in got.items():
            if "/" not in p:
                assert n == sum(
                    v for q, v in got.items() if q.startswith(p + "/")
                )


class TestDiversifiedTopK:
    def test_greedy_cap_vs_bruteforce(self, searcher, corpus):
        t = searcher.search_diversified("data", "lang", max_per_key=2, k=15)
        # brute-force greedy reference
        ids = corpus.column("doc_id").to_pylist()
        langs = dict(zip(ids, corpus.column("lang").to_pylist()))
        r = searcher.search("data", k=10**6)
        hits = sorted(
            zip([-float(s) for s in r["scores"]], [int(k) for k in r["keys"]])
        )
        taken, want = {}, []
        for ns, d in hits:
            g = langs[d]
            if taken.get(g, 0) >= 2:
                continue
            taken[g] = taken.get(g, 0) + 1
            want.append(d)
            if len(want) >= 15:
                break
        assert t.column("key").to_pylist() == want
        # no key exceeds the cap
        from collections import Counter

        assert max(Counter(t.column("key_value").to_pylist()).values()) <= 2

    def test_cap_one_gives_distinct_keys(self, searcher):
        t = searcher.search_diversified("data", "lang", max_per_key=1, k=10)
        vals = t.column("key_value").to_pylist()
        assert len(vals) == len(set(vals))


# -- every consumer of a query's match set, on an index with tombstones --

# (query, whether the index-wide evaluator covers it): a term, an OR,
# +a +b, +a -b, msm=2, an exact phrase, a nested boolean, then a keyword
# term, a wildcard and a range, which run per segment
QUERIES = [
    ("data", True),
    ("data spark", True),
    ("+data +spark", True),
    ("+data -spark", True),
    (
        BooleanQuery(
            tuple((SHOULD, TermQuery(t)) for t in ("data", "spark", "dup")), 2
        ),
        True,
    ),
    ('"order fast"', True),
    ('+data +("order fast" dup) -window', True),
    (TermQuery("en", field="lang"), False),
    (WildcardQuery("sp*"), False),
    (RangeQuery("n_chars", 200, 400), False),
]
RANGES = (("a", 0, 249), ("b", 250, 449), ("c", 400, 10**12))
DRILL = (("lang", "en"), ("source", "src0"))


@pytest.fixture(scope="module")
def deleted_index(ray_session, tmp_path_factory):
    """sf0.001 in four segments, every 7th document deleted through the
    writer before any searcher opens it."""
    d = str(tmp_path_factory.mktemp("fgdel"))
    build_index(
        DOCS,
        d,
        IndexConfig(
            rows_per_segment=150,
            keyword_cols=("lang", "source"),
            dv_cols=("lang", "source", "n_chars", "doc_id"),
            point_cols=("n_chars",),
        ),
    )
    delete_by_keys(d, range(0, 500, 7))
    return d


@pytest.fixture(params=QUERIES, ids=[str(q) for q, _ in QUERIES])
def query(request):
    return request.param


def exhaustive_hits(s, q):
    """The reference match set: the hits of ``search(q,
    mode="exhaustive")`` in global docid order, each with its key and
    doc values read through ``seg.dv``."""
    r = s.search(q, k=10**9, mode="exhaustive")
    hits = []
    for d, sc in sorted(zip(r["docids"].tolist(), r["scores"])):
        seg = next(g for g in s.segments if g.base_docid <= d < g.base_docid + g.n_docs)
        local = d - seg.base_docid
        hit = {f: seg.dv(f)[local].as_py() for f in ("lang", "source", "n_chars", "doc_id")}
        hits.append(dict(hit, docid=d, score=sc, key=seg.docmap[local].as_py()))
    return hits


def f32(scores):
    return np.asarray(scores, np.float32).tobytes()


def sorted_page(hits, key, k, after=None):
    """Top k of ``hits`` by ``key`` then docid, past the cursor hit."""
    ranked = sorted(hits, key=lambda h: (key(h), h["docid"]))
    if after is not None:
        ranked = ranked[ranked.index(after) + 1 :]
    return ranked[:k]


def assert_sorted(got, want, field):
    assert got["docids"].tolist() == [h["docid"] for h in want]
    assert got["keys"] == [h["key"] for h in want]
    assert got["sort_values"] == [h[field] for h in want]


def consumers(s, q):
    """Every match-set consumer but ``drill_sideways`` (its drill-downs
    are keyword terms, which run per segment)."""
    return {
        "count": s.count(q),
        "facet": s.facet_counts(q, "lang"),
        "ranges": s.facet_ranges(q, "n_chars", RANGES),
        "taxonomy": s.facet_taxonomy(q, ("source", "lang")),
        "sorted": {
            (desc, walk): s.search_sorted(
                q, "n_chars", k=10, descending=desc, point_walk_min=walk
            )
            for desc in (True, False)
            for walk in (1, 1024)
        },
        "sorted_str": s.search_sorted(q, "source", k=10),
        "multi": s.search_sorted_multi(q, [("n_chars", "asc"), ("doc_id", "desc")], k=10),
        "expr": s.search_expr(q, "n_chars * 0.5 + _score", k=10),
        "group": s.group_topk(q, "lang", k_per_group=2),
        "parent": s.parent_topk(q, "source", k=5),
        "agg": s.parent_topk_agg(q, "source", k=5),
        "diversified": s.search_diversified(q, "lang", max_per_key=2, k=10),
    }


class TestConsumersEqualExhaustive:
    """Each consumer equals a reference built from the exhaustive hits."""

    def test_consumers(self, deleted_index, query):
        q, wide = query
        s = IndexSearcher(deleted_index)
        assert IndexSearcher._wide_eligible(s._query(q)) == wide
        got = consumers(s, q)
        ds = s.drill_sideways(q, DRILL, ("lang", "source"))
        hits = exhaustive_hits(s, q)
        assert all(h["doc_id"] % 7 for h in hits)  # tombstones apply
        assert got["count"] == len(hits) > 0

        def counted(values):
            return sorted(Counter(values).items(), key=lambda kv: (-kv[1], kv[0]))

        t = got["facet"]
        assert list(zip(t["value"].to_pylist(), t["n"].to_pylist())) == counted(
            h["lang"] for h in hits
        )
        assert got["ranges"]["n"].to_pylist() == [
            sum(lo <= h["n_chars"] <= hi for h in hits) for _, lo, hi in RANGES
        ]
        t = got["taxonomy"]
        assert list(zip(t["path"].to_pylist(), t["n"].to_pylist())) == counted(
            [h["source"] for h in hits] + [f"{h['source']}/{h['lang']}" for h in hits]
        )

        for (desc, walk), r in got["sorted"].items():
            key = (lambda h: -h["n_chars"]) if desc else (lambda h: h["n_chars"])
            want = sorted_page(hits, key, 10)
            assert r["total_hits"] == len(hits)
            assert_sorted(r, want, "n_chars")
            page2 = s.search_sorted(
                q, "n_chars", k=10, descending=desc, point_walk_min=walk,
                after=(want[-1]["n_chars"], want[-1]["docid"]),
            )
            assert_sorted(page2, sorted_page(hits, key, 10, after=want[-1]), "n_chars")
        by_source = sorted(sorted(hits, key=lambda h: h["docid"]), key=lambda h: h["source"], reverse=True)
        assert_sorted(got["sorted_str"], by_source[:10], "source")
        want = sorted_page(hits, lambda h: (h["n_chars"], -h["doc_id"]), 10)
        r = got["multi"]
        assert r["docids"].tolist() == [h["docid"] for h in want]
        assert r["sort_values"] == [(h["n_chars"], h["doc_id"]) for h in want]

        val = {h["docid"]: h["n_chars"] * 0.5 + np.float64(h["score"]) for h in hits}
        want = sorted_page(hits, lambda h: -val[h["docid"]], 10)
        r = got["expr"]
        assert r["docids"].tolist() == [h["docid"] for h in want]
        assert r["keys"] == [h["key"] for h in want]
        assert r["expr_values"] == [val[h["docid"]] for h in want]
        assert r["scores"].tobytes() == f32([h["score"] for h in want])

        by_score = sorted(hits, key=lambda h: (-h["score"], h["docid"]))
        rows = []
        for g in sorted({h["lang"] for h in hits}):
            rows += [(g, i, h) for i, h in enumerate([h for h in by_score if h["lang"] == g][:2])]
        t = got["group"]
        assert t["group"].to_pylist() == [g for g, _, _ in rows]
        assert t["rank"].to_pylist() == [i for _, i, _ in rows]
        assert t["docid"].to_pylist() == [h["docid"] for *_, h in rows]
        assert t["key"].to_pylist() == [h["key"] for *_, h in rows]
        assert t["score"].to_numpy().tobytes() == f32([h["score"] for *_, h in rows])

        best = {}
        for h in by_score:
            best.setdefault(h["source"], h)
        want = sorted(best.items(), key=lambda kv: (-kv[1]["score"], kv[0]))[:5]
        t = got["parent"]
        assert t["parent"].to_pylist() == [p for p, _ in want]
        assert t["docid"].to_pylist() == [h["docid"] for _, h in want]
        assert t["key"].to_pylist() == [h["key"] for _, h in want]
        assert t["score"].to_numpy().tobytes() == f32([h["score"] for _, h in want])

        total, n = Counter(), Counter()
        for h in hits:
            total[h["source"]] += int(np.floor(np.float64(h["score"]) * 10000 + 0.5))
            n[h["source"]] += 1
        want = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        t = got["agg"]
        assert list(zip(t["parent"].to_pylist(), t["total_bp"].to_pylist())) == want
        assert t["n_children"].to_pylist() == [n[p] for p, _ in want]
        assert t["avg_bp"].to_pylist() == [tb // n[p] for p, tb in want]

        taken, want = Counter(), []
        for h in by_score:
            if taken[h["lang"]] < 2 and len(want) < 10:
                taken[h["lang"]] += 1
                want.append(h)
        t = got["diversified"]
        assert t["docid"].to_pylist() == [h["docid"] for h in want]
        assert t["key_value"].to_pylist() == [h["lang"] for h in want]
        assert t["score"].to_numpy().tobytes() == f32([h["score"] for h in want])

        en, src0 = ([h for h in hits if h[f] == v] for f, v in DRILL)
        assert ds["facets"]["lang"] == Counter(h["lang"] for h in src0)
        assert ds["facets"]["source"] == Counter(h["source"] for h in en)
        assert ds["hits"] == sum(h["source"] == "src0" for h in en)
