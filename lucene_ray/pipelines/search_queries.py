"""Reference-style query sets over the ``documents`` table + their
bit-exact DuckDB oracle SQL.

The oracle strategy: DuckDB ``FLOAT`` arithmetic is true IEEE float32 and
rounds identically to NumPy float32, so the oracle SQL replicates the
engine's exact algebra — idf narrowed from float64, the SmallFloat norm
quantization (decode table built inline from ``range(256)``), the
left-associative float32 score/sum order — and produces hash-identical
scores, not just matching ranks.
"""

from __future__ import annotations

import os

from lucene_ray.cluster import actor_pool
from typing import List, Tuple

import numpy as np
import pyarrow as pa

from lucene_ray.index.config import IndexConfig
from lucene_ray.pipelines.index_cache import get_or_build_index
from lucene_ray.analysis.analyzer import Analyzer
from lucene_ray.search.query import (
    SHOULD,
    BooleanQuery,
    CombinedFieldQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    FeatureQuery,
    MultiPhraseQuery,
    SpanNearQuery,
    SynonymQuery,
    TermInSetQuery,
    TermQuery,
    parse_query,
)
from lucene_ray.search.intervals import (
    eval_source,
    filter_maxgaps,
    ordered_intervals,
)
from lucene_ray.search.searcher import IndexSearcher, search_dataset

# multi-field index over the documents table: lang/source as keyword
# (StringField) fields, n_chars as a doc-values column that also gets
# the 1-D point sidecar (LongPoint/BKD role, index/points.py) — range
# filters here run the binary-search path, not the DV scan
MF_CONFIG = IndexConfig(
    rows_per_segment=2048,
    num_buckets=2,
    keyword_cols=("lang", "source"),
    dv_cols=("n_chars", "lang", "source"),
    point_cols=("n_chars",),
)

# (qid, query) — single terms spanning head/mid df + an absent term
TERM_QUERIES: List[Tuple[int, str]] = [
    (0, "spark"),
    (1, "data"),
    (2, "query"),
    (3, "vector"),
    (4, "the"),
    (5, "customer"),
    (6, "zzzabsent"),
]

# disjunctions (≤3 terms; engine sums float32 in clause order)
DISJ_QUERIES: List[Tuple[int, str]] = [
    (0, "spark merge"),
    (1, "data vector window"),
    (2, "key value zzzabsent"),
]

# conjunctions with negation: +MUST terms, -MUST_NOT terms
CONJ_QUERIES: List[Tuple[int, str]] = [
    (0, "+spark +merge"),
    (1, "+batch +stream -window"),
    (2, "+the +customer -spark"),
]

# field-scoped: text scoring restricted by keyword-field FILTER clauses
# and doc-values range filters (multi-field data model, round 2)
FILTERED_QUERIES: List[Tuple[int, str]] = [
    (0, "data #lang:en"),
    (1, "spark merge #lang:de"),
    (2, "+query #source:src3"),
    (3, "data #n_chars:[150 TO 400]"),
    (4, "+the #lang:zh #n_chars:[100 TO *]"),
]

K = 10


def _run(
    sf_dir: str,
    queries: List[Tuple[int, str]],
    k: int = K,
    similarity: str | None = None,
):
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items([{"qid": q, "query": t} for q, t in queries])
    res = search_dataset(idx, qds, k=k, similarity=similarity)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def bm25_topk(sf_dir: str):
    return _run(sf_dir, TERM_QUERIES)


def bm25_topk_sharded(sf_dir: str, n_shards: int = 3):
    """Same term workload through the SHARD-PARTITIONED query tier
    (``search.sharded``): disjoint segment subsets per actor, a global
    df/ttf stats exchange, per-(query, shard) top-k, ``groupby(qid)``
    TopDocs.merge — bit-exact vs the replica tier, so the same SQL
    oracle as ``bm25_topk`` applies. This is the tier that serves an
    index too large for any single node (SURVEY §3.2)."""
    import ray.data

    from lucene_ray.search.sharded import search_dataset_sharded

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in TERM_QUERIES]
    )
    res = search_dataset_sharded(idx, qds, k=K, n_shards=n_shards)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


# full classic-parser grammar: AND/OR/NOT keywords, parenthesized
# groups (nested, boosted), mixed with multiterm suffix syntax
# (``QueryParser.jj:105`` Query/Clause/Conjunction productions)
GROUPED_QUERIES: List[Tuple[int, str]] = [
    (0, "(spark OR merge) AND (data OR vector)"),
    (1, "data AND NOT spark"),
    (2, "+(spark merge)^2 que*"),
    (3, "(vector OR merge) AND NOT (spark AND the)"),
]


def grouped_boolean_search(sf_dir: str):
    """Parser-driven grouped booleans over the documents index: every
    query goes through ``parse_query``'s recursive-descent grammar —
    AND/OR/NOT, nested parens, group boosts, prefix syntax — and the
    engine's nested-BooleanQuery evaluation. Returns the FULL match set
    (scored), ordered (qid, doc_id)."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t, "k": 10**9} for q, t in GROUPED_QUERIES]
    )
    res = search_dataset(idx, qds)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow").sort(
        ["qid", "doc_id"]
    )


def sql_grouped_boolean_search() -> str:
    """Oracle: per-query match-set algebra over the shared ``tscore``
    CTE (float32 BM25 term scores); group sums replicate the engine's
    left-associative float32 clause-order addition, and the ×2 group
    boost is exact (power-of-two scaling commutes with fp rounding).
    ``que*`` is a constant-score prefix (1.0 per matching doc)."""
    leaves = [
        (0, 0, "spark"), (0, 1, "merge"), (0, 2, "data"), (0, 3, "vector"),
        (1, 0, "data"), (1, 1, "spark"),
        (2, 0, "spark"), (2, 1, "merge"),
        (3, 0, "vector"), (3, 1, "merge"), (3, 2, "spark"), (3, 3, "the"),
    ]
    vals = ", ".join(f"({q}, {ti}, '{t}', 'LEAF')" for q, ti, t in leaves)
    return f"""{_PRELUDE},
qterms(qid, ti, term, occur) as (
  values {vals}
),
tf as (
  select q.qid, q.ti, q.occur, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3, 4
),
df as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.qid, tf.ti, tf.occur, tf.doc_id,
         w.w - w.w / (cast(1 as float) + cast(tf.tf as float) * f.inv) as s
  from tf
  join qterms q on q.qid = tf.qid and q.ti = tf.ti
  join (
    select d.term,
           cast(ln(1 + ((select doc_count from stats) - d.df + 0.5) / (d.df + 0.5)) as float) as w
    from df d
  ) w on w.term = q.term
  join fnorm f on f.doc_id = tf.doc_id
),
wide as (
  select qid, doc_id,
         max(s) filter (where ti = 0) as s0,
         max(s) filter (where ti = 1) as s1,
         max(s) filter (where ti = 2) as s2,
         max(s) filter (where ti = 3) as s3
  from tscore group by qid, doc_id
),
prefix_hit as (
  select distinct doc_id from tok where term like 'que%'
),
q0 as (
  select 0 as qid, doc_id,
         ((coalesce(s0, cast(0 as float)) + coalesce(s1, cast(0 as float)))
          + (coalesce(s2, cast(0 as float)) + coalesce(s3, cast(0 as float)))) as score
  from wide where qid = 0
    and (s0 is not null or s1 is not null)
    and (s2 is not null or s3 is not null)
),
q1 as (
  select 1 as qid, doc_id, s0 as score
  from wide where qid = 1 and s0 is not null and s1 is null
),
q2 as (
  select 2 as qid, w.doc_id,
         (cast(2 as float) * (coalesce(s0, cast(0 as float)) + coalesce(s1, cast(0 as float)))
          + (case when p.doc_id is not null then cast(1 as float) else cast(0 as float) end)) as score
  from wide w left join prefix_hit p on p.doc_id = w.doc_id
  where qid = 2 and (s0 is not null or s1 is not null)
),
q3 as (
  select 3 as qid, doc_id,
         (coalesce(s0, cast(0 as float)) + coalesce(s1, cast(0 as float))) as score
  from wide where qid = 3
    and (s0 is not null or s1 is not null)
    and not (s2 is not null and s3 is not null)
),
allq as (
  select * from q0 union all select * from q1
  union all select * from q2 union all select * from q3
)
select cast(qid as int) as qid, doc_id, cast(score as float) as score
from allq
order by qid, doc_id
"""


def classic_tfidf_topk(sf_dir: str):
    """Same term workload under ClassicSimilarity (TF-IDF): tf=sqrt(freq),
    idf=ln((N+1)/(df+1))+1, lengthNorm=1/sqrt(len) via the SmallFloat INT
    table — float32-exact vs the DuckDB oracle
    (``ClassicSimilarity.java:43-72``, ``TFIDFSimilarity.java:436-472``)."""
    return _run(sf_dir, TERM_QUERIES, similarity="classic")


def lmdirichlet_topk(sf_dir: str):
    """Same term workload under LMDirichletSimilarity (mu=2000): double
    Dirichlet-smoothed LM score clamped at 0, narrowed to float32
    (``LMDirichletSimilarity.java:76-81``)."""
    return _run(sf_dir, TERM_QUERIES, similarity="lmdirichlet")


def lmjelinekmercer_topk(sf_dir: str):
    """Same term workload under LMJelinekMercerSimilarity (λ=0.25):
    double JM-smoothed LM score, clamped at 0, narrowed to float32
    (``LMJelinekMercerSimilarity.java:67-74``)."""
    return _run(sf_dir, TERM_QUERIES, similarity="lmjelinekmercer")


def dfr_inl2_topk(sf_dir: str):
    """Same term workload under DFR I(n)L2
    (``DFRSimilarity.java`` + BasicModelIn/AfterEffectL/
    NormalizationH2(1)): double DFR score, clamp at 0, narrow to
    float32."""
    return _run(sf_dir, TERM_QUERIES, similarity="dfr_inl2")


def bm25_topk_shuffle(sf_dir: str):
    """Same query set over an index built by the groupby-term SHUFFLE build
    with head-term salting (index.shuffle_build) — must match the same
    bit-exact oracle as the segmented build."""
    import os

    import ray.data

    from lucene_ray.index.config import IndexConfig
    from lucene_ray.index.shuffle_build import build_index_shuffled
    from lucene_ray.pipelines.index_cache import CACHE_ROOT, index_dir_for

    cfg = IndexConfig(rows_per_segment=128, num_buckets=3, positions=False,
                      hot_term_df_ratio=0.5, num_salts=4)
    idx = index_dir_for(sf_dir, cfg) + "_shuffle"
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        os.makedirs(idx, exist_ok=True)
        build_index_shuffled(
            os.path.join(sf_dir, "documents.parquet"), idx, cfg
        )
    qds = ray.data.from_items([{"qid": q, "query": t} for q, t in TERM_QUERIES])
    from lucene_ray.search.searcher import search_dataset

    res = search_dataset(idx, qds, k=K)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


class _TokenizeStage:
    """Actor-pool tokenize stage feeding the ``TokenStreamColumn`` build
    path (``core/document/column/TokenStreamColumn.java:23-37``):
    analyzer built once per actor, each batch runs one vectorized
    ``analyze_flat`` pass and rebuilds a ``list<string>`` tokens column
    from the flat stream + per-doc lengths (Arrow offsets, no per-row
    Python)."""

    def __init__(self):
        self.analyzer = Analyzer()

    def __call__(self, b: pa.Table) -> pa.Table:
        import numpy as np

        texts = b.column("text").to_pylist()
        flat, lengths, _pos = self.analyzer.analyze_flat(texts)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        elif not isinstance(flat, pa.Array):
            flat = pa.array(list(flat), pa.large_string())
        tokens = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), flat.cast(pa.large_string())
        )
        return pa.table({"doc_id": b.column("doc_id"), "tokens": tokens})


PRETOK_CONFIG = IndexConfig(
    rows_per_segment=2048, num_buckets=2, text_col="tokens", pretokenized=True
)


def pretokenized_topk(sf_dir: str):
    """TokenStreamColumn ingestion end-to-end: a Ray map_batches stage
    tokenizes the corpus into a ``list<string>`` parquet, the build
    inverts those caller-supplied tokens verbatim (``pretokenized=True``,
    no analyzer in the build), and the same term workload must match the
    same bit-exact BM25 oracle as the analyzed build."""
    import os

    import ray.data

    from lucene_ray.index.build import build_index
    from lucene_ray.pipelines.index_cache import index_dir_for

    tag = index_dir_for(sf_dir, PRETOK_CONFIG)
    tok_dir = tag + "_tokens"
    if not os.path.exists(tok_dir):
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        tmp = tok_dir + ".tmp"
        ds.map_batches(
            _TokenizeStage, concurrency=actor_pool(), batch_format="pyarrow"
        ).write_parquet(tmp)
        os.replace(tmp, tok_dir)
    if not os.path.exists(os.path.join(tag, "manifest.json")):
        os.makedirs(tag, exist_ok=True)
        build_index(tok_dir, tag, PRETOK_CONFIG)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in TERM_QUERIES]
    )
    res = search_dataset(tag, qds, k=K)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_pretokenized_topk() -> str:
    """Pre-analyzed tokens invert to the identical index, so the oracle
    is the analyzed-build BM25 oracle verbatim."""
    return sql_bm25_topk()


# postings-format SPI (PostingsFormat.forName + PerFieldPostingsFormat):
# the whole index stored in the "plain" uncompressed format — queries run
# exhaustively (no impacts), scores must still hash-match the same oracle
PLAIN_CONFIG = IndexConfig(
    rows_per_segment=2048, num_buckets=2, postings_format="plain"
)


def bm25_topk_plain(sf_dir: str):
    """Same term workload over an index whose postings use the ``plain``
    SPI codec (``codecs/spi.py``) — proves a second registered
    PostingsFormat round-trips through build, read, and scoring with
    bit-identical BM25 results."""
    import ray.data

    idx = get_or_build_index(sf_dir, PLAIN_CONFIG)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in TERM_QUERIES]
    )
    res = search_dataset(idx, qds, k=K)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_bm25_topk_plain() -> str:
    """The codec changes bytes, not semantics: same BM25 oracle."""
    return sql_bm25_topk()


# -- raw-HTML ingestion (HTMLStripCharFilter char-filter stage) ------------
# The north rule's input corpus carries an ``html:binary`` column; this
# query proves the engine indexes it DIRECTLY — text_col="html" with the
# "html_strip" char filter — no separate extraction pass needed.
HTML_CONFIG = IndexConfig(
    rows_per_segment=2048,
    num_buckets=2,
    text_col="html",
    char_filters=("html_strip",),
)


def _html_corpus(sf_dir: str) -> str:
    """Derive an (doc_id, html:binary) corpus from documents.text by the
    deterministic page wrapper (``corpus/generator.wrap_html``), cached
    under /tmp. Ray map_batches, two-phase directory commit."""
    import hashlib
    import shutil

    import ray.data

    from lucene_ray.corpus.generator import wrap_html
    from lucene_ray.pipelines.index_cache import CACHE_ROOT

    docs = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"{os.path.abspath(docs)}:{os.path.getmtime(docs)}".encode()
    ).hexdigest()[:16]
    out = os.path.join(CACHE_ROOT, f"html_src_{tag}")
    if not os.path.isdir(out):
        tmp = out + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)

        def to_html(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "html": pa.array(
                        [
                            wrap_html(t or "")
                            for t in b.column("text").to_pylist()
                        ],
                        pa.binary(),
                    ),
                }
            )

        ray.data.read_parquet(docs, columns=["doc_id", "text"]).map_batches(
            to_html, batch_format="pyarrow"
        ).write_parquet(tmp)
        try:
            os.replace(tmp, out)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner
    return out


def html_bm25_topk(sf_dir: str):
    """→ (qid, rank, doc_id, score): the standard term queries against an
    index built FROM RAW HTML BYTES through the html_strip char filter."""
    import hashlib

    import ray.data

    from lucene_ray.index.build import build_index
    from lucene_ray.pipelines.index_cache import CACHE_ROOT

    src = _html_corpus(sf_dir)
    tag = hashlib.sha1(
        f"{src}:{sorted(HTML_CONFIG.to_json().items())}".encode()
    ).hexdigest()[:16]
    idx = os.path.join(CACHE_ROOT, tag)
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        os.makedirs(idx, exist_ok=True)
        build_index(src, idx, HTML_CONFIG)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in TERM_QUERIES]
    )
    res = search_dataset(idx, qds, k=K)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


# token-equivalent stripped html: every tag of the fixed page wrapper
# becomes one space, so the token stream is the boilerplate words around
# the text (title "page", nav "boilerplate nav links", footer "footer
# boilerplate") — recomputed here instead of regexp-stripping binary html
# in SQL (same tokens, simpler plan)
_TOK_HTML = r"""
  select doc_id, t.term from (
    select doc_id,
           'page boilerplate nav links ' || text || ' footer boilerplate' as s
    from documents
  ), unnest(regexp_split_to_array(s, '\s+')) as t(term)
  where t.term <> ''
"""


def sql_html_bm25_topk() -> str:
    return f"""{_prelude(_TOK_HTML)},
{_score_cte(TERM_QUERIES)}
, ranked as (
  select qid, doc_id, s as score,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from tscore
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


# IndexSearcher.count (core/search/IndexSearcher.java:495-526): exact hit
# counts without scoring — df shortcut, two-clause inclusion-exclusion,
# exhaustive fallback — one query per code path
COUNT_QUERIES: List[Tuple[int, str]] = [
    (0, "data"),                # term → Weight#count df shortcut
    (1, "zzzabsent the"),       # two-clause, one empty → max(c1, c2)
    (2, "spark the"),           # two-clause skewed → inclusion-exclusion
    (3, "data vector window"),  # 3 clauses → exhaustive fallback
    (4, "+batch +stream"),      # conjunction → exhaustive fallback
    (5, "+the -data"),          # ReqExcl → exhaustive fallback
]


class _CountActor:
    """Stateful map_batches actor: open the index once, count per row."""

    def __init__(self, index_dir: str):
        self.searcher = IndexSearcher(index_dir)

    def __call__(self, b: pa.Table) -> pa.Table:
        counts = [
            self.searcher.count(q) for q in b.column("query").to_pylist()
        ]
        return pa.table(
            {
                "qid": b.column("qid"),
                "count": pa.array(counts, pa.int64()),
            }
        )


def hit_count(sf_dir: str):
    """→ (qid, count) exact hit counts across the count() code paths."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in COUNT_QUERIES]
    )
    return qds.map_batches(
        _CountActor,
        fn_constructor_kwargs={"index_dir": idx},
        concurrency=actor_pool(),
        batch_format="pyarrow",
        batch_size=4,
    )


def sql_hit_count() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
c as (
  select 0 as qid, count(distinct doc_id)::bigint as cnt
    from tok where term = 'data'
  union all
  select 1, count(distinct doc_id) from tok where term in ('zzzabsent', 'the')
  union all
  select 2, count(distinct doc_id) from tok where term in ('spark', 'the')
  union all
  select 3, count(distinct doc_id)
    from tok where term in ('data', 'vector', 'window')
  union all
  select 4, (select count(*) from (
      select distinct doc_id from tok where term = 'batch'
      intersect
      select distinct doc_id from tok where term = 'stream'))
  union all
  select 5, (select count(*) from (
      select distinct doc_id from tok where term = 'the'
      except
      select distinct doc_id from tok where term = 'data'))
)
select cast(qid as int) as qid, cast(cnt as bigint) as count from c
"""


# IndexSearcher.explain: factor attribution for top hits. The oracle
# recomputes every Explanation detail — freq, SmallFloat-quantized dl,
# df, float32 idf, double tf narrowed to float32 — proving the tree
# carries the REAL scoring factors, not display-only approximations.
EXPLAIN_QUERIES: List[Tuple[int, str]] = [
    (0, "spark"),
    (1, "data"),
    (2, "query"),
    (3, "the"),
]
EXPLAIN_K = 3


class _ExplainActor:
    """Open the index once per actor; search top-k then explain each hit
    (``IndexSearcher.explain`` surface) and emit the BM25 factor tree
    flattened to columns."""

    def __init__(self, index_dir: str):
        self.searcher = IndexSearcher(index_dir)

    def __call__(self, b: pa.Table) -> pa.Table:
        out = {
            "qid": [], "rank": [], "doc_id": [], "score": [],
            "freq": [], "dl": [], "df": [], "idf": [], "tf": [],
        }
        import numpy as np

        for qid, term in zip(
            b.column("qid").to_pylist(), b.column("query").to_pylist()
        ):
            r = self.searcher.search(
                TermQuery(term), k=EXPLAIN_K, mode="exhaustive"
            )
            for rank, (docid, key) in enumerate(zip(r["docids"], r["keys"])):
                e = self.searcher.explain(TermQuery(term), int(docid))
                score_node = e.details[0]
                boost_n, idf_n, tf_n = score_node.details
                out["qid"].append(qid)
                out["rank"].append(rank)
                out["doc_id"].append(int(key))
                out["score"].append(np.float32(e.value))
                out["freq"].append(int(tf_n.details[0].value))
                out["dl"].append(int(tf_n.details[3].value))
                out["df"].append(int(idf_n.details[0].value))
                out["idf"].append(np.float32(idf_n.value))
                out["tf"].append(np.float32(tf_n.value))
        return pa.table(
            {
                "qid": pa.array(out["qid"], pa.int32()),
                "rank": pa.array(out["rank"], pa.int32()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float32()),
                "freq": pa.array(out["freq"], pa.int64()),
                "dl": pa.array(out["dl"], pa.int64()),
                "df": pa.array(out["df"], pa.int64()),
                "idf": pa.array(out["idf"], pa.float32()),
                "tf": pa.array(out["tf"], pa.float32()),
            }
        )


def explain_score(sf_dir: str):
    """→ (qid, rank, doc_id, score, freq, dl, df, idf, tf): the flattened
    ``Explanation`` tree for each top-3 hit of four term queries."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in EXPLAIN_QUERIES]
    )
    return qds.map_batches(
        _ExplainActor,
        fn_constructor_kwargs={"index_dir": idx},
        concurrency=actor_pool(),
        batch_format="pyarrow",
        batch_size=2,
    )


def sql_explain_score() -> str:
    """Every Explanation factor recomputed in DuckDB: float32 idf/score
    via FLOAT arithmetic, tf in double then narrowed (the engine computes
    the tf detail in float64 with k1 = double(float32(1.2)))."""
    values = ", ".join(f"({q}, '{t}')" for q, t in EXPLAIN_QUERIES)
    return f"""{_PRELUDE},
qterms(qid, term) as (values {values}),
tf as (
  select q.qid, q.term, tok.doc_id, count(*)::bigint as freq
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3
),
dfs as (
  select term, count(distinct doc_id)::bigint as df from tok
  where term in (select term from qterms) group by term
),
w as (
  select q.qid, q.term, d.df,
         cast(ln(1 + ((select doc_count from stats) - d.df + 0.5)
                     / (d.df + 0.5)) as float) as idf
  from qterms q join dfs d using (term)
),
scored as (
  select tf.qid, tf.doc_id, tf.freq, w.df, w.idf,
         w.idf - w.idf / (cast(1 as float) + cast(tf.freq as float) * f.inv) as s,
         nt.dec as dl,
         cast(
           cast(tf.freq as double) /
           (cast(tf.freq as double)
            + cast(cast(1.2 as float) as double)
              * (1 - 0.75 + 0.75 * cast(nt.dec as double)
                 / ((select sum_ttf from stats)
                    / cast((select doc_count from stats) as double))))
           as float) as tf_f
  from tf
  join w on w.qid = tf.qid
  join fnorm f on f.doc_id = tf.doc_id
  join docnorm dn on dn.doc_id = tf.doc_id
  join nt on nt.b = dn.nb
),
ranked as (
  select *, row_number() over (
    partition by qid order by s desc, doc_id asc) as rn
  from scored
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(s as float) as score, freq, cast(dl as bigint) as dl, df,
       idf, tf_f as tf
from ranked where rn <= {EXPLAIN_K}
"""


def bm25_disjunction(sf_dir: str):
    return _run(sf_dir, DISJ_QUERIES)


def bm25_topk_filtered(sf_dir: str):
    """Field-scoped search: text scoring + keyword-field FILTER clauses
    (`#lang:en`) + doc-values range filters — a real user's first query
    shape (`lang:en +crawl`, round-1 VERDICT missing #1)."""
    import ray.data

    idx = get_or_build_index(sf_dir, MF_CONFIG)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in FILTERED_QUERIES]
    )
    res = search_dataset(idx, qds, k=K)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sort_by_field(sf_dir: str, k: int = 25):
    """Field sort: lang:en match set ordered by n_chars desc — the
    ``Sort``/``TopFieldCollector`` surface over doc values."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    r = s.search_sorted("#lang:en", "n_chars", k=k, descending=True)
    return pa.table(
        {
            "rank": pa.array(range(len(r["keys"])), pa.int32()),
            "doc_id": pa.array([int(d) for d in r["keys"]], pa.int64()),
            "n_chars": pa.array([int(v) for v in r["sort_values"]], pa.int64()),
        }
    )


def sort_by_field_page2(sf_dir: str, k: int = 25):
    """Cursor-paginated field sort (``IndexSearcher.searchAfter`` with a
    ``Sort``): page 1's last (sort_value, docid) becomes the cursor, the
    point-walk path binary-seeks it (``NumericComparator`` competitive
    iterator role) — deep pages never re-touch the served prefix."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    p1 = s.search_sorted(
        "#lang:en", "n_chars", k=k, descending=True, point_walk_min=0
    )
    after = (p1["sort_values"][-1], int(p1["docids"][-1]))
    r = s.search_sorted(
        "#lang:en", "n_chars", k=k, descending=True,
        point_walk_min=0, after=after,
    )
    return pa.table(
        {
            "rank": pa.array(range(k, k + len(r["keys"])), pa.int32()),
            "doc_id": pa.array([int(d) for d in r["keys"]], pa.int64()),
            "n_chars": pa.array([int(v) for v in r["sort_values"]], pa.int64()),
        }
    )


def sql_sort_by_field_page2(k: int = 25) -> str:
    return f"""
with ranked as (
  select doc_id, n_chars,
         row_number() over (order by n_chars desc, doc_id asc) as rn
  from documents where lang = 'en'
)
select cast(rn - 1 as int) as rank, doc_id, n_chars::bigint as n_chars
from ranked where rn > {k} and rn <= {2 * k}
"""


def bm25_conjunction(sf_dir: str):
    return _run(sf_dir, CONJ_QUERIES)


# expression sort (lucene/expressions): rank the 'data' match set by a
# compiled double-math expression over _score and doc-values fields
# NB: oracle expressions stick to IEEE-exact double ops (+ - * /
# sqrt min max abs) — transcendentals (ln/pow) differ from DuckDB's
# libm in the last ulp at full double precision (covered by unit
# tests instead)
EXPR_QUERIES: List[Tuple[int, str]] = [
    (0, "_score + 0.1 * sqrt(n_chars)"),
    (1, "_score * 2 - 1"),
    (2, "max(_score, 1 / n_chars) + sqrt(n_chars) / 10"),
]


def expression_sort(sf_dir: str, k: int = 10):
    """ExpressionSortField over the BM25 match set of term 'data': every
    qid is one expression, all float64 math — bit-exact vs the DuckDB
    oracle (scores are f32 widened to double on both sides)."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    rows_q, rows_r, rows_d, rows_v = [], [], [], []
    for qid, e in EXPR_QUERIES:
        r = s.search_expr("data", e, k=k)
        for rank, (key, v) in enumerate(zip(r["keys"], r["expr_values"])):
            rows_q.append(qid)
            rows_r.append(rank)
            rows_d.append(int(key))
            rows_v.append(float(v))
    return pa.table(
        {
            "qid": pa.array(rows_q, pa.int32()),
            "rank": pa.array(rows_r, pa.int32()),
            "doc_id": pa.array(rows_d, pa.int64()),
            "expr_val": pa.array(rows_v, pa.float64()),
        }
    )


# index sorted by n_chars desc at build + through merges
# (IndexWriterConfig.setIndexSort, Sorter.java)
IDXSORT_CONFIG = IndexConfig(
    rows_per_segment=2048,
    num_buckets=2,
    keyword_cols=("lang", "source"),
    dv_cols=("n_chars", "doc_id"),
    index_sort=("n_chars", "desc"),
)


def sort_by_field_indexsorted(sf_dir: str, k: int = 25):
    """Same field-sort workload over an INDEX-SORTED index: segment docid
    order == sort order, so the collector early-terminates at k matches
    per leaf (``TopFieldCollector`` canEarlyTerminate). Results must be
    identical to ``sort_by_field`` — same DuckDB oracle."""
    idx = get_or_build_index(sf_dir, IDXSORT_CONFIG)
    s = IndexSearcher(idx)
    r = s.search_sorted("#lang:en", "n_chars", k=k, descending=True)
    return pa.table(
        {
            "rank": pa.array(range(len(r["keys"])), pa.int32()),
            "doc_id": pa.array([int(d) for d in r["keys"]], pa.int64()),
            "n_chars": pa.array([int(v) for v in r["sort_values"]], pa.int64()),
        }
    )


# MultiTermQuery family: dictionary-expanded, constant-score match sets
PREFIX_QUERIES: List[Tuple[int, str]] = [
    (0, "s*"),        # scan small slow sort spark stream ...
    (1, "st*"),       # stream
    (2, "lang:e*"),   # keyword-field prefix: en + es
]
WILDCARD_QUERIES: List[Tuple[int, str]] = [
    (0, "s?an"),      # scan
    (1, "*er"),       # customer filter order ...
    (2, "w?nd*"),     # window
]
FUZZY_QUERIES: List[Tuple[int, str]] = [
    (0, "scann~1"),
    (1, "quer~2"),
    (2, "data~1"),
]
TERMRANGE_QUERIES: List[Tuple[int, str]] = [
    (0, "[sort TO spark]"),   # lexicographic text-term range
    (1, "[st TO sz]"),        # bounds that are not themselves terms
    (2, "lang:[de TO es]"),   # keyword-field range
]


def _matchset_run(sf_dir: str, queries: List[Tuple[int, str]], config=None):
    """Full (qid, doc_id) match set of constant-score queries through the
    searcher actor pool."""
    import ray.data

    idx = get_or_build_index(sf_dir, config or MF_CONFIG)
    qds = ray.data.from_items(
        [{"qid": q, "query": t, "k": 10**9} for q, t in queries]
    )
    res = search_dataset(idx, qds)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid").cast(pa.int32()),
                "doc_id": b.column("key").cast(pa.int64()),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def prefix_search(sf_dir: str):
    """PrefixQuery expansion (text + keyword fields)."""
    return _matchset_run(sf_dir, PREFIX_QUERIES)


def term_range_search(sf_dir: str):
    """TermRangeQuery expansion: lexicographic dictionary ranges
    (``core/search/TermRangeQuery.java``), text + keyword fields."""
    return _matchset_run(sf_dir, TERMRANGE_QUERIES)


def sql_term_range_search() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (
  select 0 as qid, doc_id from tok where term between 'sort' and 'spark'
  union
  select 1 as qid, doc_id from tok where term between 'st' and 'sz'
  union
  select 2 as qid, doc_id from documents where lang between 'de' and 'es'
)
select cast(qid as int) as qid, doc_id from m
"""


def wildcard_search(sf_dir: str):
    """WildcardQuery expansion (``*`` / ``?``), including a leading-``*``
    full-dictionary scan."""
    return _matchset_run(sf_dir, WILDCARD_QUERIES)


def fuzzy_search(sf_dir: str):
    """FuzzyQuery: Damerau-Levenshtein dictionary expansion, ≤2 edits."""
    return _matchset_run(sf_dir, FUZZY_QUERIES)


# EnglishAnalyzer-style stemmed index: possessive strip + Porter stem
# resolved by registry name (analysis/filters.py). Inflected query
# surface forms must reach the base-form documents: the corpus
# vocabulary is a fixed 31-term base-form set, so each query stem maps
# to exactly one corpus token — the oracle enumerates that closure.
STEM_CONFIG = IndexConfig(
    rows_per_segment=2048,
    num_buckets=2,
    term_filters=("englishpossessive", "porterstem"),
)
# (qid, inflected query, the one corpus surface form sharing its stem)
STEM_QUERIES: List[Tuple[int, str, str]] = [
    (0, "merging", "merge"),
    (1, "queries", "query"),
    (2, "valued", "value"),
    (3, "customers", "customer"),
    (4, "tables", "table"),
    (5, "sorted", "sort"),
]


def stemmed_search(sf_dir: str):
    """PorterStemFilter chain end-to-end: inflected query terms match
    base-form documents through the stemmed index."""
    return _matchset_run(
        sf_dir, [(q, t) for q, t, _ in STEM_QUERIES], config=STEM_CONFIG
    )


def sql_stemmed_search() -> str:
    arms = "\n  union\n".join(
        f"  select {qid} as qid, doc_id from tok where term = '{base}'"
        for qid, _, base in STEM_QUERIES
    )
    return f"""
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (
{arms}
)
select cast(qid as int) as qid, doc_id from m
"""


REGEXP_QUERIES: List[Tuple[int, str]] = [
    (0, "/st[aeiou][a-z]*/"),      # class + star over the text dictionary
    (1, "/(data|spark)s?/"),       # alternation + optional suffix
    (2, "lang:/e./"),              # keyword-field regexp (en | es)
]


def regexp_search(sf_dir: str):
    """RegexpQuery: anchored regular-expression dictionary expansion
    (text + keyword fields), constant-score match sets."""
    return _matchset_run(sf_dir, REGEXP_QUERIES)


def sql_regexp_search() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (
  select 0 as qid, doc_id from tok where regexp_full_match(term, 'st[aeiou][a-z]*')
  union
  select 1 as qid, doc_id from tok where regexp_full_match(term, '(data|spark)s?')
  union
  select 2 as qid, doc_id from documents where regexp_full_match(lang, 'e.')
)
select cast(qid as int) as qid, doc_id from m
"""


def sql_prefix_search() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (
  select 0 as qid, doc_id from tok where term like 's%'
  union
  select 1 as qid, doc_id from tok where term like 'st%'
  union
  select 2 as qid, doc_id from documents where lang like 'e%'
)
select cast(qid as int) as qid, doc_id from m
"""


def sql_wildcard_search() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (
  select 0 as qid, doc_id from tok where term like 's_an'
  union
  select 1 as qid, doc_id from tok where term like '%er'
  union
  select 2 as qid, doc_id from tok where term like 'w_nd%'
)
select cast(qid as int) as qid, doc_id from m
"""


def sql_fuzzy_search() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (
  select 0 as qid, doc_id from tok where damerau_levenshtein(term, 'scann') <= 1
  union
  select 1 as qid, doc_id from tok where damerau_levenshtein(term, 'quer') <= 2
  union
  select 2 as qid, doc_id from tok where damerau_levenshtein(term, 'data') <= 1
)
select cast(qid as int) as qid, doc_id from m
"""


PHRASE_QUERIES: List[Tuple[int, str]] = [
    (0, '"batch stream"'),
    (1, '"merge sort"'),
    (2, '"data data"'),
]

# 2-distinct-term sloppy phrases: the match set is SQL-expressible —
# freq > 0 ⟺ ∃ (pa, pb) with |(pb − 1) − pa| ≤ slop (property-tested in
# tests/test_sloppy_phrase.py against the exact SloppyPhraseMatcher)
SLOPPY_QUERIES: List[Tuple[int, str, str, int]] = [
    (0, "batch", "stream", 1),
    (1, "data", "window", 2),
    (2, "merge", "join", 3),
]


def sloppy_phrase_search(sf_dir: str):
    """Sloppy-phrase match sets through the searcher actor pool."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [
            {"qid": q, "query": f'"{a} {b}"~{s}', "k": 10**9}
            for q, a, b, s in SLOPPY_QUERIES
        ]
    )
    res = search_dataset(idx, qds)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid").cast(pa.int32()),
                "doc_id": b.column("key").cast(pa.int64()),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_sloppy_phrase_search() -> str:
    phr = ", ".join(
        f"({q}, '{a}', '{b}', {s})" for q, a, b, s in SLOPPY_QUERIES
    )
    return f"""
with w as (
  select doc_id, string_split(text, ' ') as ws from documents
),
ptok as (
  select doc_id, i as pos, ws[i+1] as term
  from w, unnest(range(array_length(ws))) as t(i)
  where ws[i+1] <> ''
),
phr(qid, t1, t2, slop) as (values {phr})
select distinct cast(p.qid as int) as qid, a.doc_id
from phr p
join ptok a on a.term = p.t1
join ptok b on b.term = p.t2 and b.doc_id = a.doc_id
where abs((b.pos - 1) - a.pos) <= p.slop
"""


def phrase_search(sf_dir: str):
    """Exact-phrase match set (full match set per phrase) through the same
    searcher actor pool as every other query pipeline."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t, "k": 10**9} for q, t in PHRASE_QUERIES]
    )
    res = search_dataset(idx, qds)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid").cast(pa.int32()),
                "doc_id": b.column("key").cast(pa.int64()),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


# --------------------------------------------------------------------------
# oracle SQL
# --------------------------------------------------------------------------

# shared prelude: tokenization, doc lengths, SmallFloat norm bytes, stats.
# norm decode replicates SmallFloat.byte4ToInt (SmallFloat.java:145-168);
# encode(L) == max byte whose decoded value <= L (truncating mantissa).
_TOK_DEFAULT = """
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
"""


def _prelude(tok_sql: str = _TOK_DEFAULT) -> str:
    """The shared BM25 oracle prelude over a pluggable token source
    (the default: whitespace tokens of ``documents.text``)."""
    return f"""
with tok as ({tok_sql}),
doclen as (select doc_id, count(*)::bigint as len from tok group by doc_id),
alldocs as (
  select d.doc_id, coalesce(l.len, 0) as len
  from documents d left join doclen l using (doc_id)
),
stats as (
  select count(*) filter (where len > 0) as doc_count,
         sum(len) as sum_ttf
  from alldocs
),
nt as (
  select b, case when b < 24 then b
           else 24 + (case when ((b-24)>>3) - 1 = -1 then (b-24)&7
                      else (((b-24)&7)|8) << (((b-24)>>3) - 1) end)
           end as dec
  from (select unnest(range(256)) as b)
),
docnorm as (
  select a.doc_id, a.len, max(nt.b) as nb
  from alldocs a join nt on nt.dec <= a.len
  group by a.doc_id, a.len
),
fnorm as (
  select dn.doc_id,
         cast(1 as float) / (cast(1.2 as float) * ((cast(1 as float) - cast(0.75 as float))
           + (cast(0.75 as float) * cast(nt.dec as float))
             / (select cast(sum_ttf / cast(doc_count as double) as float) from stats)))
         as inv
  from docnorm dn join nt on nt.b = dn.nb
)
"""


_PRELUDE = _prelude()


def _qterms_values(queries: List[Tuple[int, str]]) -> str:
    rows = []
    for qid, q in queries:
        for ti, raw in enumerate(q.split()):
            occur = "MUST_NOT" if raw.startswith("-") else (
                "MUST" if raw.startswith("+") else "SHOULD"
            )
            term = raw.lstrip("+-")
            rows.append(f"({qid}, {ti}, '{term}', '{occur}')")
    return ",\n       ".join(rows)


def _score_cte(queries: List[Tuple[int, str]]) -> str:
    """per (qid, ti, doc): float32 BM25 term score (positive occurs only)."""
    return f"""
qterms(qid, ti, term, occur) as (
  values {_qterms_values(queries)}
),
tf as (
  select q.qid, q.ti, q.occur, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3, 4
),
df as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.qid, tf.ti, tf.occur, tf.doc_id,
         w.w - w.w / (cast(1 as float) + cast(tf.tf as float) * f.inv) as s
  from tf
  join qterms q on q.qid = tf.qid and q.ti = tf.ti
  join (
    select d.term,
           cast(ln(1 + ((select doc_count from stats) - d.df + 0.5) / (d.df + 0.5)) as float) as w
    from df d
  ) w on w.term = q.term
  join fnorm f on f.doc_id = tf.doc_id
)
"""


def sql_bm25_topk() -> str:
    return f"""{_PRELUDE},
{_score_cte(TERM_QUERIES)}
, ranked as (
  select qid, doc_id, s as score,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from tscore
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


def sql_classic_tfidf_topk() -> str:
    """ClassicSimilarity oracle: per step-narrowed float32
    ``(f32(sqrt(tf)) * f32(ln((N+1)/(df+1))+1)) * f32(1/sqrt(declen))``
    (FLOAT*FLOAT stays FLOAT in DuckDB, same per-op narrowing as the
    engine's TableScorer)."""
    return f"""{_PRELUDE},
qterms(qid, ti, term, occur) as (
  values {_qterms_values(TERM_QUERIES)}
),
tf as (
  select q.qid, q.ti, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3
),
df as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
idf as (
  select d.term,
         cast(ln(cast((select doc_count from stats) + 1 as double)
                 / cast(d.df + 1 as double)) + 1.0 as float) as qw
  from df d
),
cnorm as (
  select dn.doc_id, cast(1.0 / sqrt(cast(nt.dec as double)) as float) as norm
  from docnorm dn join nt on nt.b = dn.nb
),
tscore as (
  select tf.qid, tf.doc_id,
         ((cast(sqrt(cast(tf.tf as double)) as float) * i.qw) * n.norm) as s
  from tf
  join qterms q on q.qid = tf.qid and q.ti = tf.ti
  join idf i on i.term = q.term
  join cnorm n on n.doc_id = tf.doc_id
),
ranked as (
  select qid, doc_id, s as score,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from tscore
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


def sql_lmdirichlet_topk() -> str:
    """LMDirichlet oracle: double math, clamp at 0, single narrow to
    float32 (mu=2000, p=(ttf+1)/(sum_ttf+1), docLen = SmallFloat-decoded
    norm length)."""
    return f"""{_PRELUDE},
qterms(qid, ti, term, occur) as (
  values {_qterms_values(TERM_QUERIES)}
),
tf as (
  select q.qid, q.ti, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3
),
ttfs as (
  select term, count(*)::bigint as ttf from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.qid, tf.doc_id,
         cast(greatest(
           ln(1.0 + cast(tf.tf as double)
                    / (2000.0 * ((t.ttf + 1.0)
                       / ((select sum_ttf from stats) + 1.0))))
           + ln(2000.0 / (cast(nt.dec as double) + 2000.0)),
           0.0) as float) as s
  from tf
  join qterms q on q.qid = tf.qid and q.ti = tf.ti
  join ttfs t on t.term = q.term
  join docnorm dn on dn.doc_id = tf.doc_id
  join nt on nt.b = dn.nb
),
ranked as (
  select qid, doc_id, s as score,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from tscore
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


def sql_lmjelinekmercer_topk() -> str:
    """Jelinek-Mercer oracle: double math, λ=0.25 (exact float), clamp
    at 0, single narrow to float32 — association mirrors the engine:
    ((1-λ)·tf/dl) / (λ·p)."""
    return f"""{_PRELUDE},
qterms(qid, ti, term, occur) as (
  values {_qterms_values(TERM_QUERIES)}
),
tf as (
  select q.qid, q.ti, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3
),
ttfs as (
  select term, count(*)::bigint as ttf from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.qid, tf.doc_id,
         cast(greatest(
           ln(1.0 + (0.75 * cast(tf.tf as double) / cast(nt.dec as double))
                    / (0.25 * ((t.ttf + 1.0)
                       / ((select sum_ttf from stats) + 1.0)))),
           0.0) as float) as s
  from tf
  join qterms q on q.qid = tf.qid and q.ti = tf.ti
  join ttfs t on t.term = q.term
  join docnorm dn on dn.doc_id = tf.doc_id
  join nt on nt.b = dn.nb
),
ranked as (
  select qid, doc_id, s as score,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from tscore
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


def sql_dfr_inl2_topk() -> str:
    """DFR I(n)L2 oracle: double math (log2 = ln/ln(2), the
    reference's SimilarityBase.log2), clamp at 0, single narrow to
    float32; boost and the L after-effect factor are exact 1.0
    multiplies and omitted."""
    return f"""{_PRELUDE},
qterms(qid, ti, term, occur) as (
  values {_qterms_values(TERM_QUERIES)}
),
tf as (
  select q.qid, q.ti, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3
),
df as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.qid, tf.doc_id,
         cast(greatest(
           (ln(((select doc_count from stats) + 1) / (d.df + 0.5)) / ln(2))
           * (1.0 - 1.0 / (1.0 +
               cast(tf.tf as double)
               * (ln(1.0 + (select sum_ttf / cast(doc_count as double)
                            from stats) / cast(nt.dec as double)) / ln(2)))),
           0.0) as float) as s
  from tf
  join qterms q on q.qid = tf.qid and q.ti = tf.ti
  join df d on d.term = q.term
  join docnorm dn on dn.doc_id = tf.doc_id
  join nt on nt.b = dn.nb
),
ranked as (
  select qid, doc_id, s as score,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from tscore
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


def sql_expression_sort(k: int = 10) -> str:
    """Expression-sort oracle: single-term f32 BM25 score widened to
    double, then each qid's expression in plain double SQL math."""
    return f"""{_PRELUDE},
tf1 as (
  select tok.doc_id, count(*)::bigint as tf from tok
  where tok.term = 'data' group by 1
),
df1 as (select count(distinct doc_id) as df from tok where term = 'data'),
sc as (
  select tf1.doc_id,
         cast(w.w - w.w / (cast(1 as float) + cast(tf1.tf as float) * f.inv)
              as double) as s,
         cast(d.n_chars as double) as nc
  from tf1
  cross join (
    select cast(ln(1 + ((select doc_count from stats) - df + 0.5) / (df + 0.5))
                as float) as w
    from df1
  ) w
  join fnorm f on f.doc_id = tf1.doc_id
  join documents d on d.doc_id = tf1.doc_id
),
vals as (
  select 0 as qid, doc_id, s + 0.1 * sqrt(nc) as v from sc
  union all
  select 1, doc_id, s * 2 - 1 from sc
  union all
  select 2, doc_id, greatest(s, 1 / nc) + sqrt(nc) / 10 from sc
),
ranked as (
  select qid, doc_id, v,
         row_number() over (partition by qid order by v desc, doc_id asc) as rn
  from vals
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       v as expr_val
from ranked where rn <= {k}
"""


def sql_bm25_disjunction() -> str:
    # left-associative float32 sum in clause (ti) order; FLOAT stays FLOAT
    return f"""{_PRELUDE},
{_score_cte(DISJ_QUERIES)}
, summed as (
  select qid, doc_id,
         ((coalesce(max(s) filter (where ti = 0), cast(0 as float))
           + coalesce(max(s) filter (where ti = 1), cast(0 as float)))
           + coalesce(max(s) filter (where ti = 2), cast(0 as float))) as score
  from tscore group by qid, doc_id
),
ranked as (
  select qid, doc_id, score,
         row_number() over (partition by qid order by score desc, doc_id asc) as rn
  from summed
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


def sql_bm25_conjunction() -> str:
    return f"""{_PRELUDE},
{_score_cte(CONJ_QUERIES)}
, need as (
  select qid, count(*) as n_must from qterms where occur = 'MUST' group by qid
),
pos as (
  select qid, doc_id,
         ((coalesce(max(s) filter (where ti = 0), cast(0 as float))
           + coalesce(max(s) filter (where ti = 1), cast(0 as float)))
           + coalesce(max(s) filter (where ti = 2), cast(0 as float))) as score,
         count(*) as n_hit
  from tscore where occur = 'MUST'
  group by qid, doc_id
),
neg as (
  select distinct qid, doc_id from tscore where occur = 'MUST_NOT'
),
ranked as (
  select p.qid, p.doc_id, p.score,
         row_number() over (partition by p.qid order by p.score desc, p.doc_id asc) as rn
  from pos p
  join need using (qid)
  anti join neg on neg.qid = p.qid and neg.doc_id = p.doc_id
  where p.n_hit = need.n_must
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


def sql_bm25_topk_filtered() -> str:
    """Text-term BM25 (same bit-exact algebra) with per-qid document
    filters. SHOULD terms are optional when required/filter clauses exist
    (Lucene BooleanQuery semantics), so filter-matching docs without the
    text term rank with score 0."""
    values = (
        "(0, 0, 'data', 'SHOULD'), (1, 0, 'spark', 'SHOULD'), "
        "(1, 1, 'merge', 'SHOULD'), (2, 0, 'query', 'MUST'), "
        "(3, 0, 'data', 'SHOULD'), (4, 0, 'the', 'MUST')"
    )
    return f"""{_PRELUDE},
qterms(qid, ti, term, occur) as (
  values {values}
),
tf as (
  select q.qid, q.ti, q.occur, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3, 4
),
df as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.qid, tf.ti, tf.occur, tf.doc_id,
         w.w - w.w / (cast(1 as float) + cast(tf.tf as float) * f.inv) as s
  from tf
  join qterms q on q.qid = tf.qid and q.ti = tf.ti
  join (
    select d.term,
           cast(ln(1 + ((select doc_count from stats) - d.df + 0.5) / (d.df + 0.5)) as float) as w
    from df d
  ) w on w.term = q.term
  join fnorm f on f.doc_id = tf.doc_id
),
summed as (
  select qid, doc_id,
         (coalesce(max(s) filter (where ti = 0), cast(0 as float))
          + coalesce(max(s) filter (where ti = 1), cast(0 as float))) as score,
         count(*) filter (where occur = 'MUST') as n_must_hit
  from tscore group by 1, 2
),
matchset as (
  select q.qid, d.doc_id, coalesce(s.score, cast(0 as float)) as score
  from (values (0), (1), (2), (3), (4)) q(qid)
  cross join documents d
  left join summed s on s.qid = q.qid and s.doc_id = d.doc_id
  where ((q.qid = 0 and d.lang = 'en')
      or (q.qid = 1 and d.lang = 'de')
      or (q.qid = 2 and d.source = 'src3' and coalesce(s.n_must_hit, 0) >= 1)
      or (q.qid = 3 and d.n_chars between 150 and 400)
      or (q.qid = 4 and d.lang = 'zh' and d.n_chars >= 100
          and coalesce(s.n_must_hit, 0) >= 1))
),
ranked as (
  select qid, doc_id, score,
         row_number() over (partition by qid order by score desc, doc_id asc) as rn
  from matchset
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


SYNONYM_SETS: List[Tuple[int, Tuple[str, ...]]] = [
    (0, ("batch", "stream")),
    (1, ("data", "query", "merge")),
]


def synonym_search(sf_dir: str, k: int = 10):
    """SynonymQuery: variants scored as one pseudo-term (freqs sum,
    docFreq = max variant df). Bit-exact DuckDB oracle."""
    idx = get_or_build_index(sf_dir)
    s = IndexSearcher(idx)
    rows_q, rows_r, rows_d, rows_s = [], [], [], []
    for qid, terms in SYNONYM_SETS:
        r = s.search(SynonymQuery(terms), k=k, mode="exhaustive")
        for rank in range(len(r["docids"])):
            rows_q.append(qid)
            rows_r.append(rank)
            rows_d.append(int(r["keys"][rank]))
            rows_s.append(float(r["scores"][rank]))
    return pa.table(
        {
            "qid": pa.array(rows_q, pa.int32()),
            "rank": pa.array(rows_r, pa.int32()),
            "doc_id": pa.array(rows_d, pa.int64()),
            "score": pa.array(rows_s, pa.float32()),
        }
    )


def sql_synonym_search(k: int = 10) -> str:
    sets = ", ".join(
        f"({qid}, '{t}')" for qid, terms in SYNONYM_SETS for t in terms
    )
    return f"""{_PRELUDE},
syn(qid, term) as (values {sets}),
tf as (
  select s.qid, tok.doc_id, count(*)::bigint as tf
  from syn s join tok on tok.term = s.term
  group by 1, 2
),
pseudo_df as (
  select s.qid, max(d.df) as df
  from syn s join (
    select term, count(distinct doc_id) as df from tok group by term
  ) d on d.term = s.term
  group by 1
),
scored as (
  select tf.qid, tf.doc_id,
         w.w - w.w / (cast(1 as float) + cast(tf.tf as float) * f.inv) as s
  from tf
  join (
    select qid,
           cast(ln(1 + ((select doc_count from stats) - df + 0.5) / (df + 0.5)) as float) as w
    from pseudo_df
  ) w on w.qid = tf.qid
  join fnorm f on f.doc_id = tf.doc_id
),
ranked as (
  select qid, doc_id, s,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from scored
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(s as float) as score
from ranked where rn <= {k}
"""


def facet_lang(sf_dir: str):
    """Facet counts per lang over the 'data' match set (lucene/facet
    role over DV columns)."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    t = s.facet_counts("data", "lang")
    return pa.table({"lang": t.column("value"), "n": t.column("n")})


def sql_facet_lang() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (select distinct doc_id from tok where term = 'data')
select d.lang, count(*)::bigint as n
from documents d join m using (doc_id)
group by d.lang
"""


# LongRangeFacetCounts ranges over the n_chars DV column: (label, lo, hi)
# with both bounds inclusive; deliberately overlapping last two ranges to
# exercise the one-count-per-containing-range semantics
N_CHARS_RANGES: Tuple[Tuple[str, int, int], ...] = (
    ("short", 0, 249),
    ("medium", 250, 449),
    ("long", 400, 1 << 40),
)


def facet_ranges(sf_dir: str):
    """Numeric range facets over the 'data' match set — the
    ``lucene/facet`` ``LongRangeFacetCounts`` role over the n_chars DV
    column (overlapping ranges count a doc once per containing range)."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    return s.facet_ranges("data", "n_chars", N_CHARS_RANGES)


def sql_facet_ranges() -> str:
    values = ", ".join(f"('{lab}', {lo}, {hi})" for lab, lo, hi in N_CHARS_RANGES)
    return f"""
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (select distinct doc_id from tok where term = 'data'),
j as (select d.n_chars from documents d join m using (doc_id)),
r(range, lo, hi) as (values {values})
select r.range,
       (select count(*) from j where j.n_chars between r.lo and r.hi)::bigint as n
from r
"""


def diversified_topk(sf_dir: str, k: int = 10, cap: int = 2):
    """Diversified top-k (``DiversifiedTopDocsCollector``): BM25 hits for
    'data' with at most ``cap`` results per lang."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    t = s.search_diversified("data", "lang", max_per_key=cap, k=k)
    return pa.table(
        {
            "rank": t.column("rank"),
            "lang": t.column("key_value"),
            "doc_id": t.column("key").cast(pa.int64()),
            "score": t.column("score"),
        }
    )


def sql_diversified_topk(k: int = 10, cap: int = 2) -> str:
    return f"""{_PRELUDE},
tf1 as (
  select tok.doc_id, count(*)::bigint as tf from tok
  where tok.term = 'data' group by 1
),
df1 as (select count(distinct doc_id) as df from tok where term = 'data'),
sc as (
  select tf1.doc_id,
         w.w - w.w / (cast(1 as float) + cast(tf1.tf as float) * f.inv) as s
  from tf1
  cross join (
    select cast(ln(1 + ((select doc_count from stats) - df + 0.5) / (df + 0.5))
                as float) as w
    from df1
  ) w
  join fnorm f on f.doc_id = tf1.doc_id
),
capped as (
  select t.doc_id, d.lang, t.s,
         row_number() over (partition by d.lang order by t.s desc, t.doc_id asc) as kr
  from sc t join documents d using (doc_id)
  where d.lang is not null
),
ranked as (
  select doc_id, lang, s,
         row_number() over (order by s desc, doc_id asc) as rn
  from capped where kr <= {cap}
)
select cast(rn - 1 as int) as rank, lang, doc_id, cast(s as float) as score
from ranked where rn <= {k}
"""


def bm25_topk_deleted(sf_dir: str):
    """Deletes end-to-end (``IndexWriter.deleteDocuments(Query)`` +
    ``Lucene90LiveDocsFormat``): lang:de docs are tombstoned, then the
    standard term workload runs — matches filter to LIVE docs while
    collection statistics (df, norms, avgdl) keep their pre-delete
    values until compaction, exactly the reference's semantics. The
    oracle scores with FULL-corpus stats and filters lang<>'de'."""
    import ray.data

    from lucene_ray.index.deletes import delete_by_query

    # a DEDICATED index (distinct cache key): tombstones must never
    # leak into the MF_CONFIG index shared by the other gate entries
    del_config = IndexConfig(
        rows_per_segment=2048, num_buckets=2, keyword_cols=("lang",)
    )
    idx = get_or_build_index(sf_dir, del_config)
    # apply the tombstones once per cache entry (generational bitmaps
    # are idempotent, but skip the re-evaluation on warm runs)
    marker = os.path.join(idx, ".deleted_lang_de")
    if not os.path.exists(marker):
        delete_by_query(idx, "#lang:de")
        with open(marker, "w") as f:
            f.write("lang:de")
    qds = ray.data.from_items([{"qid": q, "query": t} for q, t in TERM_QUERIES])
    res = search_dataset(idx, qds, k=K)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid").cast(pa.int32()),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_bm25_topk_deleted() -> str:
    # identical scoring algebra over the FULL corpus (deleted docs still
    # count in df/norms/avgdl), matches filtered to live (lang<>'de')
    return f"""{_PRELUDE},
{_score_cte(TERM_QUERIES)}
, ranked as (
  select t.qid, t.doc_id, t.s as score,
         row_number() over (partition by t.qid order by t.s desc, t.doc_id asc) as rn
  from tscore t join documents d using (doc_id)
  where d.lang <> 'de'
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


# term-vector index: same corpus with the per-doc (term, freq) row store
TV_CONFIG = IndexConfig(
    rows_per_segment=2048, num_buckets=2, store_term_vectors=True
)
TV_DOC_IDS = (5, 17, 123)


def term_vectors(sf_dir: str):
    """Stored term vectors — ``TermVectors.get(docID)``
    (``core/index/TermVectors.java``, ``Lucene90TermVectorsFormat``):
    per-doc (term, freq) read back from the segment row store, NOT
    re-analyzed at query time."""
    import pyarrow.compute as pc

    idx = get_or_build_index(sf_dir, TV_CONFIG)
    s = IndexSearcher(idx)
    wanted = pa.array(list(TV_DOC_IDS), pa.int64())
    parts = []
    for seg in s.segments:
        hit = np.flatnonzero(
            pc.is_in(seg.docmap.cast(pa.int64()), value_set=wanted)
        )
        for local in hit:
            t = seg.term_vector(int(local))
            parts.append(
                pa.table(
                    {
                        "doc_id": pa.array(
                            [seg.docmap[int(local)].as_py()] * t.num_rows,
                            pa.int64(),
                        ),
                        "term": t.column("term"),
                        "freq": t.column("freq").cast(pa.int64()),
                    }
                )
            )
    return pa.concat_tables(parts)


def sql_term_vectors() -> str:
    ids = ", ".join(str(i) for i in TV_DOC_IDS)
    return f"""
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
)
select doc_id, term, count(*)::bigint as freq
from tok where doc_id in ({ids})
group by doc_id, term
"""


def sort_by_string(sf_dir: str, k: int = 20):
    """SortField.STRING: the 'data' match set ordered by the ``lang``
    string DV column ascending (per-segment ordinals, raw-value global
    merge), ties by docid — `TermOrdValComparator` semantics."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    r = s.search_sorted("data", "lang", k=k, descending=False)
    return pa.table(
        {
            "rank": pa.array(range(len(r["keys"])), pa.int32()),
            "doc_id": pa.array([int(d) for d in r["keys"]], pa.int64()),
            "lang": pa.array(list(r["sort_values"]), pa.string()),
        }
    )


def sql_sort_by_string(k: int = 20) -> str:
    return f"""
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (select distinct doc_id from tok where term = 'data'),
ranked as (
  select d.doc_id, d.lang,
         row_number() over (order by d.lang asc, d.doc_id asc) as rn
  from documents d join m using (doc_id)
  where d.lang is not null
)
select cast(rn - 1 as int) as rank, doc_id, lang
from ranked where rn <= {k}
"""


def bm25_topk_multireader(sf_dir: str):
    """MultiReader parity (``core/index/MultiReader.java``): the corpus
    split into TWO separately committed indexes, searched through one
    composite ``IndexSearcher([idx_a, idx_b])`` — collection stats sum
    across indexes, so scores are bit-identical to the single-index
    build and this entry reuses ``sql_bm25_topk``'s oracle unchanged.
    (The split itself is gate scaffolding: at scale MultiReader
    federates indexes that already exist separately.)"""
    import hashlib

    import pyarrow.parquet as pq_

    from lucene_ray.pipelines.index_cache import CACHE_ROOT

    docs = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"split:{os.path.abspath(docs)}:{os.path.getmtime(docs)}".encode()
    ).hexdigest()[:16]
    halves = []
    tbl = None  # read the source corpus at most once, cache-cold only
    for part in (0, 1):
        d = os.path.join(CACHE_ROOT, f"half{part}_{tag}")
        p = os.path.join(d, "documents.parquet")
        if not os.path.exists(p):
            os.makedirs(d, exist_ok=True)
            if tbl is None:
                tbl = pq_.read_table(docs)
            mid = len(tbl) // 2
            piece = tbl.slice(0, mid) if part == 0 else tbl.slice(mid)
            tmp = p + f".tmp{os.getpid()}"
            pq_.write_table(piece, tmp)
            os.replace(tmp, p)
        halves.append(get_or_build_index(d))
    s = IndexSearcher(halves)
    t = s.search_batch([q for q, _ in TERM_QUERIES], [x for _, x in TERM_QUERIES], K)
    return pa.table(
        {
            "qid": t.column("qid").cast(pa.int32()),
            "rank": t.column("rank"),
            "doc_id": t.column("key").cast(pa.int64()),
            "score": t.column("score"),
        }
    )


# CoveringQuery workload: 4 term clauses, per-doc minimum from an
# expression over the n_chars DV column — longer docs must match more
# clauses (floor(1 + n_chars/300), clamped ≥ 1)
COVERING_TERMS = ("spark", "merge", "data", "the")
COVERING_EXPR = "1 + n_chars / 300"


def covering_search(sf_dir: str, k: int = 15):
    """CoveringQuery: per-document minimum-should-match read from a
    doc-values expression (``lucene/sandbox CoveringQuery.java``) —
    score sums the matching clauses in clause order."""

    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    q = CoveringQuery(
        tuple(TermQuery(t) for t in COVERING_TERMS), COVERING_EXPR
    )
    r = s.search(q, k=k)
    return pa.table(
        {
            "rank": pa.array(range(len(r["keys"])), pa.int32()),
            "doc_id": pa.array([int(d) for d in r["keys"]], pa.int64()),
            "score": pa.array(r["scores"], pa.float32()),
        }
    )


def sql_covering_search(k: int = 15) -> str:
    values = ", ".join(
        f"({ti}, '{t}')" for ti, t in enumerate(COVERING_TERMS)
    )
    return f"""{_PRELUDE},
qterms(ti, term) as (values {values}),
tf as (
  select q.ti, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2
),
df as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.ti, tf.doc_id,
         w.w - w.w / (cast(1 as float) + cast(tf.tf as float) * f.inv) as s
  from tf
  join qterms q on q.ti = tf.ti
  join (
    select d.term,
           cast(ln(1 + ((select doc_count from stats) - d.df + 0.5) / (d.df + 0.5)) as float) as w
    from df d
  ) w on w.term = q.term
  join fnorm f on f.doc_id = tf.doc_id
),
summed as (
  select doc_id,
         (((coalesce(max(s) filter (where ti = 0), cast(0 as float))
            + coalesce(max(s) filter (where ti = 1), cast(0 as float)))
            + coalesce(max(s) filter (where ti = 2), cast(0 as float)))
            + coalesce(max(s) filter (where ti = 3), cast(0 as float))) as score,
         count(distinct ti) as n_hit
  from tscore group by doc_id
),
need as (
  select doc_id,
         greatest(floor(1 + n_chars / cast(300 as double)), 1)::bigint as mm
  from documents
),
ranked as (
  select s.doc_id, s.score,
         row_number() over (order by s.score desc, s.doc_id asc) as rn
  from summed s join need n using (doc_id)
  where s.n_hit >= n.mm
)
select cast(rn - 1 as int) as rank, doc_id, cast(score as float) as score
from ranked where rn <= {k}
"""


def facet_taxonomy(sf_dir: str):
    """Hierarchical taxonomy facets over the 'data' match set: counts at
    every path prefix of the source→lang dim hierarchy
    (``TaxonomyFacetCounts.getTopChildren`` at each level)."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    return s.facet_taxonomy("data", ("source", "lang"))


def sql_facet_taxonomy() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
m as (select distinct doc_id from tok where term = 'data'),
j as (select d.source, d.lang from documents d join m using (doc_id))
select source as path, count(*)::bigint as n from j
where source is not null group by source
union all
select source || '/' || lang as path, count(*)::bigint as n
from j where source is not null and lang is not null
group by source, lang
"""


# minimumNumberShouldMatch workload: 3 SHOULD terms, msm=2 — docs must
# match at least two (query 2 carries an absent term, so it degrades to
# a hidden conjunction of the two real terms)
MSM_QUERIES: List[Tuple[int, str]] = [
    (0, "spark merge window"),
    (1, "data vector query"),
    (2, "the customer zzzabsent"),
]


class _MsmFactory:
    """Picklable str → Query factory for the searcher actor pool: parse
    the disjunction, then pin ``minimumNumberShouldMatch``
    (``BooleanQuery.java`` msm — no classic-parser syntax exists for it,
    callers set it on the builder)."""

    def __init__(self, msm: int):
        self.msm = msm
        self._analyzer = None

    def __call__(self, text: str):
        if self._analyzer is None:
            self._analyzer = Analyzer()
        q = parse_query(text, self._analyzer)
        if isinstance(q, TermQuery):
            return BooleanQuery([(SHOULD, q)], self.msm)
        return BooleanQuery(q.clauses, self.msm)


def msm_search(sf_dir: str):
    """BooleanQuery.minimumNumberShouldMatch: SHOULD disjunctions that
    only match docs containing ≥2 of the 3 terms; scores still sum all
    matching clauses in clause order (float32)."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items([{"qid": q, "query": t} for q, t in MSM_QUERIES])
    res = search_dataset(
        idx, qds, k=K, query_factory=_MsmFactory(2)
    )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_msm_search() -> str:
    return f"""{_PRELUDE},
{_score_cte(MSM_QUERIES)}
, summed as (
  select qid, doc_id,
         ((coalesce(max(s) filter (where ti = 0), cast(0 as float))
           + coalesce(max(s) filter (where ti = 1), cast(0 as float)))
           + coalesce(max(s) filter (where ti = 2), cast(0 as float))) as score,
         count(distinct ti) as n_hit
  from tscore group by qid, doc_id
),
ranked as (
  select qid, doc_id, score,
         row_number() over (partition by qid order by score desc, doc_id asc) as rn
  from summed where n_hit >= 2
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


# events table indexed for "latest N" serving: props as the analyzed
# text, event_type as a StringField keyword, ts as a DV column WITH the
# timestamp point sidecar — the pages-corpus shape (warc_ts) over the
# driver's events fixture
EVENTS_TS_CONFIG = IndexConfig(
    text_col="props",
    key_col="event_id",
    rows_per_segment=2048,
    num_buckets=2,
    keyword_cols=("event_type",),
    dv_cols=("ts",),
    point_cols=("ts",),
)


def sort_by_ts(sf_dir: str, k: int = 25):
    """'Latest N' — field sort over a TIMESTAMP point column (the
    pages-corpus warc_ts shape): newest ``click`` events first via the
    point-walk competitive iterator."""
    idx = get_or_build_index(sf_dir, EVENTS_TS_CONFIG, table="events")
    s = IndexSearcher(idx)
    r = s.search_sorted(
        "#event_type:click", "ts", k=k, descending=True, point_walk_min=0
    )
    return pa.table(
        {
            "rank": pa.array(range(len(r["keys"])), pa.int32()),
            "event_id": pa.array([int(d) for d in r["keys"]], pa.int64()),
            "ts": pa.array(list(r["sort_values"]), pa.timestamp("us")),
        }
    )


def sql_sort_by_ts(k: int = 25) -> str:
    return f"""
with ranked as (
  select event_id, ts,
         row_number() over (order by ts desc, event_id asc) as rn
  from events where event_type = 'click'
)
select cast(rn - 1 as int) as rank, event_id, ts
from ranked where rn <= {k}
"""


# (qid, first term, second term, maxgaps)
INTERVAL_QUERIES = [
    (0, "scan", "column", 4),
    (1, "sort", "order", 8),
    (2, "join", "merge", 15),
]


def interval_ordered(sf_dir: str):
    """Minimal ordered intervals (``lucene/queries/intervals``
    ``Intervals.ordered`` + ``maxgaps``): per doc, every minimal
    interval [start, end] with t1 before t2 and at most g gap positions
    — emitted STRUCTURALLY (integer rows), so the DuckDB oracle checks
    the minimal-interval algorithm itself, not a float score. The
    scored ``IntervalQuery`` surface runs through the searcher and is
    property-tested in ``tests/test_intervals.py``."""
    import ray.data


    class Stage:
        def __init__(self):
            self.an = Analyzer()

        def __call__(self, b: pa.Table) -> pa.Table:
            qids, dids, starts, ends = [], [], [], []
            for did, text in zip(
                b.column("doc_id").to_pylist(), b.column("text").to_pylist()
            ):
                terms, _ = self.an.analyze_fast(text or "")
                ta = np.asarray(terms, dtype=object)
                for qid, t1, t2, g in INTERVAL_QUERIES:
                    p1 = np.flatnonzero(ta == t1)
                    p2 = np.flatnonzero(ta == t2)
                    if len(p1) == 0 or len(p2) == 0:
                        continue
                    for s_, e_ in filter_maxgaps(
                        ordered_intervals([p1, p2]), 2, g
                    ):
                        qids.append(qid)
                        dids.append(int(did))
                        starts.append(s_)
                        ends.append(e_)
            return pa.table(
                {
                    "qid": pa.array(qids, pa.int32()),
                    "doc_id": pa.array(dids, pa.int64()),
                    "start": pa.array(starts, pa.int64()),
                    "iend": pa.array(ends, pa.int64()),
                }
            )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(Stage, batch_format="pyarrow", concurrency=actor_pool())


def sql_interval_ordered() -> str:
    qs = ", ".join(f"({q}, '{a}', '{b}', {g})" for q, a, b, g in INTERVAL_QUERIES)
    return f"""
with w as (
  select doc_id, string_split(text, ' ') as ws from documents
),
ptok as (
  select doc_id, i as pos, ws[i+1] as term
  from w, unnest(range(array_length(ws))) as t(i)
  where ws[i+1] <> ''
),
iq(qid, t1, t2, g) as (values {qs}),
cand as (
  -- for each t2 position: tightest preceding t1 position
  select q.qid, a.doc_id, b.pos as p2, max(a.pos) as s
  from iq q
  join ptok a on a.term = q.t1
  join ptok b on b.term = q.t2 and b.doc_id = a.doc_id and a.pos < b.pos
  group by q.qid, a.doc_id, b.pos
),
minimal as (
  -- non-nested: one interval per start (the shortest)
  select qid, doc_id, s, min(p2) as p2 from cand group by qid, doc_id, s
)
select cast(m.qid as int) as qid, m.doc_id, m.s as start, m.p2 as iend
from minimal m join iq q on q.qid = m.qid
where (m.p2 - m.s + 1) - 2 <= q.g
"""


# (qid, t1, t2, t3): or(ordered(t1, t2), term(t3))
INTERVAL_OR_QUERIES = [
    (0, "scan", "column", "agg"),
    (1, "sort", "order", "key"),
]


def interval_or(sf_dir: str):
    """Disjunctive minimal intervals (``Intervals.or`` /
    ``DisjunctionIntervalsSource``): minimized union of an ordered
    two-term source and a term source — a term occurrence nests inside
    any ordered interval covering it, so exactly those ordered intervals
    drop out. Structural rows, integer-exact oracle."""
    import ray.data


    class Stage:
        def __init__(self):
            self.an = Analyzer()

        def __call__(self, b: pa.Table) -> pa.Table:
            qids, dids, starts, ends = [], [], [], []
            for did, text in zip(
                b.column("doc_id").to_pylist(), b.column("text").to_pylist()
            ):
                terms, _ = self.an.analyze_fast(text or "")
                ta = np.asarray(terms, dtype=object)
                for qid, t1, t2, t3 in INTERVAL_OR_QUERIES:
                    pls = {
                        t: np.flatnonzero(ta == t).astype(np.int64)
                        for t in (t1, t2, t3)
                    }
                    spec = (
                        "or",
                        ("ordered", ("term", t1), ("term", t2)),
                        ("term", t3),
                    )
                    iv, _ = eval_source(spec, pls)
                    for s_, e_ in iv:
                        qids.append(qid)
                        dids.append(int(did))
                        starts.append(s_)
                        ends.append(e_)
            return pa.table(
                {
                    "qid": pa.array(qids, pa.int32()),
                    "doc_id": pa.array(dids, pa.int64()),
                    "start": pa.array(starts, pa.int64()),
                    "iend": pa.array(ends, pa.int64()),
                }
            )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(Stage, batch_format="pyarrow", concurrency=actor_pool())


def sql_interval_or() -> str:
    qs = ", ".join(
        f"({q}, '{a}', '{b}', '{c}')" for q, a, b, c in INTERVAL_OR_QUERIES
    )
    return f"""
with w as (
  select doc_id, string_split(text, ' ') as ws from documents
),
ptok as (
  select doc_id, i as pos, ws[i+1] as term
  from w, unnest(range(array_length(ws))) as t(i)
  where ws[i+1] <> ''
),
iq(qid, t1, t2, t3) as (values {qs}),
cand as (
  select q.qid, a.doc_id, b.pos as p2, max(a.pos) as s
  from iq q
  join ptok a on a.term = q.t1
  join ptok b on b.term = q.t2 and b.doc_id = a.doc_id and a.pos < b.pos
  group by q.qid, a.doc_id, b.pos
),
minimal as (
  select qid, doc_id, s, min(p2) as p2 from cand group by qid, doc_id, s
),
keep_ord as (
  -- an ordered interval survives the disjunctive union only if no t3
  -- occurrence (a width-1 interval) nests inside it
  select m.qid, m.doc_id, m.s, m.p2
  from minimal m join iq q on q.qid = m.qid
  where not exists (
    select 1 from ptok p
    where p.doc_id = m.doc_id and p.term = q.t3
      and p.pos between m.s and m.p2
  )
)
select cast(qid as int) as qid, doc_id, s as start, p2 as iend from keep_ord
union all
select cast(q.qid as int), p.doc_id, p.pos, p.pos
from iq q join ptok p on p.term = q.t3
"""


def sort_multi(sf_dir: str, k: int = 25):
    """Multi-field sort (``Sort(SortField a, SortField b)``): lang:en
    ordered by (n_chars desc, doc_id desc) — the secondary direction
    differs from the docid tie-break, so it is observable."""
    idx = get_or_build_index(sf_dir, IDXSORT_CONFIG)
    s = IndexSearcher(idx)
    r = s.search_sorted_multi(
        "#lang:en", (("n_chars", "desc"), ("doc_id", "desc")), k=k
    )
    return pa.table(
        {
            "rank": pa.array(range(len(r["keys"])), pa.int32()),
            "doc_id": pa.array([int(d) for d in r["keys"]], pa.int64()),
            "n_chars": pa.array(
                [int(v[0]) for v in r["sort_values"]], pa.int64()
            ),
        }
    )


def sql_sort_multi(k: int = 25) -> str:
    return f"""
with ranked as (
  select doc_id, n_chars,
         row_number() over (order by n_chars desc, doc_id desc) as rn
  from documents where lang = 'en'
)
select cast(rn - 1 as int) as rank, doc_id, n_chars::bigint as n_chars
from ranked where rn <= {k}
"""


FUSION_QUERY = "data"
FUSION_VEC = 0
FUSION_N = 50
FUSION_K = 10
FUSION_AT, FUSION_BT = 0.8, 2.0  # text calibration (alpha, beta)
FUSION_AV, FUSION_BV = 3.0, 0.5  # vector calibration
# ln((1-eps)/eps) for eps=1e-6 — the log-odds clamp bound implied by
# rescore.log_odds_fusion's probability clipping (hardcoded so the SQL
# oracle uses the bit-identical literal)
FUSION_CLAMP = 13.815509557963773


def hybrid_fusion(sf_dir: str):
    """Hybrid BM25+KNN retrieval — the fork's flagship composition
    (``core/search/RescoreTopNQuery.java:17-26`` two-phase shape with
    ``BayesianScoreQuery.java:17-25`` sigmoid calibration feeding
    ``LogOddsFusionQuery.java:17-26`` log-odds fusion): first-phase BM25
    top-N, then each candidate's text score and its embedding's cosine
    to the query vector are calibrated into probabilities and fused by
    log-odds sum; final top-k by (fused desc, doc_id asc).

    Float64 end-to-end after the (bit-exact float32) BM25 scores so the
    DuckDB oracle reproduces every operation: probabilities clamped to
    [1e-6, 1-1e-6] exactly like ``rescore.log_odds_fusion``, fused
    log-odds quantized to integer micro-units on BOTH sides, ranking by
    the quantized value (same discipline as the knn bp scores)."""
    import pyarrow.parquet as pq_

    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    first = s.search(FUSION_QUERY, k=FUSION_N, mode="exhaustive")
    keys = [int(k_) for k_ in first["keys"]]
    bm25 = np.asarray(first["scores"], dtype=np.float64)  # f32→f64 exact
    tbl = pq_.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", sorted(set(keys) | {FUSION_VEC}))],
    )
    arr = tbl.column("embedding").combine_chunks()
    emb = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
    by_id = {int(v): i for i, v in enumerate(tbl.column("vec_id").to_pylist())}
    q = emb[by_id[FUSION_VEC]]
    # inner-join semantics (same as the oracle): first-phase candidates
    # without an embedding row cannot be fused and drop out AFTER the
    # top-N cut (at sf0.1 the embeddings table covers only a subset of
    # documents)
    have = [i for i, k_ in enumerate(keys) if k_ in by_id]
    keys = [keys[i] for i in have]
    bm25 = bm25[have]
    if not keys:
        return pa.table(
            {
                "rank": pa.array([], pa.int32()),
                "doc_id": pa.array([], pa.int64()),
                "fused_micro": pa.array([], pa.int64()),
            }
        )
    cand = emb[[by_id[k_] for k_ in keys]]
    # dot/(|a||b|) — the same operation order as list_cosine_similarity
    cos = (cand @ q) / (
        np.linalg.norm(cand, axis=1) * np.linalg.norm(q)
    )
    # log-odds of an eps-clamped sigmoid is the IDENTITY clamped at
    # ±ln((1-eps)/eps): ln(clip(sigmoid(x))/(1-clip(sigmoid(x)))) ==
    # clip(x, ±CL). Computing the closed form keeps the pipeline to
    # *, +, clip — operations DuckDB reproduces bit-for-bit — where the
    # sigmoid→ln roundtrip differs from DuckDB's libm by ~1e-14 and
    # could flake the integer quantization at a .5 boundary.
    L = np.clip(
        FUSION_AT * (bm25 - FUSION_BT), -FUSION_CLAMP, FUSION_CLAMP
    ) + np.clip(FUSION_AV * (cos - FUSION_BV), -FUSION_CLAMP, FUSION_CLAMP)
    micro = np.floor(L * 1_000_000 + 0.5).astype(np.int64)
    order = np.lexsort((np.asarray(keys), -micro))[:FUSION_K]
    return pa.table(
        {
            "rank": pa.array(range(len(order)), pa.int32()),
            "doc_id": pa.array([keys[i] for i in order], pa.int64()),
            "fused_micro": pa.array(micro[order], pa.int64()),
        }
    )


def sql_hybrid_fusion() -> str:
    return f"""{_PRELUDE},
{_score_cte([(0, FUSION_QUERY)])}
, cand as (
  select doc_id, s, row_number() over (order by s desc, doc_id asc) as rn
  from tscore
),
qvec as (select embedding::DOUBLE[] as qe from embeddings where vec_id = {FUSION_VEC}),
sims as (
  select c.doc_id, cast(c.s as double) as s64,
         list_cosine_similarity(e.embedding::DOUBLE[], q.qe) as cos
  from cand c join embeddings e on e.vec_id = c.doc_id, qvec q
  where c.rn <= {FUSION_N}
),
fused as (
  -- log-odds of an eps-clamped sigmoid == identity clamped at +-CL
  -- (see hybrid_fusion): pure *, +, clip — bit-identical to numpy
  select doc_id,
         cast(floor((
           least(greatest({FUSION_AT}*(s64-{FUSION_BT}), -{FUSION_CLAMP!r}), {FUSION_CLAMP!r})
           + least(greatest({FUSION_AV}*(cos-{FUSION_BV}), -{FUSION_CLAMP!r}), {FUSION_CLAMP!r})
         ) * 1000000 + 0.5) as bigint) as fused_micro
  from sims
),
out as (
  select doc_id, fused_micro,
         row_number() over (order by fused_micro desc, doc_id asc) as rn
  from fused
)
select cast(rn - 1 as int) as rank, doc_id, fused_micro
from out where rn <= {FUSION_K}
"""


def drill_sideways_facets(sf_dir: str):
    """DrillSideways (`lucene/facet/.../DrillSideways.java`): base query
    'data' drilled down to lang=en AND source=src0; each dimension's
    counts drop its own filter but keep the other's, plus the fully
    drilled hit count."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    r = s.drill_sideways(
        "data",
        drill_downs=(("lang", "en"), ("source", "src0")),
        facet_fields=("lang", "source"),
    )
    dims, vals, ns = [], [], []
    for f in sorted(r["facets"]):
        for v, n in sorted(r["facets"][f].items()):
            dims.append(f)
            vals.append(str(v))
            ns.append(n)
    dims.append("_drilled")
    vals.append("hits")
    ns.append(r["hits"])
    return pa.table(
        {
            "dim": pa.array(dims, pa.large_string()),
            "value": pa.array(vals, pa.large_string()),
            "n": pa.array(ns, pa.int64()),
        }
    )


def sql_drill_sideways_facets() -> str:
    return """
with m as (
  select doc_id, lang, source from documents
  where list_contains(string_split(text, ' '), 'data')
)
select 'lang' as dim, lang as value, count(*)::bigint as n
from m where source = 'src0' group by lang
union all
select 'source', source, count(*)::bigint
from m where lang = 'en' group by source
union all
select '_drilled', 'hits', count(*)::bigint
from m where lang = 'en' and source = 'src0'
"""


def grouped_topk(sf_dir: str, k_per_group: int = 3):
    """Per-lang top-k BM25 for 'data' (lucene/grouping two-pass collector
    role) — scores bit-exact, ties by docid."""
    idx = get_or_build_index(sf_dir, MF_CONFIG)
    s = IndexSearcher(idx)
    t = s.group_topk("data", "lang", k_per_group=k_per_group)
    return pa.table(
        {
            "lang": t.column("group"),
            "rank": t.column("rank"),
            "doc_id": t.column("key").cast(pa.int64()),
            "score": t.column("score"),
        }
    )


def sql_grouped_topk(k_per_group: int = 3) -> str:
    return f"""{_PRELUDE},
qterms(qid, ti, term, occur) as (values (0, 0, 'data', 'SHOULD')),
tf as (
  select q.qid, q.ti, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term
  group by 1, 2, 3
),
df as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
tscore as (
  select tf.doc_id,
         w.w - w.w / (cast(1 as float) + cast(tf.tf as float) * f.inv) as s
  from tf
  join (
    select d.term,
           cast(ln(1 + ((select doc_count from stats) - d.df + 0.5) / (d.df + 0.5)) as float) as w
    from df d
  ) w on true
  join fnorm f on f.doc_id = tf.doc_id
),
ranked as (
  select d.lang, t.doc_id, t.s,
         row_number() over (partition by d.lang order by t.s desc, t.doc_id asc) as rn
  from tscore t join documents d using (doc_id)
)
select lang, cast(rn - 1 as int) as rank, doc_id, cast(s as float) as score
from ranked where rn <= {k_per_group}
"""


def sql_sort_by_field(k: int = 25) -> str:
    return f"""
with ranked as (
  select doc_id, n_chars,
         row_number() over (order by n_chars desc, doc_id asc) as rn
  from documents where lang = 'en'
)
select cast(rn - 1 as int) as rank, doc_id, n_chars::bigint as n_chars
from ranked where rn <= {k}
"""


# -- MultiPhraseQuery --------------------------------------------------------
# slot spec string: "|"-separated alternatives per whitespace-separated
# slot, e.g. "batch|data stream" == phrase (batch OR data) followed by
# "stream" (``core/search/MultiPhraseQuery.java``). 2-slot specs keep the
# SQL oracle a single self-join; scores are emitted and hash-checked
# (idf = Σ float32 idfs over term occurrences with df > 0, freq = count
# of distinct match start positions).
MP_QUERIES: List[Tuple[int, str]] = [
    (0, "batch|data stream"),
    (1, "merge sort|join"),
    (2, "data|the data|window"),
    (3, "spark|zzzabsent merge"),
]


def make_multi_phrase(spec: str):
    """Picklable query factory for the actor pool."""

    return MultiPhraseQuery(
        positions=tuple(tuple(part.split("|")) for part in spec.split())
    )


def multi_phrase_search(sf_dir: str):
    """Scored MultiPhraseQuery match sets through the searcher actor
    pool: per-slot union of alternatives' postings+positions, exact
    phrase matching, BM25 at the phrase freq."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t, "k": 10**9} for q, t in MP_QUERIES]
    )
    res = search_dataset(
        idx, qds, query_factory=make_multi_phrase
    )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid").cast(pa.int32()),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_multi_phrase_search() -> str:
    slot_rows = []
    for qid, spec in MP_QUERIES:
        for slot, part in enumerate(spec.split()):
            for term in part.split("|"):
                slot_rows.append(f"({qid}, {slot}, '{term}')")
    slots = ",\n       ".join(slot_rows)
    return f"""{_PRELUDE},
mpslots(qid, slot, term) as (values {slots}),
w2 as (
  select doc_id, string_split(text, ' ') as ws from documents
),
ptok as (
  select doc_id, i as pos, ws[i+1] as term
  from w2, unnest(range(array_length(ws))) as t(i)
  where ws[i+1] <> ''
),
m0 as (
  select s0.qid, a.doc_id, a.pos
  from ptok a
  join mpslots s0 on s0.slot = 0 and s0.term = a.term
  join ptok b on b.doc_id = a.doc_id and b.pos = a.pos + 1
  join mpslots s1 on s1.qid = s0.qid and s1.slot = 1 and s1.term = b.term
),
pfreq as (
  select qid, doc_id, count(distinct pos)::bigint as freq
  from m0 group by qid, doc_id
),
mdf as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from mpslots) group by term
),
widf as (
  -- Σ float32 idfs (double accumulation) per term OCCURRENCE with
  -- df > 0 (inner join drops absent terms), narrowed to float32
  select s.qid,
         cast(sum(cast(cast(ln(1 + ((select doc_count from stats) - d.df + 0.5)
                                  / (d.df + 0.5)) as float) as double)) as float) as w
  from mpslots s join mdf d on d.term = s.term
  group by s.qid
)
select cast(p.qid as int) as qid, p.doc_id,
       cast(w.w - w.w / (cast(1 as float) + cast(p.freq as float) * f.inv) as float) as score
from pfreq p
join widf w using (qid)
join fnorm f using (doc_id)
"""


def sql_phrase_search() -> str:
    return """
with phrases(qid, p) as (values (0, 'batch stream'), (1, 'merge sort'), (2, 'data data'))
select cast(qid as int) as qid, doc_id
from documents, phrases
where (' ' || text || ' ') like ('% ' || p || ' %')
"""


# -- CombinedFieldQuery (BM25F) --------------------------------------------
# A second tokenized field is derived DETERMINISTICALLY from the corpus
# (title = first CF_TITLE_LEN whitespace tokens of text) in a streaming
# map_batches pass, indexed via IndexConfig.extra_text_cols, and queried
# with CombinedFieldQuery(text^1 + title^2) through the searcher actor
# pool. The DuckDB oracle replicates the BM25F algebra bit-exactly
# (integer weights keep every float32 accumulation exact):
# ``core/search/CombinedFieldQuery.java:228-243,292-312``,
# ``core/search/MultiNormsLeafSimScorer.java:168-180``.

CF_TITLE_LEN = 8
CF_FIELDS = (("text", 1.0), ("title", 2.0))
CF_QUERIES: List[Tuple[int, str]] = [
    (0, "data"),
    (1, "spark"),
    (2, "query"),
    (3, "the"),
    (4, "stream"),
    (5, "zzzabsent"),
]

CF_CONFIG = IndexConfig(
    rows_per_segment=2048, num_buckets=2, extra_text_cols=("title",)
)


def make_cfq(term: str):
    """Picklable query factory for the actor pool."""

    return CombinedFieldQuery(term=term, fields=CF_FIELDS)


def _cf_index(sf_dir: str) -> str:
    """Derive the title column (streaming, vectorized Arrow kernels) and
    build/cache the two-text-field index."""
    import hashlib

    import pyarrow.compute as pc
    import ray.data

    from lucene_ray.pipelines.index_cache import CACHE_ROOT

    docs = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"cf:{os.path.abspath(docs)}:{os.path.getmtime(docs)}:{CF_TITLE_LEN}:"
        f"{sorted(CF_CONFIG.to_json().items())}".encode()
    ).hexdigest()[:16]
    derived = os.path.join(CACHE_ROOT, f"cfdocs_{tag}")
    marker = os.path.join(derived, "_DONE")
    if not os.path.exists(marker):
        ds = ray.data.read_parquet(docs, columns=["doc_id", "text"])

        def add_title(b: pa.Table) -> pa.Table:
            toks = pc.split_pattern(b.column("text"), pattern=" ")
            title = pc.binary_join(
                pc.list_slice(toks, 0, CF_TITLE_LEN), " "
            )
            return b.append_column("title", title)

        ds.map_batches(add_title, batch_format="pyarrow").write_parquet(derived)
        with open(marker, "w"):
            pass
    idx = os.path.join(CACHE_ROOT, f"cfidx_{tag}")
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        from lucene_ray.index.build import build_index

        os.makedirs(idx, exist_ok=True)
        build_index(
            [
                os.path.join(derived, f)
                for f in sorted(os.listdir(derived))
                if f.endswith(".parquet")
            ],
            idx,
            CF_CONFIG,
        )
    return idx


def combined_field_topk(sf_dir: str):
    import ray.data

    idx = _cf_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in CF_QUERIES]
    )
    res = search_dataset(
        idx, qds, k=K, query_factory=make_cfq
    )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_combined_field_topk() -> str:
    qvals = ", ".join(f"({qid}, '{t}')" for qid, t in CF_QUERIES)
    return f"""
with base as (
  select doc_id, text,
         array_to_string(list_slice(string_split(text, ' '), 1, {CF_TITLE_LEN}), ' ') as title
  from documents
),
tok as (
  select doc_id, t.term from base, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
ttok as (
  select doc_id, t.term from base, unnest(string_split(title, ' ')) as t(term)
  where t.term <> ''
),
len_t as (select doc_id, count(*)::bigint as len from tok group by doc_id),
len_ti as (select doc_id, count(*)::bigint as len from ttok group by doc_id),
alldocs as (
  select b.doc_id, coalesce(lt.len, 0) as len_text, coalesce(li.len, 0) as len_title
  from base b left join len_t lt using (doc_id) left join len_ti li using (doc_id)
),
stats as (
  select greatest(count(*) filter (where len_text > 0),
                  count(*) filter (where len_title > 0)) as doc_count,
         (sum(len_text) + 2 * sum(len_title))::bigint as sum_ttf
  from alldocs
),
nt as (
  select b, case when b < 24 then b
           else 24 + (case when ((b-24)>>3) - 1 = -1 then (b-24)&7
                      else (((b-24)&7)|8) << (((b-24)>>3) - 1) end)
           end as dec
  from (select unnest(range(256)) as b)
),
nb_t as (
  select a.doc_id, max(nt.b) as nb from alldocs a join nt on nt.dec <= a.len_text
  group by a.doc_id
),
nb_ti as (
  select a.doc_id, max(nt.b) as nb from alldocs a join nt on nt.dec <= a.len_title
  group by a.doc_id
),
cnorm as (
  select a.doc_id, (n1.dec + 2 * n2.dec)::bigint as val
  from alldocs a
  join nb_t t on t.doc_id = a.doc_id join nt n1 on n1.b = t.nb
  join nb_ti ti on ti.doc_id = a.doc_id join nt n2 on n2.b = ti.nb
),
cnb as (
  select c.doc_id, max(nt.b) as nb from cnorm c join nt on nt.dec <= c.val
  group by c.doc_id
),
finv as (
  select cb.doc_id,
         cast(1 as float) / (cast(1.2 as float) * ((cast(1 as float) - cast(0.75 as float))
           + (cast(0.75 as float) * cast(nt.dec as float))
             / (select cast(sum_ttf / cast(doc_count as double) as float) from stats)))
         as inv
  from cnb cb join nt on nt.b = cb.nb
),
qterms(qid, term) as (values {qvals}),
df_t as (
  select term, count(distinct doc_id) as df from tok
  where term in (select term from qterms) group by term
),
df_ti as (
  select term, count(distinct doc_id) as df from ttok
  where term in (select term from qterms) group by term
),
dfq as (
  select q.qid, greatest(coalesce(dt.df, 0), coalesce(dti.df, 0)) as df
  from qterms q
  left join df_t dt on dt.term = q.term
  left join df_ti dti on dti.term = q.term
),
tf_t as (
  select q.qid, tok.doc_id, count(*)::bigint as tf
  from qterms q join tok on tok.term = q.term group by 1, 2
),
tf_ti as (
  select q.qid, ttok.doc_id, count(*)::bigint as tf
  from qterms q join ttok on ttok.term = q.term group by 1, 2
),
matched as (
  select coalesce(a.qid, b.qid) as qid, coalesce(a.doc_id, b.doc_id) as doc_id,
         cast(coalesce(a.tf, 0) + 2 * coalesce(b.tf, 0) as float) as freq
  from tf_t a full outer join tf_ti b on a.qid = b.qid and a.doc_id = b.doc_id
),
tscore as (
  select m.qid, m.doc_id, w.w - w.w / (cast(1 as float) + m.freq * f.inv) as s
  from matched m
  join (
    select d.qid,
           cast(ln(1 + ((select doc_count from stats) - d.df + 0.5) / (d.df + 0.5)) as float) as w
    from dfq d where d.df > 0
  ) w on w.qid = m.qid
  join finv f on f.doc_id = m.doc_id
),
ranked as (
  select qid, doc_id, s as score,
         row_number() over (partition by qid order by s desc, doc_id asc) as rn
  from tscore
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


# --------------------------------------------------------------------------
# DisjunctionMaxQuery / ConstantScoreQuery / TermInSetQuery / SpanNearQuery
# (round 2: best-field combiner, scoring firewall, set filter, proximity —
# ``core/search/DisjunctionMaxQuery.java``, ``ConstantScoreQuery.java``,
# ``TermInSetQuery.java``, ``lucene/queries/.../spans/SpanNearQuery.java``)
# --------------------------------------------------------------------------

DISMAX_TIE = 0.37
DISMAX_QUERIES: List[Tuple[int, str]] = [
    (0, "data model"),
    (1, "spark the"),
    (2, "query zzzabsent"),
    (3, "batch stream merge"),
]


def make_dismax(spec: str):
    """Picklable query factory: terms → DisjunctionMaxQuery(tie=0.37)."""

    return DisjunctionMaxQuery(
        tuple(TermQuery(t) for t in spec.split()), DISMAX_TIE
    )


def dismax_topk(sf_dir: str):
    """Best-field-wins top-k: score = max(term scores) + 0.37 × Σ others,
    double-accumulated, narrowed to float32 once
    (``DisjunctionMaxScorer`` ``score(DisiWrapper)``)."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in DISMAX_QUERIES]
    )
    res = search_dataset(idx, qds, k=K, query_factory=make_dismax)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_dismax_topk() -> str:
    return f"""{_PRELUDE},
{_score_cte(DISMAX_QUERIES)}
, dm as (
  select qid, doc_id,
         cast(cast(max(s) as double)
              + {DISMAX_TIE!r} * (sum(cast(s as double)) - cast(max(s) as double))
              as float) as score
  from tscore group by qid, doc_id
),
ranked as (
  select qid, doc_id, score,
         row_number() over (partition by qid order by score desc, doc_id asc) as rn
  from dm
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


CS_QUERIES: List[Tuple[int, str]] = [(0, "data"), (1, "spark"), (2, "zzzabsent")]
CS_BOOST = 0.5


def make_constant_score(spec: str):
    """term OR ConstantScore(the, 0.5): BM25(term) + 0.5 if doc has 'the'."""

    return BooleanQuery(
        (
            (SHOULD, TermQuery(spec)),
            (SHOULD, ConstantScoreQuery(TermQuery("the"), boost=CS_BOOST)),
        )
    )


def constant_score_topk(sf_dir: str):
    """ConstantScoreQuery inside a scored disjunction: the wrapped clause
    contributes exactly ``boost`` per matching doc (float32 accumulation
    in clause order, same algebra as every Boolean oracle)."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items([{"qid": q, "query": t} for q, t in CS_QUERIES])
    res = search_dataset(
        idx, qds, k=K, query_factory=make_constant_score
    )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_constant_score_topk() -> str:
    """score = f32(coalesce(term_score, 0) + 0.5) for docs containing
    'the', else term_score (clause-order float32 adds, both exact)."""
    return f"""{_PRELUDE},
{_score_cte(CS_QUERIES)}
, hasthe as (select distinct doc_id from tok where term = 'the'),
uni as (
  select q.qid, d.doc_id,
         max(t.s) as s0,
         max(case when h.doc_id is not null then 1 else 0 end) as has_the
  from (select distinct qid from qterms) q
  cross join documents d
  left join tscore t on t.qid = q.qid and t.doc_id = d.doc_id
  left join hasthe h on h.doc_id = d.doc_id
  group by 1, 2
),
scored as (
  select qid, doc_id,
         case when has_the = 1
              then cast(coalesce(s0, cast(0 as float)) + cast({CS_BOOST!r} as float) as float)
              else s0 end as score
  from uni
  where s0 is not null or has_the = 1
),
ranked as (
  select qid, doc_id, score,
         row_number() over (partition by qid order by score desc, doc_id asc) as rn
  from scored
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


TIS_QUERIES: List[Tuple[int, str, Tuple[str, ...]]] = [
    (0, "lang", ("en", "fr")),
    (1, "lang", ("zh",)),
    (2, "source", ("src1", "src4")),
    (3, "lang", ("xx_absent",)),
]


def make_term_in_set(spec: str):
    """spec = 'field|t1,t2,...' → TermInSetQuery."""

    fieldname, terms = spec.split("|", 1)
    return TermInSetQuery(fieldname, tuple(terms.split(",")))


def term_in_set(sf_dir: str):
    """Keyword-set membership filter → full match set (qid, doc_id)
    (``TermInSetQuery.java`` constant-score semantics; ordering-free
    match-set comparison like the other constant-score oracles)."""
    import ray.data

    idx = get_or_build_index(sf_dir, MF_CONFIG)
    qds = ray.data.from_items(
        [
            {"qid": q, "query": f"{f}|{','.join(ts)}", "k": 10**9}
            for q, f, ts in TIS_QUERIES
        ]
    )
    res = search_dataset(idx, qds, query_factory=make_term_in_set)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid").cast(pa.int32()),
                "doc_id": b.column("key").cast(pa.int64()),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_term_in_set() -> str:
    rows = " union all ".join(
        f"select {q} as qid, doc_id from documents where {f} in ("
        + ", ".join(f"'{t}'" for t in ts)
        + ")"
        for q, f, ts in TIS_QUERIES
    )
    return f"select cast(qid as int) as qid, doc_id from ({rows})"


# (qid, terms, slop, in_order) — distinct terms only (the SQL oracle's
# position joins assume distinct tokens; duplicate-term multiplicity is
# covered by unit tests against the brute-force reference)
SPAN_QUERIES: List[Tuple[int, Tuple[str, ...], int, bool]] = [
    (0, ("data", "model"), 2, True),
    (1, ("data", "model"), 2, False),
    (2, ("batch", "stream"), 0, True),
    (3, ("the", "data", "model"), 4, True),
    (4, ("merge", "sort"), 3, False),
]


def make_span(spec: str):
    """spec = 'o|slop|t1 t2 ...' or 'u|slop|...' → SpanNearQuery."""

    mode, slop, terms = spec.split("|", 2)
    return SpanNearQuery(
        tuple(terms.split()), slop=int(slop), in_order=(mode == "o")
    )


def span_near_search(sf_dir: str):
    """Span-near proximity match sets (ordered + unordered, 2- and 3-term)
    through the searcher actor pool; constant-score, match SET exact."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    qds = ray.data.from_items(
        [
            {
                "qid": q,
                "query": f"{'o' if o else 'u'}|{s}|{' '.join(ts)}",
                "k": 10**9,
            }
            for q, ts, s, o in SPAN_QUERIES
        ]
    )
    res = search_dataset(idx, qds, query_factory=make_span)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid").cast(pa.int32()),
                "doc_id": b.column("key").cast(pa.int64()),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_span_near_search() -> str:
    """Existence of a qualifying position assignment — per query an
    explicit position self-join (terms are distinct so position
    distinctness is automatic; width = max−min+1 ≤ slop + n)."""
    parts = []
    for q, ts, slop, ordered in SPAN_QUERIES:
        budget = slop + len(ts)
        if len(ts) == 2:
            t1, t2 = ts
            cond = (
                f"b.pos > a.pos and b.pos - a.pos + 1 <= {budget}"
                if ordered
                else f"abs(b.pos - a.pos) + 1 <= {budget}"
            )
            parts.append(
                f"select distinct {q} as qid, a.doc_id\n"
                f"from ptok a join ptok b on b.doc_id = a.doc_id\n"
                f"where a.term = '{t1}' and b.term = '{t2}' and {cond}"
            )
        else:
            t1, t2, t3 = ts
            cond = (
                f"a.pos < b.pos and b.pos < c.pos and c.pos - a.pos + 1 <= {budget}"
                if ordered
                else f"greatest(a.pos, b.pos, c.pos) - least(a.pos, b.pos, c.pos) + 1 <= {budget}"
            )
            parts.append(
                f"select distinct {q} as qid, a.doc_id\n"
                f"from ptok a join ptok b on b.doc_id = a.doc_id\n"
                f"     join ptok c on c.doc_id = a.doc_id\n"
                f"where a.term = '{t1}' and b.term = '{t2}' and c.term = '{t3}' and {cond}"
            )
        body = "\nunion all\n".join(parts)
    return f"""
with w as (
  select doc_id, string_split(text, ' ') as ws from documents
),
ptok as (
  select doc_id, i as pos, ws[i+1] as term
  from w, unnest(range(array_length(ws))) as t(i)
  where ws[i+1] <> ''
)
select cast(qid as int) as qid, doc_id from (
{body}
)
"""


# ---------------------------------------------------------------------------
# FeatureField / DOCS_AND_CUSTOM_FREQS: static scoring factors as postings
# (core/document/FeatureField.java, fork core/index/IndexOptions.java:51-56).
# n_chars is indexed as feature "n_chars" in the shared "features" field;
# each query combines a BM25 text clause (SHOULD) with one feature function
# clause (SHOULD) — the FeatureField javadoc's canonical usage (:92-104).
# Query string grammar (factory-parsed): "<text>|<func>:<feature>:<params>"
# ---------------------------------------------------------------------------

FEATURE_CONFIG = IndexConfig(
    rows_per_segment=2048,
    num_buckets=2,
    feature_cols=("n_chars",),
    dv_cols=("n_chars",),
)

# exactly-representable float32 params so engine/oracle constants agree
FEATURE_QUERIES: List[Tuple[int, str]] = [
    (0, "data|satu:n_chars:200:2"),         # w * (1 - k/(S+k))
    (1, "spark|linear:n_chars:0.0078125"),  # w * S   (w = 2^-7, exact)
    (2, "query|log:n_chars:1:0.5"),         # w * ln(a + S)
    (3, "the|sigmoid:n_chars:300:1.5:2"),   # w * (1 - k^a/(S^a+k^a))
]


def make_feature_query(spec: str):
    """Picklable factory: "<text terms>|<func>:<feature>:<params>" →
    BooleanQuery(SHOULD text clauses..., SHOULD FeatureQuery)."""
    text_part, feat_part = spec.split("|", 1)
    parts = feat_part.split(":")
    func, feature = parts[0], parts[1]
    if func == "satu":
        fq = FeatureQuery(feature, "satu", pivot=float(parts[2]),
                          weight=float(parts[3]))
    elif func == "linear":
        fq = FeatureQuery(feature, "linear", weight=float(parts[2]))
    elif func == "log":
        fq = FeatureQuery(feature, "log", scale=float(parts[2]),
                          weight=float(parts[3]))
    elif func == "sigmoid":
        fq = FeatureQuery(feature, "sigmoid", pivot=float(parts[2]),
                          exp=float(parts[3]), weight=float(parts[4]))
    else:
        raise ValueError(f"unknown feature function {func!r}")
    an = Analyzer()
    clauses = [
        (SHOULD, TermQuery(t))
        for tok in text_part.split()
        for t, *_ in an.analyze(tok)
    ]
    clauses.append((SHOULD, fq))
    return BooleanQuery(tuple(clauses))


def feature_boosted_topk(sf_dir: str):
    """BM25 term clause + FeatureField function clause, per-function
    coverage of linear/log/satu/sigmoid — scores hash-match the oracle."""
    import ray.data

    idx = get_or_build_index(sf_dir, FEATURE_CONFIG)
    qds = ray.data.from_items(
        [{"qid": q, "query": t} for q, t in FEATURE_QUERIES]
    )
    res = search_dataset(
        idx, qds, k=K, query_factory=make_feature_query
    )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "qid": b.column("qid"),
                "rank": b.column("rank"),
                "doc_id": b.column("key").cast(pa.int64()),
                "score": b.column("score"),
            }
        )

    return res.map_batches(rename, batch_format="pyarrow")


def sql_feature_boosted_topk() -> str:
    """Oracle: replicate the 9-significant-bit FeatureField quantization
    (floatToIntBits(v) >>> 15 then << 15 == truncate the float32 mantissa
    to 8 explicit bits == floor to a multiple of 2^(floor(log2 v) - 8)),
    then each scoring function with the engine's exact float32/float64
    op sequence."""
    text_queries = [(qid, spec.split("|", 1)[0]) for qid, spec in FEATURE_QUERIES]
    return f"""{_PRELUDE},
{_score_cte(text_queries)}
, feat as (
  select doc_id,
         cast(floor(n_chars / power(2.0, greatest(floor(log2(cast(n_chars as double))) - 8, 0)))
              * power(2.0, greatest(floor(log2(cast(n_chars as double))) - 8, 0)) as float) as S
  from documents
  where n_chars is not null
),
fscore as (
  select doc_id,
         cast(2 as float) * (cast(1 as float) - cast(200 as float) / (S + cast(200 as float))) as f0,
         cast(0.0078125 as float) * S as f1,
         cast(cast(0.5 as double) * ln(cast(S + cast(1 as float) as double)) as float) as f2,
         cast(cast(2 as double) * (1 - power(cast(300 as double), 1.5)
              / (power(cast(S as double), 1.5) + power(cast(300 as double), 1.5))) as float) as f3
  from feat
),
summed as (
  select q.qid, f.doc_id,
         (coalesce(t.s, cast(0 as float))
          + case q.qid when 0 then f.f0 when 1 then f.f1
                       when 2 then f.f2 else f.f3 end) as score
  from (select distinct qid from qterms) q
  cross join fscore f
  left join tscore t on t.qid = q.qid and t.doc_id = f.doc_id
),
ranked as (
  select qid, doc_id, score,
         row_number() over (partition by qid order by score desc, doc_id asc) as rn
  from summed
)
select cast(qid as int) as qid, cast(rn - 1 as int) as rank, doc_id,
       cast(score as float) as score
from ranked where rn <= {K}
"""


# -- index-time synonym graph (SynonymGraphFilter + FlattenGraphFilter) ----

SYN_CONFIG = IndexConfig(
    rows_per_segment=2048,
    num_buckets=2,
    synonyms=("merge, combine", "table scan => tablescan"),
)
# (qid, query) — "combine" is absent from the corpus and reaches docs
# only through the indexed equivalence class; "tablescan" exists only
# where the multi-word mapping consumed a consecutive "table scan".
SYN_QUERIES: List[Tuple[int, str]] = [
    (0, "combine"),
    (1, "tablescan"),
    (2, "merge"),
    (3, '"fast combine"'),  # phrase through a same-position synonym
]


def synonym_graph_search(sf_dir: str):
    """Index-time SynonymGraphFilter end-to-end
    (`lucene/analysis/common/.../synonym/SynonymGraphFilter.java` +
    ``FlattenGraphFilter.java``): documents are indexed through a
    synonym-expanding analyzer (equivalence class inserts at the same
    position; multi-word mapping replaces with greedy-longest match),
    queries analyze WITHOUT re-expansion. Full match sets."""
    return _matchset_run(sf_dir, SYN_QUERIES, config=SYN_CONFIG)


def sql_synonym_graph_search() -> str:
    return """
with tl as (
  select doc_id, string_split(text, ' ') as l from documents
),
tok as (
  select doc_id, unnest(l) as term, generate_subscripts(l, 1) as ord from tl
),
m as (
  select 0 as qid, doc_id from tok where term in ('merge', 'combine')
  union
  select 1 as qid, a.doc_id from tok a
    join tok b on a.doc_id = b.doc_id and b.ord = a.ord + 1
    where a.term = 'table' and b.term = 'scan'
  union
  select 2 as qid, doc_id from tok where term in ('merge', 'combine')
  union
  select 3 as qid, a.doc_id from tok a
    join tok b on a.doc_id = b.doc_id and b.ord = a.ord + 1
    where a.term = 'fast' and b.term = 'merge'
)
select cast(qid as int) as qid, doc_id from m
"""
