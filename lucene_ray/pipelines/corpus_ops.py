"""Corpus analytics as Ray Data pipelines + DuckDB oracle SQL.

Covers SURVEY §2.7 aggregations (per-term stats, per-field stats), §2.6
primary-key dedup, and the text-analysis extensions (token counting,
quality metrics, language distribution).
"""

from __future__ import annotations

import os

from lucene_ray.cluster import actor_pool

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_ray.analysis.analyzer import Analyzer
from lucene_ray.codecs.smallfloat import LENGTH_TABLE_INT
from lucene_ray.index.manifest import load_manifest
from lucene_ray.index.segment import SegmentReader
from lucene_ray.pipelines.index_cache import get_or_build_index
from lucene_ray.pipelines.text_kernels import flat_words, seg_sum


def _docs_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


# --------------------------------------------------------------------------
# term stats straight off the index shards — the per-term df/ttf aggregation
# of SURVEY §2.7 (TermStats / blocktree metadata), read Ray-natively from
# the term dictionaries and aggregated across segments.
# --------------------------------------------------------------------------
def term_stats(sf_dir: str):
    import ray.data

    idx = get_or_build_index(sf_dir)
    man = load_manifest(idx)
    term_files = []
    for s in man.segments:
        seg = os.path.join(idx, "segments", f"seg_{s['seg_id']:06d}")
        term_files.extend(
            os.path.join(seg, f)
            for f in os.listdir(seg)
            if f.endswith(".terms.parquet")
        )
    ds = ray.data.read_parquet(term_files, columns=["term", "df", "ttf"])
    from ray.data.aggregate import Sum

    out = ds.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf")
    )
    return out


def sql_term_stats() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
)
select term, count(distinct doc_id)::bigint as df, count(*)::bigint as ttf
from tok group by term
"""


def collection_stats(sf_dir: str):
    """Global field statistics — ``Terms.java:103-121`` semantics, read from
    the committed manifest (aggregated at build time)."""
    idx = get_or_build_index(sf_dir)
    fs = load_manifest(idx).field_stats
    avgdl = np.float32(fs["sum_ttf"] / float(fs["doc_count"]))
    return pa.table(
        {
            "doc_count": pa.array([fs["doc_count"]], pa.int64()),
            "sum_ttf": pa.array([fs["sum_ttf"]], pa.int64()),
            "sum_df": pa.array([fs["sum_df"]], pa.int64()),
            "avgdl": pa.array([float(avgdl)], pa.float32()),
        }
    )


def sql_collection_stats() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
per_doc as (select doc_id, count(*) as len, count(distinct term) as uniq from tok group by doc_id)
select count(*)::bigint as doc_count,
       sum(len)::bigint as sum_ttf,
       sum(uniq)::bigint as sum_df,
       cast(sum(len) / cast(count(*) as double) as float) as avgdl
from per_doc where len > 0
"""


def doc_norms(sf_dir: str):
    """Per-doc SmallFloat norm byte + quantized length, read from the
    segment norms columns (uint8, ``Similarity.java:129-155``) — one Ray
    task per segment (no driver-side corpus concat)."""
    import ray.data

    idx = get_or_build_index(sf_dir)
    man = load_manifest(idx)
    items = [{"seg_id": int(s["seg_id"])} for s in man.segments]

    def read_seg(batch: pa.Table) -> pa.Table:
        out = []
        for sid in batch.column("seg_id").to_pylist():
            seg = SegmentReader(
                os.path.join(idx, "segments", f"seg_{int(sid):06d}")
            )
            nb = seg.norms
            out.append(
                pa.table(
                    {
                        "doc_id": seg.docmap.cast(pa.int64()),
                        "norm_byte": pa.array(nb.astype(np.int32), pa.int32()),
                        "quantized_len": pa.array(LENGTH_TABLE_INT[nb], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(out)

    ds = ray.data.from_items(items)
    if len(items) > 1:
        ds = ds.repartition(len(items))
    return ds.map_batches(read_seg, batch_format="pyarrow")


def sql_doc_norms() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
doclen as (select doc_id, count(*)::bigint as len from tok group by doc_id),
alldocs as (
  select d.doc_id, coalesce(l.len, 0) as len
  from documents d left join doclen l using (doc_id)
),
nt as (
  select b, case when b < 24 then b
           else 24 + (case when ((b-24)>>3) - 1 = -1 then (b-24)&7
                      else (((b-24)&7)|8) << (((b-24)>>3) - 1) end)
           end as dec
  from (select unnest(range(256)) as b)
)
select a.doc_id, cast(max(nt.b) as int) as norm_byte,
       max(nt.dec)::bigint as quantized_len
from alldocs a join nt on nt.dec <= a.len
group by a.doc_id
"""


# --------------------------------------------------------------------------
# exact dedup: groupby(content hash) keep lowest key — the build-side
# primary-key dedup of SURVEY §2.6 (updateDocument delete-by-term + add).
# --------------------------------------------------------------------------
def dedup_exact(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])

    def add_hash(b: pa.Table) -> pa.Table:
        import hashlib

        h = [hashlib.md5(t.encode()).hexdigest() for t in b.column("text").to_pylist()]
        return pa.table(
            {"doc_id": b.column("doc_id"), "text_md5": pa.array(h, pa.string())}
        )

    from ray.data.aggregate import Min

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    return hashed.groupby("text_md5").aggregate(Min("doc_id", alias_name="doc_id"))


def sql_dedup_exact() -> str:
    return "select md5(text) as text_md5, min(doc_id)::bigint as doc_id from documents group by 1"


def lang_counts(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n"))


def sql_lang_counts() -> str:
    return "select lang, count(*)::bigint as n from documents group by lang"


def text_quality(sf_dir: str):
    """Per-doc quality metrics via the engine's analyzer (vectorized
    map_batches): token count, distinct terms, char length, max token len."""
    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])

    class Quality:
        def __init__(self):
            self.analyzer = Analyzer()

        def __call__(self, b: pa.Table) -> pa.Table:
            n_tok, n_uni, maxlen = [], [], []
            for t in b.column("text").to_pylist():
                terms, _ = self.analyzer.analyze_fast(t or "")
                n_tok.append(len(terms))
                n_uni.append(len(set(terms)))
                maxlen.append(max((len(x) for x in terms), default=0))
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "n_tokens": pa.array(n_tok, pa.int64()),
                    "n_distinct": pa.array(n_uni, pa.int64()),
                    "n_chars": pc.utf8_length(b.column("text")).cast(pa.int64()),
                    "max_token_len": pa.array(maxlen, pa.int64()),
                }
            )

    return ds.map_batches(Quality, batch_format="pyarrow", concurrency=actor_pool())


def sql_text_quality() -> str:
    return """
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
agg as (
  select doc_id, count(*)::bigint as n_tokens, count(distinct term)::bigint as n_distinct,
         max(length(term))::bigint as max_token_len
  from tok group by doc_id
)
select d.doc_id, coalesce(a.n_tokens, 0) as n_tokens,
       coalesce(a.n_distinct, 0) as n_distinct,
       length(d.text)::bigint as n_chars,
       coalesce(a.max_token_len, 0) as max_token_len
from documents d left join agg a using (doc_id)
"""


# --------------------------------------------------------------------------
# Gopher-rule quality filtering (Rae et al. 2021, arXiv:2112.11446 §A1.1) —
# the canonical web-corpus quality gate a 100 TB training-data pipeline
# applies before anything else. Whitespace-word stats per doc, with every
# rule written in INTEGER algebra (3·n ≤ chars ≤ 10·n instead of a float
# mean) so the DuckDB oracle hash-matches exactly.
# --------------------------------------------------------------------------

_GOPHER_STOPS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality(sf_dir: str):
    """Per-doc Gopher quality stats + keep flag, fully vectorized:

    - ``n_words``      whitespace words (empty splits dropped)
    - ``n_word_chars`` total characters across words
    - ``n_stop``       words in the 8-word Gopher stop list
    - ``n_alpha``      words containing at least one [A-Za-z]
    - ``keep``         50 ≤ n_words ≤ 100000 AND 3·n_words ≤ n_word_chars
                       ≤ 10·n_words (mean word length in [3, 10]) AND
                       n_stop ≥ 2 AND 5·n_alpha ≥ 4·n_words (≥80% alphabetic)

    Per-batch Arrow kernels only: list offsets + prefix-sum segment
    reduction, no per-row Python."""
    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])

    def stats(b: pa.Table) -> pa.Table:
        flat, offsets = flat_words(b.column("text"))
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        wl = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
            zero_copy_only=False
        )
        stop = pc.is_in(flat, value_set=pa.array(_GOPHER_STOPS)).to_numpy(
            zero_copy_only=False
        )
        n_words = seg_sum(ok, offsets)
        n_chars = seg_sum(wl * ok, offsets)
        n_stop = seg_sum(stop & ok, offsets)
        n_alpha = seg_sum(alpha & ok, offsets)
        keep = (
            (n_words >= 50)
            & (n_words <= 100000)
            & (3 * n_words <= n_chars)
            & (n_chars <= 10 * n_words)
            & (n_stop >= 2)
            & (5 * n_alpha >= 4 * n_words)
        )
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_words": pa.array(n_words, pa.int64()),
                "n_word_chars": pa.array(n_chars, pa.int64()),
                "n_stop": pa.array(n_stop, pa.int64()),
                "n_alpha": pa.array(n_alpha, pa.int64()),
                "keep": pa.array(keep),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def sql_gopher_quality() -> str:
    stops = ", ".join(f"'{s}'" for s in _GOPHER_STOPS)
    return f"""
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
agg as (
  select doc_id,
         count(*)::bigint as n_words,
         sum(length(term))::bigint as n_word_chars,
         sum(case when term in ({stops}) then 1 else 0 end)::bigint as n_stop,
         sum(case when regexp_matches(term, '[A-Za-z]') then 1 else 0 end)::bigint as n_alpha
  from tok group by doc_id
)
select d.doc_id,
       coalesce(a.n_words, 0) as n_words,
       coalesce(a.n_word_chars, 0) as n_word_chars,
       coalesce(a.n_stop, 0) as n_stop,
       coalesce(a.n_alpha, 0) as n_alpha,
       (coalesce(a.n_words, 0) between 50 and 100000
        and 3 * coalesce(a.n_words, 0) <= coalesce(a.n_word_chars, 0)
        and coalesce(a.n_word_chars, 0) <= 10 * coalesce(a.n_words, 0)
        and coalesce(a.n_stop, 0) >= 2
        and 5 * coalesce(a.n_alpha, 0) >= 4 * coalesce(a.n_words, 0)) as keep
from documents d left join agg a using (doc_id)
"""


# --------------------------------------------------------------------------
# Deterministic hash sampling — the coordination-free sampling primitive a
# 100 TB pipeline uses to carve out eval/dev slices: the SAME rows survive
# every rerun on every node, no RNG state, no shuffle. md5 (not Python
# hash) so the DuckDB oracle computes the identical selector.
# --------------------------------------------------------------------------


def sample_hash(sf_dir: str, pct: int = 10):
    """Keep a doc iff ``md5(doc_id) mod 100 < pct`` — an order-free,
    restart-stable ~pct% sample. One md5 per ROW (C-speed hashlib), a
    filter inside map_batches; no shuffle, no driver state."""
    import hashlib

    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "lang"])

    def pick(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        keep = pa.array(
            [
                int.from_bytes(
                    hashlib.md5(str(i).encode()).digest()[:8], "big"
                )
                % 100
                < pct
                for i in ids
            ]
        )
        return b.filter(keep)

    return ds.map_batches(pick, batch_format="pyarrow")


def sql_sample_hash(pct: int = 10) -> str:
    return f"""
select doc_id, lang from documents
where ('0x' || substr(md5(cast(doc_id as varchar)), 1, 16))::UBIGINT % 100 < {pct}
"""


# --------------------------------------------------------------------------
# Gopher repetition stats (Rae et al. 2021 §A1.1 "repetition removal"):
# word-trigram duplication per document — the signal behind the
# duplicate-n-gram and top-n-gram-fraction filter rules. Stats only (the
# synthetic corpus is too clean for a discriminating keep flag); a real
# pipeline thresholds n_tri−n_uniq / n_tri and max_rep downstream.
# --------------------------------------------------------------------------


def repetition_stats(sf_dir: str):
    """→ (doc_id, n_trigrams, n_unique, max_repeat): word-trigram counts
    over the RAW whitespace split (a trigram touching an empty split is
    skipped, adjacency is positional — matching the SQL oracle exactly).
    Fully vectorized: per-batch token factorize → packed int64 trigram
    keys → one lexsort → run-length reduction. No per-row Python."""
    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])

    def stats(b: pa.Table) -> pa.Table:
        flat, offsets = flat_words(b.column("text"))
        n_rows = len(b)
        n_tok = len(flat)
        n_tri_out = np.zeros(n_rows, np.int64)
        n_uniq_out = np.zeros(n_rows, np.int64)
        max_rep_out = np.zeros(n_rows, np.int64)
        if n_tok >= 3:
            toks = flat.to_numpy(zero_copy_only=False)
            codes, uniq = pd.factorize(toks)
            codes = codes.astype(np.int64)
            V = len(uniq)
            # packed key (c0·V + c1)·V + c2 must fit int64
            assert V < 2_000_000, "batch vocabulary too large to pack"
            ok = toks != ""
            row = np.repeat(
                np.arange(n_rows, dtype=np.int64), np.diff(offsets)
            )
            j = np.arange(n_tok - 2)
            valid = (
                (row[j] == row[j + 2]) & ok[j] & ok[j + 1] & ok[j + 2]
            )
            j = j[valid]
            if len(j):
                key = (codes[j] * V + codes[j + 1]) * V + codes[j + 2]
                trow = row[j]
                order = np.lexsort((key, trow))
                sk, sr = key[order], trow[order]
                new_run = np.empty(len(sk), bool)
                new_run[0] = True
                new_run[1:] = (sk[1:] != sk[:-1]) | (sr[1:] != sr[:-1])
                starts = np.flatnonzero(new_run)
                run_len = np.diff(np.append(starts, len(sk)))
                run_row = sr[starts]
                np.add.at(n_tri_out, sr, 1)
                np.add.at(n_uniq_out, run_row, 1)
                np.maximum.at(max_rep_out, run_row, run_len)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_trigrams": pa.array(n_tri_out, pa.int64()),
                "n_unique": pa.array(n_uniq_out, pa.int64()),
                "max_repeat": pa.array(max_rep_out, pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def sql_repetition_stats() -> str:
    # NOTE: the oracle serializes trigrams as 'w0\x1fw1\x1fw2'; tokens
    # containing the 0x1f byte would collide here while the engine's
    # packed integer keys never collide — a documented oracle-side
    # assumption (no control bytes inside whitespace tokens), not an
    # engine limitation.
    return """
with w as (
  select doc_id, string_split(text, ' ') as ws from documents
),
tri as (
  select doc_id, ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2] as g
  from w cross join lateral (
    select unnest(generate_series(1, greatest(len(ws) - 2, 0))) as i
  ) s
  where ws[i] <> '' and ws[i+1] <> '' and ws[i+2] <> ''
),
cnt as (select doc_id, g, count(*)::bigint as c from tri group by 1, 2),
agg as (
  select doc_id, sum(c)::bigint as n_trigrams,
         count(*)::bigint as n_unique, max(c)::bigint as max_repeat
  from cnt group by doc_id
)
select d.doc_id,
       coalesce(a.n_trigrams, 0) as n_trigrams,
       coalesce(a.n_unique, 0) as n_unique,
       coalesce(a.max_repeat, 0) as max_repeat
from documents d left join agg a using (doc_id)
"""


# --------------------------------------------------------------------------
# BPE-ish token counting — the training-data budgeting op (how many
# tokens will this corpus cost?): a GPT-2-style pre-tokenizer pattern
# (letter runs | digit runs | single non-alnum) counted per doc. Both
# sides run RE2 — pyarrow's count_substring_regex and DuckDB's
# regexp_extract_all share the engine, so counts match exactly.
# --------------------------------------------------------------------------

BPE_PATTERN = "[A-Za-z]+|[0-9]+|[^A-Za-z0-9 ]"


def token_counts(sf_dir: str):
    """→ (doc_id, ws_tokens, bpe_tokens): whitespace word count + the
    BPE-ish regex pre-token count per document, one vectorized RE2 pass
    per batch."""
    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])

    def counts(b: pa.Table) -> pa.Table:
        text = b.column("text")
        flat, offsets = flat_words(text)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        ws = seg_sum(ok, offsets)
        bpe = pc.count_substring_regex(text, BPE_PATTERN)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "ws_tokens": pa.array(ws, pa.int64()),
                "bpe_tokens": bpe.combine_chunks().cast(pa.int64()),
            }
        )

    return ds.map_batches(counts, batch_format="pyarrow")


def sql_token_counts() -> str:
    return f"""
with tok as (
  select doc_id, t.term from documents, unnest(string_split(text, ' ')) as t(term)
  where t.term <> ''
),
ws as (select doc_id, count(*)::bigint as ws_tokens from tok group by doc_id)
select d.doc_id,
       coalesce(w.ws_tokens, 0) as ws_tokens,
       length(regexp_extract_all(d.text, '{BPE_PATTERN}'))::bigint as bpe_tokens
from documents d left join ws w using (doc_id)
"""


def sample_stratified(sf_dir: str, per_lang: int = 20):
    """Balanced per-group downsample — the training-mix construction
    primitive (equal docs per language regardless of skew): within each
    lang keep the ``per_lang`` docs with the smallest md5(doc_id) rank.
    Deterministic (reruns pick the same rows), shuffle bounded by the
    group keys, selection inside ``groupby(lang).map_groups``."""
    import hashlib

    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "lang"])

    def add_rank_key(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        h = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return b.append_column("h", pa.array(h, pa.string()))

    def pick(group: pa.Table) -> pa.Table:
        order = np.lexsort(
            (
                np.asarray(group.column("doc_id"), dtype=np.int64),
                np.array(group.column("h").to_pylist(), dtype=object),
            )
        )[:per_lang]
        out = group.take(pa.array(np.sort(order)))
        return out.select(["doc_id", "lang"])

    return (
        ds.map_batches(add_rank_key, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(pick, batch_format="pyarrow")
    )


def sql_sample_stratified(per_lang: int = 20) -> str:
    return f"""
with ranked as (
  select doc_id, lang,
         row_number() over (partition by lang
                            order by md5(cast(doc_id as varchar)) asc,
                                     doc_id asc) as rn
  from documents
)
select doc_id, lang from ranked where rn <= {per_lang}
"""


# --------------------------------------------------------------------------
# Exact distributed quantiles (filter-threshold selection: "drop docs
# below the p10 / above the p99 length" needs the percentiles first).
# Scale shape: per-batch value-counts pre-aggregation → groupby(value)
# histogram — the only thing that ever leaves the workers is one row per
# DISTINCT length (bounded cardinality: thousands of rows even at 100 TB,
# like collection_stats), never the data.
# --------------------------------------------------------------------------


def length_quantiles(
    sf_dir: str,
    q_bps: Tuple[int, ...] = (1000, 2500, 5000, 7500, 9000, 9900),
):
    """→ (q_bp, value): exact type-1 (lower discrete) quantiles of
    ``n_chars`` — value = smallest v whose cumulative count ≥
    ``ceil(q·N)``, with the ceiling in INTEGER arithmetic
    (``(q_bp·N + 9999) // 10000``) so the SQL oracle floors identically.
    """
    import pyarrow.compute as pc
    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        vc = pc.value_counts(b.column("n_chars"))
        return pa.table(
            {
                "v": pc.cast(pc.struct_field(vc, "values"), pa.int64()),
                "c": pc.cast(pc.struct_field(vc, "counts"), pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .sum("c")
        .sort("v")
        .take_all()  # one row per DISTINCT length — the documented small side
    )
    vals = np.array([r["v"] for r in hist], dtype=np.int64)
    cum = np.cumsum(np.array([r["sum(c)"] for r in hist], dtype=np.int64))
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in q_bps:
        rank = (q * n + 9999) // 10000  # ceil(q·N) in basis points
        idx = int(np.searchsorted(cum, rank, side="left"))
        out_q.append(int(q))
        out_v.append(int(vals[min(idx, len(vals) - 1)]) if n else None)
    return pa.table(
        {
            "q_bp": pa.array(out_q, pa.int64()),
            "value": pa.array(out_v, pa.int64()),
        }
    )


def sql_length_quantiles(
    q_bps: Tuple[int, ...] = (1000, 2500, 5000, 7500, 9000, 9900),
) -> str:
    qs = ", ".join(f"({q})" for q in q_bps)
    return f"""
with qs(q_bp) as (values {qs}),
h as (select n_chars as v, count(*) as c from documents group by 1),
s as (
  select v, sum(c) over (order by v) as cum,
         (select count(*) from documents) as n
  from h
),
sel as (
  select q_bp, min(v) as value
  from qs join s on s.cum >= (q_bp * s.n + 9999) // 10000
  group by q_bp
)
select q_bp, value from sel order by q_bp
"""


# --------------------------------------------------------------------------
# PMI collocations (phrase-vocabulary mining — the classic first step of
# tokenizer / phrase-table construction over a web corpus). Tokens are
# the RAW single-space split, same convention as repetition_stats.
# Scale shape: ONE groupby carries per-batch pre-aggregated unigram,
# bigram and total counts (tagged rows); the unigram table is vocab-sized
# and broadcast via ray.put (the nb_classify pattern); bigram scoring
# stays distributed; only top-k leaves.
# --------------------------------------------------------------------------


def collocations(sf_dir: str, min_count: int = 5, k: int = 20):
    """→ (w1, w2, c_ab, pmi_micro) top-``k`` adjacent-word bigrams by
    pointwise mutual information, ``c_ab ≥ min_count``, ordered by
    (pmi desc, w1, w2).

    ``pmi_micro = floor(ln((c_ab·N_uni²) / (c_a·c_b·N_bi)) · 1e6 + 0.5)``
    — integer products cast to float64 before one division, then one
    ``ln``: the exact expression the DuckDB oracle evaluates, so the
    quantized score matches bit-for-bit (same device as lm_perplexity).
    The int64 products bound corpus size at ~2^26 tokens per the oracle's
    own overflow limit — shard PMI by key range beyond that."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray
    import ray.data


    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["text"])

    def partials(b: pa.Table) -> pa.Table:
        flat, offsets = flat_words(b.column("text"))
        toks = flat.to_numpy(zero_copy_only=False)
        ok = toks != ""
        w1s: list = []
        w2s: list = []
        cs: list = []
        kinds: list = []
        uvals, ucnt = np.unique(toks[ok], return_counts=True)
        w1s.append(uvals)
        w2s.append(np.full(len(uvals), "", dtype=object))
        cs.append(ucnt.astype(np.int64))
        kinds.append(np.zeros(len(uvals), np.int32))
        n_bi = 0
        if len(toks) >= 2:
            codes, vocab = pd.factorize(toks)
            codes = codes.astype(np.int64)
            row = np.repeat(
                np.arange(len(b), dtype=np.int64), np.diff(offsets)
            )
            j = np.arange(len(toks) - 1)
            valid = (row[j] == row[j + 1]) & ok[j] & ok[j + 1]
            j = j[valid]
            n_bi = len(j)
            if n_bi:
                key = codes[j] * len(vocab) + codes[j + 1]
                ukey, kcnt = np.unique(key, return_counts=True)
                v = np.asarray(vocab, dtype=object)
                w1s.append(v[ukey // len(vocab)])
                w2s.append(v[ukey % len(vocab)])
                cs.append(kcnt.astype(np.int64))
                kinds.append(np.ones(len(ukey), np.int32))
        # totals: kind 2 = unigram tokens, kind 3 = bigram instances
        w1s.append(np.array(["", ""], dtype=object))
        w2s.append(np.array(["", ""], dtype=object))
        cs.append(np.array([int(ok.sum()), n_bi], np.int64))
        kinds.append(np.array([2, 3], np.int32))
        return pa.table(
            {
                "kind": pa.array(np.concatenate(kinds)),
                "w1": pa.array(np.concatenate(w1s), pa.string()),
                "w2": pa.array(np.concatenate(w2s), pa.string()),
                "c": pa.array(np.concatenate(cs)),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["kind", "w1", "w2"])
        .sum("c")
        .materialize()
    )

    def _not_bigrams(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t.column("kind"), 1))

    def _bigrams(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("kind"), 1))

    small = agg.map_batches(_not_bigrams, batch_format="pyarrow").take_all()
    uni = {r["w1"]: int(r["sum(c)"]) for r in small if r["kind"] == 0}
    n_uni = sum(int(r["sum(c)"]) for r in small if r["kind"] == 2)
    n_bi = sum(int(r["sum(c)"]) for r in small if r["kind"] == 3)
    # broadcast the unigram table as parallel sorted arrays: lookups in
    # the scoring stage are one vectorized searchsorted, not a per-row
    # dict probe
    vocab_sorted = np.array(sorted(uni), dtype=object)
    vocab_counts = np.array([uni[v] for v in vocab_sorted], dtype=np.int64)
    uni_ref = ray.put((vocab_sorted, vocab_counts))

    def score(t: pa.Table) -> pa.Table:
        vocab, counts = ray.get(uni_ref)
        c_ab = np.asarray(t.column("sum(c)"), dtype=np.int64)
        keep = c_ab >= min_count
        w1 = np.asarray(t.column("w1"))[keep]
        w2 = np.asarray(t.column("w2"))[keep]
        c_ab = c_ab[keep]
        # clip + verify the searchsorted hit: a bigram component absent
        # from the unigram table must raise (as the old dict lookup
        # did), not silently read a neighboring vocab entry's count
        if len(vocab) == 0:
            if len(w1):
                raise KeyError("bigram components with empty unigram vocab")
            ca = cb = np.empty(0, np.int64)
        else:
            p1 = np.minimum(np.searchsorted(vocab, w1), len(vocab) - 1)
            p2 = np.minimum(np.searchsorted(vocab, w2), len(vocab) - 1)
            good = (vocab[p1] == w1) & (vocab[p2] == w2)
            if not np.all(good):
                bad = np.concatenate([w1[~good], w2[~good]])
                raise KeyError(
                    f"bigram component(s) missing from unigram vocab: "
                    f"{sorted(set(bad.tolist()))[:5]}"
                )
            ca = counts[p1]
            cb = counts[p2]
        num = (c_ab * n_uni * n_uni).astype(np.float64)
        den = (ca * cb * n_bi).astype(np.float64)
        pmi = np.floor(np.log(num / den) * 1_000_000 + 0.5).astype(np.int64)
        return pa.table(
            {
                "w1": pa.array(w1, pa.string()),
                "w2": pa.array(w2, pa.string()),
                "c_ab": pa.array(c_ab),
                "pmi_micro": pa.array(pmi),
            }
        )

    scored = agg.map_batches(_bigrams, batch_format="pyarrow").map_batches(
        score, batch_format="pyarrow"
    )
    return scored.sort(
        ["pmi_micro", "w1", "w2"], descending=[True, False, False]
    ).limit(k)


def sql_collocations(min_count: int = 5, k: int = 20) -> str:
    return f"""
with w as (select string_split(text, ' ') as ws from documents),
uni as (
  select t, count(*) as c
  from (select unnest(ws) as t from w) where t <> '' group by t
),
nu as (select sum(c) as n from uni),
bi as (
  select ws[i+1] as w1, ws[i+2] as w2, count(*) as c
  from w, unnest(range(greatest(array_length(ws) - 1, 0))) as r(i)
  where ws[i+1] <> '' and ws[i+2] <> ''
  group by 1, 2
),
nb as (select sum(c) as n from bi)
select w1, w2, bi.c as c_ab,
       cast(floor(ln((bi.c * nu.n * nu.n)::DOUBLE
                     / (u1.c * u2.c * nb.n)::DOUBLE) * 1000000 + 0.5)
            as bigint) as pmi_micro
from bi, nu, nb
join uni u1 on u1.t = bi.w1
join uni u2 on u2.t = bi.w2
where bi.c >= {min_count}
order by pmi_micro desc, w1, w2
limit {k}
"""


# --------------------------------------------------------------------------
# Eval-set decontamination (the GPT-3 appendix-C / PaLM n-gram overlap
# check): flag training documents sharing any word n-gram with a held-out
# eval slice. The eval slice is carved with the same md5 selector as
# sample_hash (coordination-free, restart-stable). Scale shape: eval
# n-grams form their OWN distributed dataset — deduped with a groupby,
# then hash-JOINED to the train n-gram dataset on the gram key. Nothing
# corpus-sized is broadcast or driver-materialized; at 100 TB the eval
# side is a fixed small table and the join degenerates to a broadcast-
# style lookup, but the plan stays correct when the eval side is large.
# --------------------------------------------------------------------------


def _eval_mask(ids: list, pct: int) -> np.ndarray:
    """md5(doc_id) mod 100 < pct — identical selector to sample_hash."""
    import hashlib

    return np.array(
        [
            int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "big")
            % 100
            < pct
            for i in ids
        ],
        dtype=bool,
    )


def _gram_table(b: pa.Table, n: int, keep_eval: bool, pct: int) -> pa.Table:
    """Distinct word ``n``-grams of the eval (or train) rows of a batch.

    Grams are the space-join of ``n`` consecutive RAW split tokens
    (empties included — mirrors the oracle's ``ws[i+1:i+n]`` slice).
    Vectorized: n shifted views of the flat token array joined in one
    ``binary_join_element_wise`` call; windows crossing a row boundary
    are masked with one aligned row-id compare."""

    ids = b.column("doc_id").to_pylist()
    mask = _eval_mask(ids, pct)
    if not keep_eval:
        mask = ~mask
    sub = b.filter(pa.array(mask))
    empty = pa.table(
        {"gram": pa.array([], pa.string()), "doc_id": pa.array([], pa.int64())}
    )
    if len(sub) == 0:
        return empty
    flat, offsets = flat_words(sub.column("text"))
    nt = len(flat)
    nwin = nt - n + 1
    if nwin <= 0:
        return empty
    row = np.repeat(np.arange(len(sub), dtype=np.int64), np.diff(offsets))
    valid = row[:nwin] == row[n - 1 :]
    parts = [flat.slice(k, nwin) for k in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    grams = grams.filter(pa.array(valid))
    doc_of = np.asarray(sub.column("doc_id"))[row[:nwin][valid]]
    t = pa.table({"gram": grams, "doc_id": pa.array(doc_of, pa.int64())})
    # rows are whole docs, so per-batch distinct IS globally distinct
    # for the train side; the eval side still dedups globally after.
    return t.group_by(["gram", "doc_id"]).aggregate([])


def decontaminate(
    sf_dir: str, n: int = 8, pct: int = 5, n_buckets: int = 64
):
    """→ (doc_id, n_contaminated) for every TRAIN doc sharing ≥1 word
    ``n``-gram with the ~``pct``% eval slice, ordered by doc_id.
    n_contaminated = distinct contaminated grams in the doc.

    Semi-join shape: grams hash into ``n_buckets`` buckets (a gram lands
    in exactly one), ONE groupby co-locates each bucket's eval + train
    rows, and the membership probe inside the group task is a single
    vectorized ``is_in`` — no per-gram Python, no driver state, no
    broadcast; group size ≈ total_grams / n_buckets (raise ``n_buckets``
    with corpus size). Partial per-doc hit counts then sum in a
    doc-bounded groupby."""
    import pandas as pd
    import ray.data

    def tagged(b: pa.Table) -> pa.Table:
        ev = _gram_table(b, n, True, pct)
        tr = _gram_table(b, n, False, pct)
        ev = ev.set_column(
            1, "doc_id", pa.array(np.full(len(ev), -1, np.int64))
        )
        t = pa.concat_tables([ev, tr])
        bucket = (
            pd.util.hash_array(
                t.column("gram").to_numpy(zero_copy_only=False)
            )
            % n_buckets
        ).astype(np.int32)
        return t.append_column("bucket", pa.array(bucket))

    def bucket_probe(g: pa.Table) -> pa.Table:
        did = np.asarray(g.column("doc_id"), dtype=np.int64)
        evmask = did == -1
        ev_set = g.column("gram").filter(pa.array(evmask))
        tr_grams = g.column("gram").filter(pa.array(~evmask))
        if len(ev_set) == 0 or len(tr_grams) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "hits": pa.array([], pa.int64()),
                }
            )
        hit = pc.is_in(tr_grams, value_set=ev_set).to_numpy(
            zero_copy_only=False
        )
        docs = did[~evmask][hit]
        u, c = np.unique(docs, return_counts=True)
        return pa.table(
            {"doc_id": pa.array(u), "hits": pa.array(c.astype(np.int64))}
        )

    def _rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["doc_id", "n_contaminated"])

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])
    return (
        ds.map_batches(tagged, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_probe, batch_format="pyarrow")
        .groupby("doc_id")
        .sum("hits")
        .map_batches(_rename, batch_format="pyarrow")
        .sort("doc_id")  # oracle-only: determinism for the gate, not a production step
    )


def sql_decontaminate(n: int = 8, pct: int = 5) -> str:
    sel = "('0x' || substr(md5(cast(doc_id as varchar)), 1, 16))::UBIGINT % 100"
    return f"""
with w as (select doc_id, string_split(text, ' ') as ws from documents),
grams as (
  select doc_id, array_to_string(ws[i+1:i+{n}], ' ') as gram
  from w, unnest(range(greatest(array_length(ws) - {n - 1}, 0))) as r(i)
),
ev as (select distinct gram from grams
       where {sel} < {pct}),
tr as (select distinct doc_id, gram from grams
       where {sel} >= {pct})
select doc_id, count(*) as n_contaminated
from tr join ev using (gram)
group by doc_id
order by doc_id
"""
