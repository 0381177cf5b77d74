"""IndexSearcher: BM25 evaluation over the index-wide term arrays,
exhaustive per-segment evaluation, one global top-k; Ray actor-pool
wrapper for query datasets.

Semantics:

- per-term scoring: global collection stats (df summed across segments,
  TermStates-style — ``core/search/TermQuery.java:51-82``), one float32
  BM25 weight per term, shared norm-inverse cache.
- BM25 trees of text terms and exact phrases run over each term's live
  postings as global docids (see ``search``); everything else, and
  ``mode="exhaustive"``, per segment over sparse docid arrays
  (``_eval``). Boolean scores sum in clause order on both
  (deterministic float32 accumulation; the documented summation order
  of this engine).
- top-k: (score desc, global docid asc) over all segments' hits
  (``_top_global``), which is ``TopDocs.merge`` order
  (``core/search/TopDocs.java:203-228``) as segment bases ascend with
  segment index.
- every path reports ``total_hits`` with relation EQ except the
  exact-phrase path (``_search_phrase``), which reports GTE past the
  1000-hit threshold (``core/search/IndexSearcher.java:100``).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from lucene_ray.analysis.analyzer import analyzer_for_config
from lucene_ray.index.config import DEFAULT_FIELD, IndexConfig, term_key
from lucene_ray.index.manifest import Manifest, load_manifest
from lucene_ray.index.points import (
    _SENTINEL as _POINT_SENTINEL,
    normalize_bound as points_normalize_bound,
    point_range_docids,
    sorted_topk_candidates,
)
from lucene_ray.index.segment import (
    SegmentReader,
    TermInfo,
    read_positions,
    read_postings,
)
from lucene_ray.codecs.feature import decode_feature_values, feature_scores
from lucene_ray.codecs.spi import format_for_name
from lucene_ray.codecs.smallfloat import LENGTH_TABLE_INT
from lucene_ray.search.bm25 import BM25Similarity, idf as bm25_idf
from lucene_ray.search.expressions import Expression
from lucene_ray.search.similarities import similarity_for_name
from lucene_ray.search.intervals import (
    eval_source as interval_eval_source,
    interval_freq,
    saturation_score,
    required_terms as interval_required_terms,
    source_terms as interval_source_terms,
)
from lucene_ray.search.query import (
    FILTER,
    IntervalQuery,
    MUST,
    MUST_NOT,
    SHOULD,
    BooleanQuery,
    CombinedFieldQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    FeatureQuery,
    FuzzyQuery,
    GeoBoxQuery,
    GeoDistanceQuery,
    JoinQuery,
    RangeFieldQuery,
    MatchAllQuery,
    MultiPhraseQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RangeQuery,
    RegexpQuery,
    SpanNearQuery,
    SynonymQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    deduplicate_clauses,
    localize_query,
    parse_query,
    query_terms,
    rewrite as rewrite_query,
)
from lucene_ray.search.explain import Explanation
from lucene_ray.search.querycache import LRUCache, LRUQueryCache
from lucene_ray.search.sloppy import sloppy_phrase_freq

# sentinel: "caller did not pass query_cache" (None means disabled)
_DEFAULT_CACHE = object()
from lucene_ray.search.multiterm import (
    damerau_levenshtein,
    levenshtein,
    regexp_literal_head,
    wildcard_literal_head,
    wildcard_regex,
)

F32 = np.float32

# hits counted exactly before a pruned top-k may skip candidates and
# report GTE: Lucene's default ``totalHitsThreshold``
# (``core/search/IndexSearcher.java:100``)
TOTAL_HITS_THRESHOLD = 1000

# exact-phrase keys are uint32 while the candidates' key space fits
_KEY32_SPACE = int(np.iinfo(np.uint32).max)

# the exact-phrase kernel's passes are memory-bound: it verifies its
# candidates in blocks of about this many gathered positions, so a
# block's int64 arrays (512 KB each) stay in a 2 MB per-core L2 cache
# and are reused by the allocator rather than faulted in afresh; on
# such a host one unblocked call cost twice as much per position past
# about 200k positions
_PHRASE_BLOCK_POSITIONS = 1 << 16

# the hits of a query that matches nothing: global docids, scores
_NO_HITS = (np.empty(0, np.uint32), np.empty(0, F32))
_NO_MATCH = (_NO_HITS[0], lambda rows: _NO_HITS[1])  # as a ``_wide`` node


def _position_signatures(offs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """One uint64 per posting of a term's ``(offs, pos)`` positions: bit
    ``p & 63`` is set for every position p of the posting (every posting
    has at least one)."""
    if len(pos) == 0:
        return np.empty(0, np.uint64)
    bits = (pos & 63).astype(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    return np.bitwise_or.reduceat(bits, offs[:-1].astype(np.intp))


def _rotr64(sig: np.ndarray, r: int) -> np.ndarray:
    """``sig`` (uint64) rotated right by ``r`` bits."""
    r %= 64
    if r == 0:
        return sig
    return (sig >> np.uint64(r)) | (sig << np.uint64(64 - r))


def _sort_key(vals: np.ndarray) -> np.ndarray:
    """Order-preserving numeric view of a sort column: datetime64 (any
    unit) views as int64 ticks so field sort works on timestamp DV
    columns ("latest N pages by warc_ts"); plain numerics pass through."""
    return vals.view("i8") if vals.dtype.kind in "Mm" else vals


def _span_near_match(
    per_term: List[np.ndarray], budget: int, in_order: bool
) -> bool:
    """Does ONE document contain a qualifying span? ``per_term``: sorted
    position arrays, one per query term (term order); ``budget`` = slop +
    n_terms = max allowed window width.

    Ordered (``NearSpansOrdered.java``): strictly increasing positions in
    term order, width ≤ budget — checked by chaining each start through
    the later lists greedily (smallest next position > previous minimizes
    the width for that start).

    Unordered (``NearSpansUnordered.java``): minimal window containing
    one occurrence of EVERY term slot (duplicate query terms need that
    many distinct occurrences) — the k-list smallest-range sweep."""
    n = len(per_term)
    if in_order:
        for p1 in per_term[0]:
            prev = int(p1)
            ok = True
            for lst in per_term[1:]:
                j = int(np.searchsorted(lst, prev, side="right"))
                if j >= len(lst):
                    ok = False
                    break
                prev = int(lst[j])
            if ok and prev - int(p1) + 1 <= budget:
                return True
        return False
    # unordered: collapse duplicate terms to one slot with multiplicity
    # (identical position arrays would otherwise double-count a single
    # occurrence), then sweep a shrinking window over labeled positions
    slots: List[np.ndarray] = []
    needs: List[int] = []
    seen_keys: Dict[bytes, int] = {}
    for lst in per_term:
        key = lst.tobytes()
        j = seen_keys.get(key)
        if j is None:
            seen_keys[key] = len(slots)
            slots.append(lst)
            needs.append(1)
        else:
            needs[j] += 1
    labels = [
        np.full(len(lst), i, dtype=np.int64) for i, lst in enumerate(slots)
    ]
    allpos = np.concatenate(slots)
    alllab = np.concatenate(labels)
    order = np.argsort(allpos, kind="stable")
    allpos, alllab = allpos[order], alllab[order]
    have = [0] * len(slots)
    missing = len(slots)
    lo = 0
    for hi in range(len(allpos)):
        t = int(alllab[hi])
        have[t] += 1
        if have[t] == needs[t]:
            missing -= 1
        while missing == 0:
            if int(allpos[hi]) - int(allpos[lo]) + 1 <= budget:
                return True
            tl = int(alllab[lo])
            if have[tl] == needs[tl]:
                missing += 1
            have[tl] -= 1
            lo += 1
    return False


@dataclass
class SegmentResult:
    """Matches of one query in one segment: local docids + float32 scores."""

    docids: np.ndarray  # uint32 local, sorted ascending
    scores: np.ndarray  # float32 aligned


def _sum_field_stats(all_fs: List[dict]) -> dict:
    """Sum collection statistics across indexes — the
    ``IndexSearcher.collectionStatistics`` over-MultiReader-leaves role:
    doc_count/sum_ttf/sum_df add, per-field sub-dicts add key-wise."""
    out = {"doc_count": 0, "sum_ttf": 0, "sum_df": 0, "per_field": {}}
    for fs in all_fs:
        out["doc_count"] += int(fs.get("doc_count", 0))
        out["sum_ttf"] += int(fs.get("sum_ttf", 0))
        out["sum_df"] += int(fs.get("sum_df", 0))
        for f, sub in dict(fs.get("per_field", {})).items():
            dst = out["per_field"].setdefault(f, {})
            for k, v in sub.items():
                dst[k] = dst.get(k, 0) + int(v)
    return out


class IndexSearcher:
    """Open once (per process / per Ray actor), search many times."""

    CACHE_BYTES = 256 << 20
    # postings per run of a term's index-wide arrays: the granularity of
    # the score bounds that choose the top-k candidates of a term or
    # disjunction (``_search_wand``); one codec block
    RUN = 128
    # estimated size of one small cached Python object (a TermInfo is
    # about 210 bytes, a scorer less)
    _OBJ_BYTES = 256

    def __init__(
        self,
        index_dir,
        similarity=None,
        query_cache=_DEFAULT_CACHE,
        segment_ids=None,
    ):
        """``index_dir``: one committed index directory, or a SEQUENCE of
        them — the ``MultiReader`` role (``core/index/MultiReader.java`` +
        ``IndexSearcher`` over its leaves): leaves concatenate in the
        given index order (each index's segments in docid-base order) and
        collection statistics (doc_count, sum_ttf, per-term df/ttf,
        per-field stats) SUM across indexes, so BM25 scores equal a
        single combined index's bit-for-bit. The first index's config
        drives analysis; indexes must share the analysis chain.

        ``similarity``: a ``BM25Similarity`` (default; full pruned +
        phrase/multiterm support) or any ``search.similarities.Similarity``
        (classic TF-IDF, LMDirichlet, boolean — term/boolean/range/match-all
        queries, exhaustive path). A registry name string also works
        (``Codec.forName`` analogue).

        ``query_cache``: an ``LRUQueryCache`` (default: fresh instance),
        or None to disable constant-score match-set caching.

        ``segment_ids``: open only these seg_ids (single-index mode) —
        the SHARD role for the distributed query tier
        (``search.sharded``): postings/DV/docmap of unowned segments are
        never touched, while collection statistics stay manifest-global
        so BM25 weights equal the full index's. Per-term df/ttf for a
        shard is local unless ``stats_override`` is set (the sharded
        tier's global-stats exchange sets it)."""
        dirs = (
            [index_dir]
            if isinstance(index_dir, (str, os.PathLike))
            else list(index_dir)
        )
        if segment_ids is not None and len(dirs) != 1:
            raise ValueError("segment_ids sharding requires a single index")
        self.stats_override = None
        mans: List[Manifest] = []
        for d in dirs:
            m = load_manifest(d)
            if m is None:
                raise FileNotFoundError(f"no manifest in {d}")
            mans.append(m)
        man = mans[0]
        self.manifest: Manifest = man
        self.config: IndexConfig = man.config
        if isinstance(similarity, str):
            similarity = similarity_for_name(similarity)
        self.sim = similarity or BM25Similarity()
        self.is_bm25 = isinstance(self.sim, BM25Similarity)
        self.segments: List[SegmentReader] = []
        doc_base = 0  # MultiReader docBase accumulation across indexes
        for d, m in zip(dirs, mans):
            seg_rows = m.segments
            if segment_ids is not None:
                want = set(int(s) for s in segment_ids)
                seg_rows = [s for s in seg_rows if int(s["seg_id"]) in want]
            segs = [
                SegmentReader(os.path.join(d, "segments", f"seg_{s['seg_id']:06d}"))
                if "dir" not in s
                else SegmentReader(s["dir"])
                for s in seg_rows
            ]
            # leaf order = docid-base order WITHIN each index, so the
            # TopDocs.merge tie-break (score, seg_idx, docid) equals
            # (score, global docid) and survives merges unchanged (merged
            # segments get new seg_ids but keep bases); across indexes,
            # every leaf's base shifts by the preceding indexes' maxDoc
            # (MultiReader docBase accumulation) so global docids stay
            # unique — document()/explain()/searchAfter cursors resolve
            # to the right leaf
            segs.sort(key=lambda r: r.base_docid)
            for s in segs:
                s.base_docid += doc_base
            doc_base = (
                max(s.base_docid + s.n_docs for s in segs)
                if segs
                else doc_base
            )  # this index's maxDoc, not its stats doc_count
            self.segments.extend(segs)
        if len(mans) == 1:
            fs = man.field_stats
        else:
            fs = _sum_field_stats([m.field_stats for m in mans])
        self.doc_count = int(fs["doc_count"])
        self.sum_ttf = int(fs["sum_ttf"])
        avgdl = F32(self.sum_ttf / float(self.doc_count)) if self.doc_count else F32(1)
        self.avgdl = avgdl
        # BM25 keeps its fused 256-entry norm-inverse cache (the pruned
        # path's algebra depends on it); generic similarities build
        # per-(term-stats) scorers on demand instead
        self.norm_inverse = (
            self.sim.norm_inverse_cache(avgdl) if self.is_bm25 else None
        )
        # the pruned paths (terms and disjunctions, exact phrases) run
        # only on impact-bearing text formats: if any segment stores the
        # text field in a non-impact postings format ("plain" SPI codec),
        # eligible queries fall back to exhaustive scoring (rank-identical
        # either way) and mode="wand" is refused
        self.text_has_impacts = all(
            format_for_name(s.fmt_for_key("")).has_impacts
            for s in self.segments
        )
        # non-default (keyword) field stats: doc_count + sum_ttf per field
        # (FieldInfos / per-field Terms stats role). Keyword fields omit
        # norms, so their scorer sees norm byte 1 (length 1) — the
        # reference's norms==null path passes norm=1L to SimScorer.score.
        self.per_field: Dict[str, dict] = dict(fs.get("per_field", {}))
        self._kw_inv: Dict[str, np.float32] = {}
        # extra tokenized fields (multi-field TextField documents): these
        # score with their own norms + avgdl, unlike keyword fields
        self.text_fields = frozenset(self.config.extra_text_cols)
        self._field_inv_tables: Dict[str, np.ndarray] = {}
        # query-time analysis drops index-time synonym graph rules —
        # the standard pairing (SynonymGraphFilter on exactly one side;
        # ``.../synonym/SynonymGraphFilter.java`` class javadoc): the
        # expansion already lives in the postings, re-expanding queries
        # would double-count.
        self.analyzer = analyzer_for_config(
            self.config if not getattr(self.config, "synonyms", ())
            else replace(self.config, synonyms=())
        )
        # cross-query reuse: term states, index-wide term arrays (docids,
        # BM25 denominators, run maxima, freqs) and positions, the index-wide
        # norm inverses, similarity scorers
        self.cache = LRUCache(self.CACHE_BYTES)
        # constant-score match-set cache (LRUQueryCache role); pass
        # query_cache=None to disable
        self.query_cache: Optional[LRUQueryCache] = (
            query_cache if query_cache is not _DEFAULT_CACHE else LRUQueryCache()
        )

    # -- stats gathering (TermStates analogue) -----------------------------

    def term_states(self, terms: Sequence[str]) -> Dict[str, List[Optional[TermInfo]]]:
        """term → per-segment TermInfo (None where absent); df summed from
        these gives the global df. Cached per searcher — the role of
        ``TermStates`` reuse + ``LRUQueryCache`` (``core/index/TermStates.java``,
        ``core/search/LRUQueryCache.java``); segments are immutable so
        entries never go stale."""
        out = {}
        for t in set(terms):
            hit = self.cache.get(("states", t))
            if hit is None:
                infos = [seg.lookup(t) for seg in self.segments]
                df = sum(ti.df for ti in infos if ti is not None)
                ttf = sum(ti.ttf for ti in infos if ti is not None)
                hit = self.cache.put(
                    ("states", t),
                    (infos, df, ttf),
                    self._OBJ_BYTES * (1 + len(infos)),
                )
            # shard mode: the cache holds LOCAL df/ttf sums; the global
            # stats exchanged across shards apply at read time so cached
            # entries never go stale across override changes
            if self.stats_override is not None and t in self.stats_override:
                odf, ottf = self.stats_override[t]
                hit = (hit[0], int(odf), int(ottf))
            out[t] = hit
        return out

    def global_df(self, states) -> int:
        return states[1]

    # -- evaluation --------------------------------------------------------

    def _field_doc_count(self, fieldname: str) -> int:
        if fieldname == DEFAULT_FIELD:
            return self.doc_count
        return int(self.per_field.get(fieldname, {}).get("doc_count", 0))

    def _term_weight(
        self, df: int, boost: float, fieldname: str = DEFAULT_FIELD
    ) -> np.float32:
        return F32(boost) * bm25_idf(df, max(1, self._field_doc_count(fieldname)))

    def _kw_norm_inv(self, fieldname: str) -> np.float32:
        """Norm-inverse factor for a norms-omitted keyword field: norm
        byte 1 (decoded length 1) against the FIELD's avgdl."""
        hit = self._kw_inv.get(fieldname)
        if hit is None:
            st = self.per_field.get(fieldname, {})
            dc = int(st.get("doc_count", 0))
            avgdl = F32(int(st.get("sum_ttf", 0)) / float(dc)) if dc else F32(1)
            hit = self.sim.norm_inverse_cache(avgdl)[1]
            self._kw_inv[fieldname] = hit
        return hit

    def _field_norm_inverse(self, fieldname: str) -> np.ndarray:
        """float32[256] norm-inverse table for an EXTRA TOKENIZED field
        (its own avgdl from per-field stats; per-field norms live in
        ``norms_<field>.bin``)."""
        hit = self._field_inv_tables.get(fieldname)
        if hit is None:
            dc, sttf = self._field_stats(fieldname)
            avgdl = F32(sttf / float(dc)) if dc else F32(1)
            hit = self.sim.norm_inverse_cache(avgdl)
            self._field_inv_tables[fieldname] = hit
        return hit

    def _field_stats(self, fieldname: str) -> Tuple[int, int]:
        """(doc_count, sum_ttf) of a field — the ``CollectionStatistics``
        handed to ``Similarity.scorer`` (``core/search/CollectionStatistics.java``)."""
        if fieldname == DEFAULT_FIELD:
            return self.doc_count, self.sum_ttf
        st = self.per_field.get(fieldname, {})
        return int(st.get("doc_count", 0)), int(st.get("sum_ttf", 0))

    def _generic_scorer(self, fieldname: str, df: int, ttf: int, boost: float):
        """Per-(field, term-stats, boost) scorer for a non-BM25 similarity,
        cached — the Weight-holds-SimScorer role."""
        key = ("scorer", fieldname, df, ttf, float(boost))
        hit = self.cache.get(key)
        if hit is None:
            dc, sttf = self._field_stats(fieldname)
            hit = self.cache.put(
                key,
                self.sim.scorer(boost, max(1, dc), max(1, sttf), df, ttf),
                self._OBJ_BYTES,
            )
        return hit

    def _multi_scorer(self, boost: float, stats: List[Tuple[int, int]]):
        """Cached ``Similarity.scorer_multi`` over the default field for
        a phrase's per-term (df, ttf) stats."""
        key = ("multi_scorer", tuple(stats), float(boost))
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache.put(
                key,
                self.sim.scorer_multi(
                    boost, max(1, self.doc_count), max(1, self.sum_ttf), stats
                ),
                self._OBJ_BYTES,
            )
        return hit

    def _score_postings(
        self,
        seg,
        ids: np.ndarray,
        freqs: np.ndarray,
        df: int,
        ttf: int,
        boost: float,
        fieldname: str,
    ) -> np.ndarray:
        """Score one term's (ids, freqs) on a segment under the active
        similarity. BM25 keeps the fused norm-inverse algebra verbatim
        (bit-exact vs the DuckDB oracle); generic similarities go through
        ``Similarity.scorer`` with raw SmallFloat norm bytes (byte 1 for
        norms-omitted keyword fields — the reference's ``norms == null``
        path passes norm=1L to ``SimScorer.score``)."""
        if self.is_bm25:
            w = self._term_weight(df, boost, fieldname)
            if fieldname == DEFAULT_FIELD:
                inv = self.norm_inverse[seg.norms[ids]]
            elif fieldname in self.text_fields:
                inv = self._field_norm_inverse(fieldname)[
                    seg.norms_for(fieldname)[ids]
                ]
            else:
                inv = self._kw_norm_inv(fieldname)
            return w - w / (F32(1.0) + freqs.astype(F32) * inv)
        scorer = self._generic_scorer(fieldname, df, ttf, boost)
        if fieldname == DEFAULT_FIELD:
            nb = seg.norms[ids]
        elif fieldname in self.text_fields:
            nb = seg.norms_for(fieldname)[ids]
        else:
            nb = np.full(len(ids), 1, dtype=np.uint8)
        return scorer.score(freqs, nb)

    @staticmethod
    def _live(seg, r: SegmentResult) -> SegmentResult:
        """Filter a leaf match set to live docs (liveDocs applied at
        evaluation, like the reference's collectors; statistics keep
        deleted docs until compaction)."""
        d = seg.deleted
        if d is None or len(r.docids) == 0:
            return r
        keep = ~d[r.docids]
        if keep.all():
            return r
        return SegmentResult(r.docids[keep], r.scores[keep])

    def _eval(
        self,
        q: Query,
        seg_idx: int,
        states: Dict[str, List[Optional[TermInfo]]],
    ) -> SegmentResult:
        seg = self.segments[seg_idx]
        if isinstance(q, TermQuery):
            infos, df, ttf = states[term_key(q.field, q.term)]
            ti = infos[seg_idx]
            if ti is None or df == 0:
                return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
            ids, freqs = seg.decoded(ti)
            scores = self._score_postings(
                seg, ids, freqs, df, ttf, q.boost, q.field
            )
            return self._live(seg, SegmentResult(ids, scores))
        if isinstance(q, PhraseQuery):
            return self._eval_phrase(q, seg_idx, states)
        if isinstance(q, MultiPhraseQuery):
            return self._eval_multi_phrase(q, seg_idx, states)
        if isinstance(q, IntervalQuery):
            return self._eval_interval(q, seg_idx, states)
        if isinstance(q, MatchAllQuery):
            n = seg.n_docs
            return self._live(
                seg,
                SegmentResult(
                    np.arange(n, dtype=np.uint32), np.full(n, F32(q.boost))
                ),
            )
        if isinstance(q, RangeQuery):
            return self._eval_range(q, seg_idx)
        if isinstance(q, (GeoBoxQuery, GeoDistanceQuery)):
            return self._eval_geo(q, seg_idx)
        if isinstance(q, RangeFieldQuery):
            return self._eval_range_field(q, seg_idx)
        if isinstance(q, SynonymQuery):
            return self._eval_synonym(q, seg_idx, states)
        if isinstance(q, FeatureQuery):
            return self._eval_feature(q, seg_idx, states)
        if isinstance(q, CombinedFieldQuery):
            return self._eval_combined_field(q, seg_idx, states)
        if isinstance(
            q,
            (PrefixQuery, WildcardQuery, FuzzyQuery, RegexpQuery,
             TermRangeQuery),
        ):
            return self._eval_multiterm(q, seg_idx)
        if isinstance(q, TermInSetQuery):
            return self._eval_term_in_set(q, seg_idx, states)
        if isinstance(q, ConstantScoreQuery):
            r = self._eval(q.query, seg_idx, states)
            return SegmentResult(
                r.docids, np.full(len(r.docids), F32(q.boost))
            )
        if isinstance(q, DisjunctionMaxQuery):
            return self._eval_dismax(q, seg_idx, states)
        if isinstance(q, SpanNearQuery):
            return self._eval_span_near(q, seg_idx, states)
        if isinstance(q, CoveringQuery):
            return self._eval_covering(q, seg_idx, states)
        if isinstance(q, BooleanQuery):
            return self._eval_bool(q, seg_idx, states)
        raise TypeError(f"unknown query node {type(q)}")

    def _eval_covering(
        self, q: CoveringQuery, seg_idx: int, states
    ) -> SegmentResult:
        """Per-doc minimum-should-match (``CoveringQuery.java``): count
        matching sub-queries per candidate, keep docs where the count ≥
        ``max(1, floor(min_match_expr(doc)))``, score = float32 sum of
        matching sub-scores in clause order (the ``WANDScorer``-backed
        sum of the reference, evaluated exhaustively here)."""

        seg = self.segments[seg_idx]
        empty = SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        results = [self._eval(sub, seg_idx, states) for sub in q.queries]
        nonempty = [r for r in results if len(r.docids)]
        if not nonempty:
            return empty
        cand = np.unique(
            np.concatenate([r.docids for r in nonempty])
        ).astype(np.int64)
        count = np.zeros(len(cand), dtype=np.int64)
        acc = np.zeros(len(cand), dtype=F32)
        for r in nonempty:
            # every rid is in cand (cand is their union): one searchsorted
            idx = np.searchsorted(cand, r.docids.astype(np.int64))
            count[idx] += 1
            acc[idx] += r.scores
        expr = Expression(q.min_match_expr)
        take = pa.array(cand)
        bindings = {
            var: np.asarray(seg.dv(var).take(take), dtype=np.float64)
            for var in expr.variables
        }
        need = np.asarray(expr.evaluate(bindings), dtype=np.float64)
        if need.shape == ():  # constant expression
            need = np.full(len(cand), float(need))
        # a doc with no value for the source never matches — Lucene's
        # advanceExact()==false path (null DV → NaN here; NaN comparisons
        # are False, so `count >= need` drops it without special-casing,
        # but make it explicit rather than lean on NaN semantics)
        valid = ~np.isnan(need)
        need = np.maximum(np.floor(need), 1.0)
        keep = valid & (count >= need)
        return SegmentResult(cand[keep].astype(np.uint32), acc[keep])

    def _eval_term_in_set(
        self, q: TermInSetQuery, seg_idx: int, states
    ) -> SegmentResult:
        """Union of the member terms' postings, constant score
        (``TermInSetQuery.java:48-74`` constant-score rewrite)."""
        seg = self.segments[seg_idx]
        infos = [
            ti
            for t in q.terms
            if (ti := states[term_key(q.field, t)][0][seg_idx]) is not None
        ]
        id_sets = [d[0] for d in seg.decoded_many(infos)]
        if not id_sets:
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        ids = (
            np.unique(np.concatenate(id_sets)) if len(id_sets) > 1 else id_sets[0]
        ).astype(np.uint32)
        return self._live(
            seg, SegmentResult(ids, np.full(len(ids), F32(q.boost)))
        )

    def _eval_dismax(
        self, q: DisjunctionMaxQuery, seg_idx: int, states
    ) -> SegmentResult:
        """``DisjunctionMaxScorer.score``: per doc, max sub-score plus
        ``tie_breaker`` × the sum of the OTHER sub-scores, accumulated in
        double, narrowed to float32 once (``DisjunctionMaxQuery.java:
        40-70``). With float32 sub-scores the double accumulation is
        exact for small clause counts, so the result is order-free and
        bit-matchable by a DOUBLE-arithmetic SQL oracle."""
        subs = [self._eval(s, seg_idx, states) for s in q.disjuncts]
        nonempty = [r for r in subs if len(r.docids)]
        if not nonempty:
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        cand = np.unique(
            np.concatenate([r.docids for r in nonempty]).astype(np.int64)
        )
        smax = np.zeros(len(cand), dtype=np.float64)
        ssum = np.zeros(len(cand), dtype=np.float64)
        for r in nonempty:
            idx = np.searchsorted(cand, r.docids.astype(np.int64))
            s64 = r.scores.astype(np.float64)
            np.maximum.at(smax, idx, s64)
            ssum[idx] += s64
        tie = float(q.tie_breaker)
        scores = (smax + tie * (ssum - smax)).astype(F32)
        # sub-evals already applied liveDocs; union preserves that
        return SegmentResult(cand.astype(np.uint32), scores)

    def _eval_span_near(
        self, q: SpanNearQuery, seg_idx: int, states
    ) -> SegmentResult:
        """Span-near existence match over positions: ordered spans need
        strictly increasing positions in term order with total width −
        n ≤ slop (``NearSpansOrdered.java``); unordered spans need a
        minimal window holding one occurrence of every term with width −
        n ≤ slop (``NearSpansUnordered.java``). Constant-score (see
        SpanNearQuery docstring)."""
        seg = self.segments[seg_idx]
        infos = [states[t][0][seg_idx] for t in q.terms]
        if any(ti is None for ti in infos):
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        decoded = [seg.positional(ti) for ti in infos]
        common = self._doc_conjunction([d[0] for d in decoded])
        rows = [np.searchsorted(ids, common) for ids, _, _ in decoded]
        out: List[int] = []
        n = len(q.terms)
        budget = q.slop + n  # max allowed window width
        for ci, d in enumerate(common):
            per_term = []
            for (_, offs, pos), r in zip(decoded, rows):
                j = int(r[ci])
                per_term.append(pos[offs[j] : offs[j + 1]].astype(np.int64))
            if _span_near_match(per_term, budget, q.in_order):
                out.append(int(d))
        if not out:
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        ids = np.array(out, dtype=np.uint32)
        return self._live(
            seg, SegmentResult(ids, np.full(len(ids), F32(q.boost)))
        )

    def _eval_multiterm(self, q, seg_idx: int) -> SegmentResult:
        """MultiTermQuery: dictionary expansion → union of matched terms'
        doc sets, constant score = boost (``MultiTermQuery`` constant-
        score rewrite; ``PrefixQuery.java`` / ``WildcardQuery.java`` /
        ``FuzzyQuery.java``). Match sets are LRU-cached per (query,
        segment) — dictionary scans are the expensive-to-recompute,
        cheap-to-reuse case ``LRUQueryCache`` exists for."""
        seg = self.segments[seg_idx]
        cached = self.query_cache.get(q, seg) if self.query_cache is not None else None
        if cached is not None:
            return self._live(
                seg,
                SegmentResult(cached, np.full(len(cached), F32(q.boost))),
            )
        fprefix = term_key(q.field, "")
        if isinstance(q, TermRangeQuery):
            # seekCeil(lower) + bounded scan — no predicate needed, the
            # dictionary order IS the match condition
            matches = seg.expand_terms_range(
                None if q.lower is None else term_key(q.field, q.lower),
                None if q.upper is None else term_key(q.field, q.upper),
                q.include_lower,
                q.include_upper,
                exclude_field_sep=(q.field == DEFAULT_FIELD),
            )
            return self._finish_multiterm(q, seg, matches)
        if isinstance(q, PrefixQuery):
            key_prefix = term_key(q.field, q.prefix)
            match = None
        elif isinstance(q, WildcardQuery):
            key_prefix = term_key(q.field, wildcard_literal_head(q.pattern))
            rx = wildcard_regex(q.pattern)
            match = lambda key: rx.fullmatch(key[len(fprefix):]) is not None
        elif isinstance(q, RegexpQuery):
            # RegexpQuery.java: anchored match, scan bounded by the
            # pattern's guaranteed literal prefix
            import re as _re

            key_prefix = term_key(q.field, regexp_literal_head(q.regexp))
            rx = _re.compile(q.regexp)
            match = lambda key: rx.fullmatch(key[len(fprefix):]) is not None
        else:  # FuzzyQuery
            key_prefix = term_key(q.field, q.term[: q.prefix_length])
            dist = damerau_levenshtein if q.transpositions else (
                lambda a, b, cap=None: levenshtein(a, b)
            )
            term, k = q.term, q.max_edits

            def match(key):
                return dist(key[len(fprefix):], term, cap=k) <= k

        matches = seg.expand_terms(
            key_prefix, match, exclude_field_sep=(q.field == DEFAULT_FIELD)
        )
        return self._finish_multiterm(q, seg, matches)

    def _finish_multiterm(self, q, seg, matches) -> SegmentResult:
        """Union of expanded terms' doc sets, constant score, match-set
        cached (shared tail of every MultiTermQuery evaluation)."""
        if not matches:
            ids = np.empty(0, np.uint32)
            if self.query_cache is not None:
                self.query_cache.put(q, seg, ids)
            return SegmentResult(ids, np.empty(0, F32))
        id_sets = [d[0] for d in seg.decoded_many([ti for _, ti in matches])]
        ids = (
            np.unique(np.concatenate(id_sets))
            if len(id_sets) > 1
            else id_sets[0]
        )
        if self.query_cache is not None:
            self.query_cache.put(q, seg, ids.astype(np.uint32))
        return self._live(
            seg,
            SegmentResult(
                ids.astype(np.uint32), np.full(len(ids), F32(q.boost))
            ),
        )

    def _eval_feature(self, q, seg_idx: int, states) -> SegmentResult:
        """``FeatureQuery`` (``core/document/FeatureField.java:585-683``
        over a fork ``DOCS_AND_CUSTOM_FREQS`` list): decode the custom
        freqs back to float32 feature values and apply the scoring
        function — no idf, no norms (the reference omits norms on
        FeatureField and passes norm=1L)."""
        seg = self.segments[seg_idx]
        infos, df, _ = states[term_key(q.field, q.feature)]
        ti = infos[seg_idx]
        if ti is None or df == 0:
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        ids, freqs = seg.decoded(ti)
        vals = decode_feature_values(freqs)
        scores = feature_scores(
            q.function, vals, q.weight, q.pivot, q.scale, q.exp
        )
        return self._live(seg, SegmentResult(ids, scores.astype(F32)))

    def _eval_synonym(self, q, seg_idx: int, states) -> SegmentResult:
        """``SynonymQuery`` semantics (``core/search/SynonymQuery.java``):
        the variants score as one pseudo-term — per-doc freq = Σ variant
        freqs, pseudo docFreq = max variant df (for the idf), one BM25
        weight."""
        seg = self.segments[seg_idx]
        keys = [term_key(q.field, t) for t in q.terms]
        df = max((states[k][1] for k in keys), default=0)
        if df == 0:
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        pairs = [
            seg.decoded(states[k][0][seg_idx])
            for k in keys
            if states[k][0][seg_idx] is not None
        ]
        if not pairs:
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        if len(pairs) == 1:
            ids, freqs = pairs[0]
            ids = ids.astype(np.int64)
            freqs = freqs.astype(np.int64)
        else:
            all_ids = np.concatenate([p[0] for p in pairs]).astype(np.int64)
            all_fr = np.concatenate([p[1] for p in pairs]).astype(np.int64)
            ids, inverse = np.unique(all_ids, return_inverse=True)
            freqs = np.zeros(len(ids), dtype=np.int64)
            np.add.at(freqs, inverse, all_fr)
        # pseudo-term stats: docFreq = max variant df, totalTermFreq =
        # Σ variant ttfs (SynonymQuery.java createWeight stats loop)
        ttf = sum(states[k][2] for k in keys)
        scores = self._score_postings(
            seg, ids, freqs, df, ttf, q.boost, q.field
        )
        return self._live(seg, SegmentResult(ids.astype(np.uint32), scores))

    def _eval_combined_field(self, q, seg_idx: int, states) -> SegmentResult:
        """BM25F — ``CombinedFieldQuery`` semantics
        (``core/search/CombinedFieldQuery.java:228-243,292-312``): one
        term scored against a synthetic field. Pseudo term stats:
        ``df = max`` over fields, ``ttf = Σ weight·ttf`` (accumulated
        with the reference's long+=double truncation). Pseudo collection
        stats: ``docCount = max``, ``sumTotalTermFreq = Σ weight·sumTtf``.
        Per doc: ``freq = Σ weight·tf_field`` (float32) and a combined
        norm byte ``intToByte4(round(Σ weight·decodedNorm_field))``
        (``MultiNormsLeafSimScorer.java:168-180``) — exact vs the
        reference for integer weights. Requires BM25 (the reference
        requires an additive-norm similarity)."""
        if not self.is_bm25:
            raise ValueError("CombinedFieldQuery requires BM25 similarity")
        seg = self.segments[seg_idx]
        empty = SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        df = 0
        ttf = 0
        for f, w in q.fields:
            _, fdf, fttf = states[term_key(f, q.term)]
            if fdf > 0:
                df = max(df, fdf)
                ttf = int(ttf + w * fttf)  # long += double (truncates)
        if df == 0:
            return empty
        doc_count = 0
        sum_ttf = 0
        for f, w in q.fields:
            dc, sttf = self._field_stats(f)
            doc_count = max(doc_count, dc)
            sum_ttf = int(sum_ttf + w * sttf)
        wgt = F32(q.boost) * bm25_idf(df, max(1, doc_count))
        avgdl = F32(sum_ttf / float(doc_count)) if doc_count else F32(1)
        inv_table = self.sim.norm_inverse_cache(avgdl)

        # per-field postings on this segment
        field_pairs = []  # (weight_f32, ids, freqs, norm_bytes[n_docs])
        for f, w in q.fields:
            ti = states[term_key(f, q.term)][0][seg_idx]
            if ti is None:
                continue
            ids, freqs = seg.decoded(ti)
            field_pairs.append((F32(w), ids, freqs, seg.norms_for(f)))
        if not field_pairs:
            return empty
        if len(field_pairs) == 1:
            w_f, ids, freqs, _ = field_pairs[0]
            u_ids = ids
            comb_freq = w_f * freqs.astype(F32)
        else:
            all_ids = np.concatenate([p[1] for p in field_pairs])
            u_ids = np.unique(all_ids)
            comb_freq = np.zeros(len(u_ids), dtype=F32)
            for w_f, ids, freqs, _ in field_pairs:
                pos = np.searchsorted(u_ids, ids)
                # float32 accumulation in field order (exact for integer
                # weights: integer-valued float32 sums below 2^24)
                comb_freq[pos] += w_f * freqs.astype(F32)
        # combined norm over ALL fields of the query (not just matching)
        norm_val = np.zeros(len(u_ids), dtype=F32)
        for f, w in q.fields:
            fn = seg.norms_for(f)
            norm_val += F32(w) * LENGTH_TABLE_INT[fn[u_ids]].astype(F32)
        # Math.round(float) = floor(x + 0.5); re-encode through SmallFloat.
        # intToByte4 of an int v = max byte whose decoded value <= v, and
        # LENGTH_TABLE_INT is strictly increasing → vectorized searchsorted
        rounded = np.floor(norm_val + F32(0.5)).astype(np.int64)
        nb = (
            np.searchsorted(LENGTH_TABLE_INT, rounded, side="right") - 1
        ).astype(np.uint8)
        scores = wgt - wgt / (F32(1.0) + comb_freq * inv_table[nb])
        return self._live(seg, SegmentResult(u_ids.astype(np.uint32), scores))

    def _eval_range(self, q: RangeQuery, seg_idx: int) -> SegmentResult:
        """Doc-values range filter, constant-score (``PointRangeQuery`` /
        ``SortedNumericDocValuesRangeQuery`` role). Match sets are
        LRU-cached per (query, segment) (``LRUQueryCache``)."""
        import pyarrow.compute as pc

        seg = self.segments[seg_idx]
        cached = self.query_cache.get(q, seg) if self.query_cache is not None else None
        if cached is not None:
            return self._live(
                seg,
                SegmentResult(cached, np.full(len(cached), F32(q.boost))),
            )
        pi = seg.point_index(q.field)
        if pi is not None:
            # 1-D point index (LongPoint/BKD role): two binary searches
            # over the sorted memmapped (value, docid) permutation —
            # O(log n) touched pages + exactly the matching docids,
            # never an O(maxDoc) scan (index/points.py). Falls through
            # to the scan when a bound can't be normalized.
            ids = point_range_docids(
                pi[0], pi[1], q.lo, q.hi, q.include_lo, q.include_hi, pi[2]
            )
            if ids is not None:
                if self.query_cache is not None:
                    self.query_cache.put(q, seg, ids)
                return self._live(
                    seg, SegmentResult(ids, np.full(len(ids), F32(q.boost)))
                )
        col = seg.dv(q.field)
        mask: Optional[pa.ChunkedArray] = None

        def _and(a, b):
            return b if a is None else pc.and_kleene(a, b)

        if q.lo is not None:
            op = pc.greater_equal if q.include_lo else pc.greater
            mask = _and(mask, op(col, q.lo))
        if q.hi is not None:
            op = pc.less_equal if q.include_hi else pc.less
            mask = _and(mask, op(col, q.hi))
        if mask is None:  # fully open range: matches docs with a value
            mask = pc.is_valid(col)
        m = np.asarray(pc.fill_null(mask, False))
        ids = np.flatnonzero(m).astype(np.uint32)
        if self.query_cache is not None:
            self.query_cache.put(q, seg, ids)
        return self._live(
            seg, SegmentResult(ids, np.full(len(ids), F32(q.boost)))
        )

    def _eval_geo(self, q, seg_idx: int) -> SegmentResult:
        """Geo box/distance filter against the segment's morton-block
        sidecar (``LatLonPointBox/DistanceQuery`` role): the stored block
        directory prunes, surviving blocks refine vectorized. Match sets
        are LRU-cached per (query, segment) like every constant-score
        filter."""
        seg = self.segments[seg_idx]
        cached = (
            self.query_cache.get(q, seg)
            if self.query_cache is not None
            else None
        )
        if cached is not None:
            return self._live(
                seg,
                SegmentResult(cached, np.full(len(cached), F32(q.boost))),
            )
        gi = seg.geo_index(q.field)
        if gi is None:
            raise KeyError(
                f"segment {seg.seg_dir} has no geo sidecar for field "
                f"{q.field!r} (IndexConfig.geo_cols at build time)"
            )
        if isinstance(q, GeoBoxQuery):
            ids = gi.box(q.min_lat, q.max_lat, q.min_lon, q.max_lon)
        else:
            ids = gi.distance(q.lat, q.lon, q.radius_m)
        ids = np.sort(np.asarray(ids)).astype(np.uint32)
        if self.query_cache is not None:
            self.query_cache.put(q, seg, ids)
        return self._live(
            seg, SegmentResult(ids, np.full(len(ids), F32(q.boost)))
        )

    def _eval_range_field(self, q: RangeFieldQuery, seg_idx: int) -> SegmentResult:
        """Interval-relation filter against the segment's lo-sorted
        interval sidecar (``RangeFieldQuery`` role, index/ranges.py)."""
        seg = self.segments[seg_idx]
        cached = (
            self.query_cache.get(q, seg)
            if self.query_cache is not None
            else None
        )
        if cached is not None:
            return self._live(
                seg,
                SegmentResult(cached, np.full(len(cached), F32(q.boost))),
            )
        ri = seg.range_index(q.field)
        if ri is None:
            raise KeyError(
                f"segment {seg.seg_dir} has no range sidecar for field "
                f"{q.field!r} (IndexConfig.range_cols at build time)"
            )
        ids = ri.relate(q.relation, q.a, q.b).astype(np.uint32)
        if self.query_cache is not None:
            self.query_cache.put(q, seg, ids)
        return self._live(
            seg, SegmentResult(ids, np.full(len(ids), F32(q.boost)))
        )

    @staticmethod
    def _member(sorted_ids: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """bool mask: which sorted ``targets`` appear in ``sorted_ids``."""
        if len(sorted_ids) == 0 or len(targets) == 0:
            return np.zeros(len(targets), dtype=bool)
        pos = np.searchsorted(sorted_ids, targets)
        safe = np.minimum(pos, len(sorted_ids) - 1)
        return sorted_ids[safe] == targets

    @staticmethod
    def _doc_conjunction(id_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Sorted docids present in every sorted, unique array of
        ``id_arrays``: the rarest array leads and each other one filters
        the survivors by ``searchsorted`` membership (no concatenate +
        sort as in ``np.intersect1d``)."""
        arrays = sorted(id_arrays, key=len)
        cand = arrays[0]
        for ids in arrays[1:]:
            if len(cand) == 0:
                break
            cand = cand[IndexSearcher._member(ids, cand)]
        return cand

    def _eval_bool(
        self, q: BooleanQuery, seg_idx: int, states
    ) -> SegmentResult:
        """Sparse Boolean evaluation: set algebra over per-clause sorted
        docid arrays — scratch is O(matching docs), never O(n_docs)
        (round-1 VERDICT: dense masks cost ~100 MB per clause on merged
        multi-million-doc segments)."""
        empty = SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        results: List[Tuple[str, SegmentResult]] = [
            (occur, self._eval(sub, seg_idx, states)) for occur, sub in q.clauses
        ]
        req = [r for o, r in results if o in (MUST, FILTER)]
        should = [r for o, r in results if o == SHOULD]
        nots = [r for o, r in results if o == MUST_NOT]
        n_should = len(should)

        if req:
            cand = req[0].docids.astype(np.int64)
            for r in req[1:]:
                cand = cand[self._member(r.docids.astype(np.int64), cand)]
        elif n_should:
            cand = (
                np.unique(np.concatenate([r.docids for r in should])).astype(np.int64)
                if any(len(r.docids) for r in should)
                else np.empty(0, np.int64)
            )
        else:
            return empty  # no positive clause → matches nothing

        msm = q.minimum_should_match
        need = msm if req else max(1, msm)
        if n_should and need > 0:
            count = np.zeros(len(cand), dtype=np.int32)
            for r in should:
                count += self._member(r.docids.astype(np.int64), cand)
            cand = cand[count >= need]
        for r in nots:
            cand = cand[~self._member(r.docids.astype(np.int64), cand)]

        # float32 accumulation in clause order — identical per-doc add
        # sequence to the round-1 dense accumulator (documented sum order)
        acc = np.zeros(len(cand), dtype=F32)
        for occur, r in results:
            if occur not in (SHOULD, MUST) or len(r.docids) == 0:
                continue
            rid = r.docids.astype(np.int64)
            m = self._member(cand, rid)
            idx = np.searchsorted(cand, rid[m])
            acc[idx] += r.scores[m]
        return SegmentResult(cand.astype(np.uint32), acc)

    def _eval_interval(
        self, q: IntervalQuery, seg_idx: int, states
    ) -> SegmentResult:
        """IntervalQuery (``lucene/queries/intervals/IntervalQuery.java``):
        candidate docs = postings intersection for conjunctive sources
        (every leaf term required), union when an ``or`` branch is
        present; per candidate doc the terms' position lists feed the
        minimal-interval kernels (search/intervals.py),
        ``IntervalScorer``'s float32 freq accumulation, and the
        saturation score function."""
        seg = self.segments[seg_idx]
        terms = interval_source_terms(q.source)
        empty = SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        no_pos = np.empty(0, dtype=np.int64)
        decoded = []  # per term: (ids, offs, pos) or None (term absent)
        for t in terms:
            ti = states[t][0][seg_idx]
            if ti is None:
                decoded.append(None)
                continue
            decoded.append(seg.positional(ti))
        # candidates: intersect the REQUIRED leaves' postings (terms a
        # match must contain — interval_required_terms handles or /
        # not_containing asymmetries); nothing required → union of all
        # leaves. A per-doc missing optional term evaluates to no
        # intervals for its branch.
        req = interval_required_terms(q.source)
        if req:
            by_term = dict(zip(terms, decoded))
            if any(by_term[t] is None for t in req):
                return empty
            cand = self._doc_conjunction([by_term[t][0] for t in req])
        else:
            doc_sets = [d[0] for d in decoded if d is not None]
            if not doc_sets:
                return empty
            cand = np.unique(np.concatenate(doc_sets))
        if len(cand) == 0:
            return empty
        lookups = [
            None if d is None else np.searchsorted(d[0], cand)
            for d in decoded
        ]
        out_ids: List[int] = []
        out_scores: List[np.float32] = []
        for ci in range(len(cand)):
            d_ = int(cand[ci])
            pls = {}
            for t, dec, lk in zip(terms, decoded, lookups):
                if dec is None:
                    pls[t] = no_pos
                    continue
                ids, offs, pos = dec
                r = int(lk[ci])
                if r >= len(ids) or int(ids[r]) != d_:
                    pls[t] = no_pos  # term absent from this doc
                else:
                    pls[t] = pos[offs[r] : offs[r + 1]].astype(np.int64)
            iv, me = interval_eval_source(q.source, pls)
            if not iv:
                continue
            f = interval_freq(iv, me)
            out_ids.append(int(cand[ci]))
            out_scores.append(saturation_score(f, q.pivot, q.boost))
        if not out_ids:
            return empty
        return self._live(
            seg,
            SegmentResult(
                np.array(out_ids, dtype=np.uint32),
                np.array(out_scores, dtype=F32),
            ),
        )

    def _phrase_matches(
        self, q: PhraseQuery, seg_idx: int, states
    ) -> Tuple[np.ndarray, np.ndarray]:
        """→ (docids, phrase freqs) on one segment — exact (integer
        counts) or sloppy (float sloppyWeight freqs). Shared by scoring
        and ``explain`` (the freq is the Explanation's tf factor)."""
        seg = self.segments[seg_idx]
        infos = [states[t][0][seg_idx] for t in q.terms]
        empty = (np.empty(0, np.uint32), np.empty(0, F32))
        if any(ti is None for ti in infos):
            return empty
        decoded = [seg.positional(ti) for ti in infos]
        if q.slop == 0:
            ids, freqs = self._exact_phrase_hits(decoded)
            if len(ids) == 0:
                return empty
            return ids, freqs
        out_ids, out_freq = self._sloppy_phrase(q, decoded)
        if not out_ids:
            return empty
        return (
            np.array(out_ids, dtype=np.uint32),
            np.array(out_freq, dtype=F32),  # float sloppy freqs
        )

    def _phrase_weight(
        self, boost: float, terms: Sequence[str], states
    ) -> np.float32:
        """BM25 phrase weight: boost · Σ idf(term), the idfs summed in
        float64 then narrowed (``idfExplain``)."""
        idf_sum = float(
            np.sum([float(bm25_idf(states[t][1], self.doc_count)) for t in terms])
        )
        return F32(boost) * F32(idf_sum)

    @staticmethod
    def _phrase_scores(
        w: np.float32, inv: np.ndarray, freqs: np.ndarray
    ) -> np.ndarray:
        """BM25 at phrase freqs ``freqs`` of docs whose default-field
        norm inverses are ``inv``. Every float32 step is monotone in the
        freq, so at any freq ≥ the true one it bounds the exact score
        from above (w ≥ 0)."""
        return w - w / (F32(1.0) + freqs.astype(F32) * inv)

    def _eval_phrase(self, q: PhraseQuery, seg_idx: int, states) -> SegmentResult:
        """Exact / sloppy phrase via positions intersection
        (``core/search/ExactPhraseMatcher.java`` semantics; scoring = BM25
        with summed term idfs and phrase freq, ``BM25Similarity.java:204-214``)."""
        seg = self.segments[seg_idx]
        ids, freqs = self._phrase_matches(q, seg_idx, states)
        if len(ids) == 0:
            return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
        if self.is_bm25:
            w = self._phrase_weight(q.boost, q.terms, states)
            scores = self._phrase_scores(w, self.norm_inverse[seg.norms[ids]], freqs)
        else:
            # PhraseWeight hands ALL the terms' stats to Similarity.scorer
            # (PhraseQuery.java getStats); scored at the phrase freq
            sc = self._multi_scorer(
                q.boost, [(states[t][1], states[t][2]) for t in q.terms]
            )
            scores = sc.score(freqs, seg.norms[ids])
        return self._live(seg, SegmentResult(ids, scores))

    @staticmethod
    def _exact_phrase_hits(
        decoded, cand: Optional[np.ndarray] = None, rows=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact phrase over per-slot (ids, offs, pos) tuples, linear in
        the candidates' positions — no sort, no ``np.unique``:

        1. candidates = ``cand`` (sorted docids, a subset of the slots'
           doc conjunction), by default the whole conjunction (rarest
           first); ``rows`` may give, per slot, the candidates' indices
           in that slot's docs (None: the slot's docs are the
           candidates), else they are looked up; per term, each
           candidate's run of positions is ``[lo, lo + cnt)``;
        2. each slot's positions are gathered for the candidates only, one
           index range per candidate (runs that lie back to back are
           sliced, not gathered);
        3. candidate j owns the key range ``[base[j], base[j+1])``, base =
           exclusive cumsum of (its last position over all slots + nterms
           + 1) — positions ascend within a doc, so the last is the max;
           slot i's occurrence at p keys to ``base[j] + p - i + nterms``,
           which stays inside candidate j's range;
        4. a counter array over the key space marks slot 0's keys; each
           later slot keeps the keys every earlier slot marked (one
           gather) and marks them in turn;
        5. phrase freq per doc = the last slot's surviving keys summed
           over each doc's run of positions (every posting has tf >= 1).

        The key space is the candidates' own token span (never candidates
        x the longest document); keys are uint32 while it fits, else
        int64. Steps 2-5 run on blocks of consecutive candidates holding
        about ``_PHRASE_BLOCK_POSITIONS`` positions each.
        → (docids uint32, phrase freqs uint32) of the matching
        candidates; empties when none match."""
        if cand is None:
            cand = IndexSearcher._doc_conjunction([ids for ids, _, _ in decoded])
        if len(cand) == 0:
            return np.empty(0, np.uint32), np.empty(0, np.uint32)
        runs = {}  # per term (a term filling several slots counts once)
        for i, slot in enumerate(decoded):
            if id(slot) in runs:
                continue
            ids, offs, _ = slot
            if rows is not None:
                row = rows[i]
            else:
                row = None if len(ids) == len(cand) else np.searchsorted(ids, cand)
            if row is None:
                lo, hi = offs[:-1], offs[1:]
            else:
                lo, hi = offs[row], offs[row + 1]
            runs[id(slot)] = (lo.astype(np.int64), (hi - lo).astype(np.int64))
        cum = np.cumsum(sum(cnt for _, cnt in runs.values()))
        step = _PHRASE_BLOCK_POSITIONS
        cuts = np.searchsorted(cum, np.arange(step, cum[-1], step)).tolist()
        bounds = sorted({0, *cuts, len(cand)})
        out = [
            IndexSearcher._phrase_block(
                decoded,
                cand[a:b],
                {key: (lo[a:b], cnt[a:b]) for key, (lo, cnt) in runs.items()},
            )
            for a, b in zip(bounds, bounds[1:])
        ]
        return (
            np.concatenate([ids for ids, _ in out]),
            np.concatenate([freqs for _, freqs in out]),
        )

    @staticmethod
    def _phrase_block(
        decoded, cand: np.ndarray, runs
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Steps 2-5 of ``_exact_phrase_hits`` for the sorted candidates
        ``cand``, whose runs of positions in each term's ``pos`` are
        ``runs[id(slot)] = (lo, cnt)``."""
        none = (np.empty(0, np.uint32), np.empty(0, np.uint32))
        nterms = len(decoded)
        slots = []  # per slot: candidates' positions, per-doc counts, ends
        gathered = {}  # a term filling several slots is gathered once
        last = np.zeros(len(cand), dtype=np.int64)
        for slot in decoded:
            if id(slot) not in gathered:
                lo, cnt = runs[id(slot)]
                ends = np.cumsum(cnt)
                pos = slot[2]
                if lo[-1] + cnt[-1] - lo[0] == ends[-1]:  # back to back
                    pos = pos[lo[0] : lo[0] + ends[-1]]
                else:
                    # candidate j's run lo[j] + [0, cnt[j]) lands at
                    # ends[j] - cnt[j] + [0, cnt[j]) of the gathered
                    # positions
                    idx = np.repeat(lo - (ends - cnt), cnt)
                    idx += np.arange(len(idx))
                    pos = pos[idx]
                np.maximum(last, pos[ends - 1], out=last)
                gathered[id(slot)] = (pos, cnt, ends)
            slots.append(gathered[id(slot)])
        span = last + (nterms + 1)
        base = np.cumsum(span) - span
        space = int(base[-1] + span[-1])
        kdt = np.uint32 if space <= _KEY32_SPACE else np.int64
        base = base.astype(kdt)
        mark = np.zeros(space, dtype=np.min_scalar_type(nterms))
        for i, (pos, cnt, ends) in enumerate(slots):
            keys = np.repeat(base + (nterms - i), cnt)
            np.add(keys, pos, out=keys, casting="unsafe")
            if i == nterms - 1:
                break
            if i:
                keys = keys[np.take(mark, keys) == i]
                if len(keys) == 0:
                    return none
            mark[keys] = i + 1
        # the last slot's occurrences every earlier slot marked; a
        # one-slot phrase matches at every position (mark is all 0)
        hit = np.take(mark, keys) == nterms - 1
        freqs = np.add.reduceat(hit, ends - cnt, dtype=np.int64)
        found = freqs > 0
        return cand[found].astype(np.uint32), freqs[found].astype(np.uint32)

    def _eval_multi_phrase(
        self, q: MultiPhraseQuery, seg_idx: int, states
    ) -> SegmentResult:
        """``MultiPhraseQuery``: each position slot = the UNION of its
        member terms' postings+positions (``MultiPhraseQuery.
        UnionPostingsEnum``, :412), then the standard exact/sloppy phrase
        matcher over the slot stream; idf sums every term occurrence with
        df > 0 (``MultiPhraseQuery.java:219-236``)."""
        if len(q.positions) < 2 or all(len(s) == 1 for s in q.positions):
            # MultiPhraseQuery.rewrite degenerate forms (:182-194)
            return self._eval(rewrite_query(q), seg_idx, states)
        seg = self.segments[seg_idx]
        decoded = []
        for slot in q.positions:
            infos = [
                ti
                for t in slot
                if (ti := states[t][0][seg_idx]) is not None
            ]
            if not infos:
                # a slot none of whose terms exist can never match
                return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
            if len(infos) == 1:
                decoded.append(seg.positional(infos[0]))
                continue
            # union the slot: merge (docid, pos) pairs of every member,
            # sorted + deduped — one pseudo-term posting list
            doc_parts, pos_parts = [], []
            for ti in infos:
                ids, freqs = seg.decoded(ti)
                doc_parts.append(
                    np.repeat(ids.astype(np.int64), freqs.astype(np.int64))
                )
                pos_parts.append(seg.positional(ti)[2].astype(np.int64))
            alldocs = np.concatenate(doc_parts)
            allpos = np.concatenate(pos_parts)
            max_pos = int(allpos.max()) if len(allpos) else 0
            shift = max(21, int(max_pos + 1).bit_length())
            keys = np.unique((alldocs << shift) | allpos)
            udocs = (keys >> shift).astype(np.uint32)
            upos = (keys & ((1 << shift) - 1)).astype(np.uint32)
            ids, counts = np.unique(udocs, return_counts=True)
            offs = np.zeros(len(ids) + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            decoded.append((ids, offs, upos))
        if q.slop == 0:
            ids, freqs = self._exact_phrase_hits(decoded)
            if len(ids) == 0:
                return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
            freqs = freqs.astype(F32)
        else:
            # slot term-tuples stand in for term identity in repeat
            # detection (one PhrasePositions per UnionPostingsEnum)
            pseudo = PhraseQuery(tuple(q.positions), q.slop, q.boost)
            out_ids, out_freq = self._sloppy_phrase(pseudo, decoded)
            if not out_ids:
                return SegmentResult(np.empty(0, np.uint32), np.empty(0, F32))
            ids = np.array(out_ids, dtype=np.uint32)
            freqs = np.array(out_freq, dtype=F32)
        # idf: one contribution per term OCCURRENCE with df > 0
        occurrences = [
            t for slot in q.positions for t in slot if states[t][1] > 0
        ]
        if self.is_bm25:
            w = self._phrase_weight(q.boost, occurrences, states)
            scores = self._phrase_scores(w, self.norm_inverse[seg.norms[ids]], freqs)
        else:
            sc = self._multi_scorer(
                q.boost, [(states[t][1], states[t][2]) for t in occurrences]
            )
            scores = sc.score(freqs, seg.norms[ids])
        return self._live(seg, SegmentResult(ids, scores))

    @staticmethod
    def _sloppy_phrase(
        q: PhraseQuery, decoded
    ) -> Tuple[List[int], List[np.float32]]:
        """Exact sloppy matching per ``SloppyPhraseMatcher.java``
        semantics (see search/sloppy.py): per-doc float phrase freq =
        Σ 1/(1+matchLength) over the greedy least-position match stream,
        repeat groups handled."""
        common = IndexSearcher._doc_conjunction([d[0] for d in decoded])
        rows = [np.searchsorted(ids, common) for ids, _, _ in decoded]
        out_ids: List[int] = []
        out_freq: List[np.float32] = []
        for ci, d in enumerate(common):
            per_term = []
            for (_, offs, pos), r in zip(decoded, rows):
                j = int(r[ci])
                per_term.append(pos[offs[j] : offs[j + 1]].astype(np.int64))
            freq = sloppy_phrase_freq(q.terms, per_term, q.slop)
            if freq > 0:
                out_ids.append(int(d))
                out_freq.append(freq)
        return out_ids, out_freq

    # -- top-k -------------------------------------------------------------

    @staticmethod
    def _topk_segment(r: SegmentResult, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """k best by (score desc, docid asc) — HitQueue ordering."""
        n = len(r.docids)
        if n == 0:
            return r.docids, r.scores
        if n > k:
            # argpartition alone breaks kth-place ties arbitrarily; take the
            # kth score as a threshold and keep ALL docs at/above it so the
            # docid tie-break below is applied over the full tie group.
            part = np.argpartition(-r.scores, k - 1)[:k]
            thresh = r.scores[part].min()
            cand = np.flatnonzero(r.scores >= thresh)
        else:
            cand = np.arange(n)
        sel_scores = r.scores[cand]
        sel_ids = r.docids[cand]
        order = np.lexsort((sel_ids, -sel_scores.astype(np.float64)))[:k]
        return sel_ids[order], sel_scores[order]

    @staticmethod
    def _wand_eligible(q: Query) -> Optional[List[TermQuery]]:
        """Pure SHOULD disjunction of term queries (msm ≤ 1) → its terms;
        the shapes ``BooleanScorerSupplier`` routes to the top-k scored-∪
        strategies (``core/search/BooleanScorerSupplier.java:130-353``)."""
        if isinstance(q, TermQuery) and q.field == DEFAULT_FIELD:
            return [q]
        if isinstance(q, BooleanQuery) and q.minimum_should_match <= 1 and q.clauses:
            subs = []
            for occur, sub in q.clauses:
                if (
                    occur != SHOULD
                    or not isinstance(sub, TermQuery)
                    or sub.field != DEFAULT_FIELD
                ):
                    return None
                subs.append(sub)
            return subs
        return None

    def count(self, query) -> int:
        """Exact hit count, no scores — ``IndexSearcher.count``
        (``core/search/IndexSearcher.java:495-526``): constant-score
        rewrite, per-leaf shortcuts (term df / maxDoc when no deletes,
        the ``Weight#count`` role), the two-clause pure-term-disjunction
        inclusion-exclusion optimization (:507-520), then the match count
        of a BM25 tree of text terms and exact phrases on an
        impact-bearing index from the index-wide evaluator (``_wide``, as
        ``search`` matches it), and an exhaustive per-segment match-set
        count fallback (``TotalHitCountCollectorManager``)."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        no_deletes = all(s.deleted is None for s in self.segments)
        inner = query.query if isinstance(query, ConstantScoreQuery) else query

        def leaf_count(q) -> Optional[int]:
            if isinstance(q, ConstantScoreQuery):
                q = q.query
            if no_deletes and isinstance(q, TermQuery):
                key = term_key(q.field, q.term)
                return int(self.term_states([key])[key][1])
            if no_deletes and isinstance(q, MatchAllQuery):
                return sum(s.n_docs for s in self.segments)
            return None

        c = leaf_count(inner)
        if c is not None:
            return c
        if (
            no_deletes
            and isinstance(inner, BooleanQuery)
            and inner.minimum_should_match <= 1
            and len(inner.clauses) == 2
            and all(
                o == SHOULD and isinstance(s, TermQuery)
                for o, s in inner.clauses
            )
        ):
            t1, t2 = (s for _, s in inner.clauses)
            c1, c2 = leaf_count(t1), leaf_count(t2)
            if c1 == 0 or c2 == 0:
                return max(c1, c2)
            if min(c1, c2) / max(c1, c2) < 0.1:
                both = BooleanQuery(((MUST, t1), (MUST, t2)))
                return c1 + c2 - self.count(both)
        states = self.term_states(query_terms(inner))
        if self.is_bm25 and self.text_has_impacts and self._wide_eligible(inner):
            return len(self._wide(inner, states)[0])
        return sum(
            len(self._eval(inner, si, states).docids)
            for si in range(len(self.segments))
        )

    def search(
        self, query, k: int = 10, mode: str = "auto", after=None
    ) -> dict:
        """→ {"docids", "keys", "scores", "total_hits", "relation"} global
        top-k with TopDocs.merge tie-breaking.

        ``mode``: "auto" runs BM25 trees of text terms and exact phrases
        as one pass over the terms' index-wide arrays (docids and BM25
        denominators of the live postings, cached per term):

        1. a term or a SHOULD disjunction of terms (msm ≤ 1) with run-max
           bounds (``_search_wand``);
        2. a top-level exact phrase of 2+ terms with boost > 0 and no
           cursor, with per-doc bounds before positions
           (``_search_phrase``);
        3. any other boolean tree of text terms and exact phrases, every
           occur and ``minimum_should_match``, through the index-wide
           evaluator (``_wide``), with an exact count.

        All are rank-identical to full scoring by construction. Other
        queries, and every query under a non-BM25 similarity or on a
        non-impact text format, are scored per segment (``_eval``), which
        "exhaustive" forces; "wand" forces case 1 (errors if ineligible).

        ``k`` < 1 returns no hits, with the ``total_hits`` and relation
        of ``k=1``.

        ``after=(score, global_docid)`` — cursor pagination: only hits
        strictly after that sort position are returned
        (``IndexSearcher.searchAfter``, ``core/search/IndexSearcher.java:587-599``);
        a phrase with a cursor takes case 3."""
        if k < 1:
            r = self.search(query, 1, mode, after)
            return {
                **r, "docids": r["docids"][:0], "keys": [], "scores": r["scores"][:0]
            }
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        if isinstance(query, JoinQuery):
            query = self._rewrite_join(query)
        # search-time rewrite: merge repeated SHOULD/MUST clauses through
        # Similarity.computeQueryTermWeight (fork k3 query-term saturation)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        wide = False  # case 3
        if mode != "exhaustive":
            # the block-max impact→bound conversion is derived for the
            # BM25 algebra; generic similarities run exhaustively
            # (rank-identical output never depends on pruning)
            if not self.is_bm25 or not self.text_has_impacts:
                if mode == "wand":
                    raise ValueError(
                        "WAND pruning requires BM25 similarity and an "
                        "impact-bearing text postings format"
                    )
            else:
                terms = self._wand_eligible(query)
                if terms is not None:
                    return self._search_wand(terms, k, after=after)
                if mode == "wand":
                    raise ValueError("query not eligible for WAND pruning")
                if (
                    isinstance(query, PhraseQuery)
                    and query.slop == 0
                    and len(query.terms) >= 2
                    and query.boost > 0
                    and after is None
                ):
                    return self._search_phrase(query, k)
                wide = self._wide_eligible(query)
        states = self.term_states(query_terms(query))
        if wide:
            ids, score = self._wide(query, states)
            scores = score(slice(None))
        else:
            segs = [
                (self._eval(query, si, states), seg)
                for si, seg in enumerate(self.segments)
            ]
            ids = np.concatenate(
                [np.empty(0, np.int64)]
                + [r.docids.astype(np.int64) + seg.base_docid for r, seg in segs]
            )
            scores = np.concatenate([np.empty(0, F32)] + [r.scores for r, _ in segs])
        total = len(ids)
        if after is not None:
            keep = self._past(after, scores, ids)
            ids, scores = ids[keep], scores[keep]
        return self._top_global(ids, scores, k, total, "EQ")

    def _rewrite_join(self, q: JoinQuery) -> Query:
        """Phase 1 of ``JoinUtil.createJoinQuery`` (ScoreMode.NONE,
        ``lucene/join/.../JoinUtil.java:61-107``): evaluate the from-side
        query, gather its match set's ``from_field`` doc values per
        segment (the reference collects them from the index the same
        way), and rewrite into a SHOULD disjunction of keyword terms over
        ``to_field`` — the TermsQuery the reference builds. The collected
        term set is small by construction (distinct join-key values), so
        the rewrite broadcast-shapes like every dictionary expansion."""
        from_q = parse_query(q.from_query, self.analyzer)
        from_q = deduplicate_clauses(from_q, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(from_q))
        terms: set = set()
        for si, seg in enumerate(self.segments):
            r = self._eval(from_q, si, states)
            if len(r.docids):
                vals = seg.dv(q.from_field).take(
                    pa.array(r.docids.astype(np.int64))
                )
                terms.update(v for v in vals.to_pylist() if v is not None)
        if not terms:
            # match-nothing: a keyword value that cannot exist
            return TermQuery("\x00__join_none__", field=q.to_field)
        return BooleanQuery(
            tuple(
                (SHOULD, TermQuery(str(t), boost=q.boost, field=q.to_field))
                for t in sorted(terms)
            )
        )

    def parent_topk(
        self, query, parent_field: str, k: int = 10
    ) -> pa.Table:
        """Block-join parent ranking — the ``ToParentBlockJoinQuery``
        (ScoreMode.Max) role (``lucene/join/src/java/org/apache/lucene/
        search/join/ToParentBlockJoinQuery.java``,
        ``ScoreMode.java``): every parent value of ``parent_field`` is
        scored with the MAX of its children's scores for the child query
        (float32 max is order-free, so results are bit-exact against the
        SQL oracle); the best child (score desc, segment, docid asc) is
        carried along. Parents tie-break by value asc.

        → table (rank, parent, key, docid, score), top-k parents."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        # per-segment partial max per parent — the combiner shape: at
        # cluster scale each segment task emits |parents| rows, the merge
        # below touches only those partials
        best: Dict[object, Tuple[float, int, int]] = {}
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            if len(r.docids) == 0:
                continue
            vals = seg.dv(parent_field).take(
                pa.array(r.docids.astype(np.int64))
            ).to_pylist()
            for d, s, g in zip(r.docids, r.scores, vals):
                cur = best.get(g)
                cand = (float(s), si, int(d))
                if cur is None or (
                    cand[0] > cur[0]
                    or (cand[0] == cur[0] and (cand[1], cand[2]) < (cur[1], cur[2]))
                ):
                    best[g] = cand
        ranked = sorted(
            best.items(), key=lambda kv: (-kv[1][0], kv[0] is None, kv[0])
        )[:k]
        out_p, out_rank, out_key, out_docid, out_score = [], [], [], [], []
        for rank, (g, (s, si, d)) in enumerate(ranked):
            seg = self.segments[si]
            out_p.append(g)
            out_rank.append(rank)
            out_key.append(seg.docmap[d].as_py())
            out_docid.append(seg.base_docid + d)
            out_score.append(s)
        return pa.table(
            {
                "parent": pa.array(out_p),
                "rank": pa.array(out_rank, pa.int32()),
                "key": pa.array(out_key),
                "docid": pa.array(out_docid, pa.int64()),
                "score": pa.array(out_score, pa.float32()),
            }
        )

    def parent_topk_agg(
        self, query, parent_field: str, k: int = 10
    ) -> pa.Table:
        """Block-join parent ranking with ScoreMode.Total / ScoreMode.Avg
        (``lucene/join/.../ScoreMode.java``): every parent is scored by
        the SUM (and count → average) of its matching children's scores.
        Child scores quantize to integer basis points FIRST
        (``floor(s·1e4 + 0.5)``) so the per-parent sums are order-free —
        a float32 sum's value would depend on accumulation order across
        segments (documented divergence from the reference's sequential
        float sum; ranks agree wherever the float sum is
        order-insensitive). Avg is integer division ``total_bp // n``.

        → table (rank, parent, n_children, total_bp, avg_bp), top-k
        parents by (total_bp desc, parent asc)."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        totals: Dict[object, int] = {}
        counts: Dict[object, int] = {}
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            if len(r.docids) == 0:
                continue
            vals = seg.dv(parent_field).take(
                pa.array(r.docids.astype(np.int64))
            )
            vals = (
                vals.combine_chunks()
                if isinstance(vals, pa.ChunkedArray)
                else vals
            )
            bp = np.floor(
                r.scores.astype(np.float64) * 10000 + 0.5
            ).astype(np.int64)
            # per-segment combiner: factorize parents, one add.at pass
            enc = vals.dictionary_encode()
            codes = np.asarray(enc.indices, dtype=np.int64)
            uniq = enc.dictionary.to_pylist()
            part_tot = np.zeros(len(uniq), np.int64)
            part_cnt = np.zeros(len(uniq), np.int64)
            np.add.at(part_tot, codes, bp)
            np.add.at(part_cnt, codes, 1)
            for g, t, c in zip(uniq, part_tot, part_cnt):
                totals[g] = totals.get(g, 0) + int(t)
                counts[g] = counts.get(g, 0) + int(c)
        ranked = sorted(
            totals.items(), key=lambda kv: (-kv[1], kv[0] is None, kv[0])
        )[:k]
        return pa.table(
            {
                "rank": pa.array(range(len(ranked)), pa.int32()),
                "parent": pa.array([g for g, _ in ranked]),
                "n_children": pa.array(
                    [counts[g] for g, _ in ranked], pa.int64()
                ),
                "total_bp": pa.array([t for _, t in ranked], pa.int64()),
                "avg_bp": pa.array(
                    [t // counts[g] for g, t in ranked], pa.int64()
                ),
            }
        )

    def search_diversified(
        self, query, key_field: str, max_per_key: int, k: int = 10
    ) -> pa.Table:
        """Diversified top-k — the ``lucene/misc``
        ``DiversifiedTopDocsCollector`` role (``misc/src/java/org/apache/
        lucene/misc/search/DiversifiedTopDocsCollector.java``): at most
        ``max_per_key`` hits per key value among the results. Selection
        is the greedy order — scan hits by (score desc, seg, docid asc),
        take a hit iff its key has fewer than ``max_per_key`` already-
        taken hits, stop at ``k`` — which equals filtering per-key rank
        ≤ cap then taking the global top-k (a higher-scored same-key hit
        is skipped only when the cap is already exhausted). Hits with a
        null key are skipped, like missing values in the reference's
        key source.

        → table (rank, key_value, key, docid, score)."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        rows = []  # (-score, seg, docid, key_value)
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            if len(r.docids) == 0:
                continue
            vals = seg.dv(key_field).take(
                pa.array(r.docids.astype(np.int64))
            ).to_pylist()
            for d, s, g in zip(r.docids, r.scores, vals):
                if g is None:
                    continue
                rows.append((-float(s), si, int(d), g))
        rows.sort(key=lambda t: (t[0], t[1], t[2]))
        taken: Dict[object, int] = {}
        out = []
        for ns, si, d, g in rows:
            if taken.get(g, 0) >= max_per_key:
                continue
            taken[g] = taken.get(g, 0) + 1
            out.append((-ns, si, d, g))
            if len(out) >= k:
                break
        return pa.table(
            {
                "rank": pa.array(range(len(out)), pa.int32()),
                "key_value": pa.array([g for *_, g in out]),
                "key": pa.array(
                    [self.segments[si].docmap[d].as_py() for _, si, d, _ in out]
                ),
                "docid": pa.array(
                    [self.segments[si].base_docid + d for _, si, d, _ in out],
                    pa.int64(),
                ),
                "score": pa.array([s for s, *_ in out], pa.float32()),
            }
        )

    def term_vector(self, docid: int) -> pa.Table:
        """Per-doc (term, freq) vector by GLOBAL docid — the
        ``IndexReader.termVectors().get(docID)`` surface; resolves the
        owning leaf then does the segment-local lookup."""
        for seg in self.segments:
            if seg.base_docid <= docid < seg.base_docid + seg.n_docs:
                return seg.term_vector(docid - seg.base_docid)
        raise KeyError(f"docid {docid} not in index")

    # -- stored fields -----------------------------------------------------

    def document(self, docid: int, fields: Optional[Sequence[str]] = None) -> dict:
        """Stored-document retrieval — the ``StoredFields.document`` /
        ``IndexReader.document`` surface (``core/index/StoredFields.java:
        63-78``). The engine's row store is the per-segment
        ``docmap.parquet`` (key) + ``dv.parquet`` (stored columns, docid
        order), so a point lookup is two column reads at the local docid.
        ``fields=None`` returns the key + every stored (DV) column."""
        docid = int(docid)
        for seg in self.segments:
            if seg.base_docid <= docid < seg.base_docid + seg.n_docs:
                local = docid - seg.base_docid
                out = {self.config.key_col: seg.docmap[local].as_py()}
                names = fields if fields is not None else self.config.dv_cols
                for c in names:
                    out[c] = seg.dv(c)[local].as_py()
                return out
        raise ValueError(f"docid {docid} out of range")

    # -- explain -----------------------------------------------------------

    def explain(self, query, docid: int) -> Explanation:
        """Score attribution for one (query, global docid) pair — the
        ``IndexSearcher.explain`` surface
        (``core/search/IndexSearcher.java:615-632``): locate the leaf
        (segment) containing ``docid``, explain against that leaf. The
        root ``value`` is read from the SAME evaluation kernel ``search()``
        uses, so ``explain(q, d).value == score(q, d)`` bit-for-bit."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        if isinstance(query, JoinQuery):
            query = self._rewrite_join(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        docid = int(docid)
        si = None
        for i, seg in enumerate(self.segments):
            if seg.base_docid <= docid < seg.base_docid + seg.n_docs:
                si = i
                break
        if si is None:
            raise ValueError(f"docid {docid} out of range")
        local = docid - self.segments[si].base_docid
        states = self.term_states(query_terms(query))
        return self._explain(query, si, local, states)

    def _doc_score(self, q: Query, si: int, local: int, states):
        """float32 score of ``local`` under ``q`` on segment ``si``, or
        None when the doc is not in the match set."""
        r = self._eval(q, si, states)
        hit = np.nonzero(r.docids == np.uint32(local))[0]
        if len(hit) == 0:
            return None
        return r.scores[hit[0]]

    def _explain(self, q: Query, si: int, local: int, states) -> Explanation:
        seg = self.segments[si]
        sc = self._doc_score(q, si, local, states)

        if isinstance(q, TermQuery):
            label = f"weight({q.field}:{q.term} in {local})"
            if sc is None:
                return Explanation.no_match(f"no matching term: {label}")
            if not self.is_bm25:
                return Explanation.match_(
                    sc, f"{label} [{type(self.sim).__name__}]"
                )
            # BM25Similarity.explainScore detail shape
            infos, df, ttf = states[term_key(q.field, q.term)]
            ti = infos[si]
            ids, freqs = seg.decoded(ti)
            freq = int(freqs[np.nonzero(ids == np.uint32(local))[0][0]])
            if q.field == DEFAULT_FIELD:
                nb = int(seg.norms[local])
                dc, sttf = self.doc_count, self.sum_ttf
            elif q.field in self.text_fields:
                nb = int(seg.norms_for(q.field)[local])
                dc, sttf = self._field_stats(q.field)
            else:
                nb = 1  # norms-omitted keyword field: norm byte 1
                st = self.per_field.get(q.field, {})
                dc = int(st.get("doc_count", 0))
                sttf = int(st.get("sum_ttf", 0))
            dl = int(LENGTH_TABLE_INT[nb])
            avgdl = sttf / float(dc) if dc else 1.0
            idf_v = float(bm25_idf(df, max(1, dc)))
            k1, b = float(self.sim.k1), float(self.sim.b)
            tf_v = freq / (freq + k1 * (1 - b + b * dl / avgdl))
            score_node = Explanation.match_(
                sc,
                f"score(freq={freq}), computed as boost * idf * tf from:",
                Explanation.match_(float(q.boost), "boost"),
                Explanation.match_(
                    idf_v,
                    "idf, computed as log(1 + (N - n + 0.5) / (n + 0.5)) from:",
                    Explanation.match_(df, "n, number of documents containing term"),
                    Explanation.match_(dc, "N, total number of documents with field"),
                ),
                Explanation.match_(
                    tf_v,
                    "tf, computed as freq / (freq + k1 * (1 - b + b * dl / avgdl)) from:",
                    Explanation.match_(freq, "freq, occurrences of term within document"),
                    Explanation.match_(k1, "k1, term saturation parameter"),
                    Explanation.match_(b, "b, length normalization parameter"),
                    Explanation.match_(dl, "dl, length of field (approximate)"),
                    Explanation.match_(avgdl, "avgdl, average length of field"),
                ),
            )
            return Explanation.match_(
                sc, f"{label} [BM25Similarity], result of:", score_node
            )

        if isinstance(q, BooleanQuery):
            subs = []
            failed_required = False
            matched_prohibited = False
            n_should_matched = 0
            for occur, sub in q.clauses:
                e = self._explain(sub, si, local, states)
                if occur == MUST_NOT:
                    if e.match:
                        matched_prohibited = True
                        subs.append(
                            Explanation.no_match(
                                "match on prohibited clause", e
                            )
                        )
                    continue
                if occur == FILTER:
                    if e.match:
                        subs.append(
                            Explanation.match_(
                                0.0, "match on filter clause, no scoring", e
                            )
                        )
                    else:
                        failed_required = True
                        subs.append(e)
                    continue
                if occur == MUST and not e.match:
                    failed_required = True
                if occur == SHOULD and e.match:
                    n_should_matched += 1
                subs.append(e)
            n_should = sum(1 for o, _ in q.clauses if o == SHOULD)
            has_req = any(o in (MUST, FILTER) for o, _ in q.clauses)
            need = (
                q.minimum_should_match
                if has_req
                else max(1, q.minimum_should_match)
            )
            if sc is None:
                if matched_prohibited or failed_required:
                    why = "failure to meet condition(s) of required/prohibited clause(s)"
                elif n_should and n_should_matched < need:
                    why = (
                        f"failure to match minimum number of optional clauses:"
                        f" {need}"
                    )
                else:
                    why = "no matching clauses"
                return Explanation.no_match(why, *subs)
            return Explanation.match_(sc, "sum of:", *subs)

        if isinstance(q, ConstantScoreQuery):
            inner = self._explain(q.query, si, local, states)
            if sc is None:
                return Explanation.no_match(
                    f"ConstantScore({q.query!r}) doesn't match", inner
                )
            return Explanation.match_(
                sc, f"ConstantScore({q.query!r})^{q.boost:g}", inner
            )

        if isinstance(q, DisjunctionMaxQuery):
            subs = [self._explain(s, si, local, states) for s in q.disjuncts]
            if sc is None:
                return Explanation.no_match(
                    "no matching disjunct (DisjunctionMaxQuery)", *subs
                )
            desc = (
                "max of:"
                if q.tie_breaker == 0
                else f"max plus {q.tie_breaker:g} times others of:"
            )
            return Explanation.match_(sc, desc, *[e for e in subs if e.match])

        if isinstance(q, SynonymQuery):
            if sc is None:
                return Explanation.no_match(
                    f"Synonym({' '.join(q.terms)}) has no match in doc"
                )
            freq_nodes = []
            for t in q.terms:
                ti = states[term_key(q.field, t)][0][si]
                if ti is None:
                    continue
                ids, freqs = seg.decoded(ti)
                hit = np.nonzero(ids == np.uint32(local))[0]
                if len(hit):
                    freq_nodes.append(
                        Explanation.match_(
                            int(freqs[hit[0]]), f"freq of {q.field}:{t}"
                        )
                    )
            return Explanation.match_(
                sc,
                f"Synonym({' '.join(f'{q.field}:{t}' for t in q.terms)}),"
                " scored as one pseudo-term (freq = sum of:)",
                *freq_nodes,
            )

        if isinstance(q, PhraseQuery) and self.is_bm25:
            phrase = " ".join(q.terms)
            label = f'weight(text:"{phrase}"~{q.slop} in {local})'
            if sc is None:
                return Explanation.no_match(f"no matching phrase: {label}")
            ids_f, freqs_f = self._phrase_matches(q, si, states)
            hit = np.nonzero(ids_f == np.uint32(local))[0]
            freq = float(freqs_f[hit[0]])
            nb = int(seg.norms[local])
            dl = int(LENGTH_TABLE_INT[nb])
            avgdl = self.sum_ttf / float(self.doc_count) if self.doc_count else 1.0
            idf_nodes = [
                Explanation.match_(
                    float(bm25_idf(states[t][1], self.doc_count)),
                    f"idf(term={t}, n={states[t][1]}, N={self.doc_count})",
                )
                for t in q.terms
            ]
            idf_sum = float(np.sum([n.value for n in idf_nodes]))
            k1, b = float(self.sim.k1), float(self.sim.b)
            tf_v = freq / (freq + k1 * (1 - b + b * dl / avgdl))
            score_node = Explanation.match_(
                sc,
                f"score(freq={freq:g}), computed as boost * idf * tf from:",
                Explanation.match_(float(q.boost), "boost"),
                Explanation.match_(
                    idf_sum, "idf, sum of the phrase terms' idfs:", *idf_nodes
                ),
                Explanation.match_(
                    tf_v,
                    "tf, computed as freq / (freq + k1 * (1 - b + b * dl / avgdl)) from:",
                    Explanation.match_(
                        freq,
                        "freq, phrase occurrences within document"
                        + (" (slop-weighted)" if q.slop else ""),
                    ),
                    Explanation.match_(k1, "k1, term saturation parameter"),
                    Explanation.match_(b, "b, length normalization parameter"),
                    Explanation.match_(dl, "dl, length of field (approximate)"),
                    Explanation.match_(avgdl, "avgdl, average length of field"),
                ),
            )
            return Explanation.match_(
                sc, f"{label} [BM25Similarity], result of:", score_node
            )

        # generic leaf: multiterm / range / feature / spans / ...
        label = f"{type(q).__name__}"
        detail = getattr(q, "terms", None) or getattr(q, "pattern", None) \
            or getattr(q, "term", None) or getattr(q, "prefix", None) or ""
        if sc is None:
            return Explanation.no_match(f"{label}({detail}) doesn't match doc {local}")
        return Explanation.match_(sc, f"{label}({detail}), result of evaluation")

    def suggest(
        self,
        term: str,
        max_edits: int = 2,
        k: int = 5,
        prefix_length: int = 1,
        field: str = DEFAULT_FIELD,
    ) -> pa.Table:
        """Spell suggestions — the ``DirectSpellChecker`` role
        (``lucene/suggest/src/java/org/apache/lucene/search/spell/
        DirectSpellChecker.java``): expand the term dictionary within
        ``max_edits`` Damerau-Levenshtein edits (FuzzyTermsEnum shape —
        the scan is bounded by the ``prefix_length`` literal prefix, like
        FuzzyQuery), sum df across segments, rank by
        (distance asc, df desc, term asc). The query term itself is
        excluded (suggest-mode: propose corrections, not echoes).

        → table (term, dist, df), top-k."""
        fprefix = term_key(field, "")
        key_prefix = term_key(field, term[:prefix_length])

        def match(key: str) -> bool:
            return (
                damerau_levenshtein(key[len(fprefix):], term, cap=max_edits)
                <= max_edits
            )

        dfs: Dict[str, int] = {}
        for seg in self.segments:
            for key, info in seg.expand_terms(
                key_prefix, match, exclude_field_sep=(field == DEFAULT_FIELD)
            ):
                t = key[len(fprefix):]
                if t == term:
                    continue
                dfs[t] = dfs.get(t, 0) + int(info.df)
        ranked = sorted(
            ((damerau_levenshtein(t, term), -df, t) for t, df in dfs.items())
        )[:k]
        return pa.table(
            {
                "term": pa.array([t for _, _, t in ranked]),
                "dist": pa.array([d for d, _, _ in ranked], pa.int32()),
                "df": pa.array([-ndf for _, ndf, _ in ranked], pa.int64()),
            }
        )

    def suggest_complete(
        self, prefix: str, k: int = 5, field: str = DEFAULT_FIELD
    ) -> pa.Table:
        """Prefix completion — the ``lucene/suggest`` lookup role
        (``suggest/src/java/org/apache/lucene/search/suggest/Lookup.java``
        via the dictionary-backed ``analyzing/AnalyzingSuggester`` shape,
        weight = document frequency): scan the term dictionary for terms
        starting with ``prefix`` (bucket-range pruned like PrefixQuery),
        sum df across segments, rank by (df desc, term asc).

        → table (term, df), top-k."""
        key_prefix = term_key(field, prefix)
        fprefix = term_key(field, "")
        dfs: Dict[str, int] = {}
        for seg in self.segments:
            for key, info in seg.expand_terms(
                key_prefix,
                lambda _k: True,
                exclude_field_sep=(field == DEFAULT_FIELD),
            ):
                t = key[len(fprefix):]
                dfs[t] = dfs.get(t, 0) + int(info.df)
        ranked = sorted(((-df, t) for t, df in dfs.items()))[:k]
        return pa.table(
            {
                "term": pa.array([t for _, t in ranked]),
                "df": pa.array([-ndf for ndf, _ in ranked], pa.int64()),
            }
        )

    def search_sorted(
        self,
        query,
        sort_field: str,
        k: int = 10,
        descending: bool = True,
        point_walk_min: int = 1024,
        after: Optional[tuple] = None,
    ) -> dict:
        """Field sort — the ``Sort``/``TopFieldCollector`` role
        (``core/search/TopFieldCollectorManager.java``): top-k of the
        query's match set ordered by a numeric doc-values column, ties
        broken by (segment order, docid) exactly like ``TopDocs.merge``
        for fields (``core/search/TopDocs.java:203-228``). The sort field
        is a ``dv_cols`` column — numeric/timestamp (SortField.LONG
        family) or string (SortField.STRING, per-segment ordinals +
        raw-value global merge); null values are excluded on every
        path.

        ``after=(sort_value, global_docid)`` — cursor pagination
        (``IndexSearcher.searchAfter(after, query, n, sort)``): only
        hits strictly after that sort position are returned; with a
        point sidecar the walk binary-seeks the cursor value, so deep
        pages never re-touch the already-served prefix.

        → {"docids", "keys", "sort_values", "total_hits", "relation"}.
        """
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        # early termination when the index sort matches the query sort
        # (``TopFieldCollector`` canEarlyTerminate over
        # ``IndexWriterConfig.setIndexSort``-ed segments,
        # ``core/search/TopFieldCollectorManager.java``): segment docid
        # order IS the sort order, so the leaf top-k is the first k
        # matches — no per-match key gather, no per-segment sort
        want_dir = "desc" if descending else "asc"
        early = self.config.index_sort == (sort_field, want_dir)
        if early and self.segments:
            # string DV sort goes through per-segment ordinals + raw-value
            # global merge (str_sort below); the numeric early-exit key
            # algebra doesn't apply to object arrays — take the general path
            ty = self.segments[0].dv(sort_field).type
            if pa.types.is_string(ty) or pa.types.is_large_string(ty):
                early = False
        c_val = c_si = c_doc = None
        if after is not None:
            c_val, c_gdoc = after
            for i, s in enumerate(self.segments):
                if s.base_docid <= c_gdoc < s.base_docid + s.n_docs:
                    c_si, c_doc = i, int(c_gdoc - s.base_docid)
                    break
            else:
                raise ValueError(f"after docid {c_gdoc} not in index")
            early = False  # cursor filtering needs the general paths

        def _after_mask(v, d, si, cval) -> np.ndarray:
            # strictly after (sort_key, seg, docid) — the field-sort twin
            # of the score-path searchAfter predicate; ``cval`` is the
            # cursor value in the CALLER's value space (raw DV for the
            # scan path, normalized for the point walk)
            strict = (v < cval) if descending else (v > cval)
            if si > c_si:
                return strict | (v == cval)
            if si == c_si:
                return strict | ((v == cval) & (d > c_doc))
            return strict

        rows = []  # (sort_key, seg_idx, docid, raw_value)
        total = 0
        str_sort = False  # set when the sort column is a string DV
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            total += len(r.docids)
            if len(r.docids) == 0:
                continue
            if early:
                ids = np.sort(r.docids.astype(np.int64))[:k]
                vals = np.asarray(seg.dv(sort_field).take(pa.array(ids)))
                skey = -_sort_key(vals) if descending else _sort_key(vals)
                for key_, d, v in zip(skey, ids, vals):
                    rows.append((key_, si, int(d), v))
                continue
            pi = seg.point_index(sort_field)
            n_cval = None
            if pi is not None and after is not None:
                n_cval = points_normalize_bound(c_val, pi[2])
                if n_cval is _POINT_SENTINEL:
                    pi = None  # unnormalizable cursor → scan path
            if pi is not None and len(r.docids) >= max(point_walk_min, 4 * k):
                # point-based competitive iterator (``NumericComparator``
                # role, ``core/search/comparators/NumericComparator.java``):
                # walk the sorted permutation from the competitive end,
                # touching O(k * n/|matches|) entries instead of
                # gathering + sorting every match's doc value. Pool is
                # guaranteed to contain the true top-k; final order +
                # display values come from the same DV column as the
                # scan path, so results are identical.
                qual = None
                if after is not None:
                    def qual(v, d, _si=si, _cv=n_cval):
                        return _after_mask(v, d, _si, _cv)
                cv, cd = sorted_topk_candidates(
                    pi[0], pi[1], np.sort(r.docids), k, descending,
                    start_value=n_cval, qualifier=qual,
                )
                ck = -_sort_key(cv) if descending else _sort_key(cv)
                sel = np.lexsort((cd, ck))[:k]
                ids = cd[sel].astype(np.int64)
                vals = np.asarray(seg.dv(sort_field).take(pa.array(ids)))
                skey = -_sort_key(vals) if descending else _sort_key(vals)
                for key_, d, v in zip(skey, ids, vals):
                    rows.append((key_, si, int(d), v))
                continue
            col = seg.dv(sort_field)
            ids_m = r.docids
            vals = np.asarray(col.take(pa.array(ids_m.astype(np.int64))))
            if vals.dtype.kind in "OU":
                # SortField.STRING: string DV columns sort by per-segment
                # ORDINALS (the SortedDocValues ordinal role,
                # ``core/search/comparators/TermOrdValComparator.java``) —
                # the per-segment cut uses ordinals, the global merge
                # compares raw values (stable two-pass sort below)
                str_sort = True
                ok_ = np.array([v is not None for v in vals], dtype=bool)
                if not ok_.all():
                    ids_m, vals = ids_m[ok_], vals[ok_]
                    if len(ids_m) == 0:
                        continue
                if after is not None:
                    ok = _after_mask(vals, ids_m, si, c_val)
                    ids_m, vals = ids_m[ok], vals[ok]
                    if len(ids_m) == 0:
                        continue
                _, inv = np.unique(vals, return_inverse=True)
                skey = -inv if descending else inv
                sel = np.lexsort((ids_m, skey))[:k]
                for i in sel:
                    rows.append((skey[i], si, int(ids_m[i]), vals[i]))
                continue
            if vals.dtype.kind == "M":
                # docs with a null sort value carry no key: exclude them,
                # matching the point walk (whose sidecar drops nulls) —
                # NaT would otherwise view as INT64_MIN and rank FIRST
                # under descending negation
                ok_ = ~np.isnat(vals)
                if not ok_.all():
                    ids_m, vals = ids_m[ok_], vals[ok_]
                    if len(ids_m) == 0:
                        continue
            if after is not None:
                ok = _after_mask(vals, ids_m, si, c_val)
                ids_m, vals = ids_m[ok], vals[ok]
                if len(ids_m) == 0:
                    continue
            skey = -_sort_key(vals) if descending else _sort_key(vals)
            sel = np.lexsort((ids_m, skey))[:k]
            for i in sel:
                rows.append((skey[i], si, int(ids_m[i]), vals[i]))
        if str_sort:
            # global merge on raw values: stable two-pass sort gives
            # (value dir, seg asc, docid asc) without needing a global
            # ordinal space
            rows.sort(key=lambda t: (t[1], t[2]))
            rows.sort(key=lambda t: t[3], reverse=descending)
        else:
            rows.sort(key=lambda t: (t[0], t[1], t[2]))
        rows = rows[:k]
        docids = np.array(
            [self.segments[si].base_docid + d for _, si, d, _ in rows],
            dtype=np.int64,
        )
        keys = [self.segments[si].docmap[d].as_py() for _, si, d, _ in rows]
        return {
            "docids": docids,
            "keys": keys,
            "sort_values": [v.item() if hasattr(v, "item") else v for *_, v in rows],
            "total_hits": total,
            "relation": "EQ",
        }

    def search_sorted_multi(
        self,
        query,
        sort_spec: Sequence[Tuple[str, str]],
        k: int = 10,
        point_walk_min: int = 1024,
    ) -> dict:
        """Multi-field sort — ``Sort(SortField a, SortField b, ...)``
        (``core/search/Sort.java``, ``TopFieldCollector`` with secondary
        comparators): top-k ordered by each numeric DV field in turn
        (``(field, "desc"|"asc")`` pairs), ties after ALL fields broken
        by (segment order, docid). The PRIMARY field's point sidecar (if
        any) prunes candidates exactly as in :meth:`search_sorted` — the
        walk pool contains every match whose primary value ties or beats
        the pool's k-th best, which is a superset of the true multi-key
        top-k, so secondary ordering is decided over the small pool.

        → {"docids", "keys", "sort_values" (tuples), "total_hits",
        "relation"}."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        specs = [(f, d == "desc") for f, d in sort_spec]
        pf, pdesc = specs[0]
        rows = []  # (key_tuple, si, docid, raw_tuple)
        total = 0
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            total += len(r.docids)
            if len(r.docids) == 0:
                continue
            ids_m = r.docids
            pi = seg.point_index(pf)
            if pi is not None and len(ids_m) >= max(point_walk_min, 4 * k):
                _, cd = sorted_topk_candidates(
                    pi[0], pi[1], np.sort(ids_m), k, pdesc
                )
                ids_m = cd
            ids64 = pa.array(ids_m.astype(np.int64))
            vals = [np.asarray(seg.dv(f).take(ids64)) for f, _ in specs]
            ok_ = None
            for v in vals:
                if v.dtype.kind == "M":
                    m_ = ~np.isnat(v)
                    ok_ = m_ if ok_ is None else (ok_ & m_)
            if ok_ is not None and not ok_.all():
                ids_m = ids_m[ok_]
                vals = [v[ok_] for v in vals]
                if len(ids_m) == 0:
                    continue
            skeys = [
                (-_sort_key(v) if d else _sort_key(v))
                for v, (_, d) in zip(vals, specs)
            ]
            sel = np.lexsort((ids_m, *reversed(skeys)))[:k]
            for i in sel:
                rows.append(
                    (
                        tuple(kk[i] for kk in skeys),
                        si,
                        int(ids_m[i]),
                        tuple(v[i].item() for v in vals),
                    )
                )
        rows.sort(key=lambda t: (t[0], t[1], t[2]))
        rows = rows[:k]
        docids = np.array(
            [self.segments[si].base_docid + d for _, si, d, _ in rows],
            dtype=np.int64,
        )
        keys = [self.segments[si].docmap[d].as_py() for _, si, d, _ in rows]
        return {
            "docids": docids,
            "keys": keys,
            "sort_values": [v for *_, v in rows],
            "total_hits": total,
            "relation": "EQ",
        }

    def search_expr(
        self,
        query,
        expr,
        k: int = 10,
        descending: bool = True,
    ) -> dict:
        """Expression sort — rank the match set by a compiled arithmetic
        expression over doc-values fields and ``_score`` (the
        ``ExpressionSortField`` / ``DoubleValuesSource`` surface,
        ``lucene/expressions/src/java/org/apache/lucene/expressions/
        ExpressionSortField.java``). ``expr`` is a source string or a
        compiled ``Expression``; all math is float64 like the
        reference's double-valued expressions. Ties break by
        (segment order, docid) like every other collector here.

        → {"docids", "keys", "expr_values", "scores", "total_hits",
        "relation"}.
        """
        if isinstance(expr, str):
            expr = Expression(expr)
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        rows = []  # (sort_key, seg_idx, docid, value, score)
        total = 0
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            total += len(r.docids)
            if len(r.docids) == 0:
                continue
            bindings = {}
            take = pa.array(r.docids.astype(np.int64))
            for var in expr.variables:
                if var == "_score":
                    bindings["_score"] = r.scores.astype(np.float64)
                else:
                    bindings[var] = np.asarray(
                        seg.dv(var).take(take), dtype=np.float64
                    )
            vals = np.asarray(expr.evaluate(bindings), dtype=np.float64)
            if vals.shape == ():  # constant expression
                vals = np.full(len(r.docids), float(vals))
            skey = -vals if descending else vals
            sel = np.lexsort((r.docids, skey))[:k]
            for i in sel:
                rows.append(
                    (skey[i], si, int(r.docids[i]), vals[i], float(r.scores[i]))
                )
        rows.sort(key=lambda t: (t[0], t[1], t[2]))
        rows = rows[:k]
        docids = np.array(
            [self.segments[si].base_docid + d for _, si, d, _, _ in rows],
            dtype=np.int64,
        )
        keys = [self.segments[si].docmap[d].as_py() for _, si, d, _, _ in rows]
        return {
            "docids": docids,
            "keys": keys,
            "expr_values": [float(v) for *_, v, _ in rows],
            "scores": np.array([s for *_, s in rows], dtype=F32),
            "total_hits": total,
            "relation": "EQ",
        }

    def facet_counts(self, query, facet_field: str) -> pa.Table:
        """Facet counting over the query's match set — the
        ``lucene/facet`` ``Facets.getTopChildren`` role
        (``lucene/facet/src/java/org/apache/lucene/facet/Facets.java``)
        expressed over the segment doc-values column: per segment,
        gather the match set's DV values and count; sum across segments.

        A list-typed DV column is the SORTED_SET / SORTED_NUMERIC role
        (``core/index/DocValuesType.java:25-51``,
        ``lucene/facet/.../SortedSetDocValuesFacetCounts.java``): each
        matching doc contributes every value of its per-doc SET once
        (values are deduplicated at index time, the
        ``SortedSetDocValuesWriter`` ord-dedup semantics), so the count
        for a value is the number of matching docs carrying it.

        → table (value, n) sorted by (n desc, value asc)."""
        import pyarrow.compute as pc

        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        counts: Dict[object, int] = {}
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            if len(r.docids) == 0:
                continue
            vals = seg.dv(facet_field).take(pa.array(r.docids.astype(np.int64)))
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            if pa.types.is_list(vals.type) or pa.types.is_large_list(
                vals.type
            ):
                vals = pc.list_flatten(vals)
            vc = pc.value_counts(vals)
            for item in vc:
                v = item["values"].as_py()
                counts[v] = counts.get(v, 0) + int(item["counts"].as_py())
        rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return pa.table(
            {
                "value": pa.array([v for v, _ in rows]),
                "n": pa.array([n for _, n in rows], pa.int64()),
            }
        )

    def facet_ranges(
        self,
        query,
        field: str,
        ranges: Sequence[Tuple[str, int, int]],
    ) -> pa.Table:
        """Numeric range faceting over the match set — the
        ``LongRangeFacetCounts`` role
        (``lucene/facet/src/java/org/apache/lucene/facet/range/LongRangeFacetCounts.java``):
        per segment, gather the match set's numeric DV values and count
        how many fall inside each ``(label, lo, hi)`` range (both bounds
        inclusive, ``LongRange(label, min, true, max, true)``). Ranges
        may overlap — each doc counts once per containing range. Docs
        with a null DV value are skipped, as in Lucene.

        → table (range, n) preserving the caller's range order."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        totals = np.zeros(len(ranges), np.int64)
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            if len(r.docids) == 0:
                continue
            vals = seg.dv(field).take(pa.array(r.docids.astype(np.int64)))
            vals = vals.combine_chunks() if isinstance(vals, pa.ChunkedArray) else vals
            v = vals.drop_null().cast(pa.int64()).to_numpy(zero_copy_only=False)
            for i, (_, lo, hi) in enumerate(ranges):
                totals[i] += int(np.count_nonzero((v >= lo) & (v <= hi)))
        return pa.table(
            {
                "range": pa.array([lab for lab, _, _ in ranges], pa.string()),
                "n": pa.array(totals, pa.int64()),
            }
        )

    def facet_taxonomy(
        self, query, path_fields: Sequence[str]
    ) -> pa.Table:
        """Hierarchical (taxonomy) facet counts — the
        ``FacetsConfig``/``TaxonomyFacetCounts`` role
        (``lucene/facet/src/java/org/apache/lucene/facet/taxonomy/``):
        ``path_fields`` is an ordered dim hierarchy (e.g. ``("source",
        "lang")``); every match-set doc counts once per PATH PREFIX —
        the root children (``src1``) and each deeper path
        (``src1/en``), i.e. ``getTopChildren`` at every level.

        → table (path, n) sorted by (n desc, path asc)."""
        import pyarrow.compute as pc

        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        counts: Dict[str, int] = {}
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            if len(r.docids) == 0:
                continue
            ids = pa.array(r.docids.astype(np.int64))
            prefix = None
            for f in path_fields:
                vals = seg.dv(f).take(ids)
                vals = (
                    vals.combine_chunks()
                    if isinstance(vals, pa.ChunkedArray)
                    else vals
                )
                vals = vals.cast(pa.string())
                prefix = (
                    vals
                    if prefix is None
                    else pc.binary_join_element_wise(prefix, vals, "/")
                )
                for item in pc.value_counts(prefix):
                    v = item["values"].as_py()
                    if v is None:
                        continue  # null path component: doc has no dim value
                    counts[v] = counts.get(v, 0) + int(item["counts"].as_py())
        rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return pa.table(
            {
                "path": pa.array([p for p, _ in rows], pa.string()),
                "n": pa.array([n for _, n in rows], pa.int64()),
            }
        )

    def payload_topk(
        self, term: str, k: int = 10, func: str = "max"
    ) -> pa.Table:
        """``PayloadScoreQuery`` with ``includeSpanScore=false``
        (``lucene/queries/src/java/org/apache/lucene/queries/payloads/PayloadScoreQuery.java``):
        run the term's postings, decode each occurrence's payload as a
        4-byte big-endian integer (``PayloadHelper`` encoding), reduce
        per doc with ``func`` (``MaxPayloadFunction`` /
        ``MinPayloadFunction`` / ``SumPayloadFunction``), and return the
        top-k docs by (payload score desc, docid asc).

        Vectorized per segment: one postings decode, one payload-stream
        decode, one ``ufunc.reduceat`` at tf boundaries; only ≤ k rows
        per segment reach the merge. → (rank, docid, key,
        payload_score int64)."""
        reducer = {
            "max": np.maximum.reduceat,
            "min": np.minimum.reduceat,
            "sum": np.add.reduceat,
        }.get(func)
        if reducer is None:
            raise ValueError(f"unknown payload function {func!r}")
        cands: List[Tuple[int, int, int, int]] = []
        for si, seg in enumerate(self.segments):
            info = seg.lookup(term)
            if info is None:
                continue
            ids, tfs = seg.decoded(info)
            if len(ids) == 0:
                continue
            lens, raw = seg.payloads_for(info)
            if (lens == 4).all():
                vals = np.frombuffer(raw.tobytes(), dtype=">u4").astype(
                    np.int64
                )
            else:  # variable-width payloads: per-occurrence decode
                cum = np.concatenate(
                    ([0], np.cumsum(lens.astype(np.int64)))
                )
                vals = np.array(
                    [
                        int.from_bytes(
                            raw[cum[i] : cum[i + 1]].tobytes(), "big"
                        )
                        for i in range(len(lens))
                    ],
                    dtype=np.int64,
                )
            tf64 = tfs.astype(np.int64)
            starts = np.cumsum(tf64) - tf64
            agg = reducer(vals, starts)
            if seg.deleted is not None:
                live = ~seg.deleted[ids.astype(np.int64)].astype(bool)
                ids, agg = ids[live], agg[live]
                if len(ids) == 0:
                    continue
            order = np.lexsort((ids, -agg))[: min(k, len(ids))]
            for j in order:
                cands.append(
                    (
                        int(agg[j]),
                        seg.base_docid + int(ids[j]),
                        si,
                        int(ids[j]),
                    )
                )
        cands.sort(key=lambda t: (-t[0], t[1]))
        cands = cands[:k]
        keys = [self.segments[si].docmap[d].as_py() for _, _, si, d in cands]
        return pa.table(
            {
                "rank": pa.array(range(len(cands)), pa.int32()),
                "docid": pa.array([c[1] for c in cands], pa.int64()),
                "key": pa.array(keys),
                "payload_score": pa.array(
                    [c[0] for c in cands], pa.int64()
                ),
            }
        )

    def drill_sideways(
        self,
        base_query,
        drill_downs: Sequence[Tuple[str, str]],
        facet_fields: Sequence[str],
    ) -> dict:
        """DrillSideways faceting (``lucene/facet/src/java/org/apache/
        lucene/facet/DrillSideways.java``): for each facet dimension that
        carries a drill-down filter, count facets over base + all OTHER
        drill-downs — the dimension's own filter removed ("sideways"),
        so the UI shows what its other values would yield. Dimensions
        without a drill-down count over the fully drilled set.

        ``drill_downs``: (keyword_field, value) filters;
        ``facet_fields``: DV columns to count.
        → {"facets": {field: {value: n}}, "hits": fully-drilled count}.
        """
        import pyarrow.compute as pc

        if isinstance(base_query, str):
            base_query = parse_query(base_query, self.analyzer)
        else:
            base_query = localize_query(base_query)
        states = self.term_states(query_terms(base_query))
        dd_fields = [f for f, _ in drill_downs]
        facets: Dict[str, Dict[object, int]] = {f: {} for f in facet_fields}
        hits = 0
        for si, seg in enumerate(self.segments):
            base = self._eval(base_query, si, states).docids
            if len(base) == 0:
                continue
            dd_sets = [
                self._eval(q, si, self.term_states(query_terms(q))).docids
                for q in (TermQuery(v, field=f) for f, v in drill_downs)
            ]
            drilled = base
            for m in dd_sets:
                drilled = np.intersect1d(drilled, m, assume_unique=True)
            hits += len(drilled)
            for f in facet_fields:
                sel = base
                for (df, _), m in zip(drill_downs, dd_sets):
                    if df != f:  # sideways: drop the dim's own filter
                        sel = np.intersect1d(sel, m, assume_unique=True)
                if len(sel) == 0:
                    continue
                vals = seg.dv(f).take(pa.array(sel.astype(np.int64)))
                for item in pc.value_counts(vals):
                    v = item["values"].as_py()
                    facets[f][v] = facets[f].get(v, 0) + int(
                        item["counts"].as_py()
                    )
        return {"facets": facets, "hits": hits}

    def group_topk(
        self, query, group_field: str, k_per_group: int = 3
    ) -> pa.Table:
        """Grouped top-k — the ``lucene/grouping`` two-pass collector role
        (``FirstPassGroupingCollector`` → ``TopGroupsCollector``):
        score the match set, then keep the best ``k_per_group`` docs per
        group value with the (score desc, segment, docid) tie-break.

        → table (group, rank, key, docid, score)."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        else:
            query = localize_query(query)
        query = deduplicate_clauses(query, self.sim.compute_query_term_weight)
        states = self.term_states(query_terms(query))
        per_group: Dict[object, List] = {}
        for si, seg in enumerate(self.segments):
            r = self._eval(query, si, states)
            if len(r.docids) == 0:
                continue
            vals = seg.dv(group_field).take(
                pa.array(r.docids.astype(np.int64))
            ).to_pylist()
            for d, s, g in zip(r.docids, r.scores, vals):
                heap = per_group.setdefault(g, [])
                heap.append((-float(s), si, int(d)))
        out_g, out_rank, out_key, out_docid, out_score = [], [], [], [], []
        for g in sorted(per_group, key=lambda x: (x is None, x)):
            rows = sorted(per_group[g])[:k_per_group]
            for rank, (ns, si, d) in enumerate(rows):
                seg = self.segments[si]
                out_g.append(g)
                out_rank.append(rank)
                out_key.append(seg.docmap[d].as_py())
                out_docid.append(seg.base_docid + d)
                out_score.append(-ns)
        return pa.table(
            {
                "group": pa.array(out_g),
                "rank": pa.array(out_rank, pa.int32()),
                "key": pa.array(out_key),
                "docid": pa.array(out_docid, pa.int64()),
                "score": pa.array(out_score, pa.float32()),
            }
        )

    def _term_postings(
        self, term: str, infos: List[Optional[TermInfo]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Index-wide arrays of one text term, cached under ``("term",
        term)``: its live postings' global docids (uint32, ascending, as
        segment bases ascend with segment index), their BM25
        denominators ``1 + freq·normInv``, the largest denominator of
        each run of ``RUN`` postings, and their freqs (the narrowest
        unsigned dtype that holds them). None depends on the query
        weight w: a posting scores ``w - w/den``, and ``w - w/max(den)``
        is the exact float32 maximum of a run's scores (both float32
        steps are monotone in ``den``). Every segment's blob decodes in
        one ``read_postings`` call, straight from the codec, so the
        readers' decode caches keep no copy; norms and deletions apply
        per segment on slices of its output."""
        key = ("term", term)
        hit = self.cache.get(key)
        if hit is None:
            ids, dens, tfs = [np.empty(0, np.uint32)], [np.empty(0, F32)], []
            segs = [(s, ti) for s, ti in zip(self.segments, infos) if ti is not None]
            for (seg, _), (sids, freqs) in zip(segs, read_postings(segs)):
                den = F32(1.0) + freqs.astype(F32) * self.norm_inverse[seg.norms[sids]]
                if seg.deleted is not None:
                    live = ~seg.deleted[sids]
                    sids, den, freqs = sids[live], den[live], freqs[live]
                ids.append(sids.astype(np.uint32) + np.uint32(seg.base_docid))
                dens.append(den)
                tfs.append(freqs)
            ids, den = np.concatenate(ids), np.concatenate(dens)
            tf = np.concatenate([np.empty(0, np.uint8)] + tfs)
            tf = tf.astype(np.min_scalar_type(int(tf.max()) if len(tf) else 0))
            run_max = (
                np.maximum.reduceat(den, np.arange(0, len(den), self.RUN))
                if len(den)
                else den
            )
            hit = self.cache.put(
                key,
                (ids, den, run_max, tf),
                ids.nbytes + den.nbytes + run_max.nbytes + tf.nbytes,
            )
        return hit

    def _search_wand(self, terms: List[TermQuery], k: int, after=None) -> dict:
        """Top-k of a text term or a SHOULD disjunction of text terms in
        one pass over the terms' index-wide arrays (``_term_postings``),
        with exact hit counts (relation EQ):

        - a term scores ``w - w/den``; a disjunction adds its terms'
          scores in clause order into one float32 accumulator over the
          index's docids, the exhaustive path's sums;
        - θ, a lower bound of the k-th best score past the cursor: the
          k-th best exact score of a sample of at least k distinct live
          docs past the cursor; per term, the docs of its k runs with the
          largest maxima; the largest over the terms;
        - only the runs (``w - w/max(den)`` ≥ θ), then the hits, scoring
          ≥ θ reach the final selection (``_topk_segment``), in (score
          desc, global docid asc) order, which is ``TopDocs.merge``
          order — the bound-then-verify role of ``MaxScoreBulkScorer``
          (``core/search/MaxScoreBulkScorer.java:26-127``).

        A weight below zero turns the run maxima into minima, so such a
        query selects from every hit."""
        states = self.term_states([t.term for t in terms])
        clauses = []  # (w, ids, den, run_max) in clause order
        for t in terms:
            infos, df, _ = states[t.term]
            if df > 0:
                ids, den, run_max, _ = self._term_postings(t.term, infos)
                clauses.append((self._term_weight(df, t.boost), ids, den, run_max))
        if not clauses:
            return self._top_global(*_NO_HITS, k, 0, "EQ")
        if len(clauses) > 1:
            n = self._max_doc()
            acc = np.zeros(n, F32)
            matched = np.zeros(n, bool)
            for w, ids, den, _ in clauses:
                # intp indices: numpy converts uint32 ones on every use
                ids = ids.astype(np.intp)
                np.add.at(acc, ids, w - w / den)
                matched[ids] = True
        theta = F32(-np.inf)
        if k > 0 and all(w >= 0 for w, *_ in clauses):
            for w, ids, den, run_max in clauses:
                if len(run_max) <= k:
                    continue
                sel = self._run_postings(
                    np.argpartition(run_max, len(run_max) - k)[len(run_max) - k :],
                    len(ids),
                )
                sample_ids = ids[sel]
                sample = w - w / den[sel] if len(clauses) == 1 else acc[sample_ids]
                if after is not None:
                    sample = sample[self._past(after, sample, sample_ids)]
                if len(sample) >= k:
                    theta = max(theta, np.partition(sample, len(sample) - k)[len(sample) - k])
        if len(clauses) == 1:
            w, ids, den, run_max = clauses[0]
            total = len(ids)
            if theta > -np.inf:
                sel = self._run_postings(np.flatnonzero(w - w / run_max >= theta), total)
                ids, den = ids[sel], den[sel]
            scores = w - w / den
        else:
            total = int(np.count_nonzero(matched))
            ids = np.flatnonzero(acc >= theta if theta > 0 else matched)
            scores = acc[ids]
        keep = scores >= theta
        if after is not None:
            keep &= self._past(after, scores, ids)
        return self._top_global(ids[keep], scores[keep], k, total, "EQ")

    def _top_global(
        self, ids: np.ndarray, scores: np.ndarray, k: int, total: int, relation: str
    ) -> dict:
        """The search result of hits given by global docids: their top k
        in (score desc, global docid asc) order, which is ``TopDocs.merge``
        order (segment index asc breaks ties, and segment bases ascend
        with it), and each hit's document key."""
        ids, scores = self._topk_segment(SegmentResult(ids, scores), k)
        ids = ids.astype(np.int64)
        ends = [s.base_docid + s.n_docs for s in self.segments]
        segs = [self.segments[si] for si in np.searchsorted(ends, ids, side="right")]
        return {
            "docids": ids,
            "keys": [
                seg.docmap[d - seg.base_docid].as_py()
                for seg, d in zip(segs, ids.tolist())
            ],
            "scores": scores.astype(F32),
            "total_hits": total,
            "relation": relation,
        }

    def _run_postings(self, runs: np.ndarray, n: int) -> np.ndarray:
        """Positions of the postings of ``runs`` in a term's ``n``-long
        index-wide arrays."""
        sel = (runs[:, None] * self.RUN + np.arange(self.RUN)).ravel()
        return sel[sel < n]

    @staticmethod
    def _past(after, scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Mask of the hits strictly after the ``after=(score, docid)``
        cursor in (score desc, docid asc) order."""
        a_score = F32(after[0])
        return (scores < a_score) | (
            (scores == a_score) & (ids.astype(np.int64) > int(after[1]))
        )

    def _max_doc(self) -> int:
        """One past the largest global docid of the searcher's segments:
        the length of the dense arrays over its docids."""
        return max((s.base_docid + s.n_docs for s in self.segments), default=0)

    def _doc_norm_inverse(self) -> np.ndarray:
        """The default field's float32 norm inverse of every global docid
        (0 in the docid gaps of a shard), cached under ``("norm_inv",)``."""
        hit = self.cache.get(("norm_inv",))
        if hit is None:
            inv = np.zeros(self._max_doc(), F32)
            for seg in self.segments:
                inv[seg.base_docid : seg.base_docid + seg.n_docs] = (
                    self.norm_inverse[seg.norms]
                )
            hit = self.cache.put(("norm_inv",), inv, inv.nbytes)
        return hit

    def _term_positions(
        self, term: str, infos: List[Optional[TermInfo]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Positions of one text term's live postings, cached under
        ``("pos", term)`` and row-aligned with its ``("term", term)``
        arrays: posting i's positions are ``pos[offs[i] : offs[i + 1]]``,
        ``offs`` the exclusive cumsum of the term arrays' freqs, ``pos``
        in the narrowest unsigned dtype that holds its largest value.
        Every segment's run decodes in one ``read_positions`` call,
        straight from the codec; the segments with deletions decode their
        postings again (one ``read_postings`` call), for the freqs of the
        deleted docs' runs."""
        key = ("pos", term)
        hit = self.cache.get(key)
        if hit is None:
            freqs = self._term_postings(term, infos)[3]
            segs = [(s, ti) for s, ti in zip(self.segments, infos) if ti is not None]
            pos = read_positions(segs)
            dels = [i for i, (seg, _) in enumerate(segs) if seg.deleted is not None]
            for i, (sids, sfreqs) in zip(dels, read_postings([segs[i] for i in dels])):
                pos[i] = pos[i][np.repeat(~segs[i][0].deleted[sids], sfreqs)]
            top = max((int(p.max()) for p in pos if len(p)), default=0)
            pos = np.concatenate(
                [np.empty(0, np.uint8)] + pos,
                dtype=np.min_scalar_type(top),
                casting="unsafe",
            )
            offs = np.zeros(
                len(freqs) + 1, np.uint32 if len(pos) <= _KEY32_SPACE else np.int64
            )
            np.cumsum(freqs, dtype=offs.dtype, out=offs[1:])
            hit = self.cache.put(key, (offs, pos), offs.nbytes + pos.nbytes)
        return hit

    def _rows_of(self, ids: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """The indices of the global docids ``cand`` in the ascending
        array ``ids`` (-1 where absent), through a dense int32 docid→row
        array over the searcher's docids."""
        row_of = np.full(self._max_doc(), -1, np.int32)
        row_of[ids] = np.arange(len(ids), dtype=np.int32)
        return row_of[cand]

    def _conjunction(
        self, id_arrays: Sequence[np.ndarray], excluded: Sequence[np.ndarray] = ()
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The global docids in every ascending array of ``id_arrays`` and
        in none of ``excluded`` → ``(cand, rows)``, ``rows[i]`` the
        candidates' indices in ``id_arrays[i]``. The rarest array leads;
        each other one, rarer first, maps the candidates to its rows
        (``_rows_of``), and each excluded one drops candidates through a
        dense mask."""
        order = sorted(range(len(id_arrays)), key=lambda i: len(id_arrays[i]))
        cand = id_arrays[order[0]]
        rows: List[Optional[np.ndarray]] = [None] * len(id_arrays)
        rows[order[0]] = np.arange(len(cand))
        for i in order[1:]:
            if len(cand) == 0:
                rows[i] = np.empty(0, np.int32)
                continue
            row = self._rows_of(id_arrays[i], cand)
            keep = row >= 0
            cand = cand[keep]
            rows = [r if r is None else r[keep] for r in rows]
            rows[i] = row[keep]
        for ids in excluded:
            if len(cand) == 0:
                break
            drop = np.zeros(self._max_doc(), bool)
            drop[ids] = True
            keep = ~drop[cand]
            cand = cand[keep]
            rows = [r[keep] for r in rows]
        return cand, rows

    def _signature_filter(
        self, terms: Sequence[str], states, cand: np.ndarray, rows: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """The candidates ``cand`` of an exact phrase (``rows[t]``: their
        rows in term t's arrays) less those the terms' position
        signatures rule out.

        A term's signatures are one uint64 per live posting, row-aligned
        with its ``("term", t)`` arrays and cached under ``("sig", t)``:
        bit ``p & 63`` is set for each position p of the posting
        (``_position_signatures``). They are built from the term's cached
        ``_term_positions`` entry when a phrase reads it again, never on
        the term's first phrase, so a phrase read once costs one
        positions decode and nothing more.

        Slot i's signatures rotate right by i, so a match at position p0
        sets bit ``p0 & 63`` in every slot's rotated signature (the same
        as rotating each left by ``nterms - 1 - i``, up to one common
        rotation); a candidate whose rotated signatures AND to zero has
        phrase freq 0. Slots whose term has no signatures are left out of
        the AND, which keeps it sound; with fewer than two slots left
        nothing is dropped."""
        if len(cand) == 0:
            return cand, rows
        sigs = {t: self.cache.get(("sig", t)) for t in rows}
        for t in rows:
            if sigs[t] is None and ("pos", t) in self.cache:
                sig = _position_signatures(*self._term_positions(t, states[t][0]))
                sigs[t] = self.cache.put(("sig", t), sig, sig.nbytes)
        slots = [(i, t) for i, t in enumerate(terms) if sigs[t] is not None]
        if len(slots) < 2:
            return cand, rows
        # a term's signatures at the candidates, gathered once per term
        at = {
            t: sigs[t] if len(sigs[t]) == len(cand) else sigs[t][rows[t]]
            for _, t in slots
        }
        both = reduce(np.bitwise_and, (_rotr64(at[t], i) for i, t in slots))
        keep = both != 0
        if keep.all():
            return cand, rows
        keep = np.flatnonzero(keep)
        return cand[keep], {t: r[keep] for t, r in rows.items()}

    def _phrase_candidates(self, terms: Sequence[str], states):
        """The doc conjunction of an exact phrase's distinct terms (live
        docs only), less the docs the terms' position signatures rule out
        (``_signature_filter``, before any position is read) → ``(cand,
        rows, post, verify)``: per distinct term the candidates' rows in
        its ``_term_postings`` arrays ``post`` (None where its docs are
        the candidates); ``verify(chunk)``, the ``_exact_phrase_hits``
        (docids, phrase freqs) among ``cand[chunk]`` (all candidates when
        ``chunk`` is None). Positions are read only when there are
        candidates."""
        post = {t: self._term_postings(t, states[t][0]) for t in dict.fromkeys(terms)}
        cand, rows = self._conjunction([ids for ids, *_ in post.values()])
        cand, rows = self._signature_filter(terms, states, cand, dict(zip(post, rows)))
        n = len(cand)
        rows = {t: None if len(post[t][0]) == n else r for t, r in rows.items()}
        slot = {
            t: (post[t][0], *self._term_positions(t, states[t][0]))
            for t in (post if n else ())
        }

        def verify(chunk):
            sub = rows if chunk is None else {
                t: chunk if r is None else r[chunk] for t, r in rows.items()
            }
            return self._exact_phrase_hits(
                [slot[t] for t in terms],
                cand if chunk is None else cand[chunk],
                [sub[t] for t in terms],
            )

        return cand, rows, post, verify

    @staticmethod
    def _wide_eligible(q: Query) -> bool:
        """Whether the index-wide evaluator (``_wide``) covers ``q``: a
        default-field term, an exact phrase, or a boolean tree of them."""
        if isinstance(q, TermQuery):
            return q.field == DEFAULT_FIELD
        if isinstance(q, PhraseQuery):
            return q.slop == 0 and len(q.terms) > 0
        return isinstance(q, BooleanQuery) and all(
            IndexSearcher._wide_eligible(sub) for _, sub in q.clauses
        )

    def _wide(self, q: Query, states):
        """One node of a ``_wide_eligible`` tree → ``(ids, score)``: the
        ascending global docids of its live matches, and ``score(rows)``,
        their float32 scores at ``rows`` (an index array into ``ids``, or
        a slice), computed only for the rows a parent asks for. A boolean
        with MUST or FILTER clauses matches their ``_conjunction`` less
        the MUST_NOT matches, and maps the candidates to each SHOULD
        clause's rows (``_rows_of``) to count ``msm``; a boolean of SHOULD
        clauses only sums them into a dense accumulator, as
        ``_search_wand`` does.
        A doc's score adds its matching MUST and SHOULD clauses' scores in
        clause order from zero, the float32 sequence of ``_eval_bool``."""
        if isinstance(q, TermQuery):
            infos, df, _ = states[q.term]
            if df == 0:
                return _NO_MATCH
            ids, den, _, _ = self._term_postings(q.term, infos)
            w = self._term_weight(df, q.boost)
            return ids, lambda rows: w - w / den[rows]
        if isinstance(q, PhraseQuery):
            cand, _, _, verify = self._phrase_candidates(q.terms, states)
            if len(cand) == 0:
                return _NO_MATCH
            ids, freqs = verify(None)
            w = self._phrase_weight(q.boost, q.terms, states)
            inv = self._doc_norm_inverse()
            return ids, lambda rows: self._phrase_scores(w, inv[ids[rows]], freqs[rows])
        if any(
            o in (MUST, FILTER) and isinstance(sub, TermQuery) and states[sub.term][1] == 0
            for o, sub in q.clauses
        ):
            return _NO_MATCH  # before the other clauses read their postings
        kids = [(o, self._wide(sub, states)) for o, sub in q.clauses]
        should = [kid for o, kid in kids if o == SHOULD]
        nots = [ids for o, (ids, _) in kids if o == MUST_NOT]
        msm = q.minimum_should_match
        if any(o in (MUST, FILTER) for o, _ in kids):
            cand, rows = self._conjunction(
                [ids for o, (ids, _) in kids if o in (MUST, FILTER)], nots
            )
            srows = [self._rows_of(ids, cand) for ids, _ in should]
            if should and msm > 0:
                keep = np.sum([r >= 0 for r in srows], axis=0) >= msm
                cand = cand[keep]
                rows = [r[keep] for r in rows]
                srows = [r[keep] for r in srows]
            req, opt = iter(rows), iter(srows)
            parts = [  # (occur, score, candidates' rows) in clause order
                (o, sc, next(opt) if o == SHOULD else next(req))
                for o, (_, sc) in kids
                if o != MUST_NOT
            ]

            def score(sel):
                acc = np.zeros(len(cand[sel]), F32)
                for o, sc, r in parts:
                    r = r[sel]
                    if o == MUST:
                        acc += sc(r)
                    elif o == SHOULD:
                        m = r >= 0
                        acc[m] += sc(r[m])
                return acc

            return cand, score
        if not should:
            return _NO_MATCH
        n = self._max_doc()
        acc = np.zeros(n, F32)
        count = np.zeros(n, np.min_scalar_type(len(should)))
        for ids, sc in should:
            ids = ids.astype(np.intp)  # numpy converts other indices on every use
            acc[ids] += sc(slice(None))
            count[ids] += 1
        keep = count >= max(1, msm)
        for ids in nots:
            keep[ids] = False
        cand = np.flatnonzero(keep)
        scores = acc[cand]
        return cand, lambda rows: scores[rows]

    def _search_phrase(self, q: PhraseQuery, k: int) -> dict:
        """Top-k of an exact BM25 phrase that reads positions only for
        docs whose score bound can reach the top k — the bound-then-verify
        shape of Koios (PAPERS.md), per document, over the terms'
        index-wide arrays:

        1. the doc conjunction of the phrase's distinct terms
           (``_conjunction`` over their ``_term_postings`` docids, live
           docs only), less the docs whose position signatures rule a
           match out (``_signature_filter``: one uint64 per posting, no
           position read; such a doc has phrase freq 0, so no hit is
           lost and the count is unchanged). A doc's phrase freq is at
           most its smallest tf over the slots, where a term filling r
           slots counts tf - (r - 1): a match is counted at its
           occurrence in the term's last slot, and the first match's r -
           1 occurrences in the term's earlier slots lie before every
           such occurrence. Its BM25 at that freq bounds its score; the
           tfs come from the term arrays, so no position is read;
        2. the candidates are verified by one ``_exact_phrase_hits`` call
           per chunk of descending bound: the first chunk holds the ``2 ·
           TOTAL_HITS_THRESHOLD`` best bounds (up to that many candidates
           are all verified at once), each later one enough to count the
           missing hits twice over at the hit rate seen so far. Once
           ``TOTAL_HITS_THRESHOLD`` hits are counted and θ, the k-th best
           exact score, is known, only the candidates whose bound is ≥ θ
           are verified (a tie with θ may still win the docid tie-break);
        3. relation is GTE only if a candidate was never verified, and
           then ``total_hits`` ≥ ``TOTAL_HITS_THRESHOLD`` (Lucene's
           TotalHits rule).

        The top k equals the exhaustive path's bit for bit: verified docs
        score through the same ``_phrase_scores`` as ``_eval_phrase``, and
        a skipped doc scores ≤ its bound < θ."""
        states = self.term_states(q.terms)
        w = self._phrase_weight(q.boost, q.terms, states)
        slots_of = Counter(q.terms)
        cand, rows, post, verify = self._phrase_candidates(q.terms, states)
        n = len(cand)
        if n == 0:
            return self._top_global(*_NO_HITS, k, 0, "EQ")
        inv = self._doc_norm_inverse()
        # a first chunk of twice the threshold counts the threshold at
        # once for a phrase matching every other candidate; a lone chunk
        # needs no bounds
        step = 2 * TOTAL_HITS_THRESHOLD
        bound = None
        if n > step and w > 0:
            min_tf = None
            for t, r in rows.items():
                tf = post[t][3] if r is None else post[t][3][r]
                if slots_of[t] > 1:
                    tf = np.maximum(tf.astype(np.int64) - (slots_of[t] - 1), 0)
                min_tf = tf if min_tf is None else np.minimum(min_tf, tf)
            bound = self._phrase_scores(w, inv[cand], min_tf)
        hit_ids, hit_scores = [np.empty(0, np.uint32)], [np.empty(0, F32)]
        top = np.empty(0, F32)  # the k best exact scores so far
        total = n_verified = 0
        hi = np.inf  # every candidate with bound >= hi is verified
        while True:
            # the next chunk: the candidates with bound in [lo, hi)
            theta_known = total >= TOTAL_HITS_THRESHOLD and len(top) >= k
            if theta_known:
                lo = float(top.min())
            else:
                rest = () if bound is None else bound[bound < hi]
                lo = (
                    float(np.partition(rest, len(rest) - step)[len(rest) - step])
                    if len(rest) > step
                    else -np.inf
                )
            chunk = (
                np.arange(n)
                if bound is None
                else np.flatnonzero((bound >= lo) & (bound < hi))
            )
            n_verified += len(chunk)
            if len(chunk):
                ids, freqs = verify(None if len(chunk) == n else chunk)
                scores = self._phrase_scores(w, inv[ids], freqs)
                hit_ids.append(ids)
                hit_scores.append(scores)
                total += len(ids)
                top = np.concatenate([top, scores])
                if len(top) > k:
                    top = np.partition(top, len(top) - k)[len(top) - k :]
            hi = lo
            if theta_known or lo == -np.inf:
                break
            # enough candidates to count the missing hits twice over at
            # the hit rate so far (all of them once the count is reached)
            missing = TOTAL_HITS_THRESHOLD - total
            step = int(2 * missing * n_verified / max(total, 1)) if missing > 0 else n
        # a candidate bounded below θ was never verified
        skipped = bound is not None and bool((bound < hi).any())
        return self._top_global(
            np.concatenate(hit_ids),
            np.concatenate(hit_scores),
            k,
            total,
            "GTE" if skipped else "EQ",
        )

    def search_batch(
        self, qids: Sequence, queries: Sequence[str], k: int = 10
    ) -> pa.Table:
        """Vectorizable entry for actor pools: one row per (qid, rank),
        columns assembled by numpy concatenation. The schema does not
        depend on the hits: qid has the Arrow type of ``qids``, key the
        type of the index's document keys."""
        res = [self.search(q, k) for q in queries]
        counts = np.array([len(r["docids"]) for r in res], dtype=np.int64)
        firsts = np.repeat(np.cumsum(counts) - counts, counts)
        key_type = self.segments[0].docmap.type if self.segments else pa.null()
        return pa.table(
            {
                "qid": pa.array(qids).take(
                    np.repeat(np.arange(len(res)), counts)
                ),
                "rank": (np.arange(len(firsts)) - firsts).astype(np.int32),
                "key": pa.array(
                    [key for r in res for key in r["keys"]], type=key_type
                ),
                "docid": np.concatenate(
                    [np.empty(0, np.int64)] + [r["docids"] for r in res]
                ),
                "score": np.concatenate(
                    [np.empty(0, np.float32)] + [r["scores"] for r in res]
                ),
            }
        )


class SearcherActor:
    """Stateful map_batches actor: open the index once, serve query batches
    (SURVEY §2.5 / §3.2 Ray shape). Use:

        queries_ds.map_batches(SearcherActor, fn_constructor_kwargs=
            {"index_dir": d, "k": 10}, concurrency=N, batch_format="pyarrow")
    """

    def __init__(
        self,
        index_dir: str,
        k: int = 10,
        similarity: Optional[str] = None,
        query_factory=None,
    ):
        # similarity by REGISTRY NAME (picklable ctor kwargs for the
        # actor pool; resolved per actor via similarity_for_name).
        # ``query_factory``: optional picklable callable str -> Query for
        # plans with no parser syntax (e.g. CombinedFieldQuery).
        self.searcher = IndexSearcher(index_dir, similarity=similarity)
        self.k = k
        self.query_factory = query_factory

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch.column("qid").to_pylist()
        queries = batch.column("query").to_pylist()
        if self.query_factory is not None:
            queries = [self.query_factory(q) for q in queries]
        ks = (
            batch.column("k").to_pylist()
            if "k" in batch.column_names
            else [self.k] * len(qids)
        )
        # group by k only if heterogeneous; common case single k
        if len(set(ks)) == 1:
            return self.searcher.search_batch(qids, queries, ks[0])
        parts = [
            self.searcher.search_batch([q], [qt], kk)
            for q, qt, kk in zip(qids, queries, ks)
        ]
        return pa.concat_tables(parts)


def search_dataset(
    index_dir: str,
    queries_ds,
    k: int = 10,
    concurrency=None,
    similarity: Optional[str] = None,
    query_factory=None,
):
    """Distributed search: queries Dataset (qid, query[, k]) → results
    Dataset (qid, rank, key, docid, score) via a searcher actor pool.
    ``similarity``: registry name (None = BM25).

    ``concurrency=None`` (default) sizes an AUTOSCALING pool from the
    cluster: min stays 1 so a handful of gate queries don't pay a fleet's
    actor spin-up, max tracks cluster CPUs so a real query stream saturates
    the node. Pass an int to pin the pool (benchmarks do)."""
    if concurrency is None:
        from lucene_ray.cluster import actor_pool

        concurrency = actor_pool()
    return queries_ds.map_batches(
        SearcherActor,
        fn_constructor_kwargs={
            "index_dir": index_dir,
            "k": k,
            "similarity": similarity,
            "query_factory": query_factory,
        },
        concurrency=concurrency,
        batch_format="pyarrow",
        batch_size=16,
    )
