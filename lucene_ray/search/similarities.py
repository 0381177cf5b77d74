"""Pluggable similarities beyond BM25 — exact float replication of the
reference's scoring models, vectorized over postings blocks.

Reference semantics:

- ``ClassicSimilarity`` (TF-IDF,
  ``lucene/core/src/java/org/apache/lucene/search/similarities/ClassicSimilarity.java``):
  ``tf = (float) sqrt(freq)`` (:50-53), ``idf = (float)(log((docCount+1)
  / (double)(docFreq+1)) + 1.0)`` (:69-72), ``lengthNorm = (float)(1.0 /
  sqrt(numTerms))`` (:43-46). The scorer precomputes a 256-entry norm
  table over decoded SmallFloat lengths with ``normTable[0] =
  1f / normTable[255]`` and scores ``tf(freq) * queryWeight * normTable[
  norm & 0xFF]`` with float32 multiplies in that order
  (``TFIDFSimilarity.java:436-472``).
- ``LMDirichletSimilarity``
  (``.../similarities/LMDirichletSimilarity.java:76-81``): double-precision
  ``boost * (log(1 + freq / (mu * p)) + log(mu / (docLen + mu)))`` clamped
  at 0, narrowed to float32 by ``SimilarityBase.BasicSimScorer.score``
  (``SimilarityBase.java:170-180``); collection probability ``p = (ttf + 1)
  / (sumTotalTermFreq + 1)`` (``LMSimilarity.java:144-152``); docLen is the
  SmallFloat-decoded norm byte (``SimilarityBase.java:150-156``).
- ``BooleanSimilarity`` (``.../similarities/BooleanSimilarity.java:36-52``):
  score == query boost, norms ignored.

The named registry at the bottom is the ``Codec``/``Similarity`` SPI
analogue (``core/codecs/Codec.java:38-53``): similarities resolvable by
name so config/serialized pipelines can reference them.

Non-BM25 similarities run on the exhaustive evaluation path only — the
pruned paths' score bounds are derived for the BM25 algebra
(``IndexSearcher._search_wand``, ``_search_phrase``); rank-identical
output does not depend on pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lucene_ray.codecs.smallfloat import LENGTH_TABLE, LENGTH_TABLE_INT
from lucene_ray.search.bm25 import BM25Similarity

F32 = np.float32
F64 = np.float64


class Similarity:
    """Base: the ``Similarity`` plug point (``core/search/similarities/
    Similarity.java:122-151``). Subclasses return a vectorized scorer for
    one (term, field-stats) pair."""

    name = "base"

    def compute_query_term_weight(self, qtf: int) -> np.float32:
        """Repeated-query-term weighting; identity unless a model (fork
        BM25 k3) saturates it."""
        return F32(qtf)

    def scorer(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        doc_freq: int,
        total_term_freq: int = 0,
    ):
        raise NotImplementedError

    def scorer_multi(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        term_stats,
    ):
        """Multi-term (phrase) scorer over ``term_stats = [(df, ttf), ...]``.

        Default = one sub-scorer per term, scores summed at the shared
        phrase freq — ``SimilarityBase.scorer`` returning
        ``MultiSimilarity.MultiSimScorer`` (``SimilarityBase.java:185-197``,
        ``MultiSimilarity.java:73-88``). TFIDF-family similarities override
        (they sum idfs instead, ``TFIDFSimilarity.idfExplain``)."""
        subs = [
            self.scorer(boost, doc_count, sum_total_term_freq, df, ttf)
            for df, ttf in term_stats
        ]
        return subs[0] if len(subs) == 1 else SumScorer(subs)


@dataclass
class SumScorer:
    """float32 sum of sub-scorer scores at one shared freq
    (``MultiSimilarity.MultiSimScorer.score``, ``MultiSimilarity.java:79-85``)."""

    subs: list

    def score(self, freqs: np.ndarray, norm_bytes) -> np.ndarray:
        out = np.zeros(len(np.atleast_1d(np.asarray(freqs))), dtype=F32)
        for s in self.subs:
            out = out + s.score(freqs, norm_bytes)  # f32 adds in term order
        return out

    def max_score(self, max_freq: float, best_norm_byte=None) -> np.float32:
        out = F32(0)
        for s in self.subs:
            out = F32(out + s.max_score(max_freq, best_norm_byte))
        return out


@dataclass
class TableScorer:
    """score = tf_table-free: ``tf(freq) * query_weight * norm_table[b]``
    (the ``TFIDFScorer`` shape, ``TFIDFSimilarity.java:452-472``)."""

    query_weight: np.float32
    norm_table: np.ndarray  # float32[256]

    def score(self, freqs: np.ndarray, norm_bytes) -> np.ndarray:
        # tf(freq) = (float) Math.sqrt(freq): double sqrt, narrowed
        tf = np.sqrt(np.asarray(freqs, dtype=F64)).astype(F32)
        raw = tf * self.query_weight  # float32 multiply
        nb = np.asarray(norm_bytes, dtype=np.uint8)
        return raw * self.norm_table[nb]  # float32 multiply

    def max_score(self, max_freq: float, best_norm_byte: int | None = None) -> np.float32:
        nb = (
            int(np.argmax(self.norm_table))
            if best_norm_byte is None
            else best_norm_byte
        )
        return F32(
            self.score(np.array([max_freq], F64), np.array([nb], np.uint8))[0]
        )


def _classic_norm_table() -> np.ndarray:
    # normTable[i] = lengthNorm(LENGTH_TABLE[i]) for i>=1 with the INT
    # decoded-length table (TFIDFSimilarity.java:427-434 is int[]);
    # normTable[0] = 1f / normTable[255]  (TFIDFSimilarity.java:441-446)
    lt = np.asarray(LENGTH_TABLE_INT, dtype=F64)
    table = np.zeros(256, dtype=F32)
    table[1:] = (1.0 / np.sqrt(lt[1:])).astype(F32)
    table[0] = F32(1.0) / table[255]
    return table


_CLASSIC_NORM_TABLE = _classic_norm_table()


class ClassicSimilarity(Similarity):
    name = "classic"

    @staticmethod
    def _idf(doc_freq: int, doc_count: int) -> np.float32:
        return F32(math.log((doc_count + 1) / float(doc_freq + 1)) + 1.0)

    def scorer(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        doc_freq: int,
        total_term_freq: int = 0,
    ) -> TableScorer:
        qw = F32(boost) * self._idf(doc_freq, doc_count)
        return TableScorer(query_weight=qw, norm_table=_CLASSIC_NORM_TABLE)

    def scorer_multi(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        term_stats,
    ) -> TableScorer:
        # idfExplain over termStats[]: double-accumulate the float32
        # per-term idfs, narrow once (TFIDFSimilarity.java:404-415)
        idf = 0.0
        for df, _ttf in term_stats:
            idf += float(self._idf(df, doc_count))
        qw = F32(boost) * F32(idf)
        return TableScorer(query_weight=qw, norm_table=_CLASSIC_NORM_TABLE)


@dataclass
class LMDirichletScorer:
    """double-math Dirichlet-smoothed LM score, clamped at 0, narrowed to
    float32 (``LMDirichletSimilarity.java:76-81``)."""

    boost: float  # double
    mu: float  # double (widened float)
    collection_prob: float  # double
    doc_len_table: np.ndarray  # float64[256] decoded lengths

    def score(self, freqs: np.ndarray, norm_bytes) -> np.ndarray:
        f = np.asarray(freqs, dtype=F64)
        dl = self.doc_len_table[np.asarray(norm_bytes, dtype=np.uint8)]
        # Math.log(1 + x), NOT log1p — the reference adds 1 in double
        # first (LMDirichletSimilarity.java:77), and so does the SQL
        # oracle's ln(1 + ...); log1p differs in the last ulp
        s = self.boost * (
            np.log(1.0 + f / (self.mu * self.collection_prob))
            + np.log(self.mu / (dl + self.mu))
        )
        return np.maximum(s, 0.0).astype(F32)

    def max_score(self, max_freq: float, best_norm_byte: int | None = None) -> np.float32:
        nb = (
            int(np.argmin(self.doc_len_table))
            if best_norm_byte is None
            else best_norm_byte
        )
        return F32(self.score(np.array([max_freq], F64), np.array([nb], np.uint8))[0])


class LMDirichletSimilarity(Similarity):
    name = "lmdirichlet"

    def __init__(self, mu: float = 2000.0):
        if not math.isfinite(mu) or mu < 0:
            raise ValueError(f"illegal mu value: {mu}")
        self.mu = float(F32(mu))  # stored as float, widened in the math

    def scorer(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        doc_freq: int,
        total_term_freq: int = 0,
    ) -> LMDirichletScorer:
        # DefaultCollectionModel.computeProbability (LMSimilarity.java:150-152)
        p = (total_term_freq + 1.0) / (sum_total_term_freq + 1.0)
        return LMDirichletScorer(
            boost=float(F32(boost)),
            mu=self.mu,
            collection_prob=p,
            doc_len_table=np.asarray(LENGTH_TABLE, dtype=F64),
        )


@dataclass
class LMJelinekMercerScorer:
    """double-math Jelinek-Mercer-smoothed LM score
    (``LMJelinekMercerSimilarity.java:67-74``): boost * log(1 +
    ((1-λ)·freq/docLen) / (λ·p)), clamped at 0 and narrowed to float32
    by ``SimilarityBase.BasicSimScorer.score``."""

    boost: float  # double
    lam: float  # double (λ)
    collection_prob: float  # double
    doc_len_table: np.ndarray  # float64[256] decoded lengths

    def score(self, freqs: np.ndarray, norm_bytes) -> np.ndarray:
        f = np.asarray(freqs, dtype=F64)
        dl = self.doc_len_table[np.asarray(norm_bytes, dtype=np.uint8)]
        s = self.boost * np.log(
            1.0
            + ((1.0 - self.lam) * f / dl)
            / (self.lam * self.collection_prob)
        )
        return np.maximum(s, 0.0).astype(F32)

    def max_score(self, max_freq: float, best_norm_byte: int | None = None) -> np.float32:
        nb = (
            int(np.argmin(self.doc_len_table))
            if best_norm_byte is None
            else best_norm_byte
        )
        return F32(self.score(np.array([max_freq], F64), np.array([nb], np.uint8))[0])


class LMJelinekMercerSimilarity(Similarity):
    name = "lmjelinekmercer"

    def __init__(self, lam: float = 0.25):
        # λ ∈ (0, 1] (LMJelinekMercerSimilarity.java:53-57); default
        # 0.25 here (exactly representable — the oracle embeds the same
        # constant)
        if math.isnan(lam) or lam <= 0 or lam > 1:
            raise ValueError("lambda must be in the range (0 .. 1]")
        self.lam = float(F32(lam))

    def scorer(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        doc_freq: int,
        total_term_freq: int = 0,
    ) -> LMJelinekMercerScorer:
        p = (total_term_freq + 1.0) / (sum_total_term_freq + 1.0)
        return LMJelinekMercerScorer(
            boost=float(F32(boost)),
            lam=self.lam,
            collection_prob=p,
            doc_len_table=np.asarray(LENGTH_TABLE, dtype=F64),
        )


_LOG_2 = math.log(2.0)


@dataclass
class DFRInL2Scorer:
    """DFR I(n)L2 (``DFRSimilarity.java:127-130`` with ``BasicModelIn``
    + ``AfterEffectL`` + ``NormalizationH2(c=1)``): tfn = freq ·
    log2(1 + avgdl/dl); score = boost · log2((N+1)/(n+0.5)) ·
    aeTimes1pTfn · (1 − 1/(1+tfn)) with aeTimes1pTfn = 1 (the L after
    effect), clamped at 0 and narrowed to float32 by
    ``SimilarityBase.BasicSimScorer.score``. log2 = ln/ln2, the
    reference's ``SimilarityBase.log2``."""

    boost: float  # double
    basic_a: float  # log2((N+1)/(n+0.5)), double
    avgdl: float  # double
    doc_len_table: np.ndarray  # float64[256]

    def score(self, freqs: np.ndarray, norm_bytes) -> np.ndarray:
        f = np.asarray(freqs, dtype=F64)
        dl = self.doc_len_table[np.asarray(norm_bytes, dtype=np.uint8)]
        tfn = f * (np.log(1.0 + self.avgdl / dl) / _LOG_2)
        s = self.boost * (
            self.basic_a * 1.0 * (1.0 - 1.0 / (1.0 + tfn))
        )
        return np.maximum(s, 0.0).astype(F32)

    def max_score(self, max_freq: float, best_norm_byte: int | None = None) -> np.float32:
        nb = (
            int(np.argmin(self.doc_len_table))
            if best_norm_byte is None
            else best_norm_byte
        )
        return F32(self.score(np.array([max_freq], F64), np.array([nb], np.uint8))[0])


class DFRInL2Similarity(Similarity):
    """``DFRSimilarity(BasicModelIn, AfterEffectL, NormalizationH2(1))``
    — the canonical I(n)L2 divergence-from-randomness configuration."""

    name = "dfr_inl2"

    def scorer(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        doc_freq: int,
        total_term_freq: int = 0,
    ) -> DFRInL2Scorer:
        a = math.log((doc_count + 1) / (doc_freq + 0.5)) / _LOG_2
        return DFRInL2Scorer(
            boost=float(F32(boost)),
            basic_a=a,
            avgdl=sum_total_term_freq / float(doc_count),
            doc_len_table=np.asarray(LENGTH_TABLE, dtype=F64),
        )


@dataclass
class ConstScorer:
    weight: np.float32

    def score(self, freqs: np.ndarray, norm_bytes) -> np.ndarray:
        return np.full(len(np.atleast_1d(np.asarray(freqs))), self.weight, F32)

    def max_score(self, max_freq: float, best_norm_byte=None) -> np.float32:
        return self.weight


class BooleanSimilarity(Similarity):
    name = "boolean"

    def scorer(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        doc_freq: int,
        total_term_freq: int = 0,
    ) -> ConstScorer:
        return ConstScorer(weight=F32(boost))

    def scorer_multi(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        term_stats,
    ) -> ConstScorer:
        # BooleanSimilarity ignores term stats entirely — a phrase still
        # scores == boost (BooleanSimilarity.java:36-52)
        return ConstScorer(weight=F32(boost))


def _bm25(**kw):
    return BM25Similarity(**kw)


# named registry — the SPI surface (Codec.forName analogue)
SIMILARITIES = {
    "bm25": _bm25,
    "classic": ClassicSimilarity,
    "tfidf": ClassicSimilarity,
    "lmdirichlet": LMDirichletSimilarity,
    "lmjelinekmercer": LMJelinekMercerSimilarity,
    "dfr_inl2": DFRInL2Similarity,
    "boolean": BooleanSimilarity,
}


def similarity_for_name(name: str, **kwargs):
    try:
        factory = SIMILARITIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown similarity {name!r}; registered: {sorted(SIMILARITIES)}"
        ) from None
    return factory(**kwargs)
