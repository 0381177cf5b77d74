"""Analyzer chain = StandardTokenizer → simple lowercase → stop filter.

Reference semantics:

- ``StandardAnalyzer`` = StandardTokenizer → LowerCaseFilter → StopFilter,
  and the **default stopword set is empty**
  (``lucene/core/src/java/org/apache/lucene/analysis/standard/StandardAnalyzer.java:51-91``).
- ``StopFilter`` drops matching tokens but **accumulates
  positionIncrement across dropped tokens**, preserving position gaps
  (``.../analysis/FilteringTokenFilter.java:50-58``).
- Document length for norms = number of emitted positions
  (``.../index/FieldInvertState.java:38-43``; with ``discountOverlaps``
  overlap tokens are excluded — this chain never produces overlaps).

The English stop set below matches Lucene's
``EnglishAnalyzer.ENGLISH_STOP_WORDS_SET``
(``lucene/analysis/common/src/java/org/apache/lucene/analysis/en/EnglishAnalyzer.java``)
for use as a non-default option.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from lucene_ray.analysis.filters import (
    english_possessive,
    porter_stem,
    resolve_filters,
)
from lucene_ray.analysis.htmlstrip import resolve_char_filters
from lucene_ray.analysis.lowercase import simple_lowercase
from lucene_ray.analysis.synonyms import resolve_graph_filters
from lucene_ray.analysis.tokenizer import (
    DEFAULT_MAX_TOKEN_LENGTH,
    StandardTokenizer,
)

ENGLISH_STOP_WORDS: FrozenSet[str] = frozenset(
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split()
)


class Analyzer:
    """Base analyzer: tokenize + lowercase + optional stop filtering.

    Construct once per ``map_batches`` actor (``__init__`` cost amortized);
    ``analyze`` / ``analyze_fast`` are pure and reusable across batches —
    the Ray analogue of the reference's per-thread ``ReuseStrategy``
    (``.../analysis/Analyzer.java:469-488``).
    """

    def __init__(
        self,
        stopwords: Optional[Iterable[str]] = None,
        max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH,
        lowercase: bool = True,
        term_filters: Sequence = (),
        char_filters: Sequence = (),
        graph_filters: Sequence = (),
        pre_stop_filters: Sequence = (),
    ):
        self.tokenizer = StandardTokenizer(max_token_length)
        self.stopwords: FrozenSet[str] = frozenset(stopwords or ())
        self.lowercase = lowercase
        # stream-level graph filters (SynonymGraphFilter role,
        # analysis/synonyms.py): (terms, positions) → (terms, positions).
        # Non-empty ⇒ positions are no longer dense and token count can
        # grow, so every path takes the per-document chain.
        self.graph_filters = tuple(graph_filters)
        # post-stop token filters (analysis/filters.py protocol:
        # f(term) -> term | None, None = drop with position gap)
        self.term_filters = tuple(term_filters)
        # pre-stop pure-map filters (ElisionFilter role,
        # ``analysis/common/.../util/ElisionFilter.java``: runs BEFORE the
        # stop check so "l'est" elides to "est" and is then stop-dropped,
        # matching the reference chain order)
        self.pre_stop_filters = tuple(pre_stop_filters)
        self._maps_only = all(
            getattr(f, "pure_map", False) for f in self.term_filters
        )
        # pre-tokenizer char filters (Analyzer.initReader role,
        # ``core/analysis/Analyzer.java:330-345``): text → text, applied
        # in order before lowercase+tokenize on every path. They also
        # accept bytes (html:binary columns decode inside the filter).
        self.char_filters = tuple(char_filters)

    def _apply_char(self, text):
        for f in self.char_filters:
            text = f(text)
        return text

    def _apply_pre(self, term: str) -> str:
        for f in self.pre_stop_filters:
            term = f(term)
        return term

    def _apply_filters(self, term: str) -> Optional[str]:
        for f in self.term_filters:
            term = f(term)
            if term is None:
                return None
        return term

    # -- full output: (term, start, end, position) -------------------------

    def analyze(self, text: str) -> List[Tuple[str, int, int, int]]:
        """Full token tuples with offsets and absolute positions.

        Position starts at 0 for the first emitted token; stopword drops
        advance the position counter (gap preservation).
        """
        if self.char_filters:
            text = self._apply_char(text)
        lowered = simple_lowercase(text) if self.lowercase else text
        toks = self.tokenizer.tokenize(lowered)
        out: List[Tuple[str, int, int, int]] = []
        pos = -1
        stop = self.stopwords
        filt = self.term_filters
        pre = self.pre_stop_filters
        for t in toks:
            pos += 1
            text = t.text
            for f in pre:
                text = f(text)
            if text in stop:
                continue
            term = self._apply_filters(text) if filt else text
            if term is None:
                continue
            out.append((term, t.start, t.end, pos))
        for gf in self.graph_filters:
            terms_g, pos_g, offs_g = gf.apply(
                [o[0] for o in out],
                [o[3] for o in out],
                offsets=[(o[1], o[2]) for o in out],
            )
            out = [
                (t, s, e, p)
                for t, p, (s, e) in zip(terms_g, pos_g, offs_g)
            ]
        return out

    # -- hot path: terms + positions only ----------------------------------

    def analyze_fast(self, text: str) -> Tuple[List[str], Optional[List[int]]]:
        """Returns ``(terms, positions)``; ``positions is None`` means the
        dense 0..n-1 sequence (no stopwords dropped) — avoids building a
        position list in the common empty-stop-set configuration.
        """
        if self.char_filters:
            text = self._apply_char(text)
        lowered = simple_lowercase(text) if self.lowercase else text
        terms = self.tokenizer.terms(lowered)
        if self.pre_stop_filters:
            terms = [self._apply_pre(t) for t in terms]
        if not self.stopwords and not self.term_filters:
            return self._apply_graph(terms, None)
        if not self.stopwords and self._maps_only:
            # pure term→term rewrites keep positions dense
            return self._apply_graph(
                [self._apply_filters(t) for t in terms], None
            )
        stop = self.stopwords
        filt = self.term_filters
        kept: List[str] = []
        positions: List[int] = []
        for pos, term in enumerate(terms):
            if term in stop:
                continue
            if filt:
                term = self._apply_filters(term)
                if term is None:
                    continue
            kept.append(term)
            positions.append(pos)
        return self._apply_graph(kept, positions)

    def _apply_graph(self, terms, positions):
        """Run the stream-level graph-filter chain; identity when empty
        (the hot configuration pays one attribute check)."""
        if not self.graph_filters:
            return terms, positions
        for gf in self.graph_filters:
            terms, positions = gf.apply(terms, positions)
        return terms, positions

    def _remap_flat(self, terms):
        """Apply a pure-map filter chain to a flat Arrow token array:
        dictionary-encode, filter each distinct term once, one take."""
        if not self.term_filters or len(terms) == 0:
            return terms
        import pyarrow as pa
        import pyarrow.compute as pc

        enc = pc.dictionary_encode(terms)
        vocab = enc.dictionary.to_pylist()
        for f in self.term_filters:
            vocab = [f(t) for t in vocab]
        mapped = pa.array(vocab, enc.dictionary.type)
        return mapped.take(enc.indices)

    def _filter_flat(self, terms, doc_lengths):
        """Vocabulary-level pre-stop maps + stop drops + pure-map term
        filters over a flat token array in document order — the batched
        equivalent of ``analyze_fast``'s per-token loop: each DISTINCT
        surface form is processed exactly once, token-level work is one
        boolean gather + one take. Stop drops leave position gaps
        (``StopFilter`` posinc semantics). → ``(terms, doc_lengths,
        positions | None)``."""
        if not (self.stopwords or self.pre_stop_filters):
            return self._remap_flat(terms), doc_lengths, None
        if len(terms) == 0:
            return terms, doc_lengths, None
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        enc = pc.dictionary_encode(terms)
        vocab = enc.dictionary.to_pylist()
        if self.pre_stop_filters:
            vocab = [self._apply_pre(t) for t in vocab]
        stop_lut = np.fromiter(
            (t in self.stopwords for t in vocab), bool, len(vocab)
        )
        if self.term_filters:
            vocab = [self._apply_filters(t) for t in vocab]
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        mapped = pa.array(vocab, pa.large_string())
        if not stop_lut.any():
            return mapped.take(pa.array(idx)), doc_lengths, None
        keep = ~stop_lut[idx]
        n_docs = len(doc_lengths)
        tok_starts = np.cumsum(doc_lengths) - doc_lengths
        pos_all = (
            np.arange(len(idx), dtype=np.int64)
            - np.repeat(tok_starts, doc_lengths)
        ).astype(np.uint32)
        doc_of_tok = np.repeat(
            np.arange(n_docs, dtype=np.int64), doc_lengths
        )
        new_lengths = np.bincount(
            doc_of_tok[keep], minlength=n_docs
        ).astype(np.int64)
        out_terms = mapped.take(pa.array(idx[keep]))
        return out_terms, new_lengths, pos_all[keep]

    # -- batched hot path: whole document batches ---------------------------

    def analyze_flat(self, texts):
        """Batched ``analyze_fast`` over a document list.

        → ``(terms, doc_lengths, positions)`` where ``terms`` is a flat
        object ndarray (or list) of tokens in document order,
        ``doc_lengths`` is ``int64[n_docs]``, and ``positions`` is a flat
        ``uint32`` array aligned with ``terms`` — or ``None`` meaning the
        dense ``0..len-1`` sequence per document (no stopword gaps).

        All-ASCII batches with the default empty stop set take a
        one-regex-pass path (``StandardTokenizer.terms_flat_from_joined``);
        anything else falls back to the per-document chain, so output is
        identical across paths.
        """
        import numpy as np

        n = len(texts)
        if self.char_filters:
            texts = [self._apply_char(t) for t in texts]
        # pure-map filter chains (stemming, folding, elision) keep the
        # vectorized path — WITH or WITHOUT a stop set: tokens flow
        # through unchanged-length, then one dictionary-encode processes
        # each DISTINCT term exactly once (vocabulary-level pre-stop
        # maps + stop membership + term maps, ``_filter_flat``) and a
        # single Arrow take rebuilds the stream; stop drops leave
        # position gaps. Dropping term filters and graph filters fall
        # to the per-doc chain.
        if (
            not self.graph_filters
            and all(
                getattr(f, "pure_map", False)
                for f in self.pre_stop_filters
            )
            and (not self.term_filters or self._maps_only)
        ):
            ascii_pos: List[int] = []
            ascii_texts: List[str] = []
            other_pos: List[int] = []
            for i, t in enumerate(texts):
                if not t:
                    continue
                if t.isascii():
                    ascii_pos.append(i)
                    ascii_texts.append(t)
                else:
                    other_pos.append(i)
            if ascii_texts:
                joined = "\x00".join(ascii_texts)
                # NUL inside a text would corrupt doc attribution: C-level
                # count check, per-doc fallback on the (never-in-practice)
                # collision
                if joined.count("\x00") == len(ascii_texts) - 1:
                    lowered = (
                        simple_lowercase(joined) if self.lowercase else joined
                    )
                    res = self.tokenizer.terms_flat_from_joined(
                        lowered, len(ascii_texts)
                    )
                    if res is not None:
                        terms_a, _, lengths_a = res
                        doc_lengths = np.zeros(n, dtype=np.int64)
                        doc_lengths[ascii_pos] = lengths_a
                        if not other_pos:
                            return self._filter_flat(terms_a, doc_lengths)
                        # interleave the (rare) non-ASCII docs: tokenize
                        # them per-doc, then scatter both groups into one
                        # flat array by final offset (no np.split fan-out)
                        other_toks = {}
                        for i in other_pos:
                            lowered_i = (
                                simple_lowercase(texts[i])
                                if self.lowercase
                                else texts[i]
                            )
                            toks = self.tokenizer.terms(lowered_i)
                            other_toks[i] = toks
                            doc_lengths[i] = len(toks)
                        # merge stays Arrow-native: concat the big ASCII
                        # token array with the (rare) non-ASCII docs'
                        # tokens and gather into final doc order with one
                        # C take — no per-token Python objects
                        import pyarrow as pa

                        final_starts = np.cumsum(doc_lengths) - doc_lengths
                        total = int(doc_lengths.sum())
                        n_a = len(terms_a)
                        src = np.empty(total, dtype=np.int64)
                        if n_a:
                            a_starts = np.cumsum(lengths_a) - lengths_a
                            dest = (
                                np.repeat(
                                    final_starts[ascii_pos] - a_starts,
                                    lengths_a,
                                )
                                + np.arange(n_a, dtype=np.int64)
                            )
                            src[dest] = np.arange(n_a, dtype=np.int64)
                        flat_other: List[str] = []
                        off = n_a
                        for i in other_pos:
                            L = int(doc_lengths[i])
                            s = int(final_starts[i])
                            src[s:s + L] = np.arange(
                                off, off + L, dtype=np.int64
                            )
                            flat_other.extend(other_toks[i])
                            off += L
                        combined = (
                            pa.concat_arrays(
                                [
                                    terms_a,
                                    pa.array(flat_other, pa.large_string()),
                                ]
                            )
                            if flat_other
                            else terms_a
                        )
                        terms = combined.take(pa.array(src))
                        return self._filter_flat(terms, doc_lengths)
            elif not other_pos:
                return (
                    np.empty(0, dtype=object),
                    np.zeros(n, dtype=np.int64),
                    None,
                )
        # general path: per-document chain (stopword gaps, NUL collision,
        # overlong-token splitting, all-non-ASCII batches)
        import numpy as np  # noqa: F811

        doc_lengths = np.zeros(n, dtype=np.int64)
        all_terms: List[str] = []
        pos_chunks: List[np.ndarray] = []
        dense = True
        for i, t in enumerate(texts):
            if not t:
                continue
            terms_i, positions_i = self.analyze_fast(t)
            doc_lengths[i] = len(terms_i)
            all_terms.extend(terms_i)
            if positions_i is not None:
                dense = False
                pos_chunks.append(np.asarray(positions_i, dtype=np.uint32))
            else:
                pos_chunks.append(np.arange(len(terms_i), dtype=np.uint32))
        terms = np.asarray(all_terms, dtype=object)
        if dense:
            return terms, doc_lengths, None
        positions = (
            np.concatenate(pos_chunks)
            if pos_chunks
            else np.empty(0, np.uint32)
        )
        return terms, doc_lengths, positions


def analyzer_for_config(config) -> "Analyzer":
    """One construction point for every build/search site: resolves the
    config's named token-filter chain through the registry."""
    syn_rules = tuple(getattr(config, "synonyms", ()) or ())
    return Analyzer(
        stopwords=config.stopwords,
        max_token_length=config.max_token_length,
        term_filters=resolve_filters(getattr(config, "term_filters", ())),
        char_filters=resolve_char_filters(
            getattr(config, "char_filters", ())
        ),
        graph_filters=resolve_graph_filters((syn_rules,) if syn_rules else ()),
    )


class EnglishAnalyzer(Analyzer):
    """The reference's ``EnglishAnalyzer`` chain (possessive strip →
    lowercase → stop → Porter stem;
    ``lucene/analysis/common/.../en/EnglishAnalyzer.java:105-114`` —
    possessive stripping commutes with this engine's per-codepoint
    lowercase, so applying it post-stop is behavior-identical)."""

    def __init__(self, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH):
        super().__init__(
            stopwords=ENGLISH_STOP_WORDS,
            max_token_length=max_token_length,
            term_filters=(english_possessive, porter_stem),
        )


class StandardAnalyzer(Analyzer):
    """The canonical chain with the reference's defaults (empty stop set)."""

    def __init__(
        self,
        stopwords: Optional[Iterable[str]] = None,
        max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH,
    ):
        super().__init__(stopwords=stopwords, max_token_length=max_token_length)
