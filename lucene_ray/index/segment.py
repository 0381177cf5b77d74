"""Immutable segment shards: inversion kernel, writer, reader.

A segment is the Ray analogue of a Lucene segment
(``core/index/SegmentInfos.java:54-63``): an immutable directory holding,
for one contiguous docid range,

    meta.json                     — stats, config echo, checksums, metrics
    norms.bin                     — uint8[n_docs] SmallFloat-encoded lengths
                                    (``Similarity.java:129-155``)
    docmap.parquet                — local docid → original document key
    part_{b:04d}.terms.parquet    — sorted term dictionary for hash-bucket b
                                    (term, df, ttf, offsets) — the role of the
                                    block-tree term dict (.tim/.tip),
                                    simplified to binary search over a sorted
                                    Arrow column per SURVEY §2.4
    part_{b:04d}.postings.bin     — concatenated postings blobs (codec:
                                    lucene_ray.codecs.postings)
    part_{b:04d}.positions.bin    — optional FOR-packed positions

Inversion (``invert_texts``) replaces the reference's in-RAM
``TermsHashPerField`` byte-slice hash (``core/index/TermsHashPerField.java:35-77``)
with a vectorized Arrow sort-by-(term,docid,pos) + run-length pass — the
"group by term" map side of SURVEY §2.3, executed per build task.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.analysis.analyzer import Analyzer
from lucene_ray.codecs.postings import (
    PostingsView,
    decode_postings,
    encode_postings_flat,
    split_blobs,
)
from lucene_ray.codecs.forutil import (
    bit_lengths,
    excl_cumsum,
    pack_runs_into,
    pad_blobs,
    pad_pieces,
    put_rows,
    ranges,
    unpack_rows,
    words_of,
)
from lucene_ray.codecs.feature import encode_feature_values
from lucene_ray.codecs.spi import encode_postings_by_format, format_for_name
from lucene_ray.codecs.smallfloat import encode_norms
from lucene_ray.index.config import (
    DEFAULT_FIELD,
    FEATURE_FIELD,
    FIELD_SEP,
    IndexConfig,
    term_key,
)
from lucene_ray.index.deletes import load_deleted
from lucene_ray.index.points import build_point_files
from lucene_ray.index.geo import GeoBlocks, build_geo_files
from lucene_ray.index.ranges import RangeBlocks, build_range_files

META_NAME = "meta.json"


# --------------------------------------------------------------------------
# positions blob: u32 count, then per-256 block: u8 width + packed values
# --------------------------------------------------------------------------
def encode_uint_blocks(vals: np.ndarray) -> bytes:
    """One run's blob (:func:`encode_uint_blocks_flat`)."""
    return encode_uint_blocks_flat(vals, [0, len(vals)])[0].tobytes()


def encode_uint_blocks_batch(values: np.ndarray, starts: np.ndarray) -> List[bytes]:
    """:func:`encode_uint_blocks_flat` split into one blob per run."""
    return split_blobs(*encode_uint_blocks_flat(values, starts))


def encode_uint_blocks_flat(
    values: np.ndarray, starts
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode many uint runs (run i = ``values[starts[i]:starts[i+1]]``)
    into one buffer: per run a u32 count, then per 256-value block a u8
    width (the block max's bit length) and the packed values. An empty
    run keeps one width-0 block (5 bytes). Every block of every run is a
    row: widths from one ``maximum.reduceat``, sizes and offsets by
    arithmetic, one pack per distinct width.

    → ``(buf uint8, lens int64[n_runs])``, runs back to back."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.diff(starts)
    n_runs = len(counts)
    nb = np.maximum(1, (counts + 255) // 256)
    blk_run = np.repeat(np.arange(n_runs), nb)
    run_blk0 = excl_cumsum(nb)
    bsrc = starts[blk_run] + 256 * (np.arange(len(blk_run)) - run_blk0[blk_run])
    blen = np.clip(starts[1:][blk_run] - bsrc, 0, 256)
    widths = np.zeros(len(blk_run), dtype=np.int64)
    ne = np.flatnonzero(blen)
    if len(ne):
        vals = values[: starts[-1]]
        widths[ne] = bit_lengths(np.maximum.reduceat(vals, bsrc[ne]))
    blk_bytes = 1 + (blen * widths + 7) // 8
    lens = 4 + np.add.reduceat(blk_bytes, run_blk0) if n_runs else counts
    run_off = excl_cumsum(lens)
    out = np.zeros(int(lens.sum()), dtype=np.uint8)
    put_rows(out, run_off, counts.astype("<u4"))
    bcs = excl_cumsum(blk_bytes)
    blk_at = run_off[blk_run] + 4 + bcs - bcs[run_blk0[blk_run]]
    out[blk_at] = widths
    pack_runs_into(out, blk_at + 1, values, bsrc, blen, widths)
    return out, lens


def decode_uint_runs(
    buf: np.ndarray, offs, lens=None
) -> Tuple[np.ndarray, np.ndarray]:
    """The uint-run decoder, inverse of :func:`encode_uint_blocks_flat`
    (positions, offsets, payload lengths), of the runs at ``offs`` in
    ``buf`` (``forutil.PAD`` zero bytes past the last). Each 256-value
    block of each run is a row, all unpacked by one
    ``forutil.unpack_rows``. A run has no block directory: block 0's
    width byte follows the u32 count and each later block follows the
    full ones before it (1 + 32·width bytes each), so the blocks of runs
    over 256 values are found by one plain-int walk. A run whose ``lens``
    entry is 0 (a keyword term: no positions) has no values. →
    ``(values uint32, counts int64)``, runs back to back."""
    offs = np.asarray(offs, dtype=np.int64)
    counts = buf[offs[:, None] + np.arange(4)].view("<u4")[:, 0].astype(np.int64)
    if lens is not None:
        counts[np.asarray(lens) == 0] = 0
    heads = offs + 4
    blen = counts
    multi = (counts > 256).nonzero()[0]
    if len(multi):
        n_blocks = (counts + 255) >> 8
        run = np.arange(len(offs)).repeat(n_blocks)
        blk0 = excl_cumsum(n_blocks)
        blen = np.minimum(256, counts[run] - 256 * (np.arange(len(run)) - blk0[run]))
        heads = heads[run]
        raw = memoryview(buf)
        walked = []
        for h, nb in zip(heads[blk0[multi]].tolist(), n_blocks[multi].tolist()):
            for _ in range(nb):
                walked.append(h)
                h += 1 + 32 * raw[h]
        heads[ranges(blk0[multi], n_blocks[multi])] = walked
    out = np.zeros(int(counts.sum()), dtype=np.uint32)
    widths = buf[heads].astype(np.int64)
    unpack_rows(words_of(buf), out, heads + 1, blen, widths, excl_cumsum(blen))
    return out, counts


def decode_uint_blocks(blob) -> np.ndarray:
    """One run's values (:func:`decode_uint_runs`)."""
    return decode_uint_runs(*pad_pieces([np.frombuffer(blob, dtype=np.uint8)]))[0]


def decode_uint_blocks_batch(
    data, offs: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`decode_uint_runs` of the runs ``data[offs[i] :
    offs[i] + lens[i]]`` (an mmapped part file's), padded first."""
    return decode_uint_runs(*pad_blobs(data, offs, lens), lens)


# --------------------------------------------------------------------------
# inversion kernel
# --------------------------------------------------------------------------
@dataclass
class InvertedBatch:
    """Sorted (term, docid, tf[, positions]) arrays for one doc range."""

    terms: pa.Array  # unique terms, sorted ascending (large_string)
    term_starts: np.ndarray  # int64[n_terms+1] offsets into pair arrays
    pair_docids: np.ndarray  # uint32, local docids per (term, doc) pair
    pair_tfs: np.ndarray  # uint32
    positions: Optional[np.ndarray]  # uint32, all positions term-major
    pos_starts: Optional[np.ndarray]  # int64[n_terms+1] offsets into positions
    doc_lengths: np.ndarray  # int64[n_docs]
    # per-position character offsets (the ``.pay`` stream role,
    # ``Lucene104PostingsFormat.java:17-80``): aligned 1:1 with
    # ``positions`` and sharing ``pos_starts``; ``off_lens`` stores
    # end − start (small values pack tighter than absolute ends)
    off_starts: Optional[np.ndarray] = None  # uint32
    off_lens: Optional[np.ndarray] = None  # uint32
    # per-position payload bytes (the remaining ``.pay`` stream role:
    # ``Lucene104PostingsFormat.java:17-80`` payloads,
    # ``core/analysis/tokenattributes/PayloadAttribute.java``): variable
    # byte strings aligned 1:1 with ``positions`` / ``pos_starts`` —
    # ``pay_lens`` per-occurrence byte counts, ``pay_bytes`` the flat
    # concatenation in the same term-major order
    pay_lens: Optional[np.ndarray] = None  # uint32
    pay_bytes: Optional[np.ndarray] = None  # uint8


def invert_texts(
    texts: Sequence[Optional[str]],
    analyzer: Analyzer,
    with_positions: bool,
    with_offsets: bool = False,
) -> InvertedBatch:
    """Tokenize + invert a doc range into sorted per-term postings arrays.

    Implementation: tokens are mapped to integer codes through a per-task
    dict (the ``TermsHashPerField`` role), then all grouping/sorting runs
    on int64 arrays — one ``np.argsort`` over ``code * n_docs + docid``
    replaces an Arrow string sort, cutting allocation/memory-bandwidth
    pressure (the build is bandwidth-bound at high task concurrency).

    ``with_offsets`` captures per-position character offsets (the ``.pay``
    role): the per-doc analyzer path runs instead of the flat vectorized
    one (it is the only path that carries offsets), so offset-bearing
    indexes pay an indexing-speed cost, like the reference's
    ``..._AND_OFFSETS`` index option.
    """
    n_docs = len(texts)
    if with_offsets:
        if not with_positions:
            raise ValueError("offsets require positions")
        terms_l: List[str] = []
        pos_l: List[int] = []
        start_l: List[int] = []
        len_l: List[int] = []
        doc_lengths = np.zeros(n_docs, dtype=np.int64)
        for di, text in enumerate(texts):
            toks = analyzer.analyze(text or "")
            doc_lengths[di] = len(toks)
            for term, s, e, pos in toks:
                terms_l.append(term)
                pos_l.append(pos)
                start_l.append(s)
                len_l.append(e - s)
        return _invert_flat(
            np.asarray(terms_l, dtype=object),
            doc_lengths,
            np.asarray(pos_l, dtype=np.uint32),
            n_docs,
            True,
            flat_offsets=(
                np.asarray(start_l, dtype=np.uint32),
                np.asarray(len_l, dtype=np.uint32),
            ),
        )
    # batched analysis: one regex/lowercase pass over the whole batch
    # (per-doc fallback inside analyze_flat keeps output identical)
    all_terms, doc_lengths, flat_positions = analyzer.analyze_flat(texts)
    return _invert_flat(
        all_terms, doc_lengths, flat_positions, n_docs, with_positions
    )


def invert_token_lists(
    tokens, with_positions: bool, payloads=None
) -> InvertedBatch:
    """Invert CALLER-SUPPLIED token streams — the fork's
    ``TokenStreamColumn`` ingestion path (``core/document/column/
    package-info.java:30-50``: "caller-supplied token streams for
    inversion"; consumed by ``IndexingChain.processBatch``): the input is
    a ``list<string>`` Arrow column of pre-analyzed tokens per document,
    inverted verbatim with dense positions 0..len-1 and no analyzer in
    the loop. Null lists index as empty documents; null tokens are
    rejected. The token flattening is zero-copy Arrow.

    ``payloads``: an optional ``list<binary>`` column aligned 1:1 with
    ``tokens`` — the ``PayloadAttribute`` of a caller-supplied token
    stream (``core/analysis/tokenattributes/PayloadAttribute.java``;
    the columnar analogue of ``DelimitedPayloadTokenFilter`` output).
    Requires ``with_positions``."""
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    if not isinstance(tokens, (pa.ListArray, pa.LargeListArray)):
        tokens = pa.array(
            [list(t) if t is not None else None for t in tokens],
            pa.list_(pa.string()),
        )
    n_docs = len(tokens)
    lengths = tokens.value_lengths().to_numpy(zero_copy_only=False)
    lengths = np.where(np.isnan(lengths), 0, lengths).astype(np.int64) if lengths.dtype.kind == "f" else lengths.astype(np.int64)
    # flatten() drops null lists' slots, matching their length-0 entries
    flat = tokens.flatten()
    if flat.null_count:
        raise ValueError("pre-tokenized input must not contain null tokens")
    flat_payloads = None
    if payloads is not None:
        if not with_positions:
            raise ValueError("payloads require positions")
        if isinstance(payloads, pa.ChunkedArray):
            payloads = payloads.combine_chunks()
        # per-doc alignment, not just total flattened length: doc A with
        # 3 payloads for 2 tokens + doc B with 1 for 2 must be rejected,
        # not silently attach payloads to the wrong tokens
        plens = payloads.value_lengths().to_numpy(zero_copy_only=False)
        plens = (
            np.where(np.isnan(plens), 0, plens).astype(np.int64)
            if plens.dtype.kind == "f"
            else plens.astype(np.int64)
        )
        if len(plens) != n_docs or not np.array_equal(plens, lengths):
            if len(plens) == n_docs:
                bad = int(np.nonzero(plens != lengths)[0][0])
                raise ValueError(
                    f"payload column misaligned at doc {bad}: "
                    f"{int(plens[bad])} payloads for {int(lengths[bad])} "
                    f"tokens"
                )
            raise ValueError(
                f"payload column misaligned: {len(plens)} payload lists "
                f"for {n_docs} docs"
            )
        flat_payloads = payloads.flatten()
        # the term-major byte-stream rebuild assumes int32 offsets;
        # narrow 64-bit-offset types up front (raises past 2 GiB, which
        # a single batch must never reach anyway)
        if pa.types.is_large_binary(flat_payloads.type) or pa.types.is_large_string(
            flat_payloads.type
        ):
            flat_payloads = flat_payloads.cast(pa.binary())
        elif pa.types.is_string(flat_payloads.type):
            flat_payloads = flat_payloads.cast(pa.binary())
    return _invert_flat(
        flat, lengths, None, n_docs, with_positions,
        flat_payloads=flat_payloads,
    )


def _invert_flat(
    all_terms,
    doc_lengths: np.ndarray,
    flat_positions: Optional[np.ndarray],
    n_docs: int,
    with_positions: bool,
    flat_offsets: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    flat_payloads: Optional[pa.Array] = None,
) -> InvertedBatch:
    """Shared inversion core over a flat token stream in document order
    (``all_terms`` flat Arrow array or object ndarray, ``doc_lengths``
    int64[n_docs], ``flat_positions`` aligned uint32 or None = dense)."""
    lengths = doc_lengths

    # token → int code in ONE C pass — replaces the per-token Python dict
    # loop (the TermsHashPerField role) and cuts most of the build task's
    # Python overhead. Arrow token arrays (the batched ASCII hot path)
    # stay Arrow end-to-end: dictionary_encode hashes contiguous UTF-8
    # bytes, and the vocabulary sorts via a C kernel (UTF-8 byte order ==
    # code-point order, so ordering matches the object-array argsort).
    n_terms = 0
    arrow_terms = isinstance(all_terms, (pa.Array, pa.ChunkedArray))
    if len(all_terms):
        if arrow_terms:
            import pyarrow.compute as pc

            if isinstance(all_terms, pa.ChunkedArray):
                all_terms = all_terms.combine_chunks()
            de = all_terms.dictionary_encode()
            codes_first = de.indices.to_numpy(zero_copy_only=False)
            dictionary = de.dictionary
            n_terms = len(dictionary)
        else:
            import pandas as pd

            codes_first, uniques = pd.factorize(
                np.asarray(all_terms, dtype=object), sort=False
            )
            uniques = np.asarray(uniques, dtype=object)
            n_terms = len(uniques)
    if n_terms == 0:
        empty64 = np.zeros(1, dtype=np.int64)
        return InvertedBatch(
            terms=pa.array([], pa.large_string()),
            term_starts=empty64,
            pair_docids=np.empty(0, np.uint32),
            pair_tfs=np.empty(0, np.uint32),
            positions=np.empty(0, np.uint32) if with_positions else None,
            pos_starts=empty64 if with_positions else None,
            doc_lengths=doc_lengths,
            off_starts=np.empty(0, np.uint32) if flat_offsets else None,
            off_lens=np.empty(0, np.uint32) if flat_offsets else None,
            pay_lens=(
                np.empty(0, np.uint32) if flat_payloads is not None else None
            ),
            pay_bytes=(
                np.empty(0, np.uint8) if flat_payloads is not None else None
            ),
        )

    codes = codes_first.astype(np.int64)
    # sorted unique terms + first-appearance-code → sorted-rank mapping
    if arrow_terms:
        import pyarrow.compute as pc

        sorted_idx = pc.array_sort_indices(dictionary).to_numpy().astype(np.int64)
        sorted_terms_arr = dictionary.take(pa.array(sorted_idx)).cast(
            pa.large_string()
        )
        sorted_terms = None
    else:
        sorted_idx = np.argsort(uniques, kind="stable")
        sorted_terms = uniques[sorted_idx].tolist()
        sorted_terms_arr = None
    rank = np.empty(n_terms, dtype=np.int64)
    rank[sorted_idx] = np.arange(n_terms, dtype=np.int64)

    docid_per_tok = np.repeat(
        np.arange(n_docs, dtype=np.int64), lengths
    )
    key = rank[codes] * n_docs + docid_per_tok
    if n_terms * n_docs < (1 << 32):
        # 4-byte radix key when (term, doc) space fits uint32 — halves
        # the stable-sort's memory traffic (the build leg is DRAM-bound
        # at 32-way task concurrency); order is identical
        perm = np.argsort(key.astype(np.uint32), kind="stable")
    else:
        perm = np.argsort(key, kind="stable")  # stable keeps positions in order
    skey = key[perm]

    pair_start_mask = np.empty(len(skey), dtype=bool)
    pair_start_mask[0] = True
    np.not_equal(skey[1:], skey[:-1], out=pair_start_mask[1:])
    pair_starts = np.flatnonzero(pair_start_mask)
    pair_ends = np.append(pair_starts[1:], len(skey))
    pair_tfs = (pair_ends - pair_starts).astype(np.uint32)
    pair_docids = (skey[pair_starts] % n_docs).astype(np.uint32)
    pair_codes = skey[pair_starts] // n_docs

    term_start_mask = np.empty(len(pair_codes), dtype=bool)
    term_start_mask[0] = True
    np.not_equal(pair_codes[1:], pair_codes[:-1], out=term_start_mask[1:])
    term_starts = np.append(np.flatnonzero(term_start_mask), len(pair_codes))

    # sorted_terms may include codes that never appear?? — every vocab
    # entry appears at least once, but a term's rank might be absent only
    # if analyze produced it then doc was empty — impossible; still, keep
    # terms aligned with the distinct ranks actually present:
    present = np.unique(pair_codes)
    if len(present) != n_terms:
        if arrow_terms:
            sorted_terms_arr = sorted_terms_arr.take(pa.array(present))
        else:
            sorted_terms = [sorted_terms[i] for i in present]

    positions = None
    pos_starts = None
    if with_positions:
        if flat_positions is None:
            # dense 0..len-1 per doc, vectorized (empty stop set)
            tok_starts = np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            pos_all = (
                np.arange(len(docid_per_tok), dtype=np.int64) - tok_starts
            ).astype(np.uint32)
        else:
            pos_all = flat_positions
        positions = pos_all[perm]
        tok_term_starts = pair_starts[term_start_mask]
        pos_starts = np.append(tok_term_starts, len(positions)).astype(np.int64)

    off_starts = off_lens = None
    if flat_offsets is not None:
        off_starts = flat_offsets[0][perm]
        off_lens = flat_offsets[1][perm]

    pay_lens = pay_bytes = None
    if flat_payloads is not None:
        # reorder variable-length payload bytes to term-major occurrence
        # order with one Arrow take (C++ var-len gather); the rebuilt
        # array's offsets are contiguous, so its data buffer IS the flat
        # term-major byte stream
        permuted = flat_payloads.take(pa.array(perm))
        if isinstance(permuted, pa.ChunkedArray):
            permuted = permuted.combine_chunks()
        if permuted.null_count:
            raise ValueError("payload column must not contain null entries")
        if not pa.types.is_binary(permuted.type):
            # int32-offset binary is the only layout the parse below
            # understands; anything else (large_binary etc.) must have
            # been narrowed by the caller
            raise TypeError(
                f"flat payloads must be pa.binary(), got {permuted.type}"
            )
        offs = np.frombuffer(permuted.buffers()[1], dtype=np.int32)[
            permuted.offset : permuted.offset + len(permuted) + 1
        ].astype(np.int64)
        data = np.frombuffer(
            permuted.buffers()[2] or b"", dtype=np.uint8
        )
        pay_lens = np.diff(offs).astype(np.uint32)
        pay_bytes = data[offs[0] : offs[-1]].copy()

    return InvertedBatch(
        terms=(
            sorted_terms_arr
            if arrow_terms
            else pa.array(sorted_terms, pa.large_string())
        ),
        term_starts=term_starts.astype(np.int64),
        pair_docids=pair_docids,
        pair_tfs=pair_tfs,
        positions=positions,
        pos_starts=pos_starts,
        doc_lengths=doc_lengths,
        off_starts=off_starts,
        off_lens=off_lens,
        pay_lens=pay_lens,
        pay_bytes=pay_bytes,
    )


def add_keyword_postings(
    inv: InvertedBatch,
    kw_columns: "Dict[str, Sequence]",
    with_positions: bool,
    feat_columns: "Optional[Dict[str, Sequence]]" = None,
) -> Tuple[InvertedBatch, Dict[str, dict]]:
    """Merge untokenized keyword-field postings (``StringField`` semantics:
    DOCS-only, tf=1, no positions, norms omitted —
    ``core/document/StringField.java:27-42``) into a text-field
    ``InvertedBatch``. Keyword terms enter the shared term dictionary
    under ``field + U+001F + value`` keys (see ``config.term_key``), so
    merge/search machinery needs no per-field special cases.

    ``feat_columns`` adds FeatureField postings (fork
    ``DOCS_AND_CUSTOM_FREQS``, ``core/index/IndexOptions.java:51-56``):
    per numeric column one term ``features␟<col>`` whose custom freq is
    the FeatureField float encoding (``FeatureField.java:185-188``) —
    opaque scores in the freq slot, one occurrence per doc, no
    positions, no norms. Impacts computed over these freqs at write
    time make feature clauses WAND-prunable.

    Returns the combined batch plus per-field stats
    ``{field: {doc_count, sum_ttf, sum_df}}`` (the ``FieldInfos`` /
    per-field ``Terms`` stats role)."""
    if not kw_columns and not feat_columns:
        return inv, {}
    extra: List[Tuple[str, np.ndarray, Optional[np.ndarray]]] = []
    kw_stats: Dict[str, dict] = {}
    for fieldname in sorted(kw_columns or {}):
        vals = kw_columns[fieldname]
        # DictionaryColumn role (``core/document/column/
        # DictionaryColumn.java``: pre-built term dictionary + per-doc
        # ordinals): ONE Arrow dictionary_encode yields the distinct-value
        # dictionary and ordinal codes — grouping/sorting then runs on
        # int arrays, no per-row Python. String Arrow columns take this
        # path zero-copy; anything else stringifies per value first
        # (matching the historical ``str(v)`` semantics).
        import pyarrow.compute as pc

        if isinstance(vals, (pa.Array, pa.ChunkedArray)) and (
            pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type)
        ):
            arr = (
                vals.combine_chunks()
                if isinstance(vals, pa.ChunkedArray)
                else vals
            )
        else:
            seq = (
                vals.to_pylist()
                if isinstance(vals, (pa.Array, pa.ChunkedArray))
                else vals
            )
            arr = pa.array([None if v is None else str(v) for v in seq])
        de = arr.dictionary_encode()
        codes = de.indices.to_numpy(zero_copy_only=False)
        valid = (
            ~np.isnan(codes) if codes.dtype.kind == "f" else np.ones(len(codes), bool)
        )
        n_with = int(valid.sum())
        # doc_count / sum_ttf are additive across segments (merge-safe);
        # these feed the field's BM25 idf denominator and avgdl
        kw_stats[fieldname] = {"doc_count": n_with, "sum_ttf": n_with}
        if n_with == 0:
            continue
        dictionary = de.dictionary
        if pc.any(pc.match_substring(dictionary, FIELD_SEP)).as_py():
            raise ValueError(
                f"keyword value for field {fieldname!r} contains U+001F"
            )
        sorted_idx = pc.array_sort_indices(dictionary).to_numpy().astype(np.int64)
        rank = np.empty(len(dictionary), dtype=np.int64)
        rank[sorted_idx] = np.arange(len(dictionary), dtype=np.int64)
        docs = np.flatnonzero(valid).astype(np.uint32)
        r = rank[codes[valid].astype(np.int64)]
        order = np.argsort(r, kind="stable")  # docids ascending per value
        rs = r[order]
        starts = np.flatnonzero(np.r_[True, rs[1:] != rs[:-1]])
        bounds = np.append(starts, len(rs))
        sorted_vals = dictionary.take(pa.array(sorted_idx))
        for j, st in enumerate(starts):
            v = sorted_vals[int(rs[st])].as_py()
            extra.append(
                (term_key(fieldname, v), docs[order[st : bounds[j + 1]]], None)
            )
    if feat_columns:
        fttf = 0
        id_parts_f: List[np.ndarray] = []
        for colname in sorted(feat_columns):
            vals = feat_columns[colname]
            # LongColumn-style numeric ingestion: nulls → NaN in one
            # Arrow→numpy conversion, no per-row Python
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            if isinstance(vals, pa.Array):
                fv = vals.to_numpy(zero_copy_only=False).astype(np.float64)
            else:
                fv = np.array(
                    [np.nan if v is None else float(v) for v in vals],
                    dtype=np.float64,
                )
            mask = ~np.isnan(fv)
            ids = np.flatnonzero(mask).astype(np.uint32)
            if len(ids) == 0:
                continue
            tfs = encode_feature_values(fv[mask].astype(np.float32))
            extra.append((term_key(FEATURE_FIELD, colname), ids, tfs))
            id_parts_f.append(ids)
            fttf += int(tfs.sum())
        fdocs = (
            int(len(np.unique(np.concatenate(id_parts_f))))
            if id_parts_f
            else 0
        )
        kw_stats[FEATURE_FIELD] = {"doc_count": fdocs, "sum_ttf": fttf}
        extra.sort(key=lambda e: e[0])
    if not extra:
        return inv, kw_stats

    text_terms = inv.terms.to_pylist()
    n1, n2 = len(text_terms), len(extra)
    out_terms: List[str] = []
    id_parts: List[np.ndarray] = []
    tf_parts: List[np.ndarray] = []
    pos_parts: List[np.ndarray] = []
    term_starts = [0]
    pos_starts = [0]
    npairs = 0
    npos = 0
    i = j = 0
    while i < n1 or j < n2:
        take_text = j >= n2 or (i < n1 and text_terms[i] < extra[j][0])
        if take_text:
            s, e = int(inv.term_starts[i]), int(inv.term_starts[i + 1])
            out_terms.append(text_terms[i])
            id_parts.append(inv.pair_docids[s:e])
            tf_parts.append(inv.pair_tfs[s:e])
            npairs += e - s
            if with_positions:
                ps, pe = int(inv.pos_starts[i]), int(inv.pos_starts[i + 1])
                pos_parts.append(inv.positions[ps:pe])
                npos += pe - ps
            i += 1
        else:
            key, ids, tfs = extra[j]
            out_terms.append(key)
            id_parts.append(ids)
            # keyword fields post tf=1; feature fields post the encoded
            # custom freq (DOCS_AND_CUSTOM_FREQS)
            tf_parts.append(
                tfs if tfs is not None else np.ones(len(ids), dtype=np.uint32)
            )
            npairs += len(ids)
            # no positions for keyword/feature fields: zero-length run
            j += 1
        term_starts.append(npairs)
        pos_starts.append(npos)

    merged = InvertedBatch(
        terms=pa.array(out_terms, pa.large_string()),
        term_starts=np.array(term_starts, dtype=np.int64),
        pair_docids=np.concatenate(id_parts) if id_parts else np.empty(0, np.uint32),
        pair_tfs=np.concatenate(tf_parts) if tf_parts else np.empty(0, np.uint32),
        positions=(
            (np.concatenate(pos_parts) if pos_parts else np.empty(0, np.uint32))
            if with_positions
            else None
        ),
        pos_starts=(
            np.array(pos_starts, dtype=np.int64) if with_positions else None
        ),
        doc_lengths=inv.doc_lengths,
    )
    return merged, kw_stats


def add_extra_text_postings(
    inv: InvertedBatch,
    field_invs: "Dict[str, InvertedBatch]",
    with_positions: bool,
) -> Tuple[InvertedBatch, Dict[str, dict], Dict[str, np.ndarray]]:
    """Merge ADDITIONAL tokenized fields' inverted batches into the main
    one — the multi-field ``IndexingChain`` role (one ``FieldInvertState``
    per field, ``core/index/IndexingChain.java``). Terms from field *f*
    enter the shared dictionary under ``f + U+001F + term`` keys with
    full freqs/positions; each field keeps its own doc-length norms.

    Returns ``(merged_batch, {field: {doc_count, sum_ttf}}, {field:
    uint8 norms})``. The merge is one argsort over the combined term-key
    array + vectorized range gathers (no per-term Python loop).
    """
    _enc = encode_norms
    field_stats: Dict[str, dict] = {}
    field_norms: Dict[str, np.ndarray] = {}
    sources: List[Tuple[np.ndarray, InvertedBatch]] = []
    # main field first (bare keys)
    keys_parts: List[np.ndarray] = [np.asarray(inv.terms.to_pylist(), dtype=object)]
    sources.append(inv)
    for fieldname in sorted(field_invs):
        fb = field_invs[fieldname]
        field_stats[fieldname] = {
            "doc_count": int((fb.doc_lengths > 0).sum()),
            "sum_ttf": int(fb.doc_lengths.sum()),
        }
        field_norms[fieldname] = _enc(fb.doc_lengths)
        keys_parts.append(
            np.asarray(
                [term_key(fieldname, t) for t in fb.terms.to_pylist()],
                dtype=object,
            )
            if len(fb.terms)
            else np.empty(0, dtype=object)
        )
        sources.append(fb)
    if not field_invs:
        return inv, field_stats, field_norms

    all_keys = np.concatenate(keys_parts)
    if len(all_keys) == 0:
        return inv, field_stats, field_norms
    # per-term (df, pair-start) across concatenated sources
    dfs_parts, starts_parts, pos_lens_parts, pos_starts_parts = [], [], [], []
    pair_arrs_id, pair_arrs_tf, pos_arrs = [], [], []
    pair_base = 0
    pos_base = 0
    for src in sources:
        ts = src.term_starts
        dfs_parts.append((ts[1:] - ts[:-1]).astype(np.int64))
        starts_parts.append(ts[:-1].astype(np.int64) + pair_base)
        pair_arrs_id.append(src.pair_docids)
        pair_arrs_tf.append(src.pair_tfs)
        pair_base += len(src.pair_docids)
        if with_positions:
            ps = (
                src.pos_starts
                if src.pos_starts is not None
                else np.zeros(len(ts), dtype=np.int64)
            )
            pos_lens_parts.append((ps[1:] - ps[:-1]).astype(np.int64))
            pos_starts_parts.append(ps[:-1].astype(np.int64) + pos_base)
            parr = (
                src.positions
                if src.positions is not None
                else np.empty(0, np.uint32)
            )
            pos_arrs.append(parr)
            pos_base += len(parr)
    dfs = np.concatenate(dfs_parts)
    starts = np.concatenate(starts_parts)
    big_ids = np.concatenate(pair_arrs_id)
    big_tfs = np.concatenate(pair_arrs_tf)
    order = np.argsort(all_keys, kind="stable")  # keys unique across fields

    def _range_gather(starts_o, lens_o, total):
        # flat indices covering [s, s+len) for each ordered term
        if total == 0:
            return np.empty(0, np.int64)
        rep_starts = np.repeat(starts_o, lens_o)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens_o) - lens_o, lens_o
        )
        return rep_starts + offs

    lens_o = dfs[order]
    gi = _range_gather(starts[order], lens_o, int(lens_o.sum()))
    new_term_starts = np.concatenate(
        [[0], np.cumsum(lens_o)]
    ).astype(np.int64)
    positions = None
    new_pos_starts = None
    if with_positions:
        plens = np.concatenate(pos_lens_parts)
        pstarts = np.concatenate(pos_starts_parts)
        plens_o = plens[order]
        big_pos = np.concatenate(pos_arrs) if pos_arrs else np.empty(0, np.uint32)
        pg = _range_gather(pstarts[order], plens_o, int(plens_o.sum()))
        positions = big_pos[pg]
        new_pos_starts = np.concatenate([[0], np.cumsum(plens_o)]).astype(np.int64)
    merged = InvertedBatch(
        terms=pa.array(all_keys[order].tolist(), pa.large_string()),
        term_starts=new_term_starts,
        pair_docids=big_ids[gi],
        pair_tfs=big_tfs[gi],
        positions=positions,
        pos_starts=new_pos_starts,
        doc_lengths=inv.doc_lengths,
    )
    return merged, field_stats, field_norms


# --------------------------------------------------------------------------
# segment writer
# --------------------------------------------------------------------------
def normalize_sorted_set_dv(dv_table: pa.Table) -> pa.Table:
    """Per-doc dedup + sort for every list-typed DV column — the
    ``SortedSetDocValuesWriter`` role (``core/index/
    SortedSetDocValuesWriter.java``: each document's values become a
    sorted set of ords), applied once at segment-write time so facet
    counting (``SortedSetDocValuesFacetCounts`` role) counts a doc once
    per distinct value. Vectorized: one flatten + one two-key sort +
    one adjacent-dedup mask per column, no per-row Python. Null lists
    normalize to empty sets (Lucene: a doc without the field has no
    ords; DuckDB ``unnest`` of NULL and [] both produce no rows)."""
    import pyarrow.compute as pc

    out = dv_table
    for i, name in enumerate(dv_table.column_names):
        col = dv_table.column(name)
        if not (
            pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
        ):
            continue
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        n_docs = len(arr)
        parent = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
        flat = arr.flatten()
        if len(flat) == 0:
            new = pa.ListArray.from_arrays(
                pa.array(np.zeros(n_docs + 1, np.int32)), flat
            )
            out = out.set_column(i, name, new)
            continue
        order = pc.sort_indices(
            pa.table({"p": pa.array(parent.astype(np.int64)), "v": flat}),
            sort_keys=[("p", "ascending"), ("v", "ascending")],
        )
        o = order.to_numpy(zero_copy_only=False).astype(np.int64)
        p_s = parent[o]
        v_s = flat.take(pa.array(o))
        eq_prev = pc.fill_null(
            pc.equal(v_s.slice(1), v_s.slice(0, len(v_s) - 1)), False
        ).to_numpy(zero_copy_only=False)
        keep = np.ones(len(v_s), dtype=bool)
        keep[1:] = (p_s[1:] != p_s[:-1]) | ~eq_prev
        counts = np.bincount(p_s[keep].astype(np.int64), minlength=n_docs)
        offsets = np.zeros(n_docs + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        new = pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32)),
            v_s.filter(pa.array(keep)),
        )
        out = out.set_column(i, name, new)
    return out


def sorted_run_heads(keys: pa.Array) -> np.ndarray:
    """Row of each run's first entry in the sorted Arrow array ``keys``
    (its distinct values are ``keys.take(heads)``)."""
    import pyarrow.compute as pc

    head = np.ones(len(keys), dtype=bool)
    if len(keys) > 1:
        head[1:] = pc.not_equal(
            keys.slice(1), keys.slice(0, len(keys) - 1)
        ).to_numpy(zero_copy_only=False)
    return np.flatnonzero(head)


def write_term_parts(
    put,
    out_dir: str,
    parts: Sequence[int],
    term_part: Optional[np.ndarray],
    terms: pa.Array,
    term_starts: np.ndarray,
    docids: np.ndarray,
    tfs: np.ndarray,
    pair_norms: np.ndarray,
    fmt_names: Optional[List[str]] = None,
    with_positions: bool = False,
    pos_starts: Optional[np.ndarray] = None,
    positions: Optional[np.ndarray] = None,
    off_starts: Optional[np.ndarray] = None,
    off_lens: Optional[np.ndarray] = None,
    pay_lens: Optional[np.ndarray] = None,
    pay_bytes: Optional[np.ndarray] = None,
) -> dict:
    """Encode and write the term-dictionary parts of a segment: the one
    part writer of ``write_segment`` (every bucket), ``merge_bucket``
    (one bucket) and the shuffle build's stage C (one bucket).

    Inputs are term-major over sorted unique ``terms``: pairs
    ``docids``/``tfs`` framed by ``term_starts``, with ``pair_norms``
    the norm byte of each pair's doc (the impact frontiers read it);
    optional position streams framed by ``pos_starts`` — ``positions``,
    character offsets (``off_starts``/``off_lens``) and payloads
    (``pay_lens`` per occurrence plus the flat ``pay_bytes``). Every
    stream is encoded once for all terms by the array kernels
    (``encode_postings_flat``, ``encode_uint_blocks_flat``);
    ``fmt_names`` (per-field formats) routes postings through the SPI
    encoders instead. Each part ``b`` in ``parts`` takes the terms with
    ``term_part == b`` (all terms when ``term_part`` is None) and gets
    its files through ``put(name, buffer)`` — ``part_b.postings.bin``,
    ``.positions.bin`` when ``with_positions``, ``.offsets.bin`` (per
    term: starts blob, lengths blob), ``.payloads.bin`` (per term:
    lengths blob, raw bytes) — plus ``part_b.terms.parquet`` in
    ``out_dir``, built from arrays.

    → ``{"sum_df", "n_terms", "postings_bytes"}`` over the parts
    (``sum_df`` counts default-field terms only)."""
    import pyarrow.compute as pc

    terms = terms.cast(pa.large_string())  # the terms parquet's type
    term_starts = np.asarray(term_starts, dtype=np.int64)
    n_terms = len(terms)
    df = np.diff(term_starts)
    ttf = (
        np.add.reduceat(np.asarray(tfs[: term_starts[-1]], np.int64), term_starts[:-1])
        if n_terms
        else df
    )
    text = ~pc.match_substring(terms, FIELD_SEP).to_numpy(zero_copy_only=False)

    def runs(buf_lens):  # encoded stream → (buf, per-term offsets, lengths)
        buf, lens = buf_lens
        return buf, excl_cumsum(lens), lens

    empty = (np.empty(0, np.uint8), np.zeros(n_terms, np.int64))
    if n_terms == 0:
        post = empty
    elif fmt_names is None:
        post = encode_postings_flat(docids, tfs, term_starts, pair_norms)
    else:
        blobs = encode_postings_by_format(
            fmt_names, docids, tfs, pair_norms, term_starts
        )
        post = (
            np.frombuffer(b"".join(blobs), np.uint8),
            np.fromiter(map(len, blobs), np.int64, n_terms),
        )
    # stream → its runs (a term's runs sit back to back in the part file)
    streams = {"postings": [runs(post)]}
    if with_positions:
        streams["positions"] = [
            runs(
                encode_uint_blocks_flat(positions, pos_starts)
                if positions is not None and n_terms
                else empty
            )
        ]
    if off_starts is not None:
        streams["offsets"] = [
            runs(encode_uint_blocks_flat(off_starts, pos_starts)),
            runs(encode_uint_blocks_flat(off_lens, pos_starts)),
        ]
    if pay_lens is not None:
        bounds = np.zeros(len(pay_lens) + 1, np.int64)
        np.cumsum(pay_lens, out=bounds[1:])
        raw = bounds[pos_starts]
        streams["payloads"] = [
            runs(encode_uint_blocks_flat(pay_lens, pos_starts)),
            (pay_bytes, raw[:-1], np.diff(raw)),
        ]
    out = {"sum_df": 0, "n_terms": 0, "postings_bytes": 0}
    for b in parts:
        if term_part is None:
            sel = np.arange(n_terms)
            tcols = {"term": terms}
        else:
            sel = np.flatnonzero(term_part == b)
            tcols = {"term": terms.take(pa.array(sel))}
        tcols["df"], tcols["ttf"] = df[sel], ttf[sel]
        tcols["pos_off"] = tcols["pos_len"] = np.zeros(len(sel), np.int64)
        for name, stream in streams.items():
            lens = [r[2][sel] for r in stream]
            at = excl_cumsum(sum(lens))
            off_col, *len_cols = _PART_COLUMNS[name]
            tcols[off_col] = at
            tcols.update(zip(len_cols, lens))
            if len(stream) == 1 and term_part is None:
                data = stream[0][0]
            else:
                data = np.empty(int(sum(ln.sum() for ln in lens)), np.uint8)
                for (buf, offs, _), ln in zip(stream, lens):
                    data[ranges(at, ln)] = buf[ranges(offs[sel], ln)]
                    at = at + ln
            put(f"part_{b:04d}.{name}.bin", data)
        pq.write_table(
            pa.table({c: tcols[c] for c in _TERMS_COLUMNS if c in tcols}),
            os.path.join(out_dir, f"part_{b:04d}.terms.parquet"),
        )
        out["sum_df"] += int(df[sel][text[sel]].sum())
        out["n_terms"] += len(sel)
        out["postings_bytes"] += int(tcols["post_len"].sum())
    return out


# part-file stream → its terms-parquet columns: the term's offset in the
# file, then the length of each of its runs
_PART_COLUMNS = {
    "postings": ("post_off", "post_len"),
    "positions": ("pos_off", "pos_len"),
    "offsets": ("off_off", "off_slen", "off_llen"),
    "payloads": ("pay_off", "pay_llen", "pay_blen"),
}
_TERMS_COLUMNS = ("term", "df", "ttf") + sum(_PART_COLUMNS.values(), ())


def write_segment(
    seg_dir: str,
    seg_id: int,
    base_docid: int,
    keys: pa.Array,
    inv: InvertedBatch,
    config: IndexConfig,
    tmp_root: Optional[str] = None,
    extra_meta: Optional[dict] = None,
    dv_table: Optional[pa.Table] = None,
    kw_stats: Optional[dict] = None,
    field_norms: Optional[Dict[str, np.ndarray]] = None,
    extra_files: Optional[Dict[str, bytes]] = None,
) -> dict:
    """Write one segment atomically (tmp dir + rename). Returns meta dict.

    Mirrors the write-once + two-phase-commit discipline of the reference
    (``IndexWriter.java:3714,4158``): data files first, ``meta.json`` last,
    whole directory renamed into place. The term-dictionary parts are
    written by ``write_term_parts``, the part writer merges use too.
    """
    t0 = time.time()
    n_docs = len(inv.doc_lengths)
    norms = encode_norms(inv.doc_lengths)
    tmp_root = tmp_root or os.path.join(os.path.dirname(seg_dir), ".tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp_dir = os.path.join(tmp_root, f"seg_{seg_id:06d}.{os.getpid()}.{int(t0*1e6)}")
    os.makedirs(tmp_dir)
    checksums: Dict[str, int] = {}

    def put(name: str, data) -> None:
        with open(os.path.join(tmp_dir, name), "wb") as f:
            f.write(data)
        checksums[name] = zlib.crc32(data)

    put("norms.bin", norms.tobytes())
    for fname in sorted(field_norms or {}):
        # per-field norms for extra tokenized fields (PerField norms role)
        put(f"norms_{fname}.bin", field_norms[fname].tobytes())
    for fname in sorted(extra_files or {}):
        # caller-supplied segment sidecars (per-segment vector graph,
        # codec extensions) — checksummed like every other data file
        put(fname, extra_files[fname])
    pq.write_table(pa.table({"key": keys}), os.path.join(tmp_dir, "docmap.parquet"))
    if dv_table is not None and dv_table.num_columns:
        # doc-values column store, row-aligned with local docids;
        # list-typed columns get the SortedSetDocValuesWriter discipline
        # (per-doc dedup + sort) at ingest
        dv_table = normalize_sorted_set_dv(dv_table)
        pq.write_table(dv_table, os.path.join(tmp_dir, "dv.parquet"))
    points_meta: Dict[str, dict] = {}
    if config.point_cols and dv_table is not None:
        # 1-D point index sidecars (LongPoint/BKD role, index/points.py)
        for f_, (vb, db, info) in build_point_files(
            dv_table, config.point_cols
        ).items():
            put(f"points_{f_}.vals.bin", vb)
            put(f"points_{f_}.docs.bin", db)
            points_meta[f_] = info
    geo_meta: Dict[str, dict] = {}
    if getattr(config, "geo_cols", ()) and dv_table is not None:
        # 2-D geo-point sidecars (LatLonPoint/BKD role, index/geo.py)
        for f_, (files, info) in build_geo_files(
            dv_table, config.geo_cols
        ).items():
            for suffix, blob in files.items():
                put(f"geo_{f_}.{suffix}.bin", blob)
            geo_meta[f_] = info
    ranges_meta: Dict[str, dict] = {}
    if getattr(config, "range_cols", ()) and dv_table is not None:
        # interval-field sidecars (IntRange role, index/ranges.py)
        for f_, (files, info) in build_range_files(
            dv_table, config.range_cols
        ).items():
            for suffix, blob in files.items():
                put(f"ranges_{f_}.{suffix}.bin", blob)
            ranges_meta[f_] = info

    n_terms = len(inv.terms)
    term_strs = inv.terms.to_pylist()
    fmt_map = config.format_names_map()
    if config.store_term_vectors:
        # term-vector row store (``Lucene90TermVectorsFormat`` role):
        # transpose the already-inverted (term → docid, tf) pairs into a
        # (docid, term, freq) table sorted by (docid, term) — no
        # re-analysis, one lexsort. Default-field terms only (field-
        # prefixed keyword/feature keys carry no per-doc vectors).
        n_per_term = np.diff(inv.term_starts)
        term_idx = np.repeat(np.arange(n_terms), n_per_term)
        is_text = np.array(
            [FIELD_SEP not in t for t in term_strs], dtype=bool
        )
        keep_tv = (
            is_text[term_idx]
            if n_terms
            else np.zeros(0, dtype=bool)
        )
        tvd = inv.pair_docids[keep_tv].astype(np.int64)
        tvf = inv.pair_tfs[keep_tv].astype(np.int32)
        tvt = term_idx[keep_tv]
        tvo = np.lexsort((tvt, tvd))
        term_arr = np.array(term_strs, dtype=object)
        pq.write_table(
            pa.table(
                {
                    "docid": pa.array(tvd[tvo]),
                    "term": pa.array(
                        term_arr[tvt[tvo]].tolist(), pa.string()
                    ),
                    "freq": pa.array(tvf[tvo]),
                }
            ),
            os.path.join(tmp_dir, "tv.parquet"),
        )

    with_offsets = bool(
        getattr(config, "offsets", False)
        and inv.off_starts is not None
        and n_terms
    )
    with_payloads = bool(
        getattr(config, "payloads", False)
        and inv.pay_lens is not None
        and n_terms
    )
    parts = write_term_parts(
        put,
        tmp_dir,
        range(config.num_buckets),
        np.fromiter(map(config.term_bucket, term_strs), np.int64, n_terms),
        inv.terms,
        inv.term_starts,
        inv.pair_docids,
        inv.pair_tfs,
        norms[inv.pair_docids],
        # PerFieldPostingsFormat write path: each term's blob uses its
        # FIELD's registered format (``PerFieldPostingsFormat.java:64-69``)
        fmt_names=None if fmt_map is None else [
            config.format_name_for_field(
                t.split(FIELD_SEP, 1)[0] if FIELD_SEP in t else DEFAULT_FIELD
            )
            for t in term_strs
        ],
        with_positions=config.positions,
        pos_starts=inv.pos_starts,
        positions=inv.positions,
        off_starts=inv.off_starts if with_offsets else None,
        off_lens=inv.off_lens if with_offsets else None,
        pay_lens=inv.pay_lens if with_payloads else None,
        pay_bytes=inv.pay_bytes if with_payloads else None,
    )
    sum_df = parts["sum_df"]
    postings_bytes = parts["postings_bytes"]

    build_s = time.time() - t0
    seg_bytes = sum(
        os.path.getsize(os.path.join(tmp_dir, f)) for f in os.listdir(tmp_dir)
    )
    meta = {
        "seg_id": seg_id,
        "bytes": seg_bytes,
        "base_docid": base_docid,
        "n_docs": n_docs,
        "doc_count": int((inv.doc_lengths > 0).sum()),
        "sum_ttf": int(inv.doc_lengths.sum()),
        "sum_df": sum_df,
        "n_terms": n_terms,
        "n_parts": config.num_buckets,
        "positions": config.positions,
        "offsets": with_offsets,
        "payloads": with_payloads,
        "postings_formats": fmt_map,  # None == all-ray104 (back-compat)
        "key_type": str(keys.type),
        "index_sort": list(config.index_sort) if config.index_sort else None,
        "kw_stats": kw_stats or {},
        "text_fields": sorted(field_norms or {}),
        "dv_cols": list(dv_table.column_names) if dv_table is not None else [],
        "term_vectors": bool(config.store_term_vectors),
        "points": points_meta,
        "geo": geo_meta,
        "ranges": ranges_meta,
        "checksums": checksums,
        "metrics": {
            "build_s": round(build_s, 4),
            "docs_per_s": round(n_docs / build_s, 2) if build_s > 0 else None,
            "postings_bytes": postings_bytes,
        },
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(os.path.join(tmp_dir, META_NAME), "w") as f:
        json.dump(meta, f)
    if os.path.exists(seg_dir):  # resume race: another task finished first
        import shutil

        shutil.rmtree(tmp_dir)
    else:
        os.replace(tmp_dir, seg_dir)
    return meta


# --------------------------------------------------------------------------
# segment reader
# --------------------------------------------------------------------------
@dataclass
class TermInfo:
    df: int
    ttf: int
    post_off: int
    post_len: int
    pos_off: int
    pos_len: int
    part: int
    # offsets stream (.pay role): [off_off, off_off+off_slen) = starts
    # blob, then off_llen bytes of (end − start) lengths blob
    off_off: int = 0
    off_slen: int = 0
    off_llen: int = 0
    # payload stream (.pay role, payload bytes): [pay_off,
    # pay_off+pay_llen) = per-occurrence byte-length blob (FOR-packed,
    # positions framing), then pay_blen raw payload bytes
    pay_off: int = 0
    pay_llen: int = 0
    pay_blen: int = 0
    # postings-format NAME for this term's field, resolved from segment
    # meta (``PerFieldPostingsFormat`` read path — the recorded name
    # picks the decoder, ``PerFieldPostingsFormat.java:64-69``)
    fmt: str = "ray104"


class SegmentReader:
    """Query-side view of one segment: term dict binary search + mmapped
    postings — the role of ``SegmentReader``/``MMapDirectory``
    (``core/index/SegmentReader.java``, ``core/store/MMapDirectory.java:61-151``).
    Construct once per searcher actor; cheap lookups thereafter."""

    def __init__(self, seg_dir: str):
        self.seg_dir = seg_dir
        with open(os.path.join(seg_dir, META_NAME)) as f:
            self.meta = json.load(f)
        self.base_docid = int(self.meta["base_docid"])
        self.n_docs = int(self.meta["n_docs"])
        self.norms = np.fromfile(os.path.join(seg_dir, "norms.bin"), dtype=np.uint8)
        self._field_norms: Dict[str, np.ndarray] = {}
        self.n_parts = int(self.meta["n_parts"])
        # term tables load LAZILY per bucket (first touch): a consumer
        # that needs one bucket — a merge_bucket task, a stats probe, the
        # finalize step — pays for one parquet read, not n_parts. Query
        # actors touch every bucket within the first few lookups, so the
        # steady state is unchanged.
        self._terms: List[Optional[dict]] = [None] * self.n_parts
        self._post_mm: List[np.ndarray] = []
        self._pos_mm: List[Optional[np.ndarray]] = []
        self._off_mm: List[Optional[np.ndarray]] = []
        self._pay_mm: List[Optional[np.ndarray]] = []
        for b in range(self.n_parts):
            pbin = os.path.join(seg_dir, f"part_{b:04d}.postings.bin")
            self._post_mm.append(
                np.memmap(pbin, dtype=np.uint8, mode="r")
                if os.path.getsize(pbin)
                else np.empty(0, np.uint8)
            )
            posf = os.path.join(seg_dir, f"part_{b:04d}.positions.bin")
            if self.meta["positions"] and os.path.exists(posf) and os.path.getsize(posf):
                self._pos_mm.append(np.memmap(posf, dtype=np.uint8, mode="r"))
            else:
                self._pos_mm.append(None)
            offf = os.path.join(seg_dir, f"part_{b:04d}.offsets.bin")
            if (
                self.meta.get("offsets")
                and os.path.exists(offf)
                and os.path.getsize(offf)
            ):
                self._off_mm.append(np.memmap(offf, dtype=np.uint8, mode="r"))
            else:
                self._off_mm.append(None)
            payf = os.path.join(seg_dir, f"part_{b:04d}.payloads.bin")
            if (
                self.meta.get("payloads")
                and os.path.exists(payf)
                and os.path.getsize(payf)
            ):
                self._pay_mm.append(np.memmap(payf, dtype=np.uint8, mode="r"))
            else:
                self._pay_mm.append(None)
        # live docs: highest-generation tombstone bitmap (None = all live)
        self.deleted: Optional[np.ndarray] = load_deleted(seg_dir, self.n_docs)
        # per-field postings-format names from segment meta
        # (PerFieldPostingsFormat read path); None == all ray104
        self._formats: Optional[dict] = self.meta.get("postings_formats")
        self._docmap: Optional[pa.Array] = None
        self._dv_cache: Dict[str, pa.Array] = {}
        self._points_cache: Dict[str, tuple] = {}
        self._geo_cache: Dict[str, GeoBlocks] = {}
        self._ranges_cache: Dict[str, RangeBlocks] = {}
        self._bucket_cfg_n = self.n_parts

    # -- term dict ---------------------------------------------------------

    def bucket_of(self, term: str) -> int:
        """Term→bucket routing: range partition when the segment records
        ``bucket_splits`` (global term order across buckets — prefix
        scans touch ≤ the overlapping buckets), else crc32 hash."""
        if self._bucket_cfg_n <= 1:
            return 0
        splits = self.meta.get("bucket_splits")
        if splits:
            import bisect

            return min(bisect.bisect_right(splits, term), self._bucket_cfg_n - 1)
        return zlib.crc32(term.encode("utf-8")) % self._bucket_cfg_n

    def lookup(self, term: str) -> Optional[TermInfo]:
        """``TermsEnum.seekExact`` equivalent (``core/index/TermsEnum.java:39``):
        binary search in the term's bucket, over the term column's Arrow
        offsets and UTF-8 bytes (bytewise order is code-point order)."""
        b = self.bucket_of(term)
        t = self._part(b)
        offs, data = t["term_offs"], t["term_bytes"]
        key = term.encode("utf-8")
        lo, hi = 0, len(offs) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if data[offs[mid] : offs[mid + 1]] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(offs) - 1 and data[offs[lo] : offs[lo + 1]] == key:
            return self.term_info_at(b, lo, term)
        return None

    def fmt_for_key(self, term_key: str) -> str:
        """Term-dict key → its field's postings-format name (from
        segment meta; absent == all-ray104 segment)."""
        if not self._formats:
            return "ray104"
        field = (
            term_key.split(FIELD_SEP, 1)[0]
            if FIELD_SEP in term_key
            else DEFAULT_FIELD
        )
        return self._formats.get(field, self._formats["__default__"])

    def term_info_at(self, b: int, i: int, term: Optional[str] = None) -> TermInfo:
        t = self._part(b)
        if self._formats and term is None:
            term = self.terms_list(b)[i]
        return TermInfo(
            df=int(t["df"][i]),
            ttf=int(t["ttf"][i]),
            post_off=int(t["post_off"][i]),
            post_len=int(t["post_len"][i]),
            pos_off=int(t["pos_off"][i]),
            pos_len=int(t["pos_len"][i]),
            part=b,
            fmt=self.fmt_for_key(term) if self._formats else "ray104",
            off_off=int(t["off_off"][i]) if "off_off" in t else 0,
            off_slen=int(t["off_slen"][i]) if "off_off" in t else 0,
            off_llen=int(t["off_llen"][i]) if "off_off" in t else 0,
            pay_off=int(t["pay_off"][i]) if "pay_off" in t else 0,
            pay_llen=int(t["pay_llen"][i]) if "pay_off" in t else 0,
            pay_blen=int(t["pay_blen"][i]) if "pay_off" in t else 0,
        )

    def _buckets_for_prefix(self, key_prefix: str):
        """Buckets a key-prefix range can touch: with range-partitioned
        buckets (``meta.bucket_splits``) only the overlapping buckets;
        with hash buckets, all of them (each is sorted, so per-bucket
        scans stay cheap)."""
        import bisect

        splits = self.meta.get("bucket_splits")
        if not splits or not key_prefix:
            return range(self.n_parts)
        lo = bisect.bisect_right(splits, key_prefix)
        hi = bisect.bisect_right(splits, key_prefix + "\U0010ffff")
        return range(lo, min(hi, self.n_parts - 1) + 1)

    def expand_terms_range(
        self,
        key_lo: Optional[str],
        key_hi: Optional[str],
        include_lo: bool = True,
        include_hi: bool = True,
        exclude_field_sep: bool = False,
    ):
        """Dictionary expansion for ``TermRangeQuery``
        (``TermsEnum.seekCeil(lower)`` + scan to upper,
        ``core/search/TermRangeQuery.java:33-58``): per sorted bucket,
        bisect to the lower bound and scan until the upper bound fails.
        With range-partitioned buckets (``meta.bucket_splits``) only the
        buckets overlapping [key_lo, key_hi] are touched. ``None`` =
        open bound. → sorted list of (key, TermInfo)."""
        import bisect

        splits = self.meta.get("bucket_splits")
        if splits:
            b_lo = bisect.bisect_right(splits, key_lo) if key_lo else 0
            b_hi = (
                bisect.bisect_right(splits, key_hi)
                if key_hi is not None
                else self.n_parts - 1
            )
            buckets = range(b_lo, min(b_hi, self.n_parts - 1) + 1)
        else:
            buckets = range(self.n_parts)
        out = []
        for b in buckets:
            terms = self.terms_list(b)
            if key_lo is None:
                i = 0
            elif include_lo:
                i = bisect.bisect_left(terms, key_lo)
            else:
                i = bisect.bisect_right(terms, key_lo)
            while i < len(terms):
                t = terms[i]
                if key_hi is not None and (
                    t > key_hi or (t == key_hi and not include_hi)
                ):
                    break
                if not exclude_field_sep or FIELD_SEP not in t:
                    out.append((t, self.term_info_at(b, i, term=t)))
                i += 1
        out.sort(key=lambda x: x[0])
        return out

    def expand_terms(self, key_prefix: str, match=None, exclude_field_sep=False):
        """Dictionary expansion for MultiTermQuery evaluation
        (``TermsEnum.seekCeil`` + scan; the reference intersects a term
        automaton with the block tree, ``IntersectTermsEnum.java`` —
        here: binary search to the prefix per sorted bucket, linear scan
        while it holds, optional ``match`` predicate on the full key).

        → sorted list of (key, TermInfo). ``exclude_field_sep`` skips
        non-default-field keys when expanding the bare text field."""
        import bisect

        out = []
        for b in self._buckets_for_prefix(key_prefix):
            terms = self.terms_list(b)
            i = bisect.bisect_left(terms, key_prefix)
            while i < len(terms) and terms[i].startswith(key_prefix):
                t = terms[i]
                if (not exclude_field_sep or FIELD_SEP not in t) and (
                    match is None or match(t)
                ):
                    out.append((t, self.term_info_at(b, i, term=t)))
                i += 1
        out.sort(key=lambda x: x[0])
        return out

    def postings(self, info: TermInfo) -> PostingsView:
        return format_for_name(info.fmt).view(self.postings_blob(info))

    def postings_blob(self, info: TermInfo) -> np.ndarray:
        """A term's encoded postings (a view of the mmapped part file)."""
        return self._post_mm[info.part][info.post_off : info.post_off + info.post_len]

    def decoded(self, info: TermInfo) -> Tuple[np.ndarray, np.ndarray]:
        """A term's ``(docids, freqs)``, uncached:
        ``postings(info).decode_all()``. Queries read postings from the
        searcher's index-wide entries; this one-blob decode serves the
        readers that need postings aligned with the term's payload and
        offset streams."""
        return self.postings(info).decode_all()

    def positions(self, info: TermInfo) -> np.ndarray:
        """A term's positions, each doc's run in docid order (a run is
        the doc's freq long), uncached."""
        return read_positions([(self, info)])[0]

    def offsets_for(self, info: TermInfo) -> Tuple[np.ndarray, np.ndarray]:
        """Per-position character offsets for a term (the ``.pay`` stream,
        ``Lucene104PostingsFormat.java:17-80``): → ``(starts, ends)``
        uint32 arrays aligned 1:1 with :meth:`positions`. Slicing per doc
        uses the same tf-cumsum the positions consumers use."""
        mm = self._off_mm[info.part]
        if mm is None or info.off_slen == 0:
            raise ValueError("segment has no offsets")
        at = info.off_off
        buf, _ = pad_pieces([mm[at : at + info.off_slen + info.off_llen]])
        vals, counts = decode_uint_runs(buf, [0, info.off_slen])
        n = int(counts[0])
        return vals[:n], vals[:n] + vals[n:]

    def payloads_for(self, info: TermInfo) -> Tuple[np.ndarray, np.ndarray]:
        """Per-position payload bytes for a term (the payload half of the
        ``.pay`` stream, ``Lucene104PostingsFormat.java:17-80``):
        → ``(lens uint32, raw uint8)`` — ``lens`` aligned 1:1 with
        :meth:`positions`, ``raw`` the concatenated payload bytes in the
        same order. Slice occurrence ``i``'s payload as
        ``raw[cum[i]:cum[i+1]]`` with ``cum = cumsum(lens)``."""
        mm = self._pay_mm[info.part]
        if mm is None or (info.pay_llen == 0 and info.pay_blen == 0):
            raise ValueError("segment has no payloads")
        at = info.pay_off + info.pay_llen
        lens = decode_uint_runs(*pad_pieces([mm[info.pay_off : at]]))[0]
        return lens, np.asarray(mm[at : at + info.pay_blen])

    # -- norms -------------------------------------------------------------

    def norms_for(self, fieldname: str) -> np.ndarray:
        """Per-field SmallFloat norms. The default text field uses
        ``norms.bin``; extra tokenized fields load ``norms_<field>.bin``
        lazily (per-field ``NumericDocValues`` norms role)."""
        if fieldname == DEFAULT_FIELD:
            return self.norms
        hit = self._field_norms.get(fieldname)
        if hit is None:
            path = os.path.join(self.seg_dir, f"norms_{fieldname}.bin")
            if not os.path.exists(path):
                raise KeyError(f"segment has no norms for field {fieldname!r}")
            hit = np.fromfile(path, dtype=np.uint8)
            self._field_norms[fieldname] = hit
        return hit

    # -- term vectors --------------------------------------------------------

    def term_vector(self, docid: int) -> pa.Table:
        """Per-doc (term, freq) vector — the ``TermVectors.get(docID)``
        role (``core/index/TermVectors.java``). Backed by the segment's
        docid-sorted ``tv.parquet`` (loaded lazily, memoized); the point
        lookup is two binary searches on the docid column."""
        if not self.meta.get("term_vectors"):
            raise KeyError("segment was built without store_term_vectors")
        tv = getattr(self, "_tv_table", None)
        if tv is None:
            tv = pq.read_table(os.path.join(self.seg_dir, "tv.parquet"))
            self._tv_table = tv
            self._tv_docids = np.asarray(tv.column("docid"), dtype=np.int64)
        lo = int(np.searchsorted(self._tv_docids, docid, "left"))
        hi = int(np.searchsorted(self._tv_docids, docid, "right"))
        return tv.slice(lo, hi - lo)

    # -- doc values --------------------------------------------------------

    @property
    def docmap(self) -> pa.Array:
        if self._docmap is None:
            tbl = pq.read_table(os.path.join(self.seg_dir, "docmap.parquet"))
            self._docmap = tbl.column("key").combine_chunks()
        return self._docmap

    def dv(self, col: str) -> pa.Array:
        """Doc-values column (row-aligned with local docids) — the
        ``DocValues`` role (``core/index/DocValuesType.java:25-51``).
        Lazily loaded once per reader, column-pruned at read."""
        hit = self._dv_cache.get(col)
        if hit is None:
            path = os.path.join(self.seg_dir, "dv.parquet")
            if not os.path.exists(path):
                raise KeyError(f"segment has no doc values ({col})")
            tbl = pq.read_table(path, columns=[col])
            hit = tbl.column(col).combine_chunks()
            self._dv_cache[col] = hit
        return hit

    def point_index(self, field: str):
        """Memmapped 1-D point index for ``field`` (LongPoint/BKD role,
        see index/points.py), or None if the segment has none. Returns
        ``(sorted_vals, docids, info)`` — only the pages binary search
        touches are faulted in."""
        info = (self.meta.get("points") or {}).get(field)
        if info is None:
            return None
        hit = self._points_cache.get(field)
        if hit is None:
            dt = np.int64 if info["kind"] == "i64" else np.float64
            if not info["n"]:  # all-null column: memmap rejects 0 bytes
                hit = (np.empty(0, dt), np.empty(0, np.uint32), info)
                self._points_cache[field] = hit
                return hit
            vals = np.memmap(
                os.path.join(self.seg_dir, f"points_{field}.vals.bin"),
                dtype=dt, mode="r",
            )
            docs = np.memmap(
                os.path.join(self.seg_dir, f"points_{field}.docs.bin"),
                dtype=np.uint32, mode="r",
            )
            hit = (vals, docs, info)
            self._points_cache[field] = hit
        return hit

    def geo_index(self, field: str):
        """Memmapped 2-D geo-point index for ``field`` (LatLonPoint/BKD
        role, index/geo.py), or None if the segment has none. The stored
        block directory loads eagerly (tiny); point pages fault in only
        for blocks a query's box overlaps."""
        info = (self.meta.get("geo") or {}).get(field)
        if info is None:
            return None
        hit = self._geo_cache.get(field)
        if hit is None:
            if not info["n"]:
                hit = GeoBlocks(
                    np.empty(0, np.int32),
                    np.empty(0, np.int32),
                    np.empty(0, np.uint32),
                    block_size=info["block_size"],
                    presorted=True,
                )
            else:
                p = lambda s: os.path.join(self.seg_dir, f"geo_{field}.{s}.bin")
                hit = GeoBlocks(
                    np.memmap(p("lat"), dtype=np.int32, mode="r"),
                    np.memmap(p("lon"), dtype=np.int32, mode="r"),
                    np.memmap(p("docs"), dtype=np.uint32, mode="r"),
                    block_size=info["block_size"],
                    presorted=True,
                    directory=np.fromfile(p("dir"), dtype=np.int32),
                )
            self._geo_cache[field] = hit
        return hit

    def range_index(self, field: str):
        """Memmapped interval-field index for ``field`` (IntRange role,
        index/ranges.py), or None if the segment has none."""
        info = (self.meta.get("ranges") or {}).get(field)
        if info is None:
            return None
        hit = self._ranges_cache.get(field)
        if hit is None:
            if not info["n"]:
                hit = RangeBlocks(
                    np.empty(0, np.int64),
                    np.empty(0, np.int64),
                    np.empty(0, np.uint32),
                    block_size=info["block_size"],
                    presorted=True,
                )
            else:
                p = lambda s: os.path.join(
                    self.seg_dir, f"ranges_{field}.{s}.bin"
                )
                hit = RangeBlocks(
                    np.memmap(p("lo"), dtype=np.int64, mode="r"),
                    np.memmap(p("hi"), dtype=np.int64, mode="r"),
                    np.memmap(p("docs"), dtype=np.uint32, mode="r"),
                    block_size=info["block_size"],
                    presorted=True,
                    directory=np.fromfile(p("dir"), dtype=np.int64),
                )
            self._ranges_cache[field] = hit
        return hit

    def _part(self, b: int) -> dict:
        """Lazy-load part ``b``'s term table (first touch reads its
        parquet; arrow arrays kept as-is so actor init stays cheap —
        lookups bisect the term column's offsets and bytes, and are
        cached by the searcher)."""
        t = self._terms[b]
        if t is None:
            tbl = pq.read_table(
                os.path.join(self.seg_dir, f"part_{b:04d}.terms.parquet")
            )
            cols = {name: tbl.column(name) for name in tbl.column_names}
            term = cols["term"].combine_chunks()
            _, offs_buf, data_buf = term.buffers()
            offs = np.zeros(1, np.int64)
            if len(term):
                offs = np.frombuffer(
                    offs_buf,
                    np.int64 if pa.types.is_large_string(term.type) else np.int32,
                )[term.offset : term.offset + len(term) + 1]
            t = {
                "term": term,
                # ``lookup``'s bisect state: offsets as a memoryview (a
                # python int per probe) and the UTF-8 bytes
                "term_offs": memoryview(offs),
                "term_bytes": data_buf.to_pybytes() if data_buf else b"",
                "term_list": None,  # lazy python list for merge/scan
                "df": np.asarray(cols["df"], np.int64),
                "ttf": np.asarray(cols["ttf"], np.int64),
                "post_off": np.asarray(cols["post_off"], np.int64),
                "post_len": np.asarray(cols["post_len"], np.int64),
                "pos_off": np.asarray(cols["pos_off"], np.int64),
                "pos_len": np.asarray(cols["pos_len"], np.int64),
            }
            if "off_off" in cols:  # offsets-bearing segment
                t["off_off"] = np.asarray(cols["off_off"], np.int64)
                t["off_slen"] = np.asarray(cols["off_slen"], np.int64)
                t["off_llen"] = np.asarray(cols["off_llen"], np.int64)
            if "pay_off" in cols:  # payload-bearing segment
                t["pay_off"] = np.asarray(cols["pay_off"], np.int64)
                t["pay_llen"] = np.asarray(cols["pay_llen"], np.int64)
                t["pay_blen"] = np.asarray(cols["pay_blen"], np.int64)
            self._terms[b] = t
        return t

    def terms_list(self, b: int) -> list:
        """Materialized python term list for part ``b`` (merge/scan paths)."""
        t = self._part(b)
        if t["term_list"] is None:
            t["term_list"] = t["term"].to_pylist()
        return t["term_list"]

    def all_terms(self):
        """Iterate (term, df, ttf, part, row) across parts in sorted order
        per part — a whole-dictionary scan for tests and tools (merges
        read a bucket's term table and decode its streams as arrays)."""
        for b in range(self.n_parts):
            t = self._part(b)
            terms = self.terms_list(b)
            for i in range(len(terms)):
                yield terms[i], int(t["df"][i]), int(t["ttf"][i]), b, i


def _split(vals: np.ndarray, counts: np.ndarray) -> List[np.ndarray]:
    at = excl_cumsum(counts).tolist()
    return [vals[s : s + n] for s, n in zip(at, counts.tolist())]


def read_postings(
    pairs: Sequence[Tuple["SegmentReader", TermInfo]]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(docids, freqs)`` of each ``(reader, TermInfo)`` pair, uncached:
    the ray104 blobs of any segments and parts are copied into one padded
    buffer and decode in one :func:`codecs.postings.decode_postings`
    call; other formats decode through their views."""
    out = [
        None if ti.fmt == "ray104" else r.postings(ti).decode_all() for r, ti in pairs
    ]
    fast = [i for i, hit in enumerate(out) if hit is None]
    blobs = [pairs[i][0].postings_blob(pairs[i][1]) for i in fast]
    ids, tfs, dfs = decode_postings(*pad_pieces(blobs))
    for i, a, b in zip(fast, _split(ids, dfs), _split(tfs, dfs)):
        out[i] = (a, b)
    return out


def read_positions(
    pairs: Sequence[Tuple["SegmentReader", TermInfo]]
) -> List[np.ndarray]:
    """The positions of each ``(reader, TermInfo)`` pair (each doc's run
    in docid order, the doc's freq long): the runs of any segments and
    parts, copied into one padded buffer, in one :func:`decode_uint_runs`
    call."""
    pieces = []
    for r, ti in pairs:
        mm = r._pos_mm[ti.part]
        if mm is None or ti.pos_len == 0:
            raise ValueError("segment has no positions")
        pieces.append(mm[ti.pos_off : ti.pos_off + ti.pos_len])
    return _split(*decode_uint_runs(*pad_pieces(pieces)))
