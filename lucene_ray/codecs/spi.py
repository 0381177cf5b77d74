"""Postings-format SPI — the pluggable-codec registry role of the
reference's ``PostingsFormat.forName`` + ``NamedSPILoader``
(``core/codecs/PostingsFormat.java:30-76``,
``core/util/NamedSPILoader.java:28-70``) and the per-field format
selection of ``PerFieldPostingsFormat``
(``core/codecs/perfield/PerFieldPostingsFormat.java:64-69``: the
format NAME is recorded per field in segment metadata and resolved by
name at read time).

Two registered formats:

- ``ray104`` — the default block codec (256-doc FOR/bitset blocks, PFor
  freqs, competitive impacts; ``codecs/postings.py``). Impacts present →
  the pruned top-k paths run.
- ``plain`` — uncompressed u32 docids + freqs behind a tiny header, the
  debugging/interchange role of ``SimpleTextPostingsFormat``
  (``codecs/src/java/org/apache/lucene/codecs/simpletext/
  SimpleTextPostingsFormat.java:28-43``: "any PostingsFormat is
  swappable; this one trades size for transparency"). No impacts →
  queries over plain fields run exhaustively (rank-identical output
  never depends on pruning).

A format implements ``encode_batch`` (term-major flat pair arrays and
the norm byte of each pair's doc → per-term blobs) and ``view`` (blob →
reader object exposing ``decode_all()``, a term's whole (docids,
freqs); the ray104 view also exposes the block directory, per-block
decodes and the impacts that CheckIndex validates). Bulk readers
(``segment.read_postings``, merge) decode many ray104 blobs at once with
``postings.decode_postings`` and send the other formats' blobs through
their views.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from lucene_ray.codecs.forutil import ranges
from lucene_ray.codecs.postings import PostingsView, encode_postings_batch

DEFAULT_FORMAT = "ray104"


class Ray104Format:
    name = "ray104"
    has_impacts = True

    @staticmethod
    def encode_batch(docids, tfs, pair_norms, term_starts) -> List[bytes]:
        return encode_postings_batch(docids, tfs, pair_norms, term_starts)

    @staticmethod
    def view(blob) -> PostingsView:
        return PostingsView(blob)


class PlainPostingsView:
    """Reader over a ``plain`` blob: ``u32 doc_count | u32[n] docids |
    u32[n] freqs``. Zero-copy views over mmapped bytes."""

    def __init__(self, buf):
        buf = np.frombuffer(buf, dtype=np.uint8)
        self.doc_count = int(buf[:4].view("<u4")[0])
        n = self.doc_count
        self._ids = buf[4 : 4 + n * 4].view("<u4")
        self._tfs = buf[4 + n * 4 : 4 + n * 8].view("<u4")

    def decode_all(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._ids, self._tfs


class PlainFormat:
    name = "plain"
    has_impacts = False

    @staticmethod
    def encode_batch(docids, tfs, pair_norms, term_starts) -> List[bytes]:
        docids = np.ascontiguousarray(docids, dtype="<u4")
        tfs = np.ascontiguousarray(tfs, dtype="<u4")
        out: List[bytes] = []
        for ti in range(len(term_starts) - 1):
            s, e = int(term_starts[ti]), int(term_starts[ti + 1])
            n = np.array([e - s], dtype="<u4")
            out.append(
                n.tobytes() + docids[s:e].tobytes() + tfs[s:e].tobytes()
            )
        return out

    @staticmethod
    def view(blob) -> PlainPostingsView:
        return PlainPostingsView(blob)


_FORMATS: Dict[str, object] = {
    Ray104Format.name: Ray104Format,
    PlainFormat.name: PlainFormat,
}


def register_format(fmt) -> None:
    """SPI registration (``NamedSPILoader.java:28-70``); user formats may
    override by name."""
    _FORMATS[fmt.name] = fmt


def format_for_name(name: str):
    """``PostingsFormat.forName`` (``core/codecs/PostingsFormat.java:65-76``)."""
    try:
        return _FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown postings format {name!r}; registered: {sorted(_FORMATS)}"
        ) from None


def encode_postings_by_format(
    fmt_names: List[str],
    docids,
    tfs,
    pair_norms,
    term_starts,
) -> List[bytes]:
    """Batch-encode per-term blobs where term ``i`` uses format
    ``fmt_names[i]``, preserving term order; ``pair_norms`` is aligned
    with the pairs. The homogeneous case (one format for every term — the
    overwhelmingly common one) falls through to a single batched call
    with zero extra copies."""
    term_starts = np.asarray(term_starts, dtype=np.int64)
    n_terms = len(term_starts) - 1
    distinct = set(fmt_names)
    if len(distinct) <= 1:
        fmt = format_for_name(fmt_names[0] if fmt_names else DEFAULT_FORMAT)
        return fmt.encode_batch(docids, tfs, pair_norms, term_starts)
    blobs: List[bytes] = [b""] * n_terms
    names = np.asarray(fmt_names, dtype=object)
    for name in sorted(distinct):
        sel = np.flatnonzero(names == name)
        # gather this format's pair ranges into contiguous arrays
        lens = term_starts[sel + 1] - term_starts[sel]
        gather = ranges(term_starts[sel], lens)
        sub = format_for_name(name).encode_batch(
            np.asarray(docids)[gather],
            np.asarray(tfs)[gather],
            np.asarray(pair_norms)[gather],
            np.concatenate([[0], np.cumsum(lens)]),
        )
        for j, ti in enumerate(sel):
            blobs[int(ti)] = sub[j]
    return blobs
