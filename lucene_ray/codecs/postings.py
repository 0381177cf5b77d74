"""Posting-list blob codec: delta-gap doc IDs in 256-doc blocks (FOR or
bitset, whichever is smaller), PFor-compressed term frequencies, per-block
competitive (freq, norm) impact frontiers, and an explicit block directory.

Semantics follow the reference's Lucene104 postings format
(``lucene/core/src/java/org/apache/lucene/codecs/lucene104/Lucene104PostingsWriter.java:237-450``:
BLOCK_SIZE=256 delta-gap doc blocks, FOR-vs-unary-bitset decision, PFor
freqs, per-block competitive impacts ahead of the block;
``.../CompetitiveImpactAccumulator.java:64-102``: pareto (freq, norm)
frontier). The reference's embedded skip entries (level 0 per block,
level 1 every 32 blocks — ``Lucene104PostingsFormat.java:343-351``) become
an explicit *block directory* — arrays of per-block (first_docid,
last_docid, offsets) — which is the columnar equivalent: a reader skips a
block by masking its directory row instead of following skip pointers.

Blob layout (little-endian):

    u32 doc_count
    u32 n_blocks                  # ceil(doc_count / 256); last may be short
    -- directory (per block):
    u32[n] first_docid
    u32[n] last_docid
    u32[n] data_offset            # into the data section
    u8[n]  docid_kind             # 0 = FOR over gaps, 1 = bitset
    u8[n]  docid_width            # FOR bit width (kind 0)
    u8[n]  freq_width             # PFor base width
    u8[n]  freq_n_exc
    u8[n]  n_impacts
    u16[n] block_len              # docs in block (256 except the last)
    -- data section (per block):
    docid bytes | freq base bytes | freq exceptions (u16 pos, u32 val)* |
    impacts (u32 freq, u8 norm)*

Every reader decodes through :func:`decode_postings`: any set of blobs,
or of their blocks, in one call over one zero-padded buffer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from lucene_ray.codecs.forutil import (
    MAX_PFOR_EXCEPTIONS,
    ROW,
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

BLOCK_SIZE = ROW  # Lucene104PostingsFormat.BLOCK_SIZE (:343)

_DIR_DTYPE = np.dtype(
    [
        ("first_docid", "<u4"),
        ("last_docid", "<u4"),
        ("data_offset", "<u4"),
        ("docid_kind", "u1"),
        ("docid_width", "u1"),
        ("freq_width", "u1"),
        ("freq_n_exc", "u1"),
        ("n_impacts", "u1"),
        ("block_len", "<u2"),
    ]
)
_DIR_SIZE = _DIR_DTYPE.itemsize
_FIRST = np.zeros(1, dtype=np.int64)  # the offset of a view's one blob


def competitive_impacts(freqs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pareto frontier of (freq, norm): keep max freq per norm byte, then
    drop pairs dominated by a (higher-freq, shorter-or-equal-length) pair.

    Returns a structured array sorted by decoded length ascending with
    strictly increasing freq — ``CompetitiveImpactAccumulator.java:64-102``.
    """
    freqs = np.asarray(freqs, dtype=np.uint32)
    norms = np.asarray(norms, dtype=np.uint8)
    # norm bytes map 1:1 monotonically to decoded lengths, so sorting by
    # byte == sorting by length; max freq per distinct norm byte, then keep
    # only strictly-increasing freqs along ascending length (pareto).
    if len(freqs) == 0:
        return np.zeros(0, dtype=[("freq", "<u4"), ("norm", "u1")])
    order = np.argsort(norms, kind="stable")
    ns, fs = norms[order], freqs[order]
    starts = np.empty(len(ns), dtype=bool)
    starts[0] = True
    np.not_equal(ns[1:], ns[:-1], out=starts[1:])
    start_idx = np.flatnonzero(starts)
    max_per_norm = np.maximum.reduceat(fs, start_idx)
    uniq_norms = ns[start_idx]
    run_max = np.maximum.accumulate(max_per_norm)
    keep = np.empty(len(run_max), dtype=bool)
    keep[0] = True
    np.greater(run_max[1:], run_max[:-1], out=keep[1:])
    arr = np.zeros(int(keep.sum()), dtype=[("freq", "<u4"), ("norm", "u1")])
    arr["freq"] = max_per_norm[keep]
    arr["norm"] = uniq_norms[keep]
    return arr


def max_block_score(impacts: np.ndarray, scorer) -> float:
    """Score upper bound for a block = max BM25 score over its frontier."""
    if len(impacts) == 0:
        return float(scorer.weight)
    s = scorer.score(impacts["freq"].astype(np.float32), impacts["norm"])
    return float(s.max())


def encode_postings(
    docids: np.ndarray,
    freqs: np.ndarray,
    norms: Optional[np.ndarray] = None,
) -> bytes:
    """Encode one term's postings. ``docids`` strictly increasing uint32,
    ``freqs`` aligned uint32, ``norms`` aligned uint8 (per-doc norm bytes,
    used only to build impact frontiers; pass None to skip impacts)."""
    if len(docids) == 0:
        raise ValueError("empty posting list")
    buf, _ = encode_postings_flat(docids, freqs, [0, len(docids)], norms)
    return buf.tobytes()


def encode_postings_batch(
    pair_docids: np.ndarray,
    pair_tfs: np.ndarray,
    pair_norms: Optional[np.ndarray],
    term_starts: np.ndarray,
) -> List[bytes]:
    """:func:`encode_postings_flat` split into one blob per term (the SPI
    ``encode_batch`` shape): ``pair_norms`` holds the norm byte of each
    pair's doc (None writes no impacts)."""
    return split_blobs(
        *encode_postings_flat(pair_docids, pair_tfs, term_starts, pair_norms)
    )


def split_blobs(buf: np.ndarray, lens: np.ndarray) -> List[bytes]:
    """Concatenated blobs + their lengths → one ``bytes`` per blob."""
    raw = buf.tobytes()
    offs = excl_cumsum(lens).tolist()
    return [raw[o : o + n] for o, n in zip(offs, lens.tolist())]


def encode_postings_flat(
    docids: np.ndarray,
    tfs: np.ndarray,
    term_starts,
    pair_norms: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode MANY terms' postings (term-major pair arrays, every term
    df ≥ 1) into one buffer with array kernels: every 256-posting block
    of every term is a row, so gaps come from one diff, the
    FOR-vs-bitset choice, widths and impact frontiers from one pass
    each, and the packed bits from one pack per distinct width,
    scattered into a preallocated buffer. ``pair_norms`` (uint8 per
    pair) feed the impact frontiers; None writes no impacts.

    Freq widths: a single-block term packs at its max bit length with
    no exceptions; each block of a multi-block term takes the PFor base
    width, the 8th-largest bit length of the block (0 below 8 values),
    and patches the ≤7 larger values as exceptions. Deterministic (the
    resume checksums rely on it).

    → ``(buf uint8, lens int64[n_terms])``: term i's blob starts at the
    exclusive cumsum of ``lens``."""
    term_starts = np.asarray(term_starts, dtype=np.int64)
    lo, hi = int(term_starts[0]), int(term_starts[-1])
    term_starts = term_starts - lo
    n_terms = len(term_starts) - 1
    dfs = np.diff(term_starts)
    if n_terms == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    if dfs.min() <= 0:
        raise ValueError("empty posting list")
    ids = np.asarray(docids[lo:hi], dtype=np.int64)
    tfs = np.ascontiguousarray(tfs[lo:hi], dtype=np.uint32)

    # ---- blocks as rows ----
    nb = (dfs + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_blk = int(nb.sum())
    blk_term = np.repeat(np.arange(n_terms), nb)
    term_blk0 = excl_cumsum(nb)
    k = np.arange(n_blk) - term_blk0[blk_term]
    bstart = term_starts[blk_term] + k * BLOCK_SIZE
    blen = np.minimum(BLOCK_SIZE, term_starts[1:][blk_term] - bstart)
    pair_blk = np.repeat(np.arange(n_blk), blen)

    # ---- docids: gaps from the previous block's last docid + 1 (0 for
    # a term's first block), FOR width, or a bitset when smaller ----
    gaps = np.empty(len(ids), dtype=np.int64)
    gaps[0] = ids[0]
    np.subtract(ids[1:], ids[:-1], out=gaps[1:])
    gaps[bstart] = ids[bstart] - np.where(k == 0, 0, ids[bstart - 1] + 1)
    first = ids[bstart]
    last = ids[bstart + blen - 1]
    gw = bit_lengths(np.maximum.reduceat(gaps, bstart))
    for_bytes = (blen * gw + 7) // 8
    span_bytes = (last - first + 8) // 8
    bitset = span_bytes < for_bytes
    docid_bytes = np.where(bitset, span_bytes, for_bytes)

    # ---- freqs: plain max width for single-block terms; PFor for the
    # blocks of multi-block terms ----
    bl = bit_lengths(tfs)
    fw = np.maximum.reduceat(bl, bstart)
    msel = np.flatnonzero(nb[blk_term] > 1)
    if len(msel):
        row = np.repeat(np.arange(len(msel)), blen[msel])
        hist = np.bincount(
            row * 33 + bl[ranges(bstart[msel], blen[msel])],
            minlength=len(msel) * 33,
        ).reshape(-1, 33)
        n_ge = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]  # #(bl >= w)
        fw[msel] = (n_ge[:, 1:] > MAX_PFOR_EXCEPTIONS).sum(axis=1)
    exc = np.flatnonzero(bl > fw[pair_blk])
    n_exc = np.bincount(pair_blk[exc], minlength=n_blk)
    base = tfs.copy()
    base[exc] &= ((np.uint64(1) << fw[pair_blk[exc]].astype(np.uint64)) - 1).astype(
        np.uint32
    )
    freq_bytes = (blen * fw + 7) // 8

    # ---- impacts: max freq per (block, norm), then the pareto frontier
    # (a (norm, freq) survives iff it beats every shorter norm's max)
    # by one segmented running max: block·2^32 + freq is monotone
    # across blocks ----
    if pair_norms is None:
        imp_blk = imp_f = imp_n = np.empty(0, np.int64)
    else:
        key = pair_blk * 256  # (block, norm, freq) in one int64, in place
        key += pair_norms[lo:hi]
        key <<= 32
        key |= tfs
        key.sort()
        grp = key >> 32
        last_in_grp = np.empty(len(key), dtype=bool)
        last_in_grp[-1] = True
        np.not_equal(grp[1:], grp[:-1], out=last_in_grp[:-1])
        g = key[last_in_grp]
        gblk = g >> 40
        gmax = g & 0xFFFFFFFF
        cm = np.maximum.accumulate((gblk << 32) | gmax)
        prev = np.empty(len(g), dtype=np.int64)
        prev[0] = -1
        prev[1:] = cm[:-1]
        keep = gmax > prev - (gblk << 32)
        imp_blk, imp_f = gblk[keep], gmax[keep]
        imp_n = (g[keep] >> 32) & 0xFF
    n_imp = np.bincount(imp_blk, minlength=n_blk)

    # ---- sizes and offsets by arithmetic ----
    data_size = docid_bytes + freq_bytes + 6 * n_exc + 5 * n_imp
    dcs = excl_cumsum(data_size)
    dsz = _DIR_DTYPE.itemsize
    lens = 8 + dsz * nb + np.add.reduceat(data_size, term_blk0)
    term_off = excl_cumsum(lens)
    out = np.zeros(int(lens.sum()), dtype=np.uint8)

    hdr = np.empty((n_terms, 2), dtype="<u4")
    hdr[:, 0] = dfs
    hdr[:, 1] = nb
    put_rows(out, term_off, hdr)
    d = np.zeros(n_blk, dtype=_DIR_DTYPE)
    d["first_docid"] = first
    d["last_docid"] = last
    d["data_offset"] = dcs - dcs[term_blk0[blk_term]]
    d["docid_kind"] = bitset
    d["docid_width"] = np.where(bitset, 0, gw)
    d["freq_width"] = fw
    d["freq_n_exc"] = n_exc
    d["n_impacts"] = n_imp
    d["block_len"] = blen
    blk_base = term_off[blk_term] + 8
    put_rows(out, blk_base + dsz * k, d)
    data_at = blk_base + dsz * nb[blk_term] + d["data_offset"]

    # ---- block data: docids | freq base | exceptions | impacts ----
    fsel = np.flatnonzero(~bitset)
    pack_runs_into(out, data_at[fsel], gaps, bstart[fsel], blen[fsel], gw[fsel])
    bsel = np.flatnonzero(bitset)
    if len(bsel):
        sb = span_bytes[bsel]
        bits = np.zeros(int(sb.sum()) * 8, dtype=np.uint8)
        bits[
            np.repeat(excl_cumsum(sb * 8) - first[bsel], blen[bsel])
            + ids[ranges(bstart[bsel], blen[bsel])]
        ] = 1
        out[ranges(data_at[bsel], sb)] = np.packbits(bits)
    freq_at = data_at + docid_bytes
    pack_runs_into(out, freq_at, base, bstart, blen, fw)
    exc_at = freq_at + freq_bytes
    if len(exc):
        eb = pair_blk[exc]
        rank = np.arange(len(exc)) - excl_cumsum(n_exc)[eb]
        put_rows(out, exc_at[eb] + 2 * rank, (exc - bstart[eb]).astype("<u2"))
        put_rows(out, exc_at[eb] + 2 * n_exc[eb] + 4 * rank, tfs[exc].astype("<u4"))
    if len(imp_blk):
        imp_at = (exc_at + 6 * n_exc)[imp_blk]
        rank = np.arange(len(imp_blk)) - excl_cumsum(n_imp)[imp_blk]
        put_rows(out, imp_at + 4 * rank, imp_f.astype("<u4"))
        out[imp_at + 4 * n_imp[imp_blk] + rank] = imp_n
    return out, lens




def decode_postings(
    buf: np.ndarray, offs: np.ndarray, rows=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The postings decoder, inverse of :func:`encode_postings_flat` (the
    ``ForUtil``/``PForUtil`` role of ``Lucene104PostingsReader``), of the
    blobs at ``offs`` in ``buf`` (``forutil.PAD`` zero bytes past the
    last). Each block of each blob is a row: headers and directory rows
    by one gather each; FOR docid gaps in one ``forutil.unpack_rows``,
    PFor freq bases in another; bitset docid rows (their gaps left 0) in
    one ``unpackbits``; PFor exceptions by one scatter;
    docids by one cumsum, each row's first gap replaced by its first
    docid less the previous row's last (a bitset row holds its last).
    ``rows=(blob index, block index)`` decodes only those rows. →
    ``(docids uint32, freqs uint32, counts int64)``, postings back to
    back, counted per blob (per row when ``rows`` is given)."""
    offs = np.asarray(offs, dtype=np.int64)
    if len(offs) == 1:  # one blob: its header and directory are slices
        o = int(offs[0])
        doc_count, nb = buf[o : o + 8].view("<u4").tolist()
        counts = np.array([doc_count], dtype=np.int64)
        d = buf[o + 8 : o + 8 + _DIR_SIZE * nb].view(_DIR_DTYPE)
        if rows is not None:
            d = d[rows[1]]
        data_at = d["data_offset"].astype(np.int64) + (o + 8 + _DIR_SIZE * nb)
    else:
        hdr = buf[offs[:, None] + np.arange(8)].view("<u4").astype(np.int64)
        counts, n_blocks = hdr[:, 0], hdr[:, 1]
        if rows is None:
            blob = np.arange(len(offs)).repeat(n_blocks)
            blk = np.arange(len(blob)) - excl_cumsum(n_blocks)[blob]
        else:
            blob, blk = rows
        dir_at = offs[blob] + 8
        d_at = (dir_at + _DIR_SIZE * blk)[:, None] + np.arange(_DIR_SIZE)
        d = buf[d_at].view(_DIR_DTYPE)[:, 0]
        data_at = dir_at + _DIR_SIZE * n_blocks[blob] + d["data_offset"]
    blen = d["block_len"].astype(np.int64)
    first = d["first_docid"].astype(np.int64)
    last = d["last_docid"].astype(np.int64)
    docid_bytes = (blen * d["docid_width"] + 7) >> 3
    bsel = d["docid_kind"].nonzero()[0]
    docid_bytes[bsel] = (last[bsel] - first[bsel] + 8) >> 3
    out_at = excl_cumsum(blen)
    n = int(blen.sum())
    words = words_of(buf)
    gaps = np.zeros(n, dtype=np.int64)
    f = (d["docid_kind"] == 0).nonzero()[0] if len(bsel) else slice(None)  # FOR rows
    dw = d["docid_width"][f].astype(np.int64)
    unpack_rows(words, gaps, data_at[f], blen[f], dw, out_at[f])
    freq_at = data_at + docid_bytes
    fw = d["freq_width"].astype(np.int64)
    freqs = np.zeros(n, dtype=np.uint32)
    unpack_rows(words, freqs, freq_at, blen, fw, out_at)

    gaps[out_at] = first
    gaps[out_at[bsel]] = last[bsel]
    gaps[out_at[1:]] -= last[:-1]
    ids = gaps.cumsum().astype(np.uint32)
    if len(bsel):
        nbytes = docid_bytes[bsel]
        setpos = np.unpackbits(buf[ranges(data_at[bsel], nbytes)]).nonzero()[0]
        ids[ranges(out_at[bsel], blen[bsel])] = setpos + np.repeat(
            first[bsel] - excl_cumsum(nbytes * 8), blen[bsel]
        )
    esel = d["freq_n_exc"].nonzero()[0]
    if len(esel):
        ne = d["freq_n_exc"][esel].astype(np.int64)
        e_at = freq_at[esel] + ((blen[esel] * fw[esel] + 7) >> 3)
        pos = buf[ranges(e_at, 2 * ne)].view("<u2")
        freqs[np.repeat(out_at[esel], ne) + pos] = buf[
            ranges(e_at + 2 * ne, 4 * ne)
        ].view("<u4")
    return ids, freqs, (counts if rows is None else blen)


def decode_postings_batch(
    data, offs: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decode_postings` of the blobs ``data[offs[i] :
    offs[i] + lens[i]]`` (an mmapped part file's), padded first."""
    return decode_postings(*pad_blobs(data, offs, lens))


class PostingsView:
    """One blob (mmapped bytes work), copied into a padded buffer and
    decoded by :func:`decode_postings`; the block directory and data
    section are views of it."""

    def __init__(self, blob):
        self.buf, _ = pad_pieces([np.frombuffer(blob, dtype=np.uint8)])
        self.doc_count, self.n_blocks = self.buf[:8].view("<u4").tolist()
        dir_end = 8 + self.n_blocks * _DIR_SIZE
        self.directory = self.buf[8:dir_end].view(_DIR_DTYPE)
        self.data = self.buf[dir_end:]

    def decode_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """→ (docids uint32, freqs uint32)."""
        return decode_postings(self.buf, _FIRST)[:2]

    def decode_block(self, bi: int) -> Tuple[np.ndarray, np.ndarray]:
        """→ (docids uint32, freqs uint32) of block ``bi``."""
        return decode_postings(self.buf, _FIRST, (np.zeros(1, int), np.array([bi])))[:2]

    def impacts(self, bi: int) -> np.ndarray:
        first, last, off, kind, w, fw, n_exc, n_imp, blen = self.directory[bi].item()
        off += (last - first + 8) // 8 if kind == 1 else (blen * w + 7) // 8
        off += (blen * fw + 7) // 8 + 6 * n_exc
        out = np.zeros(n_imp, dtype=[("freq", "<u4"), ("norm", "u1")])
        out["freq"] = self.data[off : off + n_imp * 4].view("<u4")
        out["norm"] = self.data[off + n_imp * 4 : off + n_imp * 5]
        return out
