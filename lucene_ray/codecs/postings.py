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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from lucene_ray.codecs.forutil import (
    MAX_PFOR_EXCEPTIONS,
    bit_lengths,
    excl_cumsum,
    pack_runs_into,
    packed_size,
    pfor_decode,
    put_rows,
    ranges,
    unpack,
)

BLOCK_SIZE = 256  # Lucene104PostingsFormat.BLOCK_SIZE (:343)
# word-gather tables per width w (rows) and value k (columns): value k of
# a run packed at w bits starts in byte (k·w) >> 3, and the big-endian
# 8-byte word read there holds it at right shift 64 − w − (k·w & 7)
_KW = np.arange(33, dtype=np.int64)[:, None] * np.arange(BLOCK_SIZE, dtype=np.int64)
_WORD_BYTE = _KW >> 3
_WORD_SHIFT = (64 - np.arange(33)[:, None] - (_KW & 7)).astype(np.uint64)
_WORD_MASK = ((np.uint64(1) << np.arange(33, dtype=np.uint64)) - np.uint64(1))

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


class PostingsView:
    """Zero-copy-ish view over an encoded blob (works on mmapped bytes)."""

    def __init__(self, buf):
        buf = np.frombuffer(buf, dtype=np.uint8)
        self.doc_count = int(buf[:4].view("<u4")[0])
        self.n_blocks = int(buf[4:8].view("<u4")[0])
        dir_end = 8 + self.n_blocks * _DIR_DTYPE.itemsize
        self.directory = buf[8:dir_end].view(_DIR_DTYPE)
        self.data = buf[dir_end:]

    def decode_block(self, bi: int) -> Tuple[np.ndarray, np.ndarray]:
        """→ (docids uint32, freqs uint32) for block ``bi``."""
        first, last, off, kind, w, fw, n_exc, _, blen = self.directory[bi].item()
        data = self.data
        if kind == 1:
            span = last - first + 1
            nbytes = (span + 7) // 8
            bits = np.unpackbits(data[off : off + nbytes], count=span)
            ids = (np.flatnonzero(bits) + first).astype(np.uint32)
        else:
            nbytes = packed_size(blen, w)
            gaps = unpack(data[off : off + nbytes], blen, w)
            # the first gap is counted from the previous block's last + 1
            ids = (np.cumsum(gaps, dtype=np.int64) + (first - int(gaps[0]))).astype(
                np.uint32
            )
        off += nbytes
        exc_at = off + packed_size(blen, fw)
        return ids, pfor_decode(
            data[off:exc_at],
            blen,
            fw,
            data[exc_at : exc_at + 2 * n_exc].view("<u2"),
            data[exc_at + 2 * n_exc : exc_at + 6 * n_exc].view("<u4"),
        )

    def impacts(self, bi: int) -> np.ndarray:
        first, last, off, kind, w, fw, n_exc, n_imp, blen = self.directory[bi].item()
        off += (last - first + 8) // 8 if kind == 1 else packed_size(blen, w)
        off += packed_size(blen, fw) + 6 * n_exc
        out = np.zeros(n_imp, dtype=[("freq", "<u4"), ("norm", "u1")])
        out["freq"] = self.data[off : off + n_imp * 4].view("<u4")
        out["norm"] = self.data[off + n_imp * 4 : off + n_imp * 5]
        return out

    def decode_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """Full decode → (docids, freqs). Block ``bi`` is row ``bi`` of a
        (blocks, 256) output padded to whole blocks (every block but the
        last is full), truncated at the end:

        - FOR docids and freqs of all blocks, whatever their widths, by
          one word gather each: value k of a run at width w sits at bit
          k·w of it, so the big-endian 8-byte word read at its first byte
          holds it whole (w + 7 ≤ 39 bits) and one shift and mask per
          value extract it (a short block's row reads zero padding past
          its run); docids then take one row-wise cumsum;
        - bitset blocks (dense head terms): one gather + ``unpackbits``
          + ``flatnonzero`` (padding bits are zero, so block ``bi`` holds
          exactly ``block_len`` set bits);
        - PFor exceptions of all blocks patched in one scatter.

        A single-block term decodes through ``decode_block``.
        """
        nbk = self.n_blocks
        if nbk == 1:
            return self.decode_block(0)
        d = self.directory
        data = self.data
        # a row reads up to 32·32 + 8 bytes past its start
        padded = np.zeros(len(data) + 1032, dtype=np.uint8)
        padded[: len(data)] = data
        words = np.ndarray(len(data) + 1025, dtype=">u8", buffer=padded, strides=(1,))

        def unpack_rows(at, w):
            vals = words[at[:, None] + _WORD_BYTE[w]].astype(np.uint64)
            vals >>= _WORD_SHIFT[w]
            vals &= _WORD_MASK[w][:, None]
            return vals

        ids = np.empty((nbk, BLOCK_SIZE), dtype=np.uint32)
        offs = d["data_offset"].astype(np.int64)
        firsts = d["first_docid"].astype(np.int64)
        widths = d["docid_width"].astype(np.int64)
        blens = d["block_len"].astype(np.int64)
        bitset = d["docid_kind"] == 1
        docid_bytes = np.where(
            bitset,
            (d["last_docid"].astype(np.int64) - firsts + 8) // 8,
            (blens * widths + 7) // 8,
        )
        fsel = np.flatnonzero(~bitset)
        if len(fsel):
            cums = np.cumsum(unpack_rows(offs[fsel], widths[fsel]), axis=1, dtype=np.int64)
            ids[fsel] = cums + (firsts[fsel] - cums[:, 0])[:, None]
        bsel = np.flatnonzero(bitset)
        if len(bsel):
            nb = docid_bytes[bsel]
            setpos = np.flatnonzero(np.unpackbits(_gather(data, offs[bsel], nb)))
            ids.ravel()[ranges(bsel * BLOCK_SIZE, blens[bsel])] = setpos + np.repeat(
                firsts[bsel] - excl_cumsum(nb * 8), blens[bsel]
            )

        f_offs = offs + docid_bytes
        fws = d["freq_width"].astype(np.int64)
        freqs = unpack_rows(f_offs, fws).astype(np.uint32).ravel()
        n_exc = d["freq_n_exc"].astype(np.int64)
        esel = np.flatnonzero(n_exc)
        if len(esel):
            ne = n_exc[esel]
            e_at = f_offs[esel] + (blens[esel] * fws[esel] + 7) // 8
            pos = _gather(data, e_at, 2 * ne).view("<u2")
            freqs[np.repeat(esel * BLOCK_SIZE, ne) + pos] = _gather(
                data, e_at + 2 * ne, 4 * ne
            ).view("<u4")
        n = self.doc_count
        return ids.ravel()[:n], freqs[:n]

    def lookup_docs(self, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Seek-style membership probe for a sorted candidate docid list:
        decode ONLY the blocks whose [first, last] range contains a target
        — the block directory plays the reference's skip structure
        (``Lucene104PostingsReader.java:253-264`` ``skipLevel1To`` /
        ``moveToNextLevel0Block``). Drives the leapfrog conjunction: blocks
        with no surviving candidate are never touched.

        → ``(mask bool[n], freqs uint32[n])`` aligned with ``targets``
        (freq 0 where absent)."""
        t = np.asarray(targets, dtype=np.int64)
        mask = np.zeros(len(t), dtype=bool)
        freqs = np.zeros(len(t), dtype=np.uint32)
        if len(t) == 0 or self.n_blocks == 0:
            return mask, freqs
        plan = self._probe_plan(t)
        if plan is None:
            return probe_decoded(*self.decode_all(), t)
        bi, sub, needed = plan
        for b in needed:
            sel = sub[bi[sub] == b]
            ids, fr = self.decode_block(int(b))
            pos = np.searchsorted(ids, t[sel])
            safe = np.minimum(pos, len(ids) - 1)
            ok = ids[safe] == t[sel]
            hit = sel[ok]
            mask[hit] = True
            freqs[hit] = fr[pos[ok]]
        return mask, freqs

    def probe_decodes_all(self, targets: np.ndarray) -> bool:
        """Whether ``lookup_docs(targets)`` answers from a full decode."""
        t = np.asarray(targets, dtype=np.int64)
        return len(t) > 0 and self.n_blocks > 0 and self._probe_plan(t) is None

    def _probe_plan(self, t: np.ndarray):
        """Blocks a sorted int64 target list touches → ``(bi, sub,
        needed)``: each target's block, the targets inside their block's
        [first, last] range, and the distinct blocks among those. None
        when the candidates touch ¼ of the blocks or more: then the
        batched full decode (one unpackbits per width) beats a per-block
        Python loop."""
        d = self.directory
        lasts = d["last_docid"].astype(np.int64)
        firsts = d["first_docid"].astype(np.int64)
        bi = np.searchsorted(lasts, t)  # first block whose last ≥ target
        sub = np.flatnonzero(bi < self.n_blocks)
        sub = sub[firsts[bi[sub]] <= t[sub]]
        needed = np.unique(bi[sub])
        if len(needed) * 4 >= self.n_blocks:
            return None
        return bi, sub, needed


def probe_decoded(
    ids: np.ndarray, freqs: np.ndarray, t: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``lookup_docs`` over already-decoded (ids, freqs) of one term: →
    ``(mask, freqs)`` aligned with the sorted int64 targets ``t``."""
    mask = np.zeros(len(t), dtype=bool)
    out = np.zeros(len(t), dtype=np.uint32)
    if len(t) == 0 or len(ids) == 0:
        return mask, out
    pos = np.searchsorted(ids, t)
    safe = np.minimum(pos, len(ids) - 1)
    ok = ids[safe] == t
    mask[ok] = True
    out[ok] = freqs[pos[ok]]
    return mask, out


def _gather(data: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``data[starts[i] : starts[i]+counts[i]]`` for all i via
    ONE fancy-index gather (no per-slice Python)."""
    return data[ranges(starts, counts)]


def _unpack_runs(
    data: np.ndarray, byte_starts: np.ndarray, cnts: np.ndarray, w: int
) -> np.ndarray:
    """Unpack many bit-packed runs at width ``w`` (each byte-aligned and
    byte-padded, per :func:`pack`): their bytes are gathered into one
    zero-padded buffer, where value k of run t starts at bit
    ``8·(run t's first byte) + k·w`` and the big-endian 8-byte word read
    at that byte holds it whole (w + 7 ≤ 39 bits), so one shift and mask
    per value extract it. → flat uint32 values in run order
    (``cnts.sum()`` total)."""
    pb = (cnts * w + 7) // 8
    big = np.zeros(int(pb.sum()) + 8, dtype=np.uint8)
    big[:-8] = _gather(data, byte_starts, pb)
    words = np.ndarray(len(big) - 7, dtype=">u8", buffer=big, strides=(1,))
    vstart = np.repeat(excl_cumsum(pb) * 8 - excl_cumsum(cnts) * w, cnts) + (
        np.arange(int(cnts.sum()), dtype=np.int64) * w
    )
    vals = words[vstart >> 3].astype(np.uint64)
    vals >>= (64 - w - (vstart & 7)).astype(np.uint64)
    vals &= np.uint64((1 << w) - 1)
    return vals.astype(np.uint32)


def decode_postings_batch(
    data: np.ndarray, offs: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode MANY ray104 postings blobs from one buffer in a few
    vectorized passes — the inverse of :func:`encode_postings_flat` and
    the cross-TERM analogue of ``decode_all``'s cross-block batching
    (``Lucene104PostingsReader`` bulk-read role). Single-block terms
    (df ≤ 256 — the overwhelming majority of a Zipf vocabulary) group
    into one unpack per (kind, width); multi-block terms fall back to
    ``PostingsView``.

    → ``(docids uint32, freqs uint32, doc_counts int64)``: blob i's
    postings are the ``doc_counts[i]`` pairs from the exclusive cumsum
    of ``doc_counts`` on.
    """
    offs = np.asarray(offs, dtype=np.int64)
    # headers: u32 doc_count, u32 n_blocks
    hdr = data[offs[:, None] + np.arange(8, dtype=np.int64)]
    doc_counts = np.ascontiguousarray(hdr[:, :4]).view("<u4").ravel().astype(np.int64)
    n_blocks = np.ascontiguousarray(hdr[:, 4:]).view("<u4").ravel().astype(np.int64)
    run_starts = excl_cumsum(doc_counts)
    # zeros: a width-0 docid run is the single docid 0, a width-0 freq
    # base is all zero bits
    flat_ids = np.zeros(int(doc_counts.sum()), dtype=np.uint32)
    flat_tfs = np.zeros(len(flat_ids), dtype=np.uint32)

    for ti in np.flatnonzero(n_blocks != 1).tolist():
        o, s = int(offs[ti]), int(run_starts[ti])
        ids, tfs = PostingsView(data[o : o + int(lens[ti])]).decode_all()
        flat_ids[s : s + len(ids)] = ids
        flat_tfs[s : s + len(tfs)] = tfs

    single = np.flatnonzero(n_blocks == 1)
    if len(single) == 0:
        return flat_ids, flat_tfs, doc_counts
    dsz = _DIR_DTYPE.itemsize
    drows = np.ascontiguousarray(
        data[(offs[single] + 8)[:, None] + np.arange(dsz, dtype=np.int64)]
    ).view(_DIR_DTYPE).ravel()
    cnt = drows["block_len"].astype(np.int64)
    kinds = drows["docid_kind"]
    widths = drows["docid_width"].astype(np.int64)
    fwidths = drows["freq_width"].astype(np.int64)
    n_exc = drows["freq_n_exc"].astype(np.int64)
    firsts = drows["first_docid"].astype(np.int64)
    lasts = drows["last_docid"].astype(np.int64)
    dstart = offs[single] + 8 + dsz  # single block ⇒ data_offset == 0
    starts = run_starts[single]

    # ---- docids: FOR blocks grouped by width, gaps summed per run ----
    # bitset: ceil(span/8) bytes; FOR: packed_size(cnt, width)
    docid_bytes = np.where(
        kinds == 1, (lasts - firsts + 1 + 7) // 8, (cnt * widths + 7) // 8
    )
    for w in np.unique(widths[kinds == 0]).tolist():
        if w == 0:
            continue
        sel = np.flatnonzero((kinds == 0) & (widths == w))
        gaps = _unpack_runs(data, dstart[sel], cnt[sel], w).astype(np.int64)
        cs = np.cumsum(gaps)
        seg0 = excl_cumsum(cnt[sel])
        # cumsum carried in from the earlier runs of this group
        cs -= np.repeat(cs[seg0] - gaps[seg0], cnt[sel])
        flat_ids[ranges(starts[sel], cnt[sel])] = cs

    # ---- docids: bitset blocks (dense head terms) ----
    bsel = np.flatnonzero(kinds == 1)
    if len(bsel):
        nbytes = (lasts[bsel] - firsts[bsel] + 1 + 7) // 8
        setpos = np.flatnonzero(np.unpackbits(_gather(data, dstart[bsel], nbytes)))
        # per-term groups are contiguous in bit space; padding bits are 0
        cnts = cnt[bsel]
        setpos += np.repeat(firsts[bsel] - excl_cumsum(nbytes * 8), cnts)
        flat_ids[ranges(starts[bsel], cnts)] = setpos

    # ---- freqs: PFor base grouped by width, exceptions patched after ----
    fstart = dstart + docid_bytes
    for w in np.unique(fwidths).tolist():
        if w == 0:
            continue
        sel = np.flatnonzero(fwidths == w)
        flat_tfs[ranges(starts[sel], cnt[sel])] = _unpack_runs(
            data, fstart[sel], cnt[sel], w
        )
    for j in np.flatnonzero(n_exc > 0).tolist():  # rare (≤7 per term)
        ne = int(n_exc[j])
        eoff = int(fstart[j]) + int((cnt[j] * fwidths[j] + 7) // 8)
        pos = np.asarray(data[eoff : eoff + ne * 2]).view("<u2").astype(np.int64)
        val = np.asarray(data[eoff + ne * 2 : eoff + ne * 6]).view("<u4")
        flat_tfs[int(starts[j]) + pos] = val
    return flat_ids, flat_tfs, doc_counts
