"""FOR (Frame-of-Reference) bit-packing and PFor exception patching.

NumPy reimplementation of the roles of the reference's ``ForUtil`` /
``PForUtil`` (``lucene/core/src/java/org/apache/lucene/codecs/lucene104/ForUtil.java:34``,
``.../PForUtil.java:27-95``): fixed-width bit-packing of integer blocks,
with PFor allowing up to 7 exception values patched separately so outliers
don't inflate the block's bit width.

Unlike the Java SIMD layout we pack big-endian bit streams via
``np.packbits`` — the on-disk format is ours; only the compression
*semantics* (delta-gap FOR blocks, ≤7 PFor exceptions, bitset-when-denser)
follow the reference.

Readers decode through :func:`unpack_rows`, many packed rows at once
over a zero-padded buffer. :func:`unpack` and :func:`pfor_decode` decode
one run bit by bit: they are the references the tests compare against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

MAX_PFOR_EXCEPTIONS = 7  # PForUtil.MAX_EXCEPTIONS (PForUtil.java:29)
ROW = 256  # values in a full packed row (a postings or uint block)

# word-gather tables per width w (rows) and value k (columns): value k of
# a row packed at w bits starts in byte (k·w) >> 3, and the big-endian
# 8-byte word read there holds it at right shift 64 − w − (k·w & 7)
_KW = np.arange(33, dtype=np.int64)[:, None] * np.arange(ROW, dtype=np.int64)
_WORD_BYTE = _KW >> 3
_WORD_SHIFT = (64 - np.arange(33)[:, None] - (_KW & 7)).astype(np.uint64)
_WORD_MASK = (np.uint64(1) << np.arange(33, dtype=np.uint64)) - np.uint64(1)
_ROW_INDEX = np.arange(ROW, dtype=np.int64)
_TABLE_ROWS = 64  # full rows per table pass
# zero bytes past a decode buffer's blobs: a word read ends ≤ 8 past its row
PAD = 8

# 2^0 .. 2^31 — searchsorted(_POW2, v, "right") == bit_length(v)
_POW2 = (np.uint64(1) << np.arange(32, dtype=np.uint64)).astype(np.uint64)


def bit_width(max_value: int) -> int:
    """Bits needed for ``max_value`` (0 → 0 bits)."""
    return int(max_value).bit_length()


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """``bit_width`` of every value (< 2**53), as int32: the binary
    exponent ``frexp`` returns is the bit length (0 for 0)."""
    return np.frexp(np.asarray(values, dtype=np.float64))[1]


def pack(values: np.ndarray, width: int) -> bytes:
    """Bit-pack ``values`` (uint32, all < 2**width) into a big-endian
    bitstream padded to a byte boundary. ``width == 0`` packs nothing."""
    if width == 0:
        return b""
    if width > 32:
        raise ValueError(f"width > 32: {width}")
    return _pack_be(np.ascontiguousarray(values, dtype=np.uint32), width).tobytes()


def _pack_be(v: np.ndarray, width: int) -> np.ndarray:
    """``pack`` as a uint8 array: each value's big-endian bytes unpacked
    to bits, the low ``width`` bit columns kept, packed again."""
    k = 1 if width <= 8 else 2 if width <= 16 else 4
    bits = np.unpackbits(v.astype(f">u{k}").view(np.uint8)).reshape(-1, 8 * k)
    return np.packbits(bits[:, 8 * k - width :])


def excl_cumsum(x: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum as int64: ``[0, x0, x0+x1, ...]`` (len(x))."""
    out = np.zeros(len(x), dtype=np.int64)
    if len(x) > 1:
        np.cumsum(x[:-1], out=out[1:])
    return out


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat int64 index of many runs: ``arange(s, s + c)`` for every
    (start, count) pair, concatenated, in one repeat."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    return np.repeat(
        np.asarray(starts, dtype=np.int64) - excl_cumsum(counts), counts
    ) + np.arange(total, dtype=np.int64)


def put_rows(out: np.ndarray, pos: np.ndarray, rows: np.ndarray) -> None:
    """Scatter the fixed-width records of ``rows`` (a contiguous array of
    little-endian values or structs, one record per ``pos``) into the
    uint8 buffer ``out`` at byte offsets ``pos``."""
    if len(pos):
        b = rows.view(np.uint8).reshape(len(pos), -1)
        out[pos[:, None] + np.arange(b.shape[1])] = b


def pack_runs_into(
    out: np.ndarray,
    dst: np.ndarray,
    values: np.ndarray,
    src: np.ndarray,
    counts: np.ndarray,
    widths: np.ndarray,
) -> None:
    """Bit-pack many runs into the uint8 buffer ``out``: run i, the
    ``counts[i]`` values from ``values[src[i]]`` on, lands at
    ``out[dst[i]:]`` exactly as ``pack(run, widths[i])`` would write it.
    One pack per distinct width: each run is zero-padded to a multiple
    of 8 values, so every run starts on a byte of the packed stream and
    its padding bits are the zero bits ``pack`` pads with."""
    for w in np.unique(widths).tolist():
        if w == 0:
            continue
        sel = np.flatnonzero(widths == w)
        c = counts[sel]
        padded = (c + 7) // 8 * 8
        pstart = excl_cumsum(padded)
        big = np.zeros(int(padded.sum()), dtype=np.uint32)
        big[ranges(pstart, c)] = values[ranges(src[sel], c)]
        packed = _pack_be(big, w)
        nbytes = (c * w + 7) // 8
        out[ranges(dst[sel], nbytes)] = packed[ranges(pstart * w // 8, nbytes)]


def pad_pieces(pieces) -> Tuple[np.ndarray, np.ndarray]:
    """Byte arrays back to back in one fresh buffer, :data:`PAD` zero
    bytes after them → ``(buf uint8, start of each piece int64)``."""
    at = np.cumsum([0] + [len(p) for p in pieces])
    buf = np.zeros(int(at[-1]) + PAD, dtype=np.uint8)
    if len(pieces):
        np.concatenate(pieces, out=buf[: at[-1]])
    return buf, at[:-1]


def pad_blobs(src, offs, lens) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`pad_pieces` of the span of ``src`` that holds the blobs
    ``src[offs[i] : offs[i] + lens[i]]`` → ``(buf, their offsets)``."""
    offs = np.asarray(offs, dtype=np.int64)
    lo = int(offs.min()) if len(offs) else 0
    hi = int((offs + lens).max()) if len(offs) else 0
    return pad_pieces([src[lo:hi]])[0], offs - lo


def words_of(buf: np.ndarray) -> np.ndarray:
    """The big-endian 8-byte word at every byte of ``buf`` (a view)."""
    return np.ndarray(len(buf) - 7, dtype=">u8", buffer=buf, strides=(1,))


def unpack_rows(words, out, at, counts, widths, out_at) -> None:
    """Unpack many rows packed by :func:`pack`: row i, ``counts[i]``
    values of ``widths[i]`` bits at byte ``at[i]`` of the buffer under
    ``words``, into ``out[out_at[i]:]`` (int64 arrays, ``out_at``
    ascending). Value k sits at bit k·w of its row, so the word read at
    its first byte holds it whole (w + 7 ≤ 39 bits) and one shift and
    mask extract it (width 0 gives zeros). Full rows read through the
    (rows, 256) word tables, a lone row through plain-int slices of them,
    other short rows value by value (a few reads for a few values)."""
    if len(counts) == 1:
        w, a, o, c = int(widths[0]), int(at[0]), int(out_at[0]), int(counts[0])
        vals = words[_WORD_BYTE[w, :c] + a] >> _WORD_SHIFT[w, :c]
        vals &= _WORD_MASK[w]
        out[o : o + c] = vals
        return
    full = (counts == ROW).nonzero()[0]
    if len(full):
        _unpack_full(words, out, at[full], widths[full], out_at[full])
        if len(full) < len(counts):
            s = (counts != ROW).nonzero()[0]
            unpack_rows(words, out, at[s], counts[s], widths[s], out_at[s])
        return
    i = np.arange(int(counts.sum()), dtype=np.int64)
    start = excl_cumsum(counts)
    vw = widths.repeat(counts)
    bit = (8 * at - start * widths).repeat(counts)
    bit += i * vw
    shift = 64 - vw
    shift -= bit & 7
    vals = words[bit >> 3] >> shift.view(np.uint64)
    vals &= _WORD_MASK[vw]
    i += (out_at - start).repeat(counts)
    out[i] = vals


def _unpack_full(words, out, at, widths, out_at) -> None:
    """:func:`unpack_rows` of full rows by the tables, :data:`_TABLE_ROWS`
    rows at a time (the temporaries stay in cache); rows back to back in
    ``out`` land by one slice copy."""
    for lo in range(0, len(at), _TABLE_ROWS):
        w, o = widths[lo : lo + _TABLE_ROWS], out_at[lo : lo + _TABLE_ROWS]
        idx = _WORD_BYTE[w] + at[lo : lo + _TABLE_ROWS, None]
        vals = words[idx].view(np.uint64)
        vals.byteswap(inplace=True)  # the big-endian words, in native order
        vals >>= _WORD_SHIFT[w]
        vals &= _WORD_MASK[w, None]
        if o[-1] - o[0] == ROW * (len(o) - 1):
            out[o[0] : o[0] + vals.size] = vals.ravel()
        else:
            out[o[:, None] + _ROW_INDEX] = vals


def unpack(buf: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack` for one run, bit by bit (a test reference)."""
    if width == 0:
        return np.zeros(count, dtype=np.uint32)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=count * width)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return (bits.reshape(count, width).astype(np.uint32) << shifts).sum(
        axis=1, dtype=np.uint32
    )


def pfor_encode(values: np.ndarray) -> Tuple[int, bytes, np.ndarray, np.ndarray]:
    """PFor: choose the smallest base width leaving ≤7 exceptions.

    Returns ``(width, packed_base, exc_positions uint8/uint16, exc_values
    uint32)``. Exception slots in the base stream hold the value's low
    ``width`` bits; decode patches the full value back in.
    """
    v = np.ascontiguousarray(values, dtype=np.uint32)
    if len(v) == 0:
        return 0, b"", np.empty(0, np.uint16), np.empty(0, np.uint32)
    # bit length of each value via one searchsorted against 2^w bounds;
    # n_exc(w) = #values with bit length > w — pick smallest w leaving ≤7
    bl = np.searchsorted(_POW2, v, side="right").astype(np.int64)
    max_w = int(bl.max())
    counts = np.bincount(bl, minlength=max_w + 1)
    n_gt = counts[::-1].cumsum()[::-1]  # n_gt[w] = #values with bl > w-1
    best_w = max_w
    for w in range(max_w):
        if (n_gt[w + 1] if w + 1 <= max_w else 0) <= MAX_PFOR_EXCEPTIONS:
            best_w = w
            break
    mask = np.uint32((1 << best_w) - 1) if best_w < 32 else np.uint32(0xFFFFFFFF)
    base = v & mask
    exc_pos = np.flatnonzero(v > mask).astype(np.uint16)
    exc_val = v[exc_pos].astype(np.uint32)
    return best_w, pack(base, best_w), exc_pos, exc_val


def pfor_decode(
    buf, count: int, width: int, exc_pos: np.ndarray, exc_val: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`pfor_encode` for one run (a test reference)."""
    out = unpack(buf, count, width)
    if len(exc_pos):
        out[exc_pos] = exc_val
    return out
