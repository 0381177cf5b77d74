"""FOR (Frame-of-Reference) bit-packing and PFor exception patching.

NumPy reimplementation of the roles of the reference's ``ForUtil`` /
``PForUtil`` (``lucene/core/src/java/org/apache/lucene/codecs/lucene104/ForUtil.java:34``,
``.../PForUtil.java:27-95``): fixed-width bit-packing of integer blocks,
with PFor allowing up to 7 exception values patched separately so outliers
don't inflate the block's bit width.

Unlike the Java SIMD layout we pack big-endian bit streams via
``np.packbits`` / ``np.unpackbits`` — the on-disk format is ours; only the
compression *semantics* (delta-gap FOR blocks, ≤7 PFor exceptions,
bitset-when-denser) follow the reference.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

MAX_PFOR_EXCEPTIONS = 7  # PForUtil.MAX_EXCEPTIONS (PForUtil.java:29)

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


def unpack(buf: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack`; ``buf`` is a uint8 array/memoryview slice."""
    if width == 0:
        return np.zeros(count, dtype=np.uint32)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=count * width)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return (bits.reshape(count, width).astype(np.uint32) << shifts).sum(
        axis=1, dtype=np.uint32
    )


def packed_size(count: int, width: int) -> int:
    return (count * width + 7) // 8


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
    out = unpack(buf, count, width)
    if len(exc_pos):
        out[exc_pos] = exc_val
    return out
