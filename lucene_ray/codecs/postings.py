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

from typing import Dict, List, Optional, Tuple

import numpy as np

from lucene_ray.codecs.forutil import (
    _POW2,
    bit_width,
    pack,
    packed_size,
    pfor_decode,
    pfor_encode,
    unpack,
)
from lucene_ray.codecs.smallfloat import LENGTH_TABLE

BLOCK_SIZE = 256  # Lucene104PostingsFormat.BLOCK_SIZE (:343)

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
    docids = np.ascontiguousarray(docids, dtype=np.uint32)
    freqs = np.ascontiguousarray(freqs, dtype=np.uint32)
    n = len(docids)
    if n == 0:
        raise ValueError("empty posting list")
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    directory = np.zeros(n_blocks, dtype=_DIR_DTYPE)
    data_parts: List[bytes] = []
    offset = 0
    prev_last = -1
    for bi in range(n_blocks):
        lo, hi = bi * BLOCK_SIZE, min((bi + 1) * BLOCK_SIZE, n)
        ids = docids[lo:hi]
        fr = freqs[lo:hi]
        blen = hi - lo
        first, last = int(ids[0]), int(ids[-1])
        gaps = np.diff(ids, prepend=np.uint32(prev_last + 1)).astype(np.uint32)
        # gaps relative to prev block's last + 1 ⇒ min gap 0 for adjacent ids
        w_for = bit_width(int(gaps.max())) if blen else 0
        for_bytes = packed_size(blen, w_for)
        span = last - first + 1
        bitset_bytes = (span + 7) // 8
        if bitset_bytes < for_bytes:
            kind, width = 1, 0
            bs = np.zeros(bitset_bytes * 8, dtype=np.uint8)
            bs[ids - first] = 1
            docid_data = np.packbits(bs).tobytes()
        else:
            kind, width = 0, w_for
            docid_data = pack(gaps, w_for)
        fw, fbase, fexc_pos, fexc_val = pfor_encode(fr)
        imp = (
            competitive_impacts(fr, norms[lo:hi])
            if norms is not None
            else np.zeros(0, dtype=[("freq", "<u4"), ("norm", "u1")])
        )
        block = b"".join(
            [
                docid_data,
                fbase,
                fexc_pos.astype("<u2").tobytes(),
                fexc_val.astype("<u4").tobytes(),
                imp["freq"].astype("<u4").tobytes(),
                imp["norm"].tobytes(),
            ]
        )
        d = directory[bi]
        d["first_docid"], d["last_docid"] = first, last
        d["data_offset"] = offset
        d["docid_kind"], d["docid_width"] = kind, width
        d["freq_width"], d["freq_n_exc"] = fw, len(fexc_pos)
        d["n_impacts"] = len(imp)
        d["block_len"] = blen
        data_parts.append(block)
        offset += len(block)
        prev_last = last
    header = np.array([n, n_blocks], dtype="<u4").tobytes()
    return header + directory.tobytes() + b"".join(data_parts)


def encode_postings_batch(
    pair_docids: np.ndarray,
    pair_tfs: np.ndarray,
    norms: np.ndarray,
    term_starts: np.ndarray,
    pair_norms: Optional[np.ndarray] = None,
) -> List[bytes]:
    """Encode MANY terms' postings at once — same blob format as
    :func:`encode_postings`, decoded by the same reader.

    Single-block terms (df ≤ 256 — the Zipf tail, i.e. almost all terms)
    are encoded with *global* vectorized passes: one diff for all gaps,
    ``np.maximum.reduceat`` for widths, and one ``np.packbits`` call per
    distinct bit width using pad-to-8-values alignment (8 values × w bits
    is always whole bytes, so per-term slices stay byte-aligned).
    Multi-block terms fall back to :func:`encode_postings`.

    Deterministic: the same inputs always produce the same bytes (resume
    checksums rely on this). Freq base widths here may be one bit wider
    than the per-term PFor search would pick (no exception hunting in the
    batch path); the directory records the width, so decode is identical.
    """
    n_terms = len(term_starts) - 1
    docids = pair_docids.astype(np.int64)
    tfs = pair_tfs.astype(np.uint32)
    starts = term_starts[:-1]
    ends = term_starts[1:]
    dfs = (ends - starts).astype(np.int64)

    out: List[Optional[bytes]] = [None] * n_terms
    multi = np.flatnonzero(dfs > BLOCK_SIZE)
    for ti in multi:
        s, e = int(starts[ti]), int(ends[ti])
        out[ti] = encode_postings(
            pair_docids[s:e],
            pair_tfs[s:e],
            pair_norms[s:e] if pair_norms is not None
            else norms[pair_docids[s:e]],
        )
    single = np.flatnonzero(dfs <= BLOCK_SIZE)
    if len(single) == 0:
        return out  # type: ignore[return-value]

    # ---- gaps for every pair in one pass (first gap = absolute docid) ----
    gaps = np.empty(len(docids), dtype=np.int64)
    if len(docids):
        gaps[1:] = docids[1:] - docids[:-1]
        gaps[starts] = docids[starts]
    max_gap = np.maximum.reduceat(gaps, starts)  # per term (len>=1 each)
    max_tf = np.maximum.reduceat(tfs.astype(np.int64), starts)
    gw = np.searchsorted(_POW2, max_gap, side="right")
    fw = np.searchsorted(_POW2, max_tf, side="right")
    first_doc = docids[starts]
    last_doc = docids[ends - 1]

    # bitset-vs-FOR decision per single-block term
    span_bytes = (last_doc - first_doc + 1 + 7) // 8
    for_bytes = (dfs * gw + 7) // 8
    use_bitset = span_bytes < for_bytes

    # ---- per-(term, norm) max freq → pareto impacts (pure-int inner loop
    # over the few distinct norms per term) ----
    # pair_norms may arrive pre-gathered (shuffle build passes norms for
    # ONLY the docids this bucket touches — gathering norms[docid] here
    # would need the whole corpus's norms resident in every bucket task)
    pair_norms = (
        pair_norms.astype(np.int64)
        if pair_norms is not None
        else norms[pair_docids].astype(np.int64)
    )
    term_idx = np.repeat(np.arange(n_terms, dtype=np.int64), dfs)
    combo = term_idx * 256 + pair_norms
    order = np.argsort(combo, kind="stable")
    combo_s = combo[order]
    tf_s = tfs[order].astype(np.int64)
    grp_mask = np.empty(len(combo_s), dtype=bool)
    if len(combo_s):
        grp_mask[0] = True
        np.not_equal(combo_s[1:], combo_s[:-1], out=grp_mask[1:])
    grp_starts = np.flatnonzero(grp_mask)
    grp_combo = combo_s[grp_starts]
    grp_max = np.maximum.reduceat(tf_s, grp_starts) if len(grp_starts) else np.empty(0, np.int64)
    grp_term = grp_combo // 256
    grp_norm = grp_combo % 256
    # per-term slices over the (term, norm) groups
    tgrp_starts = np.searchsorted(grp_term, np.arange(n_terms))
    tgrp_ends = np.searchsorted(grp_term, np.arange(n_terms) + 1)

    # ---- batched packing per distinct width ----
    def batched_pack(values: np.ndarray, starts_, counts, widths, sel):
        """→ dict term_index -> packed bytes for the selected terms."""
        blobs: Dict[int, bytes] = {}
        for w in np.unique(widths[sel]):
            w = int(w)
            tsel = sel[widths[sel] == w]
            if w == 0:
                for ti in tsel:
                    blobs[int(ti)] = b""
                continue
            padded = ((counts[tsel] + 7) // 8) * 8
            total = int(padded.sum())
            big = np.zeros(total, dtype=np.uint32)
            pos = 0
            offs = []
            for ti, pc_ in zip(tsel, padded):
                s, c = int(starts_[ti]), int(counts[ti])
                big[pos : pos + c] = values[s : s + c]
                offs.append((int(ti), pos, int(pc_)))
                pos += int(pc_)
            packed = np.packbits(
                ((big[:, None] >> np.arange(w - 1, -1, -1, dtype=np.uint32)) & 1)
                .astype(np.uint8)
                .ravel()
            ).tobytes()
            for ti, p, pc_ in offs:
                byte_lo = p * w // 8
                blobs[ti] = packed[byte_lo : byte_lo + pc_ * w // 8]
        return blobs

    gap_blobs = batched_pack(
        gaps.astype(np.uint32), starts, dfs, gw, single[~use_bitset[single]]
    )
    freq_blobs = batched_pack(tfs, starts, dfs, fw, single)

    # ---- pareto impacts for ALL terms at once: running max within each
    # term's (norm asc) groups via the offset-cummax trick (term*BIG+val
    # is monotone across term boundaries, so one np.maximum.accumulate
    # does a segmented cummax); an impact survives iff it beats the
    # running max of the norms before it ----
    n_grps = len(grp_max)
    if n_grps:
        BIG = np.int64(1) << 32
        cm = np.maximum.accumulate(grp_term * BIG + grp_max)
        prev = np.empty(n_grps, dtype=np.int64)
        prev[0] = -1
        prev[1:] = cm[:-1]
        keep = grp_max > (prev - grp_term * BIG)
        imp_f_flat = grp_max[keep].astype("<u4")
        imp_n_flat = grp_norm[keep].astype(np.uint8)
        keep_cum = np.concatenate(
            [[0], np.cumsum(keep, dtype=np.int64)]
        )
        imp_lo = keep_cum[tgrp_starts]
        imp_hi = keep_cum[tgrp_ends]
    else:
        imp_f_flat = np.empty(0, "<u4")
        imp_n_flat = np.empty(0, np.uint8)
        imp_lo = imp_hi = np.zeros(n_terms, dtype=np.int64)
    imp_f_bytes = imp_f_flat.tobytes()
    imp_n_bytes = imp_n_flat.tobytes()

    # ---- batched bitset build: one zeros + one packbits for every
    # bitset-coded term (byte-padded spans keep per-term slices aligned)
    bt = single[use_bitset[single]]
    bitset_slices: Dict[int, bytes] = {}
    if len(bt):
        spans8 = ((last_doc[bt] - first_doc[bt] + 1 + 7) // 8) * 8
        bit_base = np.cumsum(spans8) - spans8
        bdfs = dfs[bt]
        total_pairs = int(bdfs.sum())
        rep_starts = np.repeat(starts[bt], bdfs)
        offs_in = np.arange(total_pairs, dtype=np.int64) - np.repeat(
            np.cumsum(bdfs) - bdfs, bdfs
        )
        pair_idx = rep_starts + offs_in
        rel = docids[pair_idx] - np.repeat(first_doc[bt], bdfs)
        big_bits = np.zeros(int(spans8.sum()), dtype=np.uint8)
        big_bits[np.repeat(bit_base, bdfs) + rel] = 1
        packed_all = np.packbits(big_bits).tobytes()
        for j, ti in enumerate(bt):
            lo = int(bit_base[j]) // 8
            bitset_slices[int(ti)] = packed_all[lo : lo + int(spans8[j]) // 8]

    # ---- headers + prefixes assembled vectorized, sliced per term ----
    n_s = len(single)
    hdr = np.zeros(n_s, dtype=_DIR_DTYPE)
    hdr["first_docid"] = first_doc[single]
    hdr["last_docid"] = last_doc[single]
    ub = use_bitset[single]
    hdr["docid_kind"] = ub.astype(hdr["docid_kind"].dtype)
    hdr["docid_width"] = np.where(ub, 0, gw[single])
    hdr["freq_width"] = fw[single]
    hdr["n_impacts"] = (imp_hi - imp_lo)[single]
    hdr["block_len"] = dfs[single]
    hdr_bytes = hdr.tobytes()
    hsz = hdr.itemsize
    prefix = np.empty((n_s, 2), dtype="<u4")
    prefix[:, 0] = dfs[single]
    prefix[:, 1] = 1
    prefix_bytes = prefix.tobytes()

    for j in range(n_s):
        ti = int(single[j])
        df = int(dfs[ti])
        if ub[j]:
            dblob = bitset_slices[ti]
        else:
            dblob = gap_blobs[ti][: (df * int(gw[ti]) + 7) // 8]
        fblob = freq_blobs[ti][: (df * int(fw[ti]) + 7) // 8]
        lo, hi = int(imp_lo[ti]), int(imp_hi[ti])
        out[ti] = b"".join(
            (
                prefix_bytes[j * 8 : j * 8 + 8],
                hdr_bytes[j * hsz : (j + 1) * hsz],
                dblob,
                fblob,
                imp_f_bytes[lo * 4 : hi * 4],
                imp_n_bytes[lo:hi],
            )
        )
    return out  # type: ignore[return-value]


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
        d = self.directory[bi]
        blen = int(d["block_len"])
        off = int(d["data_offset"])
        first = int(d["first_docid"])
        if d["docid_kind"] == 1:
            span = int(d["last_docid"]) - first + 1
            nbytes = (span + 7) // 8
            bits = np.unpackbits(self.data[off : off + nbytes], count=span)
            ids = (np.flatnonzero(bits) + first).astype(np.uint32)
            off += nbytes
        else:
            w = int(d["docid_width"])
            nbytes = packed_size(blen, w)
            gaps = unpack(self.data[off : off + nbytes], blen, w)
            prev = (
                int(self.directory[bi - 1]["last_docid"]) + 1 if bi > 0 else 0
            )
            ids = (np.cumsum(gaps.astype(np.uint64)) + prev).astype(np.uint32)
            off += nbytes
        fw, n_exc = int(d["freq_width"]), int(d["freq_n_exc"])
        fb = packed_size(blen, fw)
        fbuf = self.data[off : off + fb]
        off += fb
        exc_pos = self.data[off : off + n_exc * 2].view("<u2")
        off += n_exc * 2
        exc_val = self.data[off : off + n_exc * 4].view("<u4")
        freqs = pfor_decode(fbuf, blen, fw, exc_pos, exc_val)
        return ids, freqs

    def impacts(self, bi: int) -> np.ndarray:
        d = self.directory[bi]
        blen = int(d["block_len"])
        n_imp = int(d["n_impacts"])
        off = int(d["data_offset"])
        if d["docid_kind"] == 1:
            off += (int(d["last_docid"]) - int(d["first_docid"]) + 1 + 7) // 8
        else:
            off += packed_size(blen, int(d["docid_width"]))
        off += packed_size(blen, int(d["freq_width"])) + int(d["freq_n_exc"]) * 6
        out = np.zeros(n_imp, dtype=[("freq", "<u4"), ("norm", "u1")])
        out["freq"] = self.data[off : off + n_imp * 4].view("<u4")
        off += n_imp * 4
        out["norm"] = self.data[off : off + n_imp]
        return out

    def decode_all(self) -> Tuple[np.ndarray, np.ndarray]:
        """Full decode → (docids, freqs), batched across blocks:

        - full FOR blocks grouped by bit width → one ``np.unpackbits`` per
          width;
        - full bitset blocks (dense head terms) → ONE ``np.unpackbits`` +
          ``np.flatnonzero`` over their concatenated spans (byte-aligned
          per block; padding bits are zero);
        - freqs of all full blocks grouped by PFor width;
        - the short tail block decodes individually.
        """
        if self.n_blocks <= 2:
            if self.n_blocks == 1:
                return self.decode_block(0)
            i0, f0 = self.decode_block(0)
            i1, f1 = self.decode_block(1)
            return np.concatenate([i0, i1]), np.concatenate([f0, f1])
        d = self.directory
        n = self.doc_count
        blens = d["block_len"].astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(blens)[:-1]])
        data = self.data
        ids_out = np.empty(n, dtype=np.uint32)
        freqs_out = np.empty(n, dtype=np.uint32)

        offs = d["data_offset"].astype(np.int64)
        firsts = d["first_docid"].astype(np.int64)
        lasts = d["last_docid"].astype(np.int64)
        widths = d["docid_width"].astype(np.int64)
        kinds = d["docid_kind"]
        full = blens == BLOCK_SIZE

        for bi in np.flatnonzero(~full):  # tail block(s)
            ids, fr = self.decode_block(int(bi))
            lo = int(starts[bi])
            ids_out[lo : lo + len(ids)] = ids
            freqs_out[lo : lo + len(fr)] = fr

        # ---- full bitset blocks: one unpackbits + flatnonzero ----
        bsel = np.flatnonzero(full & (kinds == 1))
        if len(bsel):
            spans = lasts[bsel] - firsts[bsel] + 1
            nbytes = (spans + 7) // 8
            big = np.concatenate([data[offs[bi] : offs[bi] + nb]
                                  for bi, nb in zip(bsel, nbytes)])
            bits = np.unpackbits(big)
            setpos = np.flatnonzero(bits)
            # block boundaries in bit space; padding bits are zero so the
            # per-block set-bit count is exactly BLOCK_SIZE
            assert len(setpos) == len(bsel) * BLOCK_SIZE
            bit_starts = np.concatenate([[0], np.cumsum(nbytes * 8)[:-1]])
            base = np.repeat(firsts[bsel] - bit_starts, BLOCK_SIZE)
            abs_ids = (setpos + base).astype(np.uint32)
            for j, bi in enumerate(bsel):
                lo = int(starts[bi])
                ids_out[lo : lo + BLOCK_SIZE] = abs_ids[
                    j * BLOCK_SIZE : (j + 1) * BLOCK_SIZE
                ]

        # ---- full FOR blocks grouped by width ----
        fastf = full & (kinds == 0)
        for w in np.unique(widths[fastf]):
            w = int(w)
            sel = np.flatnonzero(fastf & (widths == w))
            if w == 0:
                for bi in sel:  # all-zero gaps: cannot occur beyond len 1
                    ids, _ = self.decode_block(int(bi))
                    ids_out[int(starts[bi]) : int(starts[bi]) + len(ids)] = ids
                continue
            nb = (BLOCK_SIZE * w) // 8
            buf = np.concatenate([data[o : o + nb] for o in offs[sel]])
            gaps = unpack(buf, BLOCK_SIZE * len(sel), w).reshape(len(sel), BLOCK_SIZE)
            cums = np.cumsum(gaps, axis=1, dtype=np.int64)
            abs_ids = cums + (firsts[sel] - cums[:, 0])[:, None]
            for j, bi in enumerate(sel):
                lo = int(starts[bi])
                ids_out[lo : lo + BLOCK_SIZE] = abs_ids[j].astype(np.uint32)

        # ---- freqs of ALL full blocks grouped by PFor base width ----
        docid_bytes = np.where(
            kinds == 1, (lasts - firsts + 1 + 7) // 8, (blens * widths + 7) // 8
        )
        f_offs = offs + docid_bytes
        fwidths = d["freq_width"].astype(np.int64)
        for w in np.unique(fwidths[full]):
            w = int(w)
            sel = np.flatnonzero(full & (fwidths == w))
            if w == 0:
                for bi in sel:
                    freqs_out[int(starts[bi]) : int(starts[bi]) + BLOCK_SIZE] = 0
            else:
                nb = (BLOCK_SIZE * w) // 8
                buf = np.concatenate([data[o : o + nb] for o in f_offs[sel]])
                vals = unpack(buf, BLOCK_SIZE * len(sel), w).reshape(len(sel), BLOCK_SIZE)
                for j, bi in enumerate(sel):
                    lo = int(starts[bi])
                    freqs_out[lo : lo + BLOCK_SIZE] = vals[j]
            for bi in sel:  # patch PFor exceptions
                n_exc = int(d["freq_n_exc"][bi])
                if n_exc:
                    eoff = int(f_offs[bi]) + (BLOCK_SIZE * w + 7) // 8
                    pos = data[eoff : eoff + n_exc * 2].view("<u2")
                    val = data[eoff + n_exc * 2 : eoff + n_exc * 6].view("<u4")
                    lo = int(starts[bi])
                    freqs_out[lo + pos.astype(np.int64)] = val
        return ids_out, freqs_out

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

    def _freq_offset(self, bi: int) -> int:
        d = self.directory[bi]
        off = int(d["data_offset"])
        if d["docid_kind"] == 1:
            off += (int(d["last_docid"]) - int(d["first_docid"]) + 1 + 7) // 8
        else:
            off += packed_size(int(d["block_len"]), int(d["docid_width"]))
        return off


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
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return data[np.repeat(starts, counts) + intra]


def _unpack_runs(
    data: np.ndarray, byte_starts: np.ndarray, cnts: np.ndarray, w: int
) -> np.ndarray:
    """Unpack many per-term bit-packed runs (each byte-aligned and
    byte-padded, per :func:`pack`) in ONE ``np.unpackbits`` + one fancy
    gather: value k of term t lives at bit ``t_base*8 + k*w``. → flat
    uint32 values in term order (``cnts.sum()`` total)."""
    pb = (cnts * w + 7) // 8
    big = _gather(data, byte_starts, pb)
    bits = np.unpackbits(big)
    bit_bases = (np.cumsum(pb) - pb) * 8
    total = int(cnts.sum())
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnts) - cnts, cnts
    )
    vstart = np.repeat(bit_bases, cnts) + intra * w
    idx = vstart[:, None] + np.arange(w, dtype=np.int64)
    shifts = np.arange(w - 1, -1, -1, dtype=np.uint32)
    return (bits[idx].astype(np.uint32) << shifts).sum(axis=1, dtype=np.uint32)


def decode_postings_batch(
    data: np.ndarray, offs: np.ndarray, lens: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Decode MANY ray104 postings blobs from one buffer in a few
    vectorized passes — the cross-TERM analogue of ``decode_all``'s
    cross-block batching, sized for the merge path where every term of a
    bucket is decoded exactly once (``Lucene104PostingsReader`` bulk-read
    role). Single-block terms (df ≤ 256 — the overwhelming majority of a
    Zipf vocabulary) group into one ``unpack``/``unpackbits`` call per
    (kind, width); multi-block terms fall back to ``PostingsView``.

    → list of (docids uint32, freqs uint32) aligned with ``offs``.
    """
    n = len(offs)
    out: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * n
    if n == 0:
        return out  # type: ignore[return-value]
    offs = np.asarray(offs, dtype=np.int64)
    # headers: u32 doc_count, u32 n_blocks
    hdr = data[offs[:, None] + np.arange(8, dtype=np.int64)]
    doc_counts = np.ascontiguousarray(hdr[:, :4]).view("<u4").ravel().astype(np.int64)
    n_blocks = np.ascontiguousarray(hdr[:, 4:]).view("<u4").ravel().astype(np.int64)

    multi = np.flatnonzero(n_blocks != 1)
    for ti in multi:
        o = int(offs[ti])
        out[ti] = PostingsView(data[o : o + int(lens[ti])]).decode_all()

    single = np.flatnonzero(n_blocks == 1)
    if len(single) == 0:
        return out  # type: ignore[return-value]
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

    run_starts = np.cumsum(cnt) - cnt
    total = int(cnt.sum())
    flat_ids = np.empty(total, dtype=np.uint32)
    flat_tfs = np.empty(total, dtype=np.uint32)

    # ---- docids: FOR blocks grouped by width ----
    # bitset: ceil(span/8) bytes; FOR: packed_size(cnt, width)
    docid_bytes = np.where(
        kinds == 1, (lasts - firsts + 1 + 7) // 8, (cnt * widths + 7) // 8
    )
    forsel_all = kinds == 0
    for w in np.unique(widths[forsel_all]):
        w = int(w)
        sel = np.flatnonzero(forsel_all & (widths == w))
        if w == 0:
            # all-zero gaps: only a length-1 run starting at docid 0
            for j in sel:
                flat_ids[run_starts[j] : run_starts[j] + cnt[j]] = firsts[j]
            continue
        gaps = _unpack_runs(data, dstart[sel], cnt[sel], w).astype(np.int64)
        cs = np.cumsum(gaps)
        seg0 = np.cumsum(cnt[sel]) - cnt[sel]
        base = cs[seg0] - gaps[seg0]  # cumsum carried in from prior terms
        ids = (cs - np.repeat(base, cnt[sel])).astype(np.uint32)
        pos = np.repeat(run_starts[sel], cnt[sel]) + (
            np.arange(int(cnt[sel].sum()), dtype=np.int64) - np.repeat(seg0, cnt[sel])
        )
        flat_ids[pos] = ids

    # ---- docids: bitset blocks (dense head terms) ----
    bsel = np.flatnonzero(kinds == 1)
    if len(bsel):
        nbytes = (lasts[bsel] - firsts[bsel] + 1 + 7) // 8
        big = _gather(data, dstart[bsel], nbytes)
        setpos = np.flatnonzero(np.unpackbits(big))
        # per-term groups are contiguous in bit space; padding bits are 0
        bit_starts = np.cumsum(nbytes * 8) - nbytes * 8
        cnts = cnt[bsel]
        base = np.repeat(firsts[bsel] - bit_starts, cnts)
        ids = (setpos + base).astype(np.uint32)
        seg0 = np.cumsum(cnts) - cnts
        pos = np.repeat(run_starts[bsel], cnts) + (
            np.arange(int(cnts.sum()), dtype=np.int64) - np.repeat(seg0, cnts)
        )
        flat_ids[pos] = ids

    # ---- freqs: PFor base grouped by width, exceptions patched after ----
    fstart = dstart + docid_bytes
    for w in np.unique(fwidths):
        w = int(w)
        sel = np.flatnonzero(fwidths == w)
        if w == 0:
            for j in sel:
                flat_tfs[run_starts[j] : run_starts[j] + cnt[j]] = 0
            continue
        fr = _unpack_runs(data, fstart[sel], cnt[sel], w)
        seg0 = np.cumsum(cnt[sel]) - cnt[sel]
        pos = np.repeat(run_starts[sel], cnt[sel]) + (
            np.arange(int(cnt[sel].sum()), dtype=np.int64) - np.repeat(seg0, cnt[sel])
        )
        flat_tfs[pos] = fr
    exc_terms = np.flatnonzero(n_exc > 0)
    for j in exc_terms:  # rare (≤7 exceptions/term, few terms)
        ne = int(n_exc[j])
        eoff = int(fstart[j]) + int((cnt[j] * fwidths[j] + 7) // 8)
        pos = np.asarray(data[eoff : eoff + ne * 2]).view("<u2").astype(np.int64)
        val = np.asarray(data[eoff + ne * 2 : eoff + ne * 6]).view("<u4")
        flat_tfs[int(run_starts[j]) + pos] = val

    for k, ti in enumerate(single):
        s = int(run_starts[k])
        out[ti] = (flat_ids[s : s + int(cnt[k])], flat_tfs[s : s + int(cnt[k])])
    return out  # type: ignore[return-value]
