"""The two decode kernels against ground truth: ``decode_postings``
(through ``decode_postings_batch`` and ``PostingsView``) against the
encoder's input arrays and a scalar per-block reference built on
``forutil.unpack`` / ``pfor_decode``; ``decode_uint_runs`` (through
``decode_uint_blocks(_batch)``) against its input runs and per-block
``forutil.unpack``. Shapes: FOR vs bitset docids, PFor exceptions, width
0, short last rows, doc_count edge sizes, row subsets, a blob ending at
the buffer's end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.codecs.forutil import pad_pieces, pfor_decode, unpack
from lucene_ray.codecs.postings import (
    BLOCK_SIZE,
    PostingsView,
    decode_postings,
    decode_postings_batch,
    encode_postings_batch,
    encode_postings_flat,
)


def _reference_postings(blob):
    """Scalar reference decoder: per block of the directory, the docid
    gaps by ``forutil.unpack`` (or the bitset bits), the freqs by
    ``forutil.pfor_decode``. → list of (docids, freqs) per block."""
    view = PostingsView(blob)
    out = []
    for first, last, off, kind, w, fw, n_exc, _, blen in view.directory.tolist():
        data = view.data
        if kind == 1:
            nb = (last - first + 8) // 8
            ids = np.flatnonzero(np.unpackbits(data[off : off + nb])) + first
        else:
            nb = (blen * w + 7) // 8
            gaps = unpack(data[off : off + nb], blen, w).astype(np.int64)
            ids = np.cumsum(gaps) + (first - gaps[0])
        e = off + nb + (blen * fw + 7) // 8
        freqs = pfor_decode(
            data[off + nb : e],
            blen,
            fw,
            data[e : e + 2 * n_exc].view("<u2"),
            data[e + 2 * n_exc : e + 6 * n_exc].view("<u4"),
        )
        out.append((ids.astype(np.uint32), freqs))
    return out


def _roundtrip(term_lists):
    """term_lists: list of (ids, tfs). Every term decodes to its input,
    batched, through a view, and through the scalar reference."""
    flat_ids = np.concatenate([np.asarray(i, np.uint32) for i, _ in term_lists])
    flat_tfs = np.concatenate([np.asarray(t, np.uint32) for _, t in term_lists])
    starts = np.zeros(len(term_lists) + 1, dtype=np.int64)
    np.cumsum([len(i) for i, _ in term_lists], out=starts[1:])
    pair_norms = np.ones(len(flat_ids), dtype=np.uint8)
    blobs = encode_postings_batch(flat_ids, flat_tfs, pair_norms, starts)
    buf = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    offs = np.zeros(len(blobs), dtype=np.int64)
    lens = np.array([len(b) for b in blobs], dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    flat_i, flat_t, counts = decode_postings_batch(buf, offs, lens)
    np.testing.assert_array_equal(counts, np.diff(starts))
    np.testing.assert_array_equal(flat_i, flat_ids)
    np.testing.assert_array_equal(flat_t, flat_tfs)
    for ti, (ids, tfs) in enumerate(term_lists):
        want_i, want_t = np.asarray(ids, np.uint32), np.asarray(tfs, np.uint32)
        ref = _reference_postings(bytes(blobs[ti]))
        np.testing.assert_array_equal(np.concatenate([i for i, _ in ref]), want_i)
        np.testing.assert_array_equal(np.concatenate([t for _, t in ref]), want_t)
        view_i, view_t = PostingsView(bytes(blobs[ti])).decode_all()
        s, e = starts[ti], starts[ti + 1]
        np.testing.assert_array_equal(flat_i[s:e], want_i, err_msg=f"ids term {ti}")
        np.testing.assert_array_equal(flat_t[s:e], want_t, err_msg=f"tfs term {ti}")
        np.testing.assert_array_equal(view_i, want_i)
        np.testing.assert_array_equal(view_t, want_t)


def test_fixed_shapes():
    _roundtrip(
        [
            (np.array([0]), np.array([1])),                       # w=0 ids
            (np.array([5]), np.array([3])),                       # single
            (np.arange(0, 512, 2), np.ones(256)),                 # full FOR
            (np.arange(100, 356), np.ones(256)),                  # dense → bitset
            (np.array([1, 9, 1000000]), np.array([1, 2, 7])),     # wide gaps
            (np.array([2, 3, 4, 5]), np.array([1, 1, 1, 100000])),  # PFor exc
            (np.arange(0, 2000, 3), np.ones(667)),                # multi-block
            (np.array([7, 8]), np.array([4, 4])),                 # tiny, fw exc path
        ]
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sets(st.integers(0, 30000), min_size=1, max_size=700),
            st.randoms(use_true_random=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fuzz_matches_per_term_decode(term_specs):
    term_lists = []
    for idset, rnd in term_specs:
        ids = np.array(sorted(idset), dtype=np.uint32)
        tfs = np.array(
            [1 + (rnd.randrange(100000) if rnd.random() < 0.05 else rnd.randrange(30)) for _ in ids],
            dtype=np.uint32,
        )
        term_lists.append((ids, tfs))
    _roundtrip(term_lists)


@st.composite
def postings_terms(draw):
    """1-6 terms of 1-700 postings: sparse or dense docids (FOR or bitset
    rows), docid 0 alone (a width-0 gap row), freqs with outliers (PFor
    exceptions) and short last rows of under 8 postings (width-0 freq
    bases)."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["sparse", "dense", "zero", "short_tail"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "zero":
            ids = np.array([0])
        elif kind == "dense":
            df = draw(st.integers(2, 700))
            lo = int(rng.integers(0, 5000))
            span = np.arange(lo, lo + df + df // 8)
            ids = np.sort(rng.choice(span, df, replace=False))
        else:
            df = draw(st.integers(1, 700))
            if kind == "short_tail":
                df = 256 * draw(st.integers(1, 2)) + draw(st.integers(1, 7))
            ids = np.sort(rng.choice(10**6, df, replace=False))
        tfs = rng.integers(1, 4, len(ids))
        hot = rng.random(len(ids)) < 0.02
        tfs[hot] = rng.integers(2**16, 2**32, int(hot.sum()), dtype=np.uint64)
        terms.append((ids.astype(np.uint32), tfs.astype(np.uint32)))
    return terms


@settings(max_examples=150, deadline=None)
@given(postings_terms(), st.randoms(use_true_random=False))
def test_row_subsets_equal_input_slices(terms, rnd):
    """``decode_postings`` over a random subset of (blob, row) pairs, in
    random order, equals the matching slices of the encoder's input and
    the scalar reference's blocks; the last blob ends where the padding
    starts."""
    starts = np.concatenate([[0], np.cumsum([len(i) for i, _ in terms])])
    enc, lens = encode_postings_flat(
        np.concatenate([i for i, _ in terms]),
        np.concatenate([t for _, t in terms]),
        starts,
        np.ones(int(starts[-1]), dtype=np.uint8),
    )
    buf, _ = pad_pieces([enc])
    offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
    pairs = [
        (b, k)
        for b, (ids, _) in enumerate(terms)
        for k in range((len(ids) + BLOCK_SIZE - 1) // BLOCK_SIZE)
    ]
    pick = rnd.sample(pairs, rnd.randint(0, len(pairs)))
    rows = (
        np.array([b for b, _ in pick], np.int64),
        np.array([k for _, k in pick], np.int64),
    )
    ids, tfs, counts = decode_postings(buf, offs, rows)
    want = [
        (terms[b][0][k * BLOCK_SIZE : (k + 1) * BLOCK_SIZE],
         terms[b][1][k * BLOCK_SIZE : (k + 1) * BLOCK_SIZE])
        for b, k in pick
    ]
    np.testing.assert_array_equal(counts, [len(i) for i, _ in want])
    empty = np.empty(0, np.uint32)
    np.testing.assert_array_equal(ids, np.concatenate([i for i, _ in want] + [empty]))
    np.testing.assert_array_equal(tfs, np.concatenate([t for _, t in want] + [empty]))
    for (b, k), (wi, wt) in zip(pick, want):
        o = int(offs[b])
        ri, rt = _reference_postings(enc[o : o + int(lens[b])])[k]
        np.testing.assert_array_equal(ri, wi)
        np.testing.assert_array_equal(rt, wt)


def test_rows_cover_every_row_kind():
    """The fixed terms below hold every row kind the kernel branches on:
    bitset docids, PFor exceptions, a width-0 gap row, width-0 freq
    bases and short last rows; each row, decoded alone, equals its
    input slice."""
    rng = np.random.default_rng(5)
    tfs_exc = np.ones(600, dtype=np.uint32)
    tfs_exc[[3, 300]] = 1 << 30
    terms = [
        (np.array([0], np.uint32), np.array([2], np.uint32)),
        (np.arange(1000, 1600, dtype=np.uint32), tfs_exc),
        (np.sort(rng.choice(10**6, 515, replace=False)).astype(np.uint32),
         rng.integers(1, 9, 515).astype(np.uint32)),
    ]
    starts = np.concatenate([[0], np.cumsum([len(i) for i, _ in terms])])
    enc, lens = encode_postings_flat(
        np.concatenate([i for i, _ in terms]),
        np.concatenate([t for _, t in terms]),
        starts,
        np.ones(int(starts[-1]), dtype=np.uint8),
    )
    offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
    dirs = [PostingsView(enc[o : o + n]).directory for o, n in zip(offs, lens)]
    d = np.concatenate(dirs)
    assert (d["docid_kind"] == 1).any()  # bitset rows
    assert (d["freq_n_exc"] > 0).any()  # PFor exceptions
    assert ((d["docid_kind"] == 0) & (d["docid_width"] == 0)).any()  # w=0 gaps
    assert (d["freq_width"] == 0).any()  # w=0 freq bases (a 3-posting tail)
    assert (d["block_len"] < BLOCK_SIZE).sum() >= 3  # short last rows
    buf, _ = pad_pieces([enc])
    all_ids = np.concatenate([i for i, _ in terms])
    all_tfs = np.concatenate([t for _, t in terms])
    for b, dr in enumerate(dirs):
        for k in range(len(dr)):
            row = (np.array([b]), np.array([k]))
            ids, tfs, counts = decode_postings(buf, offs, row)
            lo = starts[b] + k * BLOCK_SIZE
            hi = min(starts[b + 1], lo + BLOCK_SIZE)
            np.testing.assert_array_equal(ids, all_ids[lo:hi])
            np.testing.assert_array_equal(tfs, all_tfs[lo:hi])
            assert counts.tolist() == [hi - lo]


def test_uint_blocks_batch_matches_scalar():
    import numpy as np

    from lucene_ray.index.segment import (
        decode_uint_blocks,
        decode_uint_blocks_batch,
        encode_uint_blocks,
    )

    rng = np.random.default_rng(11)
    runs = [
        np.array([], dtype=np.uint32),                       # zero-length
        np.array([0], dtype=np.uint32),
        rng.integers(0, 5, 10).astype(np.uint32),
        rng.integers(0, 100000, 256).astype(np.uint32),      # full block
        rng.integers(0, 3, 700).astype(np.uint32),           # multi-block
        np.zeros(30, dtype=np.uint32),                       # w=0
    ]
    blobs = [encode_uint_blocks(r) if len(r) else b"" for r in runs]
    buf = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    lens = np.array([len(b) for b in blobs], dtype=np.int64)
    offs = np.zeros(len(blobs), dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    vals, counts = decode_uint_blocks_batch(buf, offs, lens)
    np.testing.assert_array_equal(counts, [len(r) for r in runs])
    got = np.split(vals, np.cumsum(counts)[:-1])
    for i, r in enumerate(runs):
        np.testing.assert_array_equal(got[i], r, err_msg=f"run {i}")
        if len(r):
            np.testing.assert_array_equal(
                decode_uint_blocks(bytes(blobs[i])), r
            )


def test_read_postings_matches_scalar(ray_session, tmp_path):
    """read_postings of every term of the dictionary, in one call ==
    per-term SegmentReader.decoded == the scalar reference on a real
    segment."""
    from lucene_ray.index.build import build_index
    from lucene_ray.index.config import IndexConfig
    from lucene_ray.index.manifest import segment_dir
    from lucene_ray.index.segment import SegmentReader, read_postings

    d = str(tmp_path / "dm")
    build_index(
        "/root/testdata/sf0.001/documents.parquet",
        d,
        IndexConfig(rows_per_segment=300, num_buckets=3, positions=False),
    )
    seg = SegmentReader(segment_dir(d, 0))
    infos = []
    for b in range(seg.n_parts):
        terms = seg.terms_list(b)
        for i in range(len(terms)):
            infos.append(seg.term_info_at(b, i, term=terms[i]))
    assert len(infos) > 20
    got = read_postings([(seg, info) for info in infos])
    for info, (gi, gt) in zip(infos, got):
        ri, rt = seg.decoded(info)
        np.testing.assert_array_equal(gi, ri)
        np.testing.assert_array_equal(gt, rt)
        ref = _reference_postings(bytes(seg.postings_blob(info)))
        np.testing.assert_array_equal(gi, np.concatenate([i for i, _ in ref]))
        np.testing.assert_array_equal(gt, np.concatenate([t for _, t in ref]))


@st.composite
def uint_block_runs(draw):
    """(blob, values) of a hand-packed uint run: 1-6 blocks, each with a
    drawn width 0-32 and values below 2^width (not always reaching it), a
    partial last block of 1-256 values, so runs mix widths freely."""
    from lucene_ray.codecs.forutil import pack

    n_blocks = draw(st.integers(1, 6))
    last = draw(st.integers(1, 256))
    parts, values = [], []
    for bi in range(n_blocks):
        cnt = 256 if bi < n_blocks - 1 else last
        w = draw(st.integers(0, 32))
        seed = draw(st.integers(0, 2**32 - 1))
        vals = np.random.default_rng(seed).integers(
            0, 1 << w, size=cnt, dtype=np.uint64
        ).astype(np.uint32)
        parts.append(bytes([w]) + pack(vals, w))
        values.append(vals)
    n = 256 * (n_blocks - 1) + last
    return np.array([n], "<u4").tobytes() + b"".join(parts), np.concatenate(values)


def _unpack_per_block(blob):
    """Reference decoder: one ``forutil.unpack`` per block."""
    buf = np.frombuffer(blob, dtype=np.uint8)
    n = int(buf[:4].view("<u4")[0])
    out, off = [], 4
    for lo in range(0, n, 256):
        cnt, w = min(256, n - lo), int(buf[off])
        nb = (cnt * w + 7) // 8
        out.append(unpack(buf[off + 1 : off + 1 + nb], cnt, w))
        off += 1 + nb
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(uint_block_runs())
def test_uint_blocks_word_gather_matches_per_block_unpack(run):
    """``decode_uint_runs`` (full rows by the word tables, the last row
    alone) equals per-block ``unpack`` and the input bit for bit, at every
    width 0-32, with a partial last block and mixed widths."""
    from lucene_ray.index.segment import decode_uint_blocks

    blob, values = run
    got = decode_uint_blocks(blob)
    assert got.dtype == np.uint32
    assert got.tobytes() == _unpack_per_block(blob).tobytes() == values.tobytes()
    # a memory-mapped source hands a uint8 slice, not bytes
    framed = np.frombuffer(b"\xff" * 3 + blob + b"\xff" * 5, dtype=np.uint8)
    assert decode_uint_blocks(framed[3 : 3 + len(blob)]).tobytes() == got.tobytes()
