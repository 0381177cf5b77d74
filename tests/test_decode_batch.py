"""decode_postings_batch == per-term PostingsView.decode_all on every
blob shape: FOR vs bitset docids, PFor exceptions, w=0 freq bases,
multi-block fallback, doc_count edge sizes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.codecs.postings import (
    PostingsView,
    decode_postings_batch,
    encode_postings_batch,
)


def _roundtrip(term_lists):
    """term_lists: list of (ids, tfs). → batch-decoded list."""
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
    for ti, (ids, tfs) in enumerate(term_lists):
        ref_i, ref_t = PostingsView(bytes(blobs[ti])).decode_all()
        np.testing.assert_array_equal(ref_i, np.asarray(ids, np.uint32)), ti
        s, e = starts[ti], starts[ti + 1]
        gi, gt = flat_i[s:e], flat_t[s:e]
        np.testing.assert_array_equal(gi, ref_i, err_msg=f"ids term {ti}")
        np.testing.assert_array_equal(gt, ref_t, err_msg=f"tfs term {ti}")


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


def test_segment_decoded_many_matches_scalar(ray_session, tmp_path):
    """SegmentReader.decoded_many == per-term decoded on a real segment,
    cold cache and warm cache, across every term of the dictionary."""
    from lucene_ray.index.build import build_index
    from lucene_ray.index.config import IndexConfig
    from lucene_ray.index.manifest import segment_dir
    from lucene_ray.index.segment import SegmentReader

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
    got = seg.decoded_many(infos)
    fresh = SegmentReader(segment_dir(d, 0))
    for info, (gi, gt) in zip(infos, got):
        ri, rt = fresh.decoded(info)
        np.testing.assert_array_equal(gi, ri)
        np.testing.assert_array_equal(gt, rt)
    # warm path: every entry now cached, same arrays come back
    again = seg.decoded_many(infos)
    for (gi, gt), (ai, at) in zip(got, again):
        assert gi is ai and gt is at


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
    from lucene_ray.codecs.forutil import packed_size, unpack

    buf = np.frombuffer(blob, dtype=np.uint8)
    n = int(buf[:4].view("<u4")[0])
    out, off = [], 4
    for lo in range(0, n, 256):
        cnt, w = min(256, n - lo), int(buf[off])
        nb = packed_size(cnt, w)
        out.append(unpack(buf[off + 1 : off + 1 + nb], cnt, w))
        off += 1 + nb
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(uint_block_runs())
def test_uint_blocks_word_gather_matches_per_block_unpack(run):
    """The batched decode (3+ blocks: one word gather per width) and the
    1-2 block path equal per-block ``unpack`` bit for bit, at every width
    0-32, with a partial last block and mixed widths."""
    from lucene_ray.index.segment import decode_uint_blocks

    blob, values = run
    got = decode_uint_blocks(blob)
    assert got.dtype == np.uint32
    assert got.tobytes() == _unpack_per_block(blob).tobytes() == values.tobytes()
    # a memory-mapped source hands a uint8 slice, not bytes
    framed = np.frombuffer(b"\xff" * 3 + blob + b"\xff" * 5, dtype=np.uint8)
    assert decode_uint_blocks(framed[3 : 3 + len(blob)]).tobytes() == got.tobytes()
