"""Round trips through the array-kernel encoders.

``encode_postings_flat`` and ``encode_uint_blocks_flat`` encode many
runs at once; every run must come back through the readers
(``PostingsView.decode_all`` / ``decode_block`` / ``impacts``,
``decode_postings_batch``, ``decode_uint_blocks`` and
``decode_uint_blocks_batch``). Runs include width-0 runs, values up to
2^32 − 1, and short last blocks. The per-block freq widths are checked
against the scalar PFor rule (``forutil.pfor_encode``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.codecs.forutil import bit_width, pfor_encode
from lucene_ray.codecs.postings import (
    BLOCK_SIZE,
    PostingsView,
    competitive_impacts,
    decode_postings_batch,
    encode_postings_flat,
)
from lucene_ray.index.segment import (
    decode_uint_blocks,
    decode_uint_blocks_batch,
    encode_uint_blocks_flat,
)

DFS = st.sampled_from([1, 2, 7, 8, 9, 255, 256, 257, 300, 511, 512, 513, 700])


def _postings_runs(seed, dfs, big_ids, tf_kind):
    rng = np.random.default_rng(seed)
    runs = []
    for i, df in enumerate(dfs):
        hi = 2**32 if big_ids else max(4 * df, 1000)
        if i % 5 == 4 and df > 8:  # dense: bitset blocks
            lo = int(rng.integers(0, hi - df - 64))
            ids = np.arange(lo, lo + df + 64)
            ids = np.sort(rng.choice(ids, size=df, replace=False))
        elif df == 1 and i % 2 == 0:
            ids = np.array([0])  # zero-width gap run
        else:
            ids = np.sort(rng.choice(hi, size=df, replace=False))
        if tf_kind == 0:
            tfs = rng.integers(1, 4, df)
        elif tf_kind == 1:
            tfs = rng.integers(1, 2**32, df, dtype=np.uint64)
        else:  # a few outliers per block: PFor exceptions
            tfs = rng.integers(1, 3, df)
            hot = rng.choice(df, size=min(df, int(rng.integers(0, 12))), replace=False)
            tfs[hot] = rng.integers(2**20, 2**32, len(hot), dtype=np.uint64)
        norms = rng.integers(0, 256, df)
        if seed % 2:
            norms = norms % 3  # few distinct norms: long pareto runs
        runs.append((ids.astype(np.uint32), tfs.astype(np.uint32), norms.astype(np.uint8)))
    return runs


@given(
    st.integers(0, 2**32 - 1),
    st.lists(DFS, min_size=1, max_size=8),
    st.booleans(),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_postings_round_trip(seed, dfs, big_ids, tf_kind):
    runs = _postings_runs(seed, dfs, big_ids, tf_kind)
    starts = np.concatenate([[0], np.cumsum([len(r[0]) for r in runs])])
    buf, lens = encode_postings_flat(
        np.concatenate([r[0] for r in runs]),
        np.concatenate([r[1] for r in runs]),
        starts,
        np.concatenate([r[2] for r in runs]),
    )
    offs = np.concatenate([[0], np.cumsum(lens)])
    assert offs[-1] == len(buf)
    b_ids, b_tfs, b_dfs = decode_postings_batch(buf, offs[:-1], lens)
    assert np.array_equal(b_dfs, np.diff(starts))
    batch = zip(np.split(b_ids, starts[1:-1]), np.split(b_tfs, starts[1:-1]))
    rng = np.random.default_rng(seed)
    for (ids, tfs, norms), o, n, got in zip(runs, offs, lens, batch):
        view = PostingsView(buf[o : o + n])
        assert view.doc_count == len(ids)
        for decoded in (view.decode_all(), got):
            assert np.array_equal(decoded[0], ids)
            assert np.array_equal(decoded[1], tfs)
        multi = view.n_blocks > 1
        for bi in range(view.n_blocks):
            lo = bi * BLOCK_SIZE
            b_ids, b_tfs = view.decode_block(bi)
            assert np.array_equal(b_ids, ids[lo : lo + BLOCK_SIZE])
            assert np.array_equal(b_tfs, tfs[lo : lo + BLOCK_SIZE])
            want = competitive_impacts(b_tfs, norms[lo : lo + BLOCK_SIZE])
            assert view.impacts(bi).tolist() == want.tolist()
            row = view.directory[bi]
            if multi:
                w, _, exc_pos, _ = pfor_encode(b_tfs)
                assert (row["freq_width"], row["freq_n_exc"]) == (w, len(exc_pos))
            else:
                assert row["freq_width"] == bit_width(int(b_tfs.max()))
                assert row["freq_n_exc"] == 0


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0, 1, 5, 255, 256, 257, 600]), min_size=1, max_size=8),
    st.sampled_from([0, 1, 9, 31, 32]),
)
@settings(max_examples=60, deadline=None)
def test_uint_blocks_round_trip(seed, counts, max_bits):
    rng = np.random.default_rng(seed)
    runs = [
        rng.integers(0, 2**max_bits, c, dtype=np.uint64).astype(np.uint32)
        for c in counts
    ]
    starts = np.concatenate([[0], np.cumsum(counts)])
    buf, lens = encode_uint_blocks_flat(
        np.concatenate(runs) if runs else np.empty(0, np.uint32), starts
    )
    offs = np.concatenate([[0], np.cumsum(lens)])
    assert offs[-1] == len(buf)
    for r, o, n in zip(runs, offs, lens):
        blocks = [r[lo : lo + 256] for lo in range(0, len(r), 256)]
        assert n == 4 + sum(
            1 + (len(c) * bit_width(int(c.max())) + 7) // 8 for c in blocks
        ) + (len(r) == 0)  # an empty run keeps one width-0 block
        assert np.array_equal(decode_uint_blocks(buf[o : o + n]), r)
    vals, b_counts = decode_uint_blocks_batch(buf, offs[:-1], lens)
    assert np.array_equal(b_counts, counts)
    for r, got in zip(runs, np.split(vals, starts[1:-1])):
        assert np.array_equal(got, r)
