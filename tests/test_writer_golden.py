"""Golden byte-identity of the segment and merge writers.

Seeded synthetic inverted batches go through ``write_segment`` (two
segments) and ``merge_bucket`` (every bucket of the pair). The crc32 of
every file both writers checksum, the ``meta.json`` checksums and the
rows of every terms parquet are pinned. The pins were taken from the
per-term writer this test predates, so any change to the encoders or the
part assembly that moves a single byte fails here.

The corpora cover: terms with df 1, 255, 256, 257 and >512; a df-1 term
at docid 0 (a zero-width gap block); dense blocks that pick the bitset
docid coding; multi-block terms whose freqs force PFor exceptions; short
last blocks (PFor width 0); keyword-style terms with no positions;
position runs of 256, 257 and >512 values with widths up to 32 bits.
"""

import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.codecs.postings import PostingsView, encode_postings_batch
from lucene_ray.index.config import FIELD_SEP, IndexConfig
from lucene_ray.index.manifest import segment_dir
from lucene_ray.index.merge import merge_bucket
from lucene_ray.index.segment import InvertedBatch, write_segment

N_DOCS = (700, 600)  # the two segments' doc counts


def _term_specs(rng, n_docs, keyword):
    """→ sorted list of (term, docids, tfs) for one segment."""
    specs = {}

    def sparse(df):
        return np.sort(rng.choice(n_docs, size=df, replace=False))

    specs["df1"] = (np.array([rng.integers(1, n_docs)]), None)
    specs["df1zero"] = (np.array([0]), None)  # zero-width gap block
    for df in (255, 256, 257, 513):
        # tf 1 at df 256/257: position runs of exactly 256 and 257 values
        specs[f"df{df}"] = (sparse(df), np.ones(df) if df in (256, 257) else None)
    # dense: ~90% of a docid range (bitset beats 2-bit FOR gaps)
    dense = np.arange(10, 10 + 580)
    dense = dense[rng.random(len(dense)) < 0.9]
    specs["dense"] = (dense, None)
    # PFor exceptions: multi-block, tfs 1..3 with a few huge outliers
    ids = sparse(530)
    tfs = rng.integers(1, 4, len(ids))
    for blk in range(3):
        lo = blk * 256
        hi = min(lo + 256, len(ids))
        hot = rng.choice(np.arange(lo, hi), size=min(5, hi - lo), replace=False)
        tfs[hot] = rng.integers(1000, 70000, len(hot))
    specs["pfor"] = (ids, tfs)
    # eight outliers in one block: no exception budget, the width grows
    ids8 = sparse(300)
    tfs8 = rng.integers(1, 3, len(ids8))
    tfs8[rng.choice(256, size=8, replace=False)] = 5000
    specs["pfor8"] = (ids8, tfs8)
    # Zipf tail
    for i in range(120):
        df = int(min(n_docs, rng.zipf(1.6)))
        specs[f"t{i:03d}"] = (sparse(df), None)
    out = []
    for term, (ids, tfs) in specs.items():
        if tfs is None:
            tfs = np.minimum(rng.zipf(1.8, len(ids)), 40)
        out.append((term, ids.astype(np.uint32), tfs.astype(np.uint32)))
    if keyword:
        for v in ("en", "fr", "zz"):
            ids = sparse(int(rng.integers(1, n_docs // 2)))
            out.append(
                (f"lang{FIELD_SEP}{v}", ids.astype(np.uint32),
                 np.ones(len(ids), np.uint32))
            )
    out.sort(key=lambda s: s[0])
    return out


def _inverted(seed, n_docs, positions, offsets, payloads, keyword):
    rng = np.random.default_rng(seed)
    specs = _term_specs(rng, n_docs, keyword)
    terms = [s[0] for s in specs]
    term_starts = np.zeros(len(specs) + 1, np.int64)
    np.cumsum([len(s[1]) for s in specs], out=term_starts[1:])
    docids = np.concatenate([s[1] for s in specs])
    tfs = np.concatenate([s[2] for s in specs])
    text = np.array([FIELD_SEP not in t for t in terms])
    lengths = np.bincount(
        docids[np.repeat(text, np.diff(term_starts))],
        weights=tfs[np.repeat(text, np.diff(term_starts))],
        minlength=n_docs,
    ).astype(np.int64)
    inv = InvertedBatch(
        terms=pa.array(terms, pa.large_string()),
        term_starts=term_starts,
        pair_docids=docids,
        pair_tfs=tfs,
        positions=None,
        pos_starts=None,
        doc_lengths=lengths,
    )
    if positions:
        # keyword terms carry no positions (DOCS-only)
        npos = np.where(np.repeat(text, np.diff(term_starts)), tfs, 0)
        total = int(npos.sum())
        pos = rng.integers(0, 300, total).astype(np.uint32)
        # a few wide values: widths up to 32 bits
        wide = rng.choice(total, size=min(40, total), replace=False)
        pos[wide] = rng.integers(0, 2**32, len(wide), dtype=np.uint64)
        inv.positions = pos
        pair_pos_starts = np.concatenate([[0], np.cumsum(npos)])
        inv.pos_starts = pair_pos_starts[term_starts].astype(np.int64)
        if offsets:
            inv.off_starts = rng.integers(0, 5000, total).astype(np.uint32)
            inv.off_lens = rng.integers(0, 20, total).astype(np.uint32)
        if payloads:
            inv.pay_lens = rng.integers(0, 4, total).astype(np.uint32)
            inv.pay_bytes = rng.integers(
                0, 256, int(inv.pay_lens.sum())
            ).astype(np.uint8)
    return inv


CASES = {
    "default": dict(cfg=dict(num_buckets=3), keyword=True),
    "no_positions": dict(cfg=dict(positions=False, num_buckets=2), keyword=True),
    "offsets_payloads": dict(
        cfg=dict(
            offsets=True, payloads=True, pretokenized=True,
            payload_col="pay", num_buckets=2,
        ),
        keyword=False,
    ),
    "per_field_formats": dict(
        cfg=dict(per_field_formats=(("lang", "plain"),), num_buckets=2),
        keyword=True,
    ),
    "index_sort": dict(
        cfg=dict(dv_cols=("rank",), index_sort=("rank", "desc")),
        keyword=True,
    ),
}


def _rows_crc(path):
    tbl = pq.read_table(path)
    doc = [
        tbl.column_names,
        [str(f.type) for f in tbl.schema],
        tbl.to_pydict(),
    ]
    return zlib.crc32(json.dumps(doc, sort_keys=True).encode())


def _file_crc(path):
    with open(path, "rb") as f:
        return zlib.crc32(f.read())


def _write_and_merge(root, case):
    spec = CASES[case]
    cfg = IndexConfig(key_col="url", **spec["cfg"])
    index_dir = os.path.join(root, "idx")
    out = {"segments": [], "merged": {}}
    base = 0
    for sid, n_docs in enumerate(N_DOCS, start=1):
        inv = _inverted(
            1000 * sid + len(case), n_docs, cfg.positions, cfg.offsets,
            cfg.payloads, spec["keyword"],
        )
        dv = None
        if cfg.index_sort:
            rng = np.random.default_rng(sid)
            dv = pa.table({"rank": rng.integers(0, 50, n_docs)})
        keys = pa.array([f"d{base + i}" for i in range(n_docs)])
        sdir = segment_dir(index_dir, sid)
        os.makedirs(os.path.dirname(sdir), exist_ok=True)
        meta = write_segment(sdir, sid, base, keys, inv, cfg, dv_table=dv)
        for f, crc in meta["checksums"].items():
            assert _file_crc(os.path.join(sdir, f)) == crc, f
        rows = {
            f: _rows_crc(os.path.join(sdir, f))
            for f in sorted(os.listdir(sdir)) if f.endswith(".terms.parquet")
        }
        out["segments"].append(
            {
                "checksums": meta["checksums"],
                "rows": rows,
                "sum_df": meta["sum_df"],
                "n_terms": meta["n_terms"],
                "postings_bytes": meta["metrics"]["postings_bytes"],
            }
        )
        base += n_docs
    for b in range(cfg.num_buckets):
        tmp = os.path.join(root, f"merge_{b}")
        os.makedirs(tmp)
        res = merge_bucket(index_dir, [1, 2], b, tmp)
        for f, crc in res["checksums"].items():
            assert _file_crc(os.path.join(tmp, f)) == crc, f
        out["merged"][str(b)] = {
            "checksums": res["checksums"],
            "rows": _rows_crc(os.path.join(tmp, f"part_{b:04d}.terms.parquet")),
            "sum_df": res["sum_df"],
            "n_terms": res["n_terms"],
            "postings_bytes": res["postings_bytes"],
        }
    return out


# taken from the per-term writer (see the module docstring)
GOLDEN = {'default': {'merged': {'0': {'checksums': {'part_0000.positions.bin': 3201277425,
                                            'part_0000.postings.bin': 671378580},
                              'n_terms': 43,
                              'postings_bytes': 6794,
                              'rows': 4087564017,
                              'sum_df': 3730},
                        '1': {'checksums': {'part_0001.positions.bin': 430899388,
                                            'part_0001.postings.bin': 3405009209},
                              'n_terms': 47,
                              'postings_bytes': 5930,
                              'rows': 3414730542,
                              'sum_df': 2629},
                        '2': {'checksums': {'part_0002.positions.bin': 2752234961,
                                            'part_0002.postings.bin': 3961984258},
                              'n_terms': 42,
                              'postings_bytes': 9510,
                              'rows': 766861674,
                              'sum_df': 6080}},
             'segments': [{'checksums': {'norms.bin': 2433764580,
                                         'part_0000.positions.bin': 4051212295,
                                         'part_0000.postings.bin': 3085107549,
                                         'part_0001.positions.bin': 431689751,
                                         'part_0001.postings.bin': 1843326106,
                                         'part_0002.positions.bin': 2090467057,
                                         'part_0002.postings.bin': 1585098276},
                           'n_terms': 132,
                           'postings_bytes': 12969,
                           'rows': {'part_0000.terms.parquet': 533633884,
                                    'part_0001.terms.parquet': 1253232890,
                                    'part_0002.terms.parquet': 3982401197},
                           'sum_df': 6529},
                          {'checksums': {'norms.bin': 3845876696,
                                         'part_0000.positions.bin': 3578479718,
                                         'part_0000.postings.bin': 3170279114,
                                         'part_0001.positions.bin': 3035431439,
                                         'part_0001.postings.bin': 2854757871,
                                         'part_0002.positions.bin': 3988600479,
                                         'part_0002.postings.bin': 3939357046},
                           'n_terms': 132,
                           'postings_bytes': 12185,
                           'rows': {'part_0000.terms.parquet': 2411745741,
                                    'part_0001.terms.parquet': 235258403,
                                    'part_0002.terms.parquet': 3752988258},
                           'sum_df': 5910}]},
 'index_sort': {'merged': {'0': {'checksums': {'part_0000.positions.bin': 2333399292,
                                               'part_0000.postings.bin': 432745406},
                                 'n_terms': 132,
                                 'postings_bytes': 19468,
                                 'rows': 157597228,
                                 'sum_df': 10587}},
                'segments': [{'checksums': {'norms.bin': 114132942,
                                            'part_0000.positions.bin': 3614833926,
                                            'part_0000.postings.bin': 148141902},
                              'n_terms': 132,
                              'postings_bytes': 11394,
                              'rows': {'part_0000.terms.parquet': 1935907158},
                              'sum_df': 5183},
                             {'checksums': {'norms.bin': 2904036217,
                                            'part_0000.positions.bin': 3810669877,
                                            'part_0000.postings.bin': 3990842471},
                              'n_terms': 132,
                              'postings_bytes': 11314,
                              'rows': {'part_0000.terms.parquet': 2358894173},
                              'sum_df': 5404}]},
 'no_positions': {'merged': {'0': {'checksums': {'part_0000.postings.bin': 1369023689},
                                   'n_terms': 68,
                                   'postings_bytes': 9182,
                                   'rows': 1331527946,
                                   'sum_df': 5053},
                             '1': {'checksums': {'part_0001.postings.bin': 1328770808},
                                   'n_terms': 64,
                                   'postings_bytes': 7949,
                                   'rows': 3289751996,
                                   'sum_df': 3273}},
                  'segments': [{'checksums': {'norms.bin': 3776328513,
                                              'part_0000.postings.bin': 4282491148,
                                              'part_0001.postings.bin': 441220060},
                                'n_terms': 132,
                                'postings_bytes': 10247,
                                'rows': {'part_0000.terms.parquet': 2766159952,
                                         'part_0001.terms.parquet': 838532147},
                                'sum_df': 4207},
                               {'checksums': {'norms.bin': 1262677380,
                                              'part_0000.postings.bin': 996555307,
                                              'part_0001.postings.bin': 379615189},
                                'n_terms': 132,
                                'postings_bytes': 10272,
                                'rows': {'part_0000.terms.parquet': 1609554842,
                                         'part_0001.terms.parquet': 1397178505},
                                'sum_df': 4119}]},
 'offsets_payloads': {'merged': {'0': {'checksums': {'part_0000.offsets.bin': 1904270511,
                                                     'part_0000.payloads.bin': 1956802701,
                                                     'part_0000.positions.bin': 3768069645,
                                                     'part_0000.postings.bin': 3856288238},
                                       'n_terms': 66,
                                       'postings_bytes': 14929,
                                       'rows': 2767294105,
                                       'sum_df': 9973},
                                 '1': {'checksums': {'part_0001.offsets.bin': 2969847406,
                                                     'part_0001.payloads.bin': 2379347557,
                                                     'part_0001.positions.bin': 1982127614,
                                                     'part_0001.postings.bin': 3736493676},
                                       'n_terms': 63,
                                       'postings_bytes': 7734,
                                       'rows': 4121649633,
                                       'sum_df': 3831}},
                      'segments': [{'checksums': {'norms.bin': 2292404955,
                                                  'part_0000.offsets.bin': 971220046,
                                                  'part_0000.payloads.bin': 2886115083,
                                                  'part_0000.positions.bin': 2189584593,
                                                  'part_0000.postings.bin': 889467893,
                                                  'part_0001.offsets.bin': 950841281,
                                                  'part_0001.payloads.bin': 2881587969,
                                                  'part_0001.positions.bin': 1977386150,
                                                  'part_0001.postings.bin': 2516555115},
                                    'n_terms': 129,
                                    'postings_bytes': 12858,
                                    'rows': {'part_0000.terms.parquet': 1987558947,
                                             'part_0001.terms.parquet': 1814615468},
                                    'sum_df': 6723},
                                   {'checksums': {'norms.bin': 370650422,
                                                  'part_0000.offsets.bin': 3578791111,
                                                  'part_0000.payloads.bin': 4030321490,
                                                  'part_0000.positions.bin': 3338440938,
                                                  'part_0000.postings.bin': 190019303,
                                                  'part_0001.offsets.bin': 682910207,
                                                  'part_0001.payloads.bin': 2898943842,
                                                  'part_0001.positions.bin': 418250863,
                                                  'part_0001.postings.bin': 1884061817},
                                    'n_terms': 129,
                                    'postings_bytes': 12767,
                                    'rows': {'part_0000.terms.parquet': 2076235528,
                                             'part_0001.terms.parquet': 4163662077},
                                    'sum_df': 7081}]},
 'per_field_formats': {'merged': {'0': {'checksums': {'part_0000.positions.bin': 3428763764,
                                                      'part_0000.postings.bin': 820828347},
                                        'n_terms': 68,
                                        'postings_bytes': 17382,
                                        'rows': 696076156,
                                        'sum_df': 5548},
                                  '1': {'checksums': {'part_0001.positions.bin': 2015979438,
                                                      'part_0001.postings.bin': 2067116591},
                                        'n_terms': 64,
                                        'postings_bytes': 14088,
                                        'rows': 154893020,
                                        'sum_df': 5465}},
                       'segments': [{'checksums': {'norms.bin': 509447860,
                                                   'part_0000.positions.bin': 303228218,
                                                   'part_0000.postings.bin': 3313649727,
                                                   'part_0001.positions.bin': 2651974206,
                                                   'part_0001.postings.bin': 263082154},
                                     'n_terms': 132,
                                     'postings_bytes': 18052,
                                     'rows': {'part_0000.terms.parquet': 280897073,
                                              'part_0001.terms.parquet': 1889778839},
                                     'sum_df': 6022},
                                    {'checksums': {'norms.bin': 922016307,
                                                   'part_0000.positions.bin': 85079740,
                                                   'part_0000.postings.bin': 1722964358,
                                                   'part_0001.positions.bin': 1991545629,
                                                   'part_0001.postings.bin': 2443618258},
                                     'n_terms': 132,
                                     'postings_bytes': 16651,
                                     'rows': {'part_0000.terms.parquet': 714988926,
                                              'part_0001.terms.parquet': 2447836374},
                                     'sum_df': 4991}]}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_bytes_pinned(case, tmp_path):
    got = _write_and_merge(str(tmp_path), case)
    assert got == GOLDEN[case]


def test_corpora_cover_the_edge_cases():
    """The synthetic corpora really contain what the pins claim to cover."""
    inv = _inverted(1001, N_DOCS[0], True, False, False, True)
    dfs = np.diff(inv.term_starts)
    assert {1, 255, 256, 257}.issubset(set(dfs.tolist()))
    assert dfs.max() > 512
    kinds, n_exc, fw0 = set(), 0, 0
    for i in range(len(dfs)):
        s, e = inv.term_starts[i], inv.term_starts[i + 1]
        (blob,) = encode_postings_batch(
            inv.pair_docids[s:e], inv.pair_tfs[s:e],
            np.zeros(N_DOCS[0], np.uint8), np.array([0, e - s]),
        )
        d = PostingsView(blob).directory
        kinds.update(d["docid_kind"].tolist())
        n_exc += int(d["freq_n_exc"].sum())
        fw0 += int(((d["freq_width"] == 0) & (d["block_len"] < 8)).sum())
    assert kinds == {0, 1}
    assert n_exc > 0 and fw0 > 0
    runs = np.diff(inv.pos_starts)
    assert (runs == 0).any() and runs.max() > 512
    assert {256, 257}.issubset(set(runs.tolist()))
    assert int(inv.positions.max()).bit_length() == 32
