"""``merge_bucket`` writes what ``write_segment`` writes for the merged
batch.

1-4 contiguous segments are written from seeded synthetic docs; every
bucket of their merge must equal, byte for byte, the same bucket of one
segment written from the concatenated docs. For index-sorted segments
the reference is the concatenated docs permuted by the merge DocMap (a
stable sort on the descending ``rank`` key) and written unsorted.

Docs mix text terms (positions, and optionally character offsets and
payloads, per occurrence) with keyword terms (DOCS-only, no
occurrences); each segment draws its own subset of the vocabulary, so
terms are missing from some sources, and a forced one-term segment
leaves a bucket empty in that source.
"""

import dataclasses
import os

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_ray.index.config import FIELD_SEP, IndexConfig
from lucene_ray.index.manifest import segment_dir
from lucene_ray.index.merge import merge_bucket
from lucene_ray.index.segment import InvertedBatch, write_segment

VOCAB = ["a", "b", "data", "zeta", "ünï", "日本", f"lang{FIELD_SEP}en", f"lang{FIELD_SEP}fr"]
N_BUCKETS = 2


def _docs(rng, n_docs, vocab, with_off, with_pay):
    """→ list of docs: term → occurrence rows ``(pos, off_start, off_len,
    payload bytes)``, an empty list for a keyword term."""
    docs = []
    for d in range(n_docs):
        doc = {}
        for t in vocab:
            if rng.random() < 0.5 and not (d == 0 and t == vocab[0]):
                continue
            occ = []
            if FIELD_SEP not in t:
                for _ in range(int(rng.integers(1, 5))):
                    pay = rng.integers(0, 256, int(rng.integers(0, 4)))
                    occ.append(
                        (
                            int(rng.integers(0, 2**32 if rng.random() < 0.05 else 300)),
                            int(rng.integers(0, 5000)) if with_off else 0,
                            int(rng.integers(0, 20)) if with_off else 0,
                            pay.astype(np.uint8) if with_pay else None,
                        )
                    )
            doc[t] = occ
        docs.append(doc)
    return docs


def _inverted(docs, with_pos, with_off, with_pay):
    """Invert docs (docid = list index) into a term-major batch."""
    terms = sorted({t for doc in docs for t in doc})
    ids, tfs, occs, term_starts = [], [], [], [0]
    for t in terms:
        for docid, doc in enumerate(docs):
            if t in doc:
                ids.append(docid)
                tfs.append(max(1, len(doc[t])))
                occs.extend(doc[t])
        term_starts.append(len(ids))
    occ_counts = [
        len(doc[t]) for t in terms for doc in docs if t in doc
    ]
    pos_starts = np.concatenate([[0], np.cumsum(occ_counts)])[term_starts]
    lengths = [
        sum(len(o) for t, o in doc.items() if FIELD_SEP not in t) for doc in docs
    ]
    inv = InvertedBatch(
        terms=pa.array(terms, pa.large_string()),
        term_starts=np.array(term_starts, np.int64),
        pair_docids=np.array(ids, np.uint32),
        pair_tfs=np.array(tfs, np.uint32),
        positions=None,
        pos_starts=None,
        doc_lengths=np.array(lengths, np.int64),
    )
    if with_pos:
        inv.positions = np.array([o[0] for o in occs], np.uint32)
        inv.pos_starts = pos_starts.astype(np.int64)
    if with_off:
        inv.off_starts = np.array([o[1] for o in occs], np.uint32)
        inv.off_lens = np.array([o[2] for o in occs], np.uint32)
    if with_pay:
        inv.pay_lens = np.array([len(o[3]) for o in occs], np.uint32)
        inv.pay_bytes = np.concatenate(
            [o[3] for o in occs] + [np.empty(0, np.uint8)]
        ).astype(np.uint8)
    return inv


def _write(index_dir, sid, base, docs, ranks, cfg, mode):
    sdir = segment_dir(index_dir, sid)
    os.makedirs(os.path.dirname(sdir), exist_ok=True)
    keys = pa.array([f"d{base + i}" for i in range(len(docs))])
    inv = _inverted(docs, cfg.positions, mode == "offsets_payloads", cfg.payloads)
    dv = pa.table({"rank": ranks}) if cfg.index_sort else None
    write_segment(sdir, sid, base, keys, inv, cfg, dv_table=dv)
    return sdir


def _part_files(d, b):
    prefix = f"part_{b:04d}."
    out = {}
    for f in sorted(os.listdir(d)):
        if f.startswith(prefix):
            with open(os.path.join(d, f), "rb") as fh:
                out[f] = fh.read()
    return out


def _sources(seed, n_segs, one_term_source, with_off, with_pay):
    """→ per segment (docs, ranks), each over its own vocabulary subset;
    with ``one_term_source`` the first segment has a single term."""
    rng = np.random.default_rng(seed)
    out = []
    for si in range(n_segs):
        if one_term_source and si == 0:
            vocab = [VOCAB[int(rng.integers(0, len(VOCAB)))]]
        else:
            k = int(rng.integers(1, len(VOCAB) + 1))
            vocab = sorted(rng.choice(VOCAB, size=k, replace=False).tolist())
        docs = _docs(rng, int(rng.integers(1, 40)), vocab, with_off, with_pay)
        out.append((docs, rng.integers(0, 6, len(docs))))  # rank ties
    return out


MODES = ("no_positions", "positions", "offsets_payloads", "per_field_formats")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_segs=st.integers(1, 4),
    mode=st.sampled_from(MODES),
    index_sort=st.booleans(),
    one_term_source=st.booleans(),
)
@example(seed=3, n_segs=3, mode="offsets_payloads", index_sort=True, one_term_source=True)
@example(seed=3, n_segs=3, mode="per_field_formats", index_sort=False, one_term_source=True)
def test_merge_equals_writer_on_concatenation(
    tmp_path_factory, seed, n_segs, mode, index_sort, one_term_source
):
    root = str(tmp_path_factory.mktemp("merge_prop"))
    with_off = with_pay = mode == "offsets_payloads"
    cfg = IndexConfig(
        key_col="url",
        num_buckets=N_BUCKETS,
        positions=mode != "no_positions",
        offsets=with_off,
        payloads=with_pay,
        pretokenized=with_pay,
        payload_col="pay" if with_pay else None,
        per_field_formats=(("lang", "plain"),) if mode == "per_field_formats" else (),
        dv_cols=("rank",) if index_sort else (),
        index_sort=("rank", "desc") if index_sort else None,
    )
    index_dir = os.path.join(root, "idx")
    all_docs, all_ranks, base = [], [], 0
    sources = _sources(seed, n_segs, one_term_source, with_off, with_pay)
    for sid, (docs, ranks) in enumerate(sources, start=1):
        _write(index_dir, sid, base, docs, ranks, cfg, mode)
        all_docs += docs
        all_ranks += ranks.tolist()
        base += len(docs)
    if index_sort:
        old_of_new = np.argsort(-np.array(all_ranks), kind="stable")
        all_docs = [all_docs[i] for i in old_of_new]
        all_ranks = [all_ranks[i] for i in old_of_new]
    ref = _write(
        os.path.join(root, "ref"), 0, 0, all_docs, np.array(all_ranks),
        dataclasses.replace(cfg, index_sort=None), mode,
    )
    for b in range(N_BUCKETS):
        out = os.path.join(root, f"merge_{b}")
        os.makedirs(out)
        res = merge_bucket(index_dir, list(range(1, n_segs + 1)), b, out)
        want = _part_files(ref, b)
        got = _part_files(out, b)
        assert sorted(got) == sorted(want), b
        for f in want:
            assert got[f] == want[f], (b, f)
        assert set(res["checksums"]) == set(want) - {f"part_{b:04d}.terms.parquet"}


def test_sources_cover_missing_terms_and_empty_buckets():
    """The pinned example really leaves terms out of some sources and a
    bucket empty in its one-term source."""
    sources = _sources(3, 3, True, True, True)
    vocabs = [{t for doc in docs for t in doc} for docs, _ in sources]
    assert len(vocabs[0]) == 1
    assert 0 < len(vocabs[0] & {t for v in vocabs for t in v}) < len(set.union(*vocabs))
    assert any(vocabs[i] - vocabs[j] for i in range(3) for j in range(3))
    buckets = IndexConfig(num_buckets=N_BUCKETS).term_bucket
    assert len({buckets(t) for t in vocabs[0]}) < N_BUCKETS
    assert any(FIELD_SEP in t for v in vocabs for t in v)
