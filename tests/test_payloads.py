"""Payload bytes in the postings (.pay role) + PayloadScoreQuery.

Reference: ``Lucene104PostingsFormat.java:17-80`` (payload stream),
``lucene/queries/.../payloads/PayloadScoreQuery.java`` (per-occurrence
decode + Max/Min/Sum reduction, includeSpanScore=false),
``core/document/column/package-info.java:30-50`` (token streams with
attributes supplied columnarly).

Covers: ingest→read roundtrip, the three payload functions, deleted-doc
masking, merge survival (unsorted concat AND index-sorted byte gather),
variable-width payloads, and the mixed-merge guard.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.merge import force_merge
from lucene_ray.index.segment import invert_token_lists
from lucene_ray.pipelines.payloads import derive_token_payloads
from lucene_ray.search.searcher import IndexSearcher


def _corpus(tmp_path, n=90, seed=5):
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "bravo", "data", "delta", "echo"]
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(3, 9))))
        for _ in range(n)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": texts,
            "sortkey": pa.array(
                rng.permutation(n).astype(np.int64)
            ),
        }
    )
    src = str(tmp_path / "docs.parquet")
    # tokens + ordinal payloads + passthrough sort key
    out = derive_token_payloads(tbl).append_column(
        "sortkey", tbl.column("sortkey")
    )
    pq.write_table(out, src)
    return src, texts


def _cfg(**kw):
    base = dict(
        rows_per_segment=30,
        num_buckets=2,
        text_col="tokens",
        pretokenized=True,
        positions=True,
        payloads=True,
        payload_col="payloads",
    )
    base.update(kw)
    return IndexConfig(**base)


def _oracle(texts, term, fn, k=10):
    rows = []
    for did, text in enumerate(texts):
        ords = [i + 1 for i, t in enumerate(text.split()) if t == term]
        if not ords:
            continue
        v = {"max": max, "min": min, "sum": sum}[fn](ords)
        rows.append((v, did))
    rows.sort(key=lambda r: (-r[0], r[1]))
    return rows[:k]


class TestPayloadRoundtrip:
    def test_functions_match_oracle(self, ray_session, tmp_path):
        src, texts = _corpus(tmp_path)
        idx = str(tmp_path / "idx")
        build_index(src, idx, _cfg())
        s = IndexSearcher(idx)
        assert len(s.segments) > 1
        for fn in ("max", "min", "sum"):
            t = s.payload_topk("data", k=10, func=fn)
            got = list(
                zip(
                    t.column("payload_score").to_pylist(),
                    t.column("key").to_pylist(),
                )
            )
            assert got == _oracle(texts, "data", fn), fn

    def test_absent_term(self, ray_session, tmp_path):
        src, _ = _corpus(tmp_path)
        idx = str(tmp_path / "idx")
        build_index(src, idx, _cfg())
        s = IndexSearcher(idx)
        assert s.payload_topk("zzz", k=5).num_rows == 0

    def test_unknown_function_rejected(self, ray_session, tmp_path):
        src, _ = _corpus(tmp_path)
        idx = str(tmp_path / "idx")
        build_index(src, idx, _cfg())
        with pytest.raises(ValueError, match="payload function"):
            IndexSearcher(idx).payload_topk("data", func="avg")


class TestPayloadMerge:
    def test_merge_survival_unsorted(self, ray_session, tmp_path):
        src, texts = _corpus(tmp_path)
        idx = str(tmp_path / "idx")
        build_index(src, idx, _cfg())
        before = IndexSearcher(idx).payload_topk("data", k=20, func="sum")
        force_merge(idx, max_segments=1)
        s = IndexSearcher(idx)
        assert len(s.segments) == 1
        after = s.payload_topk("data", k=20, func="sum")
        assert before.equals(after)

    def test_merge_survival_index_sorted(self, ray_session, tmp_path):
        # under an index sort, docids permute (ties break on DOCID, like
        # Lucene), so compare the tie-insensitive {key: score} map
        # against the oracle, and exact tables pre vs post merge
        src, texts = _corpus(tmp_path)
        idx = str(tmp_path / "idx")
        build_index(
            src,
            idx,
            _cfg(dv_cols=("sortkey",), index_sort=("sortkey", "asc")),
        )
        n = len(texts)
        s0 = IndexSearcher(idx)
        before = {
            fn: s0.payload_topk("data", k=n, func=fn)
            for fn in ("max", "min", "sum")
        }
        for fn, t in before.items():
            got = dict(
                zip(
                    t.column("key").to_pylist(),
                    t.column("payload_score").to_pylist(),
                )
            )
            want = {d: v for v, d in _oracle(texts, "data", fn, k=n)}
            assert got == want, f"pre-merge {fn}"
        force_merge(idx, max_segments=1)
        s = IndexSearcher(idx)
        assert len(s.segments) == 1
        for fn, t in before.items():
            after = s.payload_topk("data", k=n, func=fn)
            # same {key: score} map (docids — and thus tie order —
            # legitimately permute when the merge re-sorts globally)
            assert dict(
                zip(
                    after.column("key").to_pylist(),
                    after.column("payload_score").to_pylist(),
                )
            ) == dict(
                zip(
                    t.column("key").to_pylist(),
                    t.column("payload_score").to_pylist(),
                )
            ), f"post-merge {fn}"
            # ties break on ascending docid within equal scores
            scores = after.column("payload_score").to_pylist()
            docids = after.column("docid").to_pylist()
            for i in range(1, len(scores)):
                assert scores[i] < scores[i - 1] or (
                    scores[i] == scores[i - 1]
                    and docids[i] > docids[i - 1]
                )

    def test_mixed_merge_rejected(self, ray_session, tmp_path):
        import json
        import os

        src, _ = _corpus(tmp_path)
        idx = str(tmp_path / "idx")
        build_index(src, idx, _cfg())
        segs = sorted(
            s
            for s in os.listdir(os.path.join(idx, "segments"))
            if s.startswith("seg_")
        )
        mp = os.path.join(idx, "segments", segs[0], "meta.json")
        with open(mp) as f:
            meta = json.load(f)
        meta["payloads"] = False
        with open(mp, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError, match="payload"):
            force_merge(idx, max_segments=1)


class TestVariableWidthPayloads:
    def test_varlen_roundtrip(self, ray_session, tmp_path):
        # payloads of 1..3 bytes: big-endian value = ordinal
        n = 40
        toks, pays = [], []
        rng = np.random.default_rng(11)
        for i in range(n):
            words = list(rng.choice(["data", "echo", "foxtrot"], size=5))
            toks.append(words)
            row = []
            for k in range(5):
                width = int(rng.integers(1, 4))
                row.append((k + 1).to_bytes(width, "big"))
            pays.append(row)
        tbl = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "tokens": pa.array(toks, pa.list_(pa.string())),
                "payloads": pa.array(pays, pa.list_(pa.binary())),
            }
        )
        src = str(tmp_path / "v.parquet")
        pq.write_table(tbl, src)
        idx = str(tmp_path / "idx")
        build_index(src, idx, _cfg(rows_per_segment=16))
        s = IndexSearcher(idx)
        t = s.payload_topk("data", k=n, func="max")
        want = {}
        for did, words in enumerate(toks):
            ords = [k + 1 for k, w in enumerate(words) if w == "data"]
            if ords:
                want[did] = max(ords)
        got = dict(
            zip(t.column("key").to_pylist(), t.column("payload_score").to_pylist())
        )
        assert got == want


class TestPayloadConfigValidation:
    def test_requires_pretokenized(self):
        with pytest.raises(ValueError, match="pretokenized"):
            IndexConfig(payloads=True, payload_col="p", positions=True)

    def test_requires_payload_col(self):
        with pytest.raises(ValueError, match="payload_col"):
            IndexConfig(payloads=True, pretokenized=True, positions=True)


class TestPayloadAlignment:
    """``invert_token_lists`` checks payload/token alignment PER DOC (not
    just the total flattened length) and narrows 64-bit-offset payload
    types."""

    def test_per_doc_mismatch_rejected(self):
        toks = pa.array([["a", "b"], ["c", "d"]], pa.list_(pa.string()))
        pays = pa.array(
            [[b"x", b"y", b"z"], [b"w"]], pa.list_(pa.binary())
        )  # total 4 payloads for 4 tokens — per-doc counts still mismatch
        with pytest.raises(ValueError, match="misaligned at doc 0"):
            invert_token_lists(toks, True, payloads=pays)

    def test_large_binary_payloads_narrowed(self):
        toks = pa.array([["a"], ["b"]], pa.list_(pa.string()))
        pays = pa.array([[b"x"], [b"yy"]], pa.list_(pa.large_binary()))
        inv = invert_token_lists(toks, True, payloads=pays)
        assert inv.pay_lens.tolist() == [1, 2]
        assert bytes(inv.pay_bytes.tobytes()) == b"xyy"

    def test_aligned_still_works(self):
        toks = pa.array([["a", "b"], ["c"]], pa.list_(pa.string()))
        pays = pa.array([[b"1", b"2"], [b"3"]], pa.list_(pa.binary()))
        inv = invert_token_lists(toks, True, payloads=pays)
        assert int(inv.pay_lens.sum()) == 3
