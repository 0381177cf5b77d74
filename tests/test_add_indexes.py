"""addIndexes bulk segment import: adopting a foreign committed index's
segments must search bit-identically to a MultiReader over the two
originals (``core/index/IndexWriter.java:3051`` file-verbatim copy
semantics), and the adopted index keeps working standalone (merge-able,
deletable, re-openable from its new manifest generation). Also:
``add_indexes`` refuses a num_buckets mismatch (merge assumes uniform
part counts), and ``_adopt_one`` reuses a pre-existing segment dir only
when its lineage and base_docid match (a stale retry rebuilds)."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.add_indexes import _adopt_one, add_indexes
from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.manifest import load_manifest
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"
CFG = IndexConfig(rows_per_segment=120, num_buckets=2)

QUERIES = [
    "data",
    "spark merge",
    "+batch +stream -window",
    '"data processing"',
]


@pytest.fixture(scope="module")
def imported(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("addidx")
    tbl = pq.read_table(DOCS)
    mid = len(tbl) // 2
    dirs = []
    for part, piece in enumerate((tbl.slice(0, mid), tbl.slice(mid))):
        d = str(root / f"half{part}")
        src = str(root / f"half{part}.parquet")
        pq.write_table(piece, src)
        build_index(src, d, CFG)
        dirs.append(d)
    # a pristine rebuild of half0 (deterministic) to serve as the
    # MultiReader baseline after half0 itself is mutated by the import
    pristine = str(root / "half0_pristine")
    build_index(str(root / "half0.parquet"), pristine, CFG)
    add_indexes(dirs[0], [dirs[1]])
    # [mutated-dest, untouched-src, pristine-copy-of-dest-before-import]
    return dirs + [pristine]


class TestAddIndexes:
    def test_manifest_generation_bumped(self, imported):
        man = load_manifest(imported[0])
        assert man.generation == 2
        # both halves' docs counted
        full = pq.read_table(DOCS)
        assert man.field_stats["n_docs"] == len(full)

    def test_source_untouched(self, imported):
        man = load_manifest(imported[1])
        assert man.generation == 1

    @pytest.mark.parametrize("q", QUERIES)
    def test_search_equals_multireader(self, imported, ray_session, q):
        merged = IndexSearcher(imported[0])
        multi = IndexSearcher([imported[2], imported[1]])
        rm = merged.search(q, k=25)
        rx = multi.search(q, k=25)
        assert list(rm["keys"]) == list(rx["keys"])
        assert [float(s) for s in rm["scores"]] == [
            float(s) for s in rx["scores"]
        ]

    def test_docids_unique(self, imported):
        s = IndexSearcher(imported[0])
        spans = sorted(
            (seg.base_docid, seg.base_docid + seg.n_docs)
            for seg in s.segments
        )
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_adopted_meta_rewritten(self, imported):
        man = load_manifest(imported[0])
        seen = set()
        for s in man.segments:
            assert s["seg_id"] not in seen
            seen.add(s["seg_id"])
            d = os.path.join(
                imported[0], "segments", f"seg_{s['seg_id']:06d}"
            )
            with open(os.path.join(d, "meta.json")) as f:
                disk = json.load(f)
            assert disk["seg_id"] == s["seg_id"]
            assert disk["base_docid"] == s["base_docid"]

    def test_incompatible_config_rejected(
        self, ray_session, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("addbad")
        tbl = pq.read_table(DOCS).slice(0, 100)
        src = str(root / "p.parquet")
        pq.write_table(tbl, src)
        a, b = str(root / "a"), str(root / "b")
        build_index(src, a, CFG)
        build_index(
            src, b, IndexConfig(rows_per_segment=120, num_buckets=2, offsets=True)
        )
        with pytest.raises(ValueError, match="incompatible config"):
            add_indexes(a, [b])


def _write_vec_corpus(path: str, n: int = 60, dim: int = 8):
    rng = np.random.default_rng(7)
    keys = list(range(n))
    emb = rng.standard_normal((n, dim)).astype(np.float32)
    tbl = pa.table(
        {
            "doc_id": pa.array(keys),
            "text": pa.array([f"alpha beta doc {i} gamma" for i in range(n)]),
            "embedding": pa.array(list(emb), pa.list_(pa.float32())),
        }
    )
    pq.write_table(tbl, path)
    return emb


class TestAddIndexesCompat:
    def test_num_buckets_mismatch_rejected(self, ray_session, tmp_path):
        src = str(tmp_path / "p.parquet")
        _write_vec_corpus(src)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        build_index(src, a, IndexConfig(rows_per_segment=30, num_buckets=2))
        build_index(src, b, IndexConfig(rows_per_segment=30, num_buckets=4))
        with pytest.raises(ValueError, match="num_buckets"):
            add_indexes(a, [b])


class TestAdoptIdempotency:
    def test_stale_adoption_rebuilt(self, ray_session, tmp_path):
        src = str(tmp_path / "p.parquet")
        _write_vec_corpus(src)
        a = str(tmp_path / "a")
        build_index(src, a, IndexConfig(rows_per_segment=30, num_buckets=2))
        seg0 = os.path.join(
            a,
            "segments",
            sorted(
                s
                for s in os.listdir(os.path.join(a, "segments"))
                if s.startswith("seg_")
            )[0],
        )
        dest = str(tmp_path / "dest")
        # first adoption
        m1 = _adopt_one(seg0, dest, 7, 100)
        assert m1["base_docid"] == 100
        # same retry → reused verbatim
        m2 = _adopt_one(seg0, dest, 7, 100)
        assert m2 == m1
        # retry with a DIFFERENT base (dest changed between attempts)
        # must rebuild, not return the stale meta
        m3 = _adopt_one(seg0, dest, 7, 250)
        assert m3["base_docid"] == 250
        with open(
            os.path.join(dest, "segments", "seg_000007", "meta.json")
        ) as f:
            on_disk = json.load(f)
        assert on_disk["base_docid"] == 250
