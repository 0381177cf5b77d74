"""Postings-format SPI (``codecs/spi.py``) — the
``PostingsFormat.forName`` / ``NamedSPILoader`` registry role
(``core/codecs/PostingsFormat.java:30-76``) and per-field format
selection (``core/codecs/perfield/PerFieldPostingsFormat.java:64-69``):
a second registered codec must round-trip through build, merge, read,
and scoring with bit-identical results; mixed per-field segments must
pick each field's decoder by the name recorded in segment meta."""

import os

import numpy as np
import pytest

from lucene_ray.codecs.spi import (
    PlainFormat,
    encode_postings_by_format,
    format_for_name,
    register_format,
)
from lucene_ray.index.build import build_index
from lucene_ray.index.check import check_index
from lucene_ray.index.config import IndexConfig

SF_DIR = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
DOCS = os.path.join(SF_DIR, "documents.parquet")


def test_registry_for_name():
    assert format_for_name("ray104").has_impacts
    assert not format_for_name("plain").has_impacts
    with pytest.raises(ValueError, match="unknown postings format"):
        format_for_name("nope")


def test_plain_roundtrip():
    rng = np.random.default_rng(7)
    ids = np.unique(rng.integers(0, 5000, 900)).astype(np.uint32)
    tfs = rng.integers(1, 40, len(ids)).astype(np.uint32)
    starts = np.array([0, len(ids)], dtype=np.int64)
    (blob,) = PlainFormat.encode_batch(ids, tfs, None, starts)
    v = PlainFormat.view(blob)
    got_ids, got_tfs = v.decode_all()
    np.testing.assert_array_equal(got_ids, ids)
    np.testing.assert_array_equal(got_tfs, tfs)


def test_encode_by_format_mixed_preserves_order():
    ids = np.array([1, 5, 9, 2, 3, 7, 8], dtype=np.uint32)
    tfs = np.array([1, 2, 3, 1, 1, 2, 4], dtype=np.uint32)
    norms = np.ones(10, dtype=np.uint8)
    starts = np.array([0, 3, 5, 7], dtype=np.int64)
    blobs = encode_postings_by_format(
        ["plain", "ray104", "plain"], ids, tfs, norms, starts
    )
    assert len(blobs) == 3
    for ti, name in enumerate(["plain", "ray104", "plain"]):
        v = format_for_name(name).view(blobs[ti])
        s, e = starts[ti], starts[ti + 1]
        got_ids, got_tfs = v.decode_all()
        np.testing.assert_array_equal(got_ids, ids[s:e])
        np.testing.assert_array_equal(got_tfs, tfs[s:e])


def test_custom_format_registration():
    class Echo(PlainFormat):
        name = "echo"

    register_format(Echo)
    assert format_for_name("echo") is Echo


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """Three indexes over the same corpus: default, all-plain, and mixed
    per-field (text ray104, keyword fields plain)."""
    root = tmp_path_factory.mktemp("spi")
    built = {}
    cfgs = {
        "ref": IndexConfig(rows_per_segment=150, num_buckets=2,
                           keyword_cols=("lang",)),
        "plain": IndexConfig(rows_per_segment=150, num_buckets=2,
                             keyword_cols=("lang",),
                             postings_format="plain"),
        "mixed": IndexConfig(rows_per_segment=150, num_buckets=2,
                             keyword_cols=("lang",),
                             per_field_formats=(("lang", "plain"),)),
    }
    for name, cfg in cfgs.items():
        d = str(root / name)
        build_index(DOCS, d, cfg)
        built[name] = d
    return built


QUERIES = ["data", "the", "spark merge", "+batch +stream",
           "data #lang:en", '"data processing"']


def _results(idx_dir, q, similarity=None):
    from lucene_ray.search.searcher import IndexSearcher

    s = IndexSearcher(idx_dir, similarity=similarity)
    r = s.search(q, k=20)
    return r["keys"], r["scores"], r["total_hits"]


def test_plain_and_mixed_match_default(indexes):
    for q in QUERIES:
        ref = _results(indexes["ref"], q)
        for variant in ("plain", "mixed"):
            got = _results(indexes[variant], q)
            assert got[0] == ref[0], (variant, q)
            np.testing.assert_array_equal(got[1], ref[1])
            assert got[2] == ref[2]


def test_plain_disables_wand_mixed_keeps_it(indexes):
    from lucene_ray.search.searcher import IndexSearcher

    s_plain = IndexSearcher(indexes["plain"])
    assert not s_plain.text_has_impacts
    with pytest.raises(ValueError, match="impact-bearing"):
        s_plain.search("data spark", k=5, mode="wand")
    s_mixed = IndexSearcher(indexes["mixed"])
    assert s_mixed.text_has_impacts
    r = s_mixed.search("data spark", k=5, mode="wand")
    assert len(r["keys"]) == 5


def test_check_index_clean_on_spi_formats(indexes):
    for variant in ("plain", "mixed"):
        problems = check_index(indexes[variant])
        assert problems == [], variant


def test_merge_preserves_formats(indexes, tmp_path):
    """forceMerge an all-plain index; merged segment must keep the
    recorded format map and produce identical search results."""
    import shutil

    from lucene_ray.index.merge import force_merge
    from lucene_ray.index.manifest import load_manifest
    from lucene_ray.search.searcher import IndexSearcher

    d = str(tmp_path / "plain_merge")
    shutil.copytree(indexes["plain"], d)
    before = {q: _results(d, q) for q in QUERIES}
    force_merge(d)
    man = load_manifest(d)
    assert len(man.segments) == 1
    s = IndexSearcher(d)
    assert s.segments[0].meta["postings_formats"] == {
        "__default__": "plain"
    }
    for q in QUERIES:
        got = _results(d, q)
        assert got[0] == before[q][0], q
        np.testing.assert_array_equal(got[1], before[q][1])
    assert check_index(d) == []
