"""The searcher's one query-time store (``IndexSearcher.cache``), checked
from outside it: every segment's slice of a term's index-wide entry
equals an independent one-blob decode of that segment with its deleted
docs dropped (ids and freqs of the default text field, an extra text
field and a keyword field, positions of the two text fields), and a
searcher whose budget is a few KB never holds more than that while it
returns what a default-budget searcher returns, over every kind of query
node, ``explain`` and ``mode="exhaustive"``."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig, term_key
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.search.query import (
    IntervalQuery,
    MultiPhraseQuery,
    SpanNearQuery,
    TermInSetQuery,
)
from lucene_ray.search.querycache import LRUCache
from lucene_ray.search.searcher import IndexSearcher
from test_querycache import DOCS

# term keys of the default text field and the extra text field, which
# index positions, and of the keyword field, which indexes none
TEXT_KEYS = [
    "data",
    "the",
    "vector",
    term_key("title", "data"),
    term_key("title", "merge"),
]
KEYS = TEXT_KEYS + [term_key("lang", "en"), term_key("lang", "zh")]


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    """sf0.001 in 150-doc segments with a keyword field (lang), an extra
    text field (title: words 3-8 of the text, reversed) and every 7th doc
    deleted."""
    d = tmp_path_factory.mktemp("entries")
    t = pq.read_table(DOCS)
    titles = [" ".join(x.split()[3:9][::-1]) for x in t.column("text").to_pylist()]
    pq.write_table(t.append_column("title", pa.array(titles)), str(d / "docs.parquet"))
    idx = str(d / "idx")
    build_index(
        str(d / "docs.parquet"),
        idx,
        IndexConfig(
            rows_per_segment=150,
            keyword_cols=("lang",),
            extra_text_cols=("title",),
            dv_cols=("n_chars",),
        ),
    )
    delete_by_keys(idx, t.column("doc_id").to_pylist()[::7])
    return idx


def test_slices_equal_an_independent_decode(index_dir):
    s = IndexSearcher(index_dir)
    assert len(s.segments) == 4
    assert all(seg.deleted is not None and seg.deleted.any() for seg in s.segments)
    states = s.term_states(KEYS)
    for key in KEYS:
        assert states[key][1] > 0, key
        for si, seg in enumerate(s.segments):
            info = states[key][0][si]
            if info is None:
                continue
            ids, freqs = seg.decoded(info)
            live = ~seg.deleted[ids]
            got_ids, got_freqs = s._seg_postings(key, si, states)
            assert got_ids.dtype == got_freqs.dtype == np.uint32
            np.testing.assert_array_equal(got_ids, ids[live], err_msg=key)
            np.testing.assert_array_equal(got_freqs, freqs[live], err_msg=key)
            if key not in TEXT_KEYS:
                continue
            pos = seg.positions(info)
            pos_ids, offs, got_pos = s._seg_positions(key, si, states)
            assert offs.dtype == got_pos.dtype == np.uint32
            np.testing.assert_array_equal(pos_ids, ids[live], err_msg=key)
            np.testing.assert_array_equal(np.diff(offs), freqs[live], err_msg=key)
            np.testing.assert_array_equal(
                got_pos, pos[np.repeat(live, freqs)], err_msg=key
            )


BUDGET = 4 << 10

# auto-mode term / OR / AND / phrase first, then every other kind of node
STREAM = [
    "data",
    "data spark",
    "+data +spark",
    '"data spark"',
    '+"data spark" -window',
    "data spark",
    '"data spark"',
    "sp*",
    "s?an data",
    "spak~1",
    "#n_chars:[100 TO 300] data",
    "lang:en data",
    "title:data merge",
    SpanNearQuery(("data", "spark"), slop=3, in_order=False),
    '"data spark"~2',
    IntervalQuery(("ordered", ("term", "data"), ("term", "spark"))),
    MultiPhraseQuery((("data",), ("spark", "stream"))),
    TermInSetQuery("lang", ("en", "zh")),
]


def same(got, want):
    assert got["docids"].tolist() == want["docids"].tolist()
    assert (
        np.asarray(got["scores"], np.float32).tobytes()
        == np.asarray(want["scores"], np.float32).tobytes()
    )
    assert (got["total_hits"], got["relation"]) == (want["total_hits"], want["relation"])


def test_a_few_kb_bound_every_query(index_dir, monkeypatch):
    full = IndexSearcher(index_dir)
    monkeypatch.setattr(IndexSearcher, "CACHE_BYTES", BUDGET)
    tiny = IndexSearcher(index_dir)
    assert tiny.cache.max_bytes == BUDGET

    def check():
        assert tiny.cache.nbytes <= BUDGET
        assert not any(
            isinstance(v, LRUCache) for seg in tiny.segments for v in vars(seg).values()
        )

    for mode in ("auto", "exhaustive"):
        for q in STREAM:
            want = full.search(q, 10, mode=mode)
            assert want["total_hits"] > 0
            same(tiny.search(q, 10, mode=mode), want)
            check()
            for d in want["docids"][:2].tolist():
                assert tiny.explain(q, d) == full.explain(q, d)
                check()
    assert 0 < len(tiny.cache) and tiny.cache.misses > 0
