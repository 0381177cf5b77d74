"""Index invariant checker — the ``CheckIndex`` analogue
(``core/index/CheckIndex.java:113,570,1107-1120``): re-reads every shard
and verifies self-consistency:

- file checksums match the meta.json record,
- per-part term dictionaries strictly sorted, routed to the right bucket,
- postings decode: docids strictly increasing, within [0, n_docs),
  df/ttf in the term table equal the decoded counts,
- per-block impact frontiers dominate every (freq, norm) in the block,
- norms present for every doc; segment stats equal recounts,
- manifest field_stats equal the sum over segments,
- docid ranges contiguous across segments (base order).

Run via ``check_index(index_dir)`` → list of problem strings (empty =
healthy); each segment checks in its own Ray task.
"""

from __future__ import annotations

import os
import zlib
from typing import List

import numpy as np

from lucene_ray.index.config import FIELD_SEP

from lucene_ray.codecs.postings import BLOCK_SIZE, PostingsView, max_block_score
from lucene_ray.codecs.spi import format_for_name
from lucene_ray.search.bm25 import BM25Similarity
from lucene_ray.index.manifest import load_manifest, segment_dir
from lucene_ray.index.segment import SegmentReader


def check_segment(seg_dir: str) -> List[str]:
    problems: List[str] = []
    try:
        seg = SegmentReader(seg_dir)
    except Exception as e:
        return [f"{seg_dir}: unreadable: {e}"]
    meta = seg.meta

    for name, want in meta.get("checksums", {}).items():
        path = os.path.join(seg_dir, name)
        if not os.path.exists(path):
            problems.append(f"{seg_dir}/{name}: missing file")
            continue
        with open(path, "rb") as f:
            got = zlib.crc32(f.read())
        if got != want:
            problems.append(f"{seg_dir}/{name}: checksum {got} != {want}")

    if len(seg.norms) != meta["n_docs"]:
        problems.append(f"{seg_dir}: norms length {len(seg.norms)} != n_docs")
    if len(seg.docmap) != meta["n_docs"]:
        problems.append(f"{seg_dir}: docmap length != n_docs")

    isort = meta.get("index_sort")
    if isort:
        # index-sorted segment: the sort-field DV column must be ordered
        # (CheckIndex.testSort role, ``core/index/CheckIndex.java``)
        field, sdir_ = isort
        try:
            vals = np.asarray(seg.dv(field))
            diffs = np.diff(vals)
            ok = (diffs <= 0).all() if sdir_ == "desc" else (diffs >= 0).all()
            if not ok:
                problems.append(
                    f"{seg_dir}: docs violate index_sort {field} {sdir_}"
                )
        except KeyError:
            problems.append(f"{seg_dir}: index_sort field {field!r} has no DV")

    for pf, info in (meta.get("points") or {}).items():
        # point sidecar (LongPoint/BKD role): sorted values, in-range
        # docids, and exactly the valid (non-null) DV rows
        try:
            import pyarrow.compute as pc

            vals, docs, _ = seg.point_index(pf)
            if len(vals) != info["n"] or len(docs) != info["n"]:
                problems.append(f"{seg_dir}: points {pf!r} length != meta n")
            if len(vals) > 1 and not (np.diff(vals) >= 0).all():
                problems.append(f"{seg_dir}: points {pf!r} values not sorted")
            if len(docs) and (
                int(docs.max()) >= meta["n_docs"] or int(docs.min()) < 0
            ):
                problems.append(f"{seg_dir}: points {pf!r} docid out of range")
            want_docs = np.flatnonzero(np.asarray(pc.is_valid(seg.dv(pf))))
            if not np.array_equal(np.sort(np.asarray(docs)), want_docs):
                problems.append(
                    f"{seg_dir}: points {pf!r} doc set != non-null DV rows"
                )
        except Exception as e:
            problems.append(f"{seg_dir}: points {pf!r} check failed: {e}")

    for gf, info in (meta.get("geo") or {}).items():
        # geo sidecar (LatLonPoint/2-D BKD role): morton order, stored
        # directory == recomputed block min-max, in-range docids, and
        # exactly the rows where BOTH coordinate DVs are non-null
        try:
            import pyarrow.compute as pc

            from lucene_ray.index.geo import morton_interleave

            gi = seg.geo_index(gf)
            if len(gi.ids) != info["n"]:
                problems.append(f"{seg_dir}: geo {gf!r} length != meta n")
            if len(gi.ids):
                mk = morton_interleave(
                    np.asarray(gi.lat), np.asarray(gi.lon)
                )
                # unsigned compare (np.diff on uint64 wraps on decrease)
                if (mk[1:] < mk[:-1]).any():
                    problems.append(
                        f"{seg_dir}: geo {gf!r} not in morton order"
                    )
                docs = np.asarray(gi.ids, dtype=np.int64)
                if docs.max() >= meta["n_docs"] or docs.min() < 0:
                    problems.append(
                        f"{seg_dir}: geo {gf!r} docid out of range"
                    )
                la_ok = np.asarray(pc.is_valid(seg.dv(info["lat_col"])))
                lo_ok = np.asarray(pc.is_valid(seg.dv(info["lon_col"])))
                want = np.flatnonzero(la_ok & lo_ok)
                if not np.array_equal(np.sort(docs), want):
                    problems.append(
                        f"{seg_dir}: geo {gf!r} doc set != non-null DV rows"
                    )
                from lucene_ray.index.geo import GeoBlocks

                fresh = GeoBlocks(
                    np.asarray(gi.lat),
                    np.asarray(gi.lon),
                    np.asarray(gi.ids),
                    block_size=gi.block_size,
                    presorted=True,
                )
                if not (
                    np.array_equal(fresh.blk_lat_min, gi.blk_lat_min)
                    and np.array_equal(fresh.blk_lat_max, gi.blk_lat_max)
                    and np.array_equal(fresh.blk_lon_min, gi.blk_lon_min)
                    and np.array_equal(fresh.blk_lon_max, gi.blk_lon_max)
                ):
                    problems.append(
                        f"{seg_dir}: geo {gf!r} stored directory != "
                        "recomputed block min-max"
                    )
        except Exception as e:
            problems.append(f"{seg_dir}: geo {gf!r} check failed: {e}")

    for rf, info in (meta.get("ranges") or {}).items():
        # range sidecar (IntRange role): lo-sorted, lo<=hi, in-range
        # docids, stored hi directory == recomputed
        try:
            from lucene_ray.index.ranges import RangeBlocks

            ri = seg.range_index(rf)
            if len(ri.ids) != info["n"]:
                problems.append(f"{seg_dir}: ranges {rf!r} length != meta n")
            if len(ri.ids):
                lo = np.asarray(ri.lo)
                hi = np.asarray(ri.hi)
                if (np.diff(lo) < 0).any():
                    problems.append(
                        f"{seg_dir}: ranges {rf!r} lo not sorted"
                    )
                if (hi < lo).any():
                    problems.append(f"{seg_dir}: ranges {rf!r} hi < lo")
                docs = np.asarray(ri.ids, dtype=np.int64)
                if docs.max() >= meta["n_docs"] or docs.min() < 0:
                    problems.append(
                        f"{seg_dir}: ranges {rf!r} docid out of range"
                    )
                fresh = RangeBlocks(
                    lo, hi, docs, block_size=ri.block_size, presorted=True
                )
                if not (
                    np.array_equal(fresh.blk_hi_min, ri.blk_hi_min)
                    and np.array_equal(fresh.blk_hi_max, ri.blk_hi_max)
                ):
                    problems.append(
                        f"{seg_dir}: ranges {rf!r} stored directory != "
                        "recomputed hi min-max"
                    )
        except Exception as e:
            problems.append(f"{seg_dir}: ranges {rf!r} check failed: {e}")

    if meta.get("term_vectors"):
        # term-vector row store: file present, docids sorted + in range,
        # freqs positive, terms sorted within each doc
        try:
            import pyarrow.parquet as _pq

            tv = _pq.read_table(os.path.join(seg_dir, "tv.parquet"))
            d = np.asarray(tv.column("docid"), dtype=np.int64)
            if len(d) and (np.diff(d) < 0).any():
                problems.append(f"{seg_dir}: tv docids not sorted")
            if len(d) and (d.min() < 0 or d.max() >= meta["n_docs"]):
                problems.append(f"{seg_dir}: tv docid out of range")
            f = np.asarray(tv.column("freq"), dtype=np.int64)
            if len(f) and (f <= 0).any():
                problems.append(f"{seg_dir}: tv non-positive freq")
            terms = tv.column("term").to_pylist()
            for i in range(1, len(terms)):
                if d[i] == d[i - 1] and not terms[i - 1] < terms[i]:
                    problems.append(
                        f"{seg_dir}: tv terms not sorted within doc {d[i]}"
                    )
                    break
        except Exception as e:
            problems.append(f"{seg_dir}: term-vector check failed: {e}")

    n_docs = meta["n_docs"]
    sum_df = 0
    sum_ttf = 0
    n_terms = 0
    kw_recount: dict = {}
    for b in range(seg.n_parts):
        t = seg._part(b)
        terms = seg.terms_list(b)
        for i in range(1, len(terms)):
            if not terms[i - 1] < terms[i]:
                problems.append(f"{seg_dir} part{b}: terms not strictly sorted @ {i}")
                break
        if seg.n_parts > 1:
            for i, term in enumerate(terms):
                if seg.bucket_of(term) != b:
                    problems.append(f"{seg_dir} part{b}: term {term!r} in wrong bucket")
                    break
        mm = seg._post_mm[b]
        for i, term in enumerate(terms):
            off, ln = int(t["post_off"][i]), int(t["post_len"][i])
            try:
                fmt = seg.fmt_for_key(term)
                blob = mm[off : off + ln]
                if fmt == "ray104":
                    view = PostingsView(blob)
                else:
                    view = format_for_name(fmt).view(blob)
                ids, freqs = view.decode_all()
            except Exception as e:
                problems.append(
                    f"{seg_dir} part{b} {term!r}: postings decode failed: {e}"
                )
                continue
            if len(ids) != t["df"][i]:
                problems.append(f"{seg_dir} part{b} {term!r}: df {t['df'][i]} != decoded {len(ids)}")
            if int(freqs.sum()) != t["ttf"][i]:
                problems.append(f"{seg_dir} part{b} {term!r}: ttf mismatch")
            if len(ids) > 1 and not (np.diff(ids.astype(np.int64)) > 0).all():
                problems.append(f"{seg_dir} part{b} {term!r}: docids not strictly increasing")
            if len(ids) and (ids[-1] >= n_docs or ids[0] < 0):
                problems.append(f"{seg_dir} part{b} {term!r}: docid out of range")
            if (freqs < 1).any():
                problems.append(f"{seg_dir} part{b} {term!r}: zero freq")
            # impact domination: g = 1 - 1/(1+f*inv) monotone in f per norm;
            # check bound >= every (freq, norm) pair's factor with a
            # reference normInverse built from an arbitrary avgdl
            if fmt != "ray104":
                continue  # non-impact SPI formats have no block directory
            sc = BM25Similarity().scorer(1.0, max(2, n_docs), max(2, int(meta["sum_ttf"])), max(1, len(ids)))
            try:
                for bi in range(view.n_blocks):
                    imp = view.impacts(bi)
                    if len(imp) == 0:
                        continue
                    bound = max_block_score(imp, sc)
                    blk = slice(bi * BLOCK_SIZE, (bi + 1) * BLOCK_SIZE)
                    real = sc.score(freqs[blk].astype(np.float32), seg.norms[ids[blk]])
                    if not (real <= bound + 1e-6).all():
                        problems.append(
                            f"{seg_dir} part{b} {term!r} block {bi}: impact bound violated"
                        )
            except Exception as e:
                problems.append(f"{seg_dir} part{b} {term!r}: impacts check failed: {e}")
        # text-field vs keyword-field stats accumulate separately (meta
        # sum_df/sum_ttf are the text field's; keyword fields recount
        # against meta.kw_stats)
        for i, term in enumerate(terms):
            if FIELD_SEP in term:
                f = term.split(FIELD_SEP, 1)[0]
                st = kw_recount.setdefault(f, {"sum_ttf": 0})
                st["sum_ttf"] += int(t["ttf"][i])
            else:
                sum_df += int(t["df"][i])
                sum_ttf += int(t["ttf"][i])
        n_terms += len(terms)

    if sum_df != meta["sum_df"]:
        problems.append(f"{seg_dir}: sum_df recount {sum_df} != meta {meta['sum_df']}")
    if sum_ttf != meta["sum_ttf"]:
        problems.append(f"{seg_dir}: sum_ttf recount {sum_ttf} != meta {meta['sum_ttf']}")
    if n_terms != meta["n_terms"]:
        problems.append(f"{seg_dir}: n_terms recount != meta")
    for f, st in (meta.get("kw_stats") or {}).items():
        rc = kw_recount.get(f, {"sum_ttf": 0})
        if rc["sum_ttf"] != st["sum_ttf"]:
            problems.append(
                f"{seg_dir}: kw field {f!r} sum_ttf recount {rc['sum_ttf']} != meta {st['sum_ttf']}"
            )
    return problems


def check_index(index_dir: str, use_ray: bool = True) -> List[str]:
    man = load_manifest(index_dir)
    if man is None:
        return [f"{index_dir}: no manifest"]
    problems: List[str] = []
    fs = man.field_stats
    for key in ("doc_count", "sum_ttf", "sum_df", "n_docs"):
        got = sum(s[key] if key != "n_docs" else s["n_docs"] for s in man.segments)
        if got != fs[key]:
            problems.append(f"manifest field_stats.{key} {fs[key]} != sum {got}")
    segs = sorted(man.segments, key=lambda s: s["base_docid"])
    expect = 0
    for s in segs:
        if s["base_docid"] != expect:
            problems.append(
                f"segment {s['seg_id']}: base {s['base_docid']} != expected {expect} (gap/overlap)"
            )
        expect = s["base_docid"] + s["n_docs"]
    dirs = [segment_dir(index_dir, s["seg_id"]) for s in man.segments]
    if use_ray:
        import ray

        @ray.remote
        def chk(d: str) -> List[str]:
            return check_segment(d)

        for r in ray.get([chk.remote(d) for d in dirs]):
            problems.extend(r)
    else:
        for d in dirs:
            problems.extend(check_segment(d))
    return problems
