"""Tiered segment merging — the reference's compaction tier (SURVEY §2.13).

Planner: size-ratio tiered selection adapted from ``TieredMergePolicy``
(``core/index/TieredMergePolicy.java:76-83,314-410,704-723``): budget =
``segs_per_tier`` per size tier above a floor size; candidate score =
``skew * totAfterMergeBytes^0.05`` (lower is better; no deletes in this
engine so the nonDelRatio² factor is 1). One deliberate difference,
documented: candidates are **contiguous runs in docid-base order** (like
``LogByteSizeMergePolicy`` — ``core/index/LogMergePolicy.java``) so global
docids survive merges unchanged — this engine uses global docids as the
rank tie-break, so merging must be rank-neutral.

Executor: each planned merge fans out to one Ray task per term bucket
(``SegmentMerger`` role, ``core/index/SegmentMerger.java:116-157``): the
sources' bucket streams are decoded whole, put in union term order by
one stable sort of their term columns, each term's postings concatenated
in docid-base order with docid rebase (``DocIDMerger.java:76-78`` base
offsets), then re-blocked/re-compressed with impacts recomputed;
norms/docmaps concatenated. The merged segment commits
atomically; the manifest flips a generation; source dirs are deleted after
the commit (IndexFileDeleter role).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_ray.index.config import IndexConfig
from lucene_ray.index.deletes import _write_deleted
from lucene_ray.index.vectors import (
    BYTE_VECTORS_FILE,
    VECTORS_FILE,
    _ShardGraph,
    build_byte_vector_bytes,
    build_graph_bytes,
    load_byte_vectors,
)
from lucene_ray.index.points import build_point_files
from lucene_ray.index.geo import build_geo_files
from lucene_ray.index.ranges import build_range_files
from lucene_ray.index.manifest import (
    Manifest,
    commit_manifest,
    load_manifest,
    segment_dir,
)
from lucene_ray.index.segment import (
    SegmentReader,
    decode_uint_blocks_batch,
    sorted_run_heads,
    write_term_parts,
)
from lucene_ray.codecs.forutil import excl_cumsum, ranges
from lucene_ray.codecs.postings import decode_postings_batch
from lucene_ray.codecs.spi import format_for_name


@dataclass(frozen=True)
class TieredMergePolicy:
    """Size-ratio merge planning (defaults per TieredMergePolicy.java:77-83)."""

    segs_per_tier: float = 8.0
    max_merge_at_once: int = 10
    floor_segment_bytes: int = 2 << 20  # scaled floor (ref: 16MB for 5GB caps)
    max_merged_segment_bytes: int = 5 << 30

    def allowed_seg_count(self, sizes: Sequence[int]) -> int:
        total = sum(sizes)
        floor = self.floor_segment_bytes
        allowed = 0.0
        level = float(floor)
        remaining = float(total)
        while remaining > 0:
            count = remaining / level
            if count < self.segs_per_tier:
                allowed += count
                break
            allowed += self.segs_per_tier
            remaining -= self.segs_per_tier * level
            level *= self.max_merge_at_once
        return max(1, int(allowed))

    def find_merges(self, segments: List[dict]) -> List[List[int]]:
        """→ list of merges, each a list of seg_ids (contiguous in
        base_docid order). Greedy best-score windows, like the reference's
        candidate enumeration (TieredMergePolicy.java:314-410)."""
        segs = sorted(segments, key=lambda s: s["base_docid"])
        sizes = [max(1, int(s.get("bytes", s["metrics"].get("postings_bytes", 1)))) for s in segs]
        if len(segs) <= self.allowed_seg_count(sizes):
            return []
        merges: List[List[int]] = []
        used = [False] * len(segs)
        while True:
            best = None
            for lo in range(len(segs)):
                if used[lo]:
                    continue
                tot = 0
                window = []
                for hi in range(lo, min(lo + self.max_merge_at_once, len(segs))):
                    if used[hi]:
                        break
                    tot += sizes[hi]
                    if tot > self.max_merged_segment_bytes and len(window) >= 2:
                        break
                    window.append(hi)
                if len(window) < 2:
                    continue
                wsizes = [sizes[i] for i in window]
                # floored sizes like the reference's floorSize
                floored = [max(s, self.floor_segment_bytes) for s in wsizes]
                skew = max(floored) / sum(floored)
                score = skew * (sum(wsizes) ** 0.05)
                if best is None or score < best[0]:
                    best = (score, window)
            if best is None:
                break
            _, window = best
            for i in window:
                used[i] = True
            merges.append([segs[i]["seg_id"] for i in window])
            live = sum(1 for u in used if not u) + len(merges)
            if live <= self.allowed_seg_count(sizes):
                break
        return merges


def _open_sorted_readers(index_dir: str, seg_ids: List[int]):
    readers = [SegmentReader(segment_dir(index_dir, sid)) for sid in seg_ids]
    readers.sort(key=lambda r: r.base_docid)
    new_base = readers[0].base_docid
    rebase = [r.base_docid - new_base for r in readers]
    expect = new_base
    for r in readers:  # contiguity keeps global docids (and ranks) stable
        if r.base_docid != expect:
            raise ValueError(f"non-contiguous merge: {seg_ids}")
        expect += r.n_docs
    return readers, new_base, rebase


def _index_sort_map(readers):
    """Merge-sort doc remap for index-sorted segments — the
    ``MergeState.DocMap`` built by ``Sorter.sort`` at merge time
    (``core/index/Sorter.java``, ``MultiSorter.java``). Over the
    concatenated (docid-base-ordered) reader-local docids returns
    ``(index_sort, old_of_new, new_of_old)``; ``(None, None, None)``
    when the segments are unsorted. Deterministic (stable argsort on the
    sort-key column), so every bucket task and the finalize step derive
    the identical permutation independently."""
    isort = readers[0].meta.get("index_sort")
    if not isort:
        return None, None, None
    for r in readers:
        if r.meta.get("index_sort") != isort:
            raise ValueError(
                f"cannot merge segments with different index_sort: "
                f"{isort} vs {r.meta.get('index_sort')}"
            )
    field, sdir = isort
    skey = np.concatenate([np.asarray(r.dv(field)) for r in readers])
    if sdir == "desc":
        skey = -skey
    old_of_new = np.argsort(skey, kind="stable").astype(np.int64)
    new_of_old = np.empty_like(old_of_new)
    new_of_old[old_of_new] = np.arange(len(old_of_new), dtype=np.int64)
    return tuple(isort), old_of_new, new_of_old


def _decode_source(
    r: SegmentReader,
    b: int,
    base: int,
    with_pos: bool,
    with_off: bool,
    with_pay: bool,
) -> Dict[str, tuple]:
    """Decode bucket ``b`` of one merge source whole, terms in its own
    order, docids rebased by ``base``. → stream name → (flat values,
    per-term run lengths): ``ids``/``tfs`` share the pair framing;
    ``pos`` and, when present, ``offs``/``offl`` (offset starts and
    lengths) and ``payl`` (payload lengths) share the occurrence
    framing; ``payb`` holds the raw payload bytes."""
    t = r._part(b)
    if r._formats is None:
        ids, tfs, dfs = decode_postings_batch(
            r._post_mm[b], t["post_off"], t["post_len"]
        )
    else:
        # per-field SPI formats: each term decodes with its field's format
        mm = r._post_mm[b]
        dec = [
            format_for_name(r.fmt_for_key(term)).view(mm[o : o + n]).decode_all()
            for term, o, n in zip(
                r.terms_list(b), t["post_off"].tolist(), t["post_len"].tolist()
            )
        ]
        ids = np.concatenate([d[0] for d in dec] or [np.empty(0, np.uint32)])
        tfs = np.concatenate([d[1] for d in dec] or [np.empty(0, np.uint32)])
        dfs = t["df"]
    out = {"ids": (ids + np.uint32(base), dfs), "tfs": (tfs, dfs)}
    none = np.empty(0, np.uint8)  # an empty part file is not mapped
    if with_pos:
        pm = none if r._pos_mm[b] is None else r._pos_mm[b]
        out["pos"] = decode_uint_blocks_batch(pm, t["pos_off"], t["pos_len"])
    if with_off:
        om = none if r._off_mm[b] is None else r._off_mm[b]
        out["offs"] = decode_uint_blocks_batch(om, t["off_off"], t["off_slen"])
        out["offl"] = decode_uint_blocks_batch(
            om, t["off_off"] + t["off_slen"], t["off_llen"]
        )
    if with_pay:
        ym = none if r._pay_mm[b] is None else r._pay_mm[b]
        out["payl"] = decode_uint_blocks_batch(ym, t["pay_off"], t["pay_llen"])
        out["payb"] = (
            ym[ranges(t["pay_off"] + t["pay_llen"], t["pay_blen"])],
            t["pay_blen"],
        )
    return out


def merge_bucket(
    index_dir: str, seg_ids: List[int], b: int, tmp_dir: str
) -> dict:
    """Merge ONE term bucket of the given segments into part files in
    ``tmp_dir`` — the unit of merge parallelism (a merge fans out to
    ``n_parts`` independent bucket tasks). One array program: each
    source's bucket is decoded once (docids rebased); one stable sort of
    the concatenated term columns gives the union term order (ties keep
    source order, so rebased docids stay sorted); every stream moves to
    that order by one range gather over the sorted (source, term) runs.
    Under an index sort, one lexsort of (term, remapped docid) re-sorts
    each term's pairs and one occurrence gather carries positions,
    offsets and payloads along. The part's files are then encoded and
    written once by ``write_term_parts``, the part writer
    ``write_segment`` uses too."""
    import zlib as _zlib

    readers, new_base, rebase = _open_sorted_readers(index_dir, seg_ids)
    fmts0 = readers[0].meta.get("postings_formats")
    for r in readers[1:]:
        if r.meta.get("postings_formats") != fmts0:
            raise ValueError(
                "cannot merge segments with different postings_formats: "
                f"{fmts0} vs {r.meta.get('postings_formats')}"
            )
    _isort, _old_of_new, new_of_old = _index_sort_map(readers)
    norms = np.concatenate([r.norms for r in readers])
    if _old_of_new is not None:
        norms = norms[_old_of_new]  # impacts see NEW docid order
    with_pos = bool(readers[0].meta["positions"])
    with_off = all(bool(r.meta.get("offsets")) for r in readers)
    if any(bool(r.meta.get("offsets")) for r in readers) and not with_off:
        raise ValueError(
            "cannot merge offset-bearing segments with offset-less ones"
        )
    with_pay = all(bool(r.meta.get("payloads")) for r in readers)
    if any(bool(r.meta.get("payloads")) for r in readers) and not with_pay:
        raise ValueError(
            "cannot merge payload-bearing segments with payload-less ones"
        )
    checksums: Dict[str, int] = {}

    def put(name: str, data) -> None:
        with open(os.path.join(tmp_dir, name), "wb") as f:
            f.write(data)
        checksums[name] = _zlib.crc32(data)

    srcs = [
        _decode_source(r, b, base, with_pos, with_off, with_pay)
        for r, base in zip(readers, rebase)
    ]
    keys = pa.concat_arrays(
        [r._part(b)["term"].cast(pa.large_string()) for r in readers]
    )
    order = pc.sort_indices(keys).to_numpy()  # stable
    keys = keys.take(order)
    heads = sorted_run_heads(keys)
    terms = keys.take(pa.array(heads))
    edges = np.append(heads, len(keys))

    def union(*names):
        """Streams sharing one framing, from the sources' (source, term)
        runs to the union's term-major runs (each source array is
        released once moved). → (per-term starts, arrays)."""
        counts = np.concatenate([s[names[0]][1] for s in srcs])
        sorted_counts = counts[order]
        bounds = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(sorted_counts, out=bounds[1:])
        gather = ranges(excl_cumsum(counts)[order], sorted_counts)
        return bounds[edges], [
            np.concatenate([s.pop(n)[0] for s in srcs])[gather] for n in names
        ]

    term_starts, (ids, tfs) = union("ids", "tfs")
    occ: Dict[str, np.ndarray] = {}
    pos_starts = payb = None
    if with_pos:
        names = [n for n in ("pos", "offs", "offl", "payl") if n in srcs[0]]
        pos_starts, streams = union(*names)
        occ = dict(zip(names, streams))
    if with_pay:
        _, (payb,) = union("payb")
    if new_of_old is not None:
        # index-sorted merge: remap docids through the merge DocMap and
        # re-sort each term's pairs; each pair's occurrences (positions,
        # offsets, payloads) follow it by one shared gather
        mapped = new_of_old[ids]
        term_row = np.repeat(np.arange(len(terms)), np.diff(term_starts))
        perm = np.lexsort((mapped, term_row))
        ids = mapped[perm].astype(np.uint32)
        if with_pos:
            # a keyword term (DOCS-only) has no occurrences
            per = np.where((np.diff(pos_starts) > 0)[term_row], tfs, 0)
            g = ranges(excl_cumsum(per)[perm], per[perm])
            if with_pay:
                pl = occ["payl"]
                payb = payb[ranges(excl_cumsum(pl)[g], pl[g])]
            occ = {n: v[g] for n, v in occ.items()}
        tfs = tfs[perm]

    res = write_term_parts(
        put,
        tmp_dir,
        [b],
        None,
        terms,
        term_starts,
        ids,
        tfs,
        norms[ids],
        # re-encode each merged term with its field's format
        fmt_names=(
            None
            if readers[0]._formats is None
            else [readers[0].fmt_for_key(t) for t in terms.to_pylist()]
        ),
        with_positions=with_pos,
        pos_starts=pos_starts,
        positions=occ.get("pos"),
        off_starts=occ.get("offs"),
        off_lens=occ.get("offl"),
        pay_lens=occ.get("payl"),
        pay_bytes=payb,
    )
    res["checksums"] = checksums
    return res


def _finalize_merge(
    index_dir: str,
    seg_ids: List[int],
    new_seg_id: int,
    tmp_dir: str,
    bucket_results: List[dict],
    t0: float,
) -> dict:
    """Write norms/docmap/meta and atomically publish the merged segment."""
    import zlib as _zlib

    import pyarrow.parquet as pq

    readers, new_base, _ = _open_sorted_readers(index_dir, seg_ids)
    isort, old_of_new, _new_of_old = _index_sort_map(readers)
    sdir = segment_dir(index_dir, new_seg_id)
    norms = np.concatenate([r.norms for r in readers])
    keys = pa.concat_arrays([r.docmap for r in readers])
    if old_of_new is not None:
        # index-sorted merge: every row-aligned sidecar follows the
        # merge DocMap (docids are reassigned by the sort — tie-breaks
        # between equal-score docs follow the new sorted order)
        take = pa.array(old_of_new)
        norms = norms[old_of_new]
        keys = keys.take(take)
    norm_bytes = norms.tobytes()
    with open(os.path.join(tmp_dir, "norms.bin"), "wb") as f:
        f.write(norm_bytes)
    # extra tokenized fields' norms concatenate (and re-sort) identically
    text_fields = sorted(readers[0].meta.get("text_fields") or [])
    field_norm_crcs: Dict[str, int] = {}
    for f_ in text_fields:
        fn = np.concatenate([r.norms_for(f_) for r in readers])
        if old_of_new is not None:
            fn = fn[old_of_new]
        fb = fn.tobytes()
        with open(os.path.join(tmp_dir, f"norms_{f_}.bin"), "wb") as fh:
            fh.write(fb)
        field_norm_crcs[f"norms_{f_}.bin"] = _zlib.crc32(fb)
    pq.write_table(pa.table({"key": keys}), os.path.join(tmp_dir, "docmap.parquet"))
    # tombstones carry forward (concatenated like norms): global docids
    # are the rank tie-break contract, so merges never compact holes —
    # reclamation is a rebuild (documented in index/deletes.py)
    merged_del_gen = None
    if any(r.deleted is not None for r in readers):
        dels = np.concatenate(
            [
                r.deleted
                if r.deleted is not None
                else np.zeros(r.n_docs, dtype=bool)
                for r in readers
            ]
        )
        if old_of_new is not None:
            dels = dels[old_of_new]
        _write_deleted(tmp_dir, dels, 1)
        merged_del_gen = 1
    dv_cols = readers[0].meta.get("dv_cols") or []
    if dv_cols:
        dvs = [
            pq.read_table(os.path.join(r.seg_dir, "dv.parquet")) for r in readers
        ]
        dv_all = pa.concat_tables(dvs)
        if old_of_new is not None:
            dv_all = dv_all.take(pa.array(old_of_new))
        pq.write_table(dv_all, os.path.join(tmp_dir, "dv.parquet"))
    if readers[0].meta.get("term_vectors"):
        # term-vector rows carry forward with docid rebase (the
        # TermVectorsFormat merge role); under an index sort the local
        # docids additionally remap via the inverse permutation
        tvs = []
        base = 0
        for r in readers:
            t = pq.read_table(os.path.join(r.seg_dir, "tv.parquet"))
            d = np.asarray(t.column("docid"), dtype=np.int64) + base
            tvs.append(t.set_column(0, "docid", pa.array(d)))
            base += r.n_docs
        tv_all = pa.concat_tables(tvs)
        if old_of_new is not None:
            new_of_old = np.empty(len(old_of_new), np.int64)
            new_of_old[np.asarray(old_of_new)] = np.arange(len(old_of_new))
            d = new_of_old[np.asarray(tv_all.column("docid"), dtype=np.int64)]
            tv_all = tv_all.set_column(0, "docid", pa.array(d))
            import pyarrow.compute as _pc

            tv_all = tv_all.take(
                _pc.sort_indices(
                    tv_all,
                    sort_keys=[("docid", "ascending"), ("term", "ascending")],
                )
            )
        pq.write_table(tv_all, os.path.join(tmp_dir, "tv.parquet"))
    points_meta: Dict[str, dict] = {}
    point_crcs: Dict[str, int] = {}
    point_fields = sorted(readers[0].meta.get("points") or {})
    if point_fields and dv_cols:
        # rebuild the 1-D point sidecars over the merged (and possibly
        # index-sort-remapped) dv table — the BKDWriter merge role
        for f_, (vb, db, info) in build_point_files(
            dv_all, point_fields
        ).items():
            for suffix, blob in (("vals", vb), ("docs", db)):
                name = f"points_{f_}.{suffix}.bin"
                with open(os.path.join(tmp_dir, name), "wb") as fh:
                    fh.write(blob)
                point_crcs[name] = _zlib.crc32(blob)
            points_meta[f_] = info
    geo_meta: Dict[str, dict] = {}
    ranges_meta: Dict[str, dict] = {}
    src_geo = readers[0].meta.get("geo") or {}
    if src_geo and dv_cols:
        # rebuild the 2-D geo-point sidecars over the merged dv table
        # (the BKDWriter merge role for LatLonPoint, index/geo.py);
        # lat/lon column names travel in the per-field info
        for f_, (files, info) in build_geo_files(
            dv_all,
            [(f, i["lat_col"], i["lon_col"]) for f, i in sorted(src_geo.items())],
        ).items():
            for suffix, blob in files.items():
                name = f"geo_{f_}.{suffix}.bin"
                with open(os.path.join(tmp_dir, name), "wb") as fh:
                    fh.write(blob)
                point_crcs[name] = _zlib.crc32(blob)
            geo_meta[f_] = info
    src_rng = readers[0].meta.get("ranges") or {}
    if src_rng and dv_cols:
        # interval-field sidecars likewise rebuild from merged dv
        for f_, (files, info) in build_range_files(
            dv_all,
            [(f, i["lo_col"], i["hi_col"]) for f, i in sorted(src_rng.items())],
        ).items():
            for suffix, blob in files.items():
                name = f"ranges_{f_}.{suffix}.bin"
                with open(os.path.join(tmp_dir, name), "wb") as fh:
                    fh.write(blob)
                point_crcs[name] = _zlib.crc32(blob)
            ranges_meta[f_] = info
    vectors_meta = None
    vec_crc: Dict[str, int] = {}
    if any(r.meta.get("vectors") for r in readers) and not all(
        r.meta.get("vectors") for r in readers
    ):
        # Mirror the offsets mixed-merge guard: silently dropping the
        # vector sidecars would make knn_search_index skip those docs.
        raise ValueError(
            "merge: mixed vector-bearing and vector-less segments "
            f"({[bool(r.meta.get('vectors')) for r in readers]}); "
            "rebuild the vector-less segments (or addIndexes with a "
            "matching vector_col) before merging"
        )
    if all(
        (r.meta.get("vectors") or {}).get("encoding") == "byte"
        for r in readers
    ) and any(r.meta.get("vectors") for r in readers):
        # byte vectors (KnnByteVectorField): flat codes concatenate in
        # docid order (and remap under an index sort) — no graph rebuild
        mats = [
            load_byte_vectors(os.path.join(r.seg_dir, BYTE_VECTORS_FILE))
            for r in readers
        ]
        codes = np.concatenate(mats)
        if old_of_new is not None:
            codes = codes[old_of_new]
        blob = build_byte_vector_bytes(codes)
        with open(os.path.join(tmp_dir, BYTE_VECTORS_FILE), "wb") as fh:
            fh.write(blob)
        vec_crc[BYTE_VECTORS_FILE] = _zlib.crc32(blob)
        vectors_meta = {
            "dim": int(codes.shape[1]),
            "count": int(len(codes)),
            "encoding": "byte",
        }
    elif any(
        (r.meta.get("vectors") or {}).get("encoding") == "byte"
        for r in readers
    ):
        raise ValueError(
            "merge: mixed byte- and float-vector segments; rebuild to a "
            "single vector_encoding before merging"
        )
    elif all(r.meta.get("vectors") for r in readers):
        # index-resident vectors: concatenate source segments' float32
        # vectors in docid order and REBUILD the merged graph — the
        # HnswGraphMerger role (``Lucene99HnswVectorsFormat`` merges by
        # re-adding vectors; the deterministic hash-leveled build makes
        # our rebuild bit-reproducible)
        graphs = [
            _ShardGraph.load(os.path.join(r.seg_dir, VECTORS_FILE))
            for r in readers
        ]
        # prefer the raw (un-normalized) float32 vectors so the merged
        # graph's exact-fallback path keeps scoring bit-identically to
        # brute force; pre-raw-format segments fall back to normalized
        mats = [
            (g.raw if g.raw is not None else g.v.astype(np.float32))
            for g in graphs
        ]
        vm = np.concatenate(mats).astype(np.float64)
        if old_of_new is not None:
            vm = vm[old_of_new]
        blob = build_graph_bytes(vm, np.arange(len(vm), dtype=np.int64))
        with open(os.path.join(tmp_dir, VECTORS_FILE), "wb") as fh:
            fh.write(blob)
        vec_crc[VECTORS_FILE] = _zlib.crc32(blob)
        vectors_meta = {"dim": int(vm.shape[1]), "count": int(len(vm))}
    kw_stats: Dict[str, dict] = {}
    for r in readers:
        for f_, st in (r.meta.get("kw_stats") or {}).items():
            agg = kw_stats.setdefault(f_, {"doc_count": 0, "sum_ttf": 0})
            for k in agg:
                agg[k] += int(st[k])
    checksums: Dict[str, int] = {"norms.bin": _zlib.crc32(norm_bytes)}
    checksums.update(field_norm_crcs)
    checksums.update(point_crcs)
    checksums.update(vec_crc)
    for br in bucket_results:
        checksums.update(br["checksums"])
    build_s = time.time() - t0
    lineage = []
    for r in readers:
        src = r.meta.get("lineage")
        if isinstance(src, list):
            lineage.extend(src)
        elif src:
            lineage.append(src)
    n_docs = sum(r.n_docs for r in readers)
    seg_bytes = sum(
        os.path.getsize(os.path.join(tmp_dir, f)) for f in os.listdir(tmp_dir)
    )
    meta = {
        "seg_id": new_seg_id,
        "bytes": seg_bytes,
        "base_docid": new_base,
        "n_docs": n_docs,
        "doc_count": sum(r.meta["doc_count"] for r in readers),
        "sum_ttf": sum(r.meta["sum_ttf"] for r in readers),
        "sum_df": sum(br["sum_df"] for br in bucket_results),
        "n_terms": sum(br["n_terms"] for br in bucket_results),
        "n_parts": readers[0].n_parts,
        "positions": bool(readers[0].meta["positions"]),
        "offsets": all(bool(r.meta.get("offsets")) for r in readers),
        "payloads": all(bool(r.meta.get("payloads")) for r in readers),
        "postings_formats": readers[0].meta.get("postings_formats"),
        "key_type": readers[0].meta["key_type"],
        "kw_stats": kw_stats,
        "text_fields": text_fields,
        "dv_cols": dv_cols,
        "term_vectors": bool(readers[0].meta.get("term_vectors")),
        "points": points_meta,
        "geo": geo_meta,
        "ranges": ranges_meta,
        **({"vectors": vectors_meta} if vectors_meta else {}),
        **({"del_gen": merged_del_gen} if merged_del_gen else {}),
        "checksums": checksums,
        "lineage": lineage,
        "merged_from": seg_ids,
        "metrics": {
            "build_s": round(build_s, 4),
            "docs_per_s": round(n_docs / build_s, 2) if build_s > 0 else None,
            "postings_bytes": sum(br["postings_bytes"] for br in bucket_results),
        },
    }
    with open(os.path.join(tmp_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    if os.path.exists(sdir):
        shutil.rmtree(tmp_dir)
        with open(os.path.join(sdir, "meta.json")) as f:
            return json.load(f)
    os.replace(tmp_dir, sdir)
    return meta


def merge_segments(
    index_dir: str, seg_ids: List[int], new_seg_id: int, config: IndexConfig
) -> dict:
    """Merge source segments (contiguous docid ranges) into one new segment
    (serial per-bucket; ``merge_round`` fans buckets out as Ray tasks)."""
    readers, _, _ = _open_sorted_readers(index_dir, seg_ids)
    t0 = time.time()
    tmp_root = os.path.join(index_dir, "segments", ".tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp_dir = os.path.join(tmp_root, f"seg_{new_seg_id:06d}.merge.{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    results = [
        merge_bucket(index_dir, seg_ids, b, tmp_dir)
        for b in range(readers[0].n_parts)
    ]
    return _finalize_merge(index_dir, seg_ids, new_seg_id, tmp_dir, results, t0)


def merge_round(
    index_dir: str, policy: Optional[TieredMergePolicy] = None
) -> Manifest:
    """One merge round: plan on the driver (manifest only), execute each
    merge as a Ray Data task, commit a new manifest generation, delete
    source dirs. Call repeatedly until it returns without planning merges
    (ConcurrentMergeScheduler's role is played by the Ray scheduler)."""
    import ray
    import ray.data

    man = load_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    policy = policy or TieredMergePolicy()
    merges = policy.find_merges(man.segments)
    if not merges:
        return man
    next_id = max(s["seg_id"] for s in man.segments) + 1
    specs = [
        {"seg_ids": json.dumps(ids), "new_seg_id": next_id + i}
        for i, ids in enumerate(merges)
    ]
    config = man.config

    import time as _time

    t0 = _time.time()
    n_parts = man.segments[0]["n_parts"]
    tmp_root = os.path.join(index_dir, "segments", ".tmp")
    os.makedirs(tmp_root, exist_ok=True)

    @ray.remote
    def bucket_task(seg_ids_json: str, b: int, tmp_dir: str) -> str:
        return json.dumps(
            merge_bucket(index_dir, json.loads(seg_ids_json), b, tmp_dir)
        )

    @ray.remote
    def finalize_task(seg_ids_json: str, new_seg_id: int, tmp_dir: str,
                      *bucket_jsons: str) -> str:
        results = [json.loads(r) for r in bucket_jsons]
        return json.dumps(
            _finalize_merge(index_dir, json.loads(seg_ids_json), new_seg_id,
                            tmp_dir, results, t0)
        )

    # one task per (merge, bucket): merge parallelism = n_merges × n_parts
    futures = []
    merge_tmp = []
    for spec in specs:
        tmp_dir = os.path.join(
            tmp_root, f"seg_{int(spec['new_seg_id']):06d}.merge.{os.getpid()}"
        )
        os.makedirs(tmp_dir, exist_ok=True)
        merge_tmp.append(tmp_dir)
        futures.append(
            [bucket_task.remote(spec["seg_ids"], b, tmp_dir) for b in range(n_parts)]
        )
    # finalize also runs remotely; bucket futures resolve as task args, so
    # merges pipeline independently (no driver-side serial finalize)
    final_futs = [
        finalize_task.remote(
            spec["seg_ids"], int(spec["new_seg_id"]), tmp_dir, *futs
        )
        for spec, tmp_dir, futs in zip(specs, merge_tmp, futures)
    ]
    new_metas = [json.loads(r) for r in ray.get(final_futs)]

    merged_away = {sid for ids in merges for sid in ids}
    survivors = [s for s in man.segments if s["seg_id"] not in merged_away]
    man2 = commit_manifest(index_dir, config, survivors + new_metas)
    for sid in merged_away:  # delete sources only after the commit
        shutil.rmtree(segment_dir(index_dir, sid), ignore_errors=True)
    return man2


def force_merge(index_dir: str, max_segments: int = 1) -> Manifest:
    """Compact to ≤ ``max_segments`` (``IndexWriter.forceMerge`` :2176)."""
    man = load_manifest(index_dir)
    while man and len(man.segments) > max_segments:
        segs = sorted(man.segments, key=lambda s: s["base_docid"])
        n = len(segs)
        groups = max(max_segments, 1)
        per = (n + groups - 1) // groups
        policy_merges = [
            [s["seg_id"] for s in segs[i : i + per]]
            for i in range(0, n, per)
            if len(segs[i : i + per]) >= 2
        ]
        if not policy_merges:
            break

        class _ForcePolicy(TieredMergePolicy):
            def find_merges(self, segments):
                return policy_merges

        man = merge_round(index_dir, _ForcePolicy())
    return man
