"""Deletes / live docs — the ``Lucene90LiveDocsFormat`` role
(``core/codecs/lucene90/Lucene90LiveDocsFormat.java:41-45``,
``IndexWriter.deleteDocuments`` / ``updateDocument``'s delete half,
``core/index/IndexWriter.java:1911``).

Segments stay write-once: deletions land as GENERATIONAL tombstone
bitmaps ``deleted_{gen:06d}.bits`` (packed bits, 1 = deleted) written
atomically next to the segment files — exactly the reference's ``.liv``
discipline. Readers load the highest generation at open. Semantics
mirror the reference pre-merge: collection/term statistics still include
deleted docs (df/norms unchanged until compaction), matches are
filtered to live docs at evaluation, and hit counts report live matches.

This engine's merges CARRY tombstones forward (concatenated like norms)
instead of compacting them away: global docids are the rank tie-break
contract here, so reclaiming holes would remap ranks. Reclamation =
rebuild from the (deduplicated) source — documented divergence.
"""

from __future__ import annotations

import json
import os
import re
from typing import Iterable, Optional

import numpy as np

from lucene_ray.index.manifest import (
    Manifest,
    commit_manifest,
    load_manifest,
    segment_dir,
)

_DEL_RE = re.compile(r"^deleted_(\d{6})\.bits$")


def load_deleted(seg_dir: str, n_docs: int) -> Optional[np.ndarray]:
    """Highest-generation tombstone bitmap as bool[n_docs], or None."""
    best = None
    best_gen = -1
    for name in os.listdir(seg_dir):
        m = _DEL_RE.match(name)
        if m and int(m.group(1)) > best_gen:
            best_gen = int(m.group(1))
            best = name
    if best is None:
        return None
    bits = np.fromfile(os.path.join(seg_dir, best), dtype=np.uint8)
    return np.unpackbits(bits, count=n_docs).astype(bool)


def _write_deleted(seg_dir: str, deleted: np.ndarray, gen: int) -> None:
    data = np.packbits(deleted.astype(np.uint8)).tobytes()
    path = os.path.join(seg_dir, f"deleted_{gen:06d}.bits")
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def _next_gen(seg_dir: str) -> int:
    gens = [
        int(m.group(1))
        for name in os.listdir(seg_dir)
        if (m := _DEL_RE.match(name))
    ]
    return (max(gens) + 1) if gens else 1


def delete_by_keys(index_dir: str, keys: Iterable) -> Manifest:
    """Mark every doc whose docmap key is in ``keys`` deleted, one Ray
    task per segment; commit a manifest generation carrying del counts
    (the metering surface). Idempotent."""
    import ray

    from lucene_ray.index.segment import SegmentReader

    man = load_manifest(index_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    key_list = list(keys)

    @ray.remote
    def mark(sdir: str) -> str:
        seg = SegmentReader(sdir)
        import pyarrow as pa
        import pyarrow.compute as pc

        hit = pc.is_in(seg.docmap, value_set=pa.array(key_list))
        mask = np.asarray(pc.fill_null(hit, False))
        cur = load_deleted(sdir, seg.n_docs)
        new = mask if cur is None else (cur | mask)
        if cur is not None and (new == cur).all():
            return json.dumps(
                {"del_count": int(cur.sum()), "del_gen": _next_gen(sdir) - 1}
            )
        gen = _next_gen(sdir)
        _write_deleted(sdir, new, gen)
        return json.dumps({"del_count": int(new.sum()), "del_gen": gen})

    dirs = [segment_dir(index_dir, s["seg_id"]) for s in man.segments]
    results = [json.loads(r) for r in ray.get([mark.remote(d) for d in dirs])]
    segments = []
    for s, r in zip(man.segments, results):
        s = dict(s)
        s["del_count"] = r["del_count"]
        # pin the tombstone generation in the manifest so replication
        # ships a point-in-time-consistent (manifest, tombstone) pair
        if r["del_gen"] > 0:
            s["del_gen"] = r["del_gen"]
        segments.append(s)
    return commit_manifest(index_dir, man.config, segments)


def delete_by_query(index_dir: str, query) -> Manifest:
    """``IndexWriter.deleteDocuments(Query)``: mark the query's match set
    deleted (evaluated against the current live docs)."""
    from lucene_ray.search.searcher import IndexSearcher

    s = IndexSearcher(index_dir)
    r = s.search(query, k=10**9, mode="exhaustive")
    return delete_by_keys(index_dir, r["keys"])
