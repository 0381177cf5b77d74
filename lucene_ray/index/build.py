"""Index build pipelines (Ray Data).

``build_index`` — the segmented, resumable build (SURVEY §3.1 Ray shape):
partitions are planned **from immutable parquet metadata** (sorted file
list + row counts ⇒ deterministic docid bases, SURVEY §7.3.8), flow
through a Ray Dataset, and each partition task performs the reference's
DocumentsWriterPerThread role (``core/index/DocumentsWriterPerThread.java:245-357``):
tokenize → invert (vectorized Arrow groupby-term) → encode → write one
immutable segment, atomically. A failed/killed run resumes by skipping
segment dirs that already committed.

The per-partition build is shared-nothing — Lucene's DWPT thread privacy
becomes Ray task privacy (SURVEY §4) — so the build scales linearly with
CPUs/nodes until the input storage saturates; there is no cross-task
shuffle in this path. The groupby-term **shuffle** build with head-term
salting lives in ``lucene_ray.index.shuffle_build``.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.analysis.analyzer import analyzer_for_config
from lucene_ray.index.vectors import (
    BYTE_VECTORS_FILE,
    VECTORS_FILE,
    build_byte_vector_bytes,
    build_graph_bytes,
)
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.manifest import (
    Manifest,
    commit_manifest,
    completed_segments,
    segment_dir,
)
from lucene_ray.index.segment import (
    add_extra_text_postings,
    add_keyword_postings,
    invert_texts,
    invert_token_lists,
    write_segment,
)


def plan_partitions(paths: Sequence[str], rows_per_segment: int) -> List[dict]:
    """Deterministic partition plan from parquet footers only (no data read).

    Sorted file list → per-file row counts → contiguous docid bases. The
    plan is a pure function of the input listing, so a resumed run
    re-derives identical bases (never double-assigns docids).
    """
    plan: List[dict] = []
    base = 0
    seg_id = 0
    for path in sorted(paths):
        n = pq.ParquetFile(path).metadata.num_rows
        start = 0
        while start < n:
            end = min(start + rows_per_segment, n)
            plan.append(
                {
                    "seg_id": seg_id,
                    "path": path,
                    "row_start": start,
                    "row_end": end,
                    "base_docid": base + start,
                }
            )
            seg_id += 1
            start = end
        base += n
    return plan


def read_partition(
    path: str, row_start: int, row_end: int, columns: List[str]
) -> pa.Table:
    """Read a row range using row-group pruning (only overlapping groups)."""
    pf = pq.ParquetFile(path)
    missing = [c for c in columns if c not in pf.schema_arrow.names]
    if missing:
        raise ValueError(
            f"{path} lacks column(s) {missing} (has {pf.schema_arrow.names}); "
            "point --input at the document table, not a directory of "
            "mixed tables, or set --key-col/--text-col"
        )
    md = pf.metadata
    groups = []
    off = 0
    first_off = None
    for gi in range(md.num_row_groups):
        g_rows = md.row_group(gi).num_rows
        if off < row_end and off + g_rows > row_start:
            groups.append(gi)
            if first_off is None:
                first_off = off
        off += g_rows
    if not groups:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    tbl = pf.read_row_groups(groups, columns=columns)
    lo = row_start - first_off
    return tbl.slice(lo, row_end - row_start)


def build_partition(
    item: dict, config: IndexConfig, index_dir: str
) -> dict:
    """One build task: read range → invert → write segment. Idempotent."""
    # one task == one cpu: keep Arrow's internal pool from oversubscribing
    # when many build tasks run concurrently
    pa.set_cpu_count(1)
    seg_id = int(item["seg_id"])
    sdir = segment_dir(index_dir, seg_id)
    if os.path.exists(os.path.join(sdir, "meta.json")):
        with open(os.path.join(sdir, "meta.json")) as f:
            return json.load(f)
    t_start = time.time()
    cols = [config.key_col, config.text_col]
    cols += [c for c in config.extra_text_cols if c not in cols]
    cols += [c for c in config.keyword_cols if c not in cols]
    cols += [c for c in config.dv_cols if c not in cols]
    cols += [c for c in config.feature_cols if c not in cols]
    if config.payloads and config.payload_col not in cols:
        cols.append(config.payload_col)
    if config.vector_col and config.vector_col not in cols:
        cols.append(config.vector_col)
    tbl = read_partition(
        item["path"], int(item["row_start"]), int(item["row_end"]), cols
    )
    t_read = time.time()
    if config.index_sort:
        # IndexWriterConfig.setIndexSort flush role (Sorter.java): reorder
        # the partition's rows by the sort field BEFORE inversion, so
        # segment-local docids follow the sort. Stable → ties keep row
        # (original docid) order, matching Lucene's tie-break.
        sfield, sdirection = config.index_sort
        if sfield not in config.dv_cols:
            raise ValueError(
                f"index_sort field {sfield!r} must be in dv_cols {config.dv_cols}"
            )
        skey = np.asarray(tbl.column(sfield).combine_chunks())
        if sdirection == "desc":
            skey = -skey
        elif sdirection != "asc":
            raise ValueError(
                f"index_sort direction must be asc|desc, got {sdirection!r}"
            )
        order = np.argsort(skey, kind="stable")
        tbl = tbl.take(pa.array(order))
    if config.pretokenized:
        # TokenStreamColumn path (``core/document/column/
        # TokenStreamColumn.java:23-37``): caller-supplied tokens go
        # straight to the inverter, no analyzer; an aligned payload
        # column rides along (PayloadAttribute role)
        inv = invert_token_lists(
            tbl.column(config.text_col),
            with_positions=config.positions,
            payloads=(
                tbl.column(config.payload_col) if config.payloads else None
            ),
        )
    else:
        texts = tbl.column(config.text_col).to_pylist()
        inv = invert_texts(
            texts,
            analyzer_for_config(config),
            with_positions=config.positions,
            with_offsets=getattr(config, "offsets", False),
        )
    t_invert = time.time()
    field_norms: dict = {}
    field_stats: dict = {}
    if config.extra_text_cols:
        analyzer = analyzer_for_config(config)
        field_invs = {
            c: invert_texts(
                tbl.column(c).to_pylist(), analyzer, config.positions
            )
            for c in config.extra_text_cols
        }
        inv, field_stats, field_norms = add_extra_text_postings(
            inv, field_invs, config.positions
        )
    kw_stats: dict = {}
    if config.keyword_cols or config.feature_cols:
        # Arrow columns pass through untouched: add_keyword_postings
        # dictionary-encodes / numpy-converts them without per-row Python
        kw_cols = {c: tbl.column(c) for c in config.keyword_cols}
        feat_cols = {c: tbl.column(c) for c in config.feature_cols}
        inv, kw_stats = add_keyword_postings(
            inv, kw_cols, config.positions, feat_columns=feat_cols
        )
    kw_stats.update(field_stats)
    dv_table = (
        tbl.select(list(config.dv_cols)) if config.dv_cols else None
    )
    keys = tbl.column(config.key_col).combine_chunks()
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    extra_files = None
    vec_meta = {}
    if config.vector_col and config.vector_encoding == "byte":
        # byte vectors (KnnByteVectorField role): store the signed
        # bytes verbatim as a flat checksummed sidecar; scoring is the
        # exact integer dot product (index/vectors.py byte_dot_topk)
        varr = tbl.column(config.vector_col).combine_chunks()
        codes = np.asarray(varr.values, dtype=np.int8).reshape(
            len(varr), -1
        )
        extra_files = {BYTE_VECTORS_FILE: build_byte_vector_bytes(codes)}
        vec_meta = {
            "vectors": {
                "dim": int(codes.shape[1]),
                "count": int(len(varr)),
                "encoding": "byte",
            }
        }
    elif config.vector_col:
        # index-resident vectors (KnnFloatVectorField role): build this
        # segment's HNSW graph over the partition's vectors, keyed by
        # LOCAL docid, and ship it as a checksummed segment sidecar
        varr = tbl.column(config.vector_col).combine_chunks()
        vm = np.asarray(varr.values, dtype=np.float64).reshape(len(varr), -1)
        extra_files = {
            VECTORS_FILE: build_graph_bytes(
                vm, np.arange(len(varr), dtype=np.int64)
            )
        }
        vec_meta = {"vectors": {"dim": int(vm.shape[1]), "count": int(len(varr))}}
    meta = write_segment(
        sdir,
        seg_id,
        int(item["base_docid"]),
        keys,
        inv,
        config,
        extra_meta={
            "lineage": {
                "path": item["path"],
                "row_start": int(item["row_start"]),
                "row_end": int(item["row_end"]),
            },
            # per-phase task wall times (profiling the build leg's
            # scaling behavior needs read/invert split from encode+write,
            # which write_segment reports as metrics.build_s)
            "task_metrics": {
                "t_read": round(t_read - t_start, 4),
                "t_invert": round(t_invert - t_read, 4),
                # read+invert+kw/dv/vector prep; write time is
                # metrics.build_s (stamped inside write_segment)
                "t_prep": round(time.time() - t_start, 4),
            },
            **vec_meta,
        },
        dv_table=dv_table,
        kw_stats=kw_stats,
        field_norms=field_norms,
        extra_files=extra_files,
    )
    return meta


def build_index(
    paths,
    index_dir: str,
    config: Optional[IndexConfig] = None,
    concurrency: Optional[int] = None,
) -> Manifest:
    """Build (or resume) an index over parquet ``paths`` into ``index_dir``.

    ``paths`` may be a directory, one path, or a list. Returns the
    committed manifest.
    """
    import ray
    import ray.data

    config = config or IndexConfig()
    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = [
                os.path.join(paths, f)
                for f in os.listdir(paths)
                if f.endswith(".parquet")
            ]
        else:
            paths = [paths]
    os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)

    plan = plan_partitions(sorted(paths), config.rows_per_segment)

    # resume coverage = completed segment dirs + (post-merge) manifest
    # lineage: a merged segment covers all of its sources' row ranges.
    from lucene_ray.index.manifest import load_manifest

    metas: List[dict] = []
    covered = set()
    seen_ids = set()

    def lineage_entries(m: dict):
        lin = m.get("lineage")
        return lin if isinstance(lin, list) else ([lin] if lin else [])

    # only segments whose dirs still exist contribute coverage — a deleted
    # segment dir means its row ranges must be rebuilt even if a manifest
    # still names it
    done = completed_segments(index_dir)
    man = load_manifest(index_dir)
    if man is not None:
        for s in man.segments:
            if s["seg_id"] not in done:
                continue
            for e in lineage_entries(s):
                covered.add((e["path"], e["row_start"], e["row_end"]))
            metas.append(s)
            seen_ids.add(s["seg_id"])
    for seg_id, sdir in done.items():
        if seg_id in seen_ids:
            continue
        with open(os.path.join(sdir, "meta.json")) as f:
            m = json.load(f)
        for e in lineage_entries(m):
            covered.add((e["path"], e["row_start"], e["row_end"]))
        metas.append(m)
    pending = [
        p
        for p in plan
        if (p["path"], p["row_start"], p["row_end"]) not in covered
    ]

    # Append mode (``IndexWriter.addDocuments`` over a committed index:
    # new input files, existing segments from OTHER files): later builds
    # must not reuse earlier builds' seg ids or docid bases.  "Foreign"
    # segments are those whose lineage references none of the current
    # inputs; their doc total offsets the new docid bases — a pure
    # function of the committed state, so a crashed append re-derives the
    # same bases on resume (coverage itself is id-independent).
    input_set = set(paths)

    def is_foreign(m: dict) -> bool:
        ents = lineage_entries(m)
        hits = sum(1 for e in ents if e.get("path") in input_set)
        if 0 < hits < len(ents):
            raise ValueError(
                "append over an index whose merged segment mixes current "
                "and prior input files — force-merge or rebuild first"
            )
        return hits == 0

    foreign = [m for m in metas if is_foreign(m)]
    if foreign and pending:
        seg_off = max(m["seg_id"] for m in metas) + 1
        doc_off = sum(m["n_docs"] for m in foreign)
        for i, p in enumerate(pending):
            p["seg_id"] = seg_off + i
            p["base_docid"] += doc_off

    if pending:
        # One plain Ray task per partition. The build is a control-plane
        # fan-out — 64-ish tiny work items whose outputs are segment
        # DIRECTORIES, not dataset blocks — so the Dataset machinery
        # (from_items → repartition all-to-all → map_batches stage) adds
        # ~0.5 s of fixed pipeline cost for zero data-plane benefit; raw
        # tasks keep the whole stage at task-launch cost (~20 ms) and
        # materially improve small-job scaling efficiency. Per-record
        # data paths everywhere else stay on ray.data.
        @ray.remote
        def run_partition(item_json: str) -> str:
            return json.dumps(
                build_partition(json.loads(item_json), config, index_dir)
            )

        # LUCENE_RAY_BUILD_TASK_CPUS > 1 caps build concurrency (fewer
        # simultaneous inverts per node = less memory-bandwidth thrash
        # on small-RAM nodes); default 1 = one task per core
        task_cpus = int(os.environ.get("LUCENE_RAY_BUILD_TASK_CPUS", "1"))
        if task_cpus > 1:
            run_partition = run_partition.options(num_cpus=task_cpus)
        futs = [run_partition.remote(json.dumps(p)) for p in pending]
        metas.extend(json.loads(r) for r in ray.get(futs))

    return commit_manifest(index_dir, config, metas)
