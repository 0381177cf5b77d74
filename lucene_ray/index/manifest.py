"""Index manifest: generation-numbered, atomically committed, resumable.

The Ray analogue of ``segments_N`` two-phase commit
(``core/index/SegmentInfos.java:54-113``, ``core/index/IndexWriter.java:3714,4158``):
segment directories are written first (each atomic via tmp+rename, see
``segment.write_segment``); the manifest is written last with an atomic
rename. Resume = list completed segment dirs and build only the missing
partitions; docid bases derive from the immutable input listing, never
from runtime state (SURVEY §7.3.8).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from lucene_ray.index.config import IndexConfig

MANIFEST_NAME = "manifest.json"
SEGMENTS_DIR = "segments"


def segment_dir(index_dir: str, seg_id: int) -> str:
    return os.path.join(index_dir, SEGMENTS_DIR, f"seg_{seg_id:06d}")


def completed_segments(index_dir: str) -> Dict[int, str]:
    """seg_id → dir for every segment whose meta.json exists (i.e. whose
    atomic rename completed)."""
    root = os.path.join(index_dir, SEGMENTS_DIR)
    out: Dict[int, str] = {}
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        if not name.startswith("seg_"):
            continue
        d = os.path.join(root, name)
        if os.path.exists(os.path.join(d, "meta.json")):
            out[int(name[4:])] = d
    return out


@dataclass
class Manifest:
    generation: int
    config: IndexConfig
    segments: List[dict]  # per-segment meta dicts (from write_segment)
    field_stats: dict  # doc_count, sum_ttf, sum_df aggregated
    created_at: float = 0.0

    @property
    def total_docs(self) -> int:
        return sum(s["n_docs"] for s in self.segments)

    def to_json(self) -> dict:
        return {
            "generation": self.generation,
            "config": self.config.to_json(),
            "segments": self.segments,
            "field_stats": self.field_stats,
            "created_at": self.created_at,
        }

    @staticmethod
    def from_json(d: dict) -> "Manifest":
        return Manifest(
            generation=d["generation"],
            config=IndexConfig.from_json(d["config"]),
            segments=d["segments"],
            field_stats=d["field_stats"],
            created_at=d.get("created_at", 0.0),
        )


def aggregate_field_stats(segments: List[dict]) -> dict:
    """Global collection statistics summed across segments — the role of
    ``IndexSearcher.collectionStatistics`` over leaves
    (``core/index/Terms.java:103-121``). Top-level keys are the default
    text field (round-1 layout); ``per_field`` carries every non-default
    field's stats (``FieldInfos`` accumulation role)."""
    out = {
        "doc_count": sum(s["doc_count"] for s in segments),
        "sum_ttf": sum(s["sum_ttf"] for s in segments),
        "sum_df": sum(s["sum_df"] for s in segments),
        "n_docs": sum(s["n_docs"] for s in segments),
    }
    per_field: Dict[str, dict] = {}
    for s in segments:
        for f, st in (s.get("kw_stats") or {}).items():
            agg = per_field.setdefault(
                f, {"doc_count": 0, "sum_ttf": 0}
            )
            for k in agg:
                agg[k] += int(st[k])
    if per_field:
        out["per_field"] = per_field
    return out


def commit_manifest(
    index_dir: str, config: IndexConfig, segments: List[dict]
) -> Manifest:
    segments = sorted(segments, key=lambda s: s["seg_id"])
    prev = load_manifest(index_dir)
    man = Manifest(
        generation=(prev.generation + 1) if prev else 1,
        config=config,
        segments=segments,
        field_stats=aggregate_field_stats(segments),
        created_at=time.time(),
    )
    tmp = os.path.join(index_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(man.to_json(), f)
    os.replace(tmp, os.path.join(index_dir, MANIFEST_NAME))
    return man


def load_manifest(index_dir: str) -> Optional[Manifest]:
    path = os.path.join(index_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return Manifest.from_json(json.load(f))
