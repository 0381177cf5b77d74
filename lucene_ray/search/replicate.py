"""NRT segment replication — the primary→replica file-copy protocol.

Reference semantics: ``lucene/replicator/src/java/org/apache/lucene/
replicator/nrt/PrimaryNode.java`` / ``ReplicaNode.java`` /
``CopyJob.java``:

- the primary publishes a *point-in-time* state: a generation number
  plus the exact file set that commit references;
- a replica copies the files it is missing (segment files are
  write-once, so a file that exists locally with the right checksum is
  never re-fetched — ``ReplicaNode.launchPreCopyFiles``), verifies
  checksums, and only then installs the commit point (the manifest) —
  the switch is atomic, so a searcher on the replica can never observe
  a torn segment set;
- files no longer referenced by the installed generation are deleted
  after the switch (``ReplicaNode.commit`` decRef semantics).

On Ray the transport is pluggable: replicas on the primary's node (or
on shared storage) read files directly; cross-node replicas fetch
byte ranges from a ``PrimaryNode`` Ray actor (`ray.remote(PrimaryNode)`
— every method here is remote-callable).  Shared storage (the common
Ray deployment) makes replication mostly unnecessary — this protocol
is for the node-local-disk layout, where each replica serves searches
from its own copy (SURVEY §2.14 note).
"""
from __future__ import annotations

import json
import os
import shutil
import zlib
from typing import Dict, Optional

from lucene_ray.index.manifest import (
    MANIFEST_NAME,
    Manifest,
    load_manifest,
)

__all__ = ["PrimaryNode", "ReplicaNode"]


def _segment_files(index_dir: str, man: Manifest) -> Dict[str, int]:
    """relpath → crc32 (or -1 when the file carries no recorded
    checksum) for every file the manifest's generation references.

    Point-in-time discipline: non-tombstone segment files are write-once
    (created with the segment, never touched again), so the live listing
    equals the manifest's set for them. Tombstones are GENERATIONAL and
    a commit can land between ``load_manifest`` and this listing — so
    the tombstone choice is pinned to the ``del_gen`` the manifest
    recorded at commit time (``index/deletes.py``), never the highest
    generation on disk. A manifest predating del_gen recording falls
    back to shipping every tombstone present (replica readers then pick
    the highest, the pre-fix behavior)."""
    out: Dict[str, int] = {}
    for seg in man.segments:
        rel = os.path.join("segments", f"seg_{seg['seg_id']:06d}")
        seg_dir = os.path.join(index_dir, rel)
        sums = seg.get("checksums") or {}
        del_gen = seg.get("del_gen")
        for name in sorted(os.listdir(seg_dir)):
            if name.startswith("deleted_") and name.endswith(".bits"):
                if del_gen is not None and name != f"deleted_{del_gen:06d}.bits":
                    continue  # newer/older generation than this commit
            out[os.path.join(rel, name)] = int(sums.get(name, -1))
    return out


class PrimaryNode:
    """Publishes point-in-time replication states for one index dir.
    Wrap with ``ray.remote`` for cross-node serving; methods return
    plain JSON-able values / bytes."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir

    def current_state(self) -> Optional[dict]:
        """→ ``{generation, manifest, files: {relpath: crc32}}`` for the
        CURRENT commit, or None before the first commit.  The file list
        is captured under the returned manifest, so a concurrent commit
        on the primary never tears a state (files are write-once and
        old generations' files persist until pruned)."""
        man = load_manifest(self.index_dir)
        if man is None:
            return None
        return {
            "generation": man.generation,
            "manifest": man.to_json(),
            "files": _segment_files(self.index_dir, man),
        }

    def read_file(self, relpath: str) -> bytes:
        """Transport for cross-node replicas (CopyJob role)."""
        with open(os.path.join(self.index_dir, relpath), "rb") as f:
            return f.read()


class ReplicaNode:
    """Maintains a local copy of the primary's committed index and
    serves searches from it."""

    def __init__(self, local_dir: str):
        self.local_dir = local_dir
        os.makedirs(local_dir, exist_ok=True)
        self._searcher = None
        self._searcher_gen = -1

    def generation(self) -> int:
        man = load_manifest(self.local_dir)
        return man.generation if man else 0

    # -- sync ---------------------------------------------------------------

    def _have_file(self, relpath: str, crc: int) -> bool:
        p = os.path.join(self.local_dir, relpath)
        if not os.path.exists(p):
            return False
        if crc < 0:
            return True  # no recorded checksum: trust write-once naming
        with open(p, "rb") as f:
            return zlib.crc32(f.read()) == crc

    def sync(self, primary: PrimaryNode, state: Optional[dict] = None) -> dict:
        """One replication round: copy the files of the primary's
        current (or given) state that are locally missing/corrupt,
        verify, install the manifest, prune unreferenced files.

        → ``{"generation", "copied", "skipped", "pruned"}``.  Re-running
        after a crash is safe at every point: data files land under
        their final write-once names, the manifest install is an atomic
        rename, and a half-copied file fails its checksum and is
        re-fetched."""
        if state is None:
            state = primary.current_state()
        if state is None:
            return {"generation": 0, "copied": 0, "skipped": 0, "pruned": 0}
        if state["generation"] == self.generation():
            return {
                "generation": state["generation"],
                "copied": 0,
                "skipped": len(state["files"]),
                "pruned": 0,
            }
        copied = skipped = 0
        for rel, crc in state["files"].items():
            if self._have_file(rel, crc):
                skipped += 1
                continue
            data = primary.read_file(rel)
            if crc >= 0 and zlib.crc32(data) != crc:
                raise IOError(f"replication checksum mismatch for {rel}")
            dst = os.path.join(self.local_dir, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            tmp = dst + ".cptmp"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, dst)
            copied += 1
        # every referenced file verified → install the commit point
        tmp = os.path.join(self.local_dir, MANIFEST_NAME + ".tmp")
        with open(tmp, "w") as f:
            json.dump(state["manifest"], f)
        os.replace(tmp, os.path.join(self.local_dir, MANIFEST_NAME))
        pruned = self._prune(set(state["files"]))
        return {
            "generation": state["generation"],
            "copied": copied,
            "skipped": skipped,
            "pruned": pruned,
        }

    def _prune(self, keep: set) -> int:
        """Delete files the installed generation no longer references
        (merged-away segments)."""
        root = os.path.join(self.local_dir, "segments")
        n = 0
        if not os.path.isdir(root):
            return 0
        for seg_name in os.listdir(root):
            seg_dir = os.path.join(root, seg_name)
            rel_dir = os.path.join("segments", seg_name)
            live = False
            for name in os.listdir(seg_dir):
                rel = os.path.join(rel_dir, name)
                if rel in keep:
                    live = True
                else:
                    os.remove(os.path.join(self.local_dir, rel))
                    n += 1
            if not live:
                shutil.rmtree(seg_dir, ignore_errors=True)
        return n

    # -- serving ------------------------------------------------------------

    def searcher(self):
        """Warm searcher over the replica's installed generation;
        reopened only when sync() advanced it (SearcherManager role)."""
        from lucene_ray.search.searcher import IndexSearcher

        gen = self.generation()
        if self._searcher is None or gen != self._searcher_gen:
            self._searcher = IndexSearcher(self.local_dir)
            self._searcher_gen = gen
        return self._searcher
