"""NRT segment replication: replica serves bit-identical results after
sync, incremental syncs copy only new files, checksum validation
detects corruption, and pruning drops merged-away segments
(``replicator/nrt/PrimaryNode.java`` / ``ReplicaNode.java`` roles)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.build import build_index
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.deletes import delete_by_keys
from lucene_ray.index.manifest import load_manifest
from lucene_ray.search.replicate import PrimaryNode, ReplicaNode
from lucene_ray.search.searcher import IndexSearcher

DOCS = "/root/testdata/sf0.001/documents.parquet"
CFG = IndexConfig(rows_per_segment=120, num_buckets=2)
QUERIES = ["data", "spark merge", "+batch +stream -window"]


def _results(searcher, queries=QUERIES):
    out = []
    for q in queries:
        r = searcher.search(q, k=10)
        out.append((list(r["keys"]), [round(float(s), 6) for s in r["scores"]]))
    return out


@pytest.fixture(scope="module")
def primary_dir(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("nrt")
    tbl = pq.read_table(DOCS)
    mid = len(tbl) // 2
    first = str(root / "first.parquet")
    pq.write_table(tbl.slice(0, mid), first)
    rest = str(root / "rest.parquet")
    pq.write_table(tbl.slice(mid), rest)
    pdir = str(root / "primary")
    build_index(first, pdir, CFG)
    return {"dir": pdir, "rest": rest, "root": root}


class TestReplication:
    def test_initial_sync_bit_identical(self, primary_dir, tmp_path):
        primary = PrimaryNode(primary_dir["dir"])
        replica = ReplicaNode(str(tmp_path / "replica"))
        r = replica.sync(primary)
        assert r["generation"] == load_manifest(primary_dir["dir"]).generation
        assert r["copied"] > 0
        assert _results(replica.searcher()) == _results(
            IndexSearcher(primary_dir["dir"])
        )

    def test_resync_noop_and_incremental(self, primary_dir, tmp_path):
        primary = PrimaryNode(primary_dir["dir"])
        replica = ReplicaNode(str(tmp_path / "replica"))
        replica.sync(primary)
        again = replica.sync(primary)
        assert again["copied"] == 0  # same generation: nothing to do

        # advance the primary: index the second half (new segments, new
        # generation) — the replica copies ONLY the new segment files
        before = set(primary.current_state()["files"])
        build_index(primary_dir["rest"], primary_dir["dir"], CFG)
        state = primary.current_state()
        new_files = set(state["files"]) - before
        assert new_files
        r = replica.sync(primary)
        assert r["copied"] == len(new_files)
        assert r["skipped"] == len(before & set(state["files"]))
        assert _results(replica.searcher()) == _results(
            IndexSearcher(primary_dir["dir"])
        )
        # the reopened searcher tracks the new generation
        assert replica.generation() == state["generation"]

    def test_corrupt_file_recopied(self, primary_dir, tmp_path):
        primary = PrimaryNode(primary_dir["dir"])
        replica = ReplicaNode(str(tmp_path / "replica"))
        replica.sync(primary)
        # corrupt one checksummed replica file, then force a re-sync by
        # wiping the local manifest (simulates a crash mid-install)
        state = primary.current_state()
        rel = next(r for r, c in state["files"].items() if c >= 0)
        victim = os.path.join(replica.local_dir, rel)
        with open(victim, "wb") as f:
            f.write(b"corrupt")
        os.remove(os.path.join(replica.local_dir, "manifest.json"))
        r = replica.sync(primary)
        assert r["copied"] >= 1  # the corrupt file was re-fetched
        assert _results(replica.searcher()) == _results(
            IndexSearcher(primary_dir["dir"])
        )

    def test_torn_state_never_visible(self, primary_dir, tmp_path):
        # a replica whose sync fails mid-copy keeps serving its OLD
        # generation: the manifest is only installed after every file
        # verifies
        pdir = str(tmp_path / "primary")
        build_index(
            str(primary_dir["root"] / "first.parquet"), pdir, CFG
        )
        primary = PrimaryNode(pdir)
        replica = ReplicaNode(str(tmp_path / "replica"))
        replica.sync(primary)
        gen0 = replica.generation()
        old = _results(replica.searcher())

        class FailingPrimary(PrimaryNode):
            def read_file(self, relpath):
                raise IOError("network down")

        build_index(primary_dir["rest"], pdir, CFG)
        with pytest.raises(IOError):
            replica.sync(FailingPrimary(pdir))
        assert replica.generation() == gen0
        assert _results(replica.searcher()) == old
        # and a later healthy sync completes the round
        r = replica.sync(primary)
        assert r["generation"] > gen0


class TestReplicationTombstonePinning:
    """Replication pins the tombstone generation recorded in the
    manifest: a newer tombstone landing between manifest load and the
    listing does not ship with the older manifest."""

    def test_newer_tombstone_not_shipped(self, ray_session, tmp_path):
        n = 20
        tbl = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": [f"word{i} common" for i in range(n)],
            }
        )
        src = str(tmp_path / "docs.parquet")
        pq.write_table(tbl, src)
        idx = str(tmp_path / "idx")
        build_index(src, idx, IndexConfig(rows_per_segment=n, num_buckets=2))
        delete_by_keys(idx, [1, 2])
        man = load_manifest(idx)
        assert man.segments[0].get("del_gen") == 1
        # simulate a commit racing the listing: a NEWER tombstone lands
        # on disk after the manifest we serve
        seg_rel = os.path.join("segments", "seg_000000")
        newer = os.path.join(idx, seg_rel, "deleted_000002.bits")
        with open(newer, "wb") as f:
            f.write(b"\xff\xff\xff")
        state = PrimaryNode(idx).current_state()
        files = state["files"]
        assert os.path.join(seg_rel, "deleted_000001.bits") in files
        assert os.path.join(seg_rel, "deleted_000002.bits") not in files

    def test_replica_visibility_matches_manifest(self, ray_session, tmp_path):
        n = 16
        tbl = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": ["common text"] * n,
            }
        )
        src = str(tmp_path / "docs.parquet")
        pq.write_table(tbl, src)
        idx = str(tmp_path / "idx")
        build_index(src, idx, IndexConfig(rows_per_segment=n, num_buckets=2))
        delete_by_keys(idx, [0])
        primary = PrimaryNode(idx)
        state = primary.current_state()
        # a second deletion lands AFTER the state snapshot
        delete_by_keys(idx, [1, 2, 3])
        rep = ReplicaNode(str(tmp_path / "replica"))
        rep.sync(primary, state=state)
        s = IndexSearcher(str(tmp_path / "replica"))
        r = s.count("common")
        assert r == n - 1  # the snapshot's visibility, not the later commit's
