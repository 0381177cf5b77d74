"""IVF (inverted-file) approximate nearest neighbor — an INDEX-RESIDENT
ANN over the ``embeddings`` table, a scale path beside brute force
(``knn.py``) and LSH (``lsh_knn.py``).

Shape (classic IVF, e.g. the coarse-quantizer layout of FAISS-style
systems, built Ray-Data-first):

- **Build**: deterministic spherical k-means over a bounded driver-side
  sample fits ``n_lists`` coarse centroids; the centroid matrix is
  broadcast once (``ray.put``) and one streaming ``map_batches`` pass
  assigns every vector to its nearest list; the table is written as
  hive-partitioned parquet (``list=<c>/``) — the inverted file. The
  index materializes ONCE per corpus and is reused (cache keyed on the
  input's mtime + build params).
- **Query**: per query, centroid similarities rank the lists; only the
  union of the top-``nprobe`` partitions is READ AT ALL (partition
  pruning at ``read_parquet`` — at 100 TB this touches nprobe/n_lists
  of the data). Exact cosine re-rank inside ``map_batches`` against the
  broadcast query matrix, per-batch partial top-k, tiny driver reduce —
  identical final ordering rules to ``knn_cosine``.

With ``nprobe == n_lists`` the scan is exhaustive and results equal
brute force — the driver gate runs that configuration against the SAME
bit-exact SQL oracle as ``knn_cosine``; recall at nprobe < n_lists is
property-tested in ``tests/test_ivf_knn.py``.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Set

import numpy as np
import pyarrow as pa

from lucene_ray.index.vectors import (
    DELTA,
    _normalize,
    dequantize,
    int8_survivors,
    quantize,
    rerank_bp,
)
from lucene_ray.pipelines.index_cache import CACHE_ROOT
from lucene_ray.pipelines.knn import (
    KNN_K,
    _emb_path,
    _load_queries,
    partial_topk_table,
    reduce_topk,
)

N_LISTS = 8
KMEANS_ITERS = 8
SAMPLE_ROWS = 4096


def train_centroids(sample: np.ndarray, n_lists: int, seed: int = 13) -> np.ndarray:
    """Deterministic spherical k-means (cosine): normalized vectors,
    means renormalized each Lloyd iteration; empty clusters re-seeded
    from the sample deterministically."""
    rng = np.random.default_rng(seed)
    x = _normalize(sample.astype(np.float64))
    idx = rng.choice(len(x), size=min(n_lists, len(x)), replace=False)
    cents = x[np.sort(idx)].copy()
    for _ in range(KMEANS_ITERS):
        assign = np.argmax(x @ cents.T, axis=1)
        for c in range(len(cents)):
            members = x[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
            else:
                cents[c] = x[int(rng.integers(len(x)))]
        cents = _normalize(cents)
    return cents


def build_ivf(
    sf_dir: str,
    n_lists: int = N_LISTS,
    with_codes: bool = False,
    extra_cols: tuple = (),
) -> str:
    """Build (or reuse) the partitioned IVF layout; returns its dir.
    ``with_codes=True`` also stores each vector's int8 quantized code
    (fixed_size_list<int8>) beside the floats — the
    ``Lucene99ScalarQuantizedVectorsFormat`` on-disk pairing used by
    :func:`ivf_knn_quantized`. ``extra_cols`` carries additional source
    columns (e.g. ``label`` for the kNN classifier) into the layout."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    emb = _emb_path(sf_dir)
    prefix = "ivfq" if with_codes else "ivf"
    tag = hashlib.sha1(
        f"{prefix}:{os.path.abspath(emb)}:{os.path.getmtime(emb)}:{n_lists}:"
        f"{KMEANS_ITERS}:{SAMPLE_ROWS}:{','.join(extra_cols)}".encode()
    ).hexdigest()[:16]
    ivf_dir = os.path.join(CACHE_ROOT, f"{prefix}_{tag}")
    marker = os.path.join(ivf_dir, "_DONE")
    if os.path.exists(marker):
        return ivf_dir

    # bounded sample from the head of the table (deterministic; at scale
    # this is one footer-guided read, never the full table)
    pf = pq.ParquetFile(emb)
    batches = pf.iter_batches(batch_size=SAMPLE_ROWS, columns=["embedding"])
    first = next(batches)
    arr = first.column(0)
    sample = np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
    cents = train_centroids(sample, n_lists)
    os.makedirs(ivf_dir, exist_ok=True)
    np.save(os.path.join(ivf_dir, "centroids.npy"), cents)

    c_ref = ray.put(cents)

    def assign(b: pa.Table) -> pa.Table:
        cm = ray.get(c_ref)
        a = b.column("embedding").combine_chunks()
        m = np.asarray(a.values, dtype=np.float64).reshape(len(a), -1)
        mn = _normalize(m)
        lists = np.argmax(mn @ cm.T, axis=1).astype(np.int32)
        if with_codes:
            codes = quantize(mn)
            b = b.append_column(
                "code",
                pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.ravel(), pa.int8()), m.shape[1]
                ),
            )
        return b.append_column("list", pa.array(lists))

    ds = ray.data.read_parquet(
        emb, columns=["vec_id", "embedding", *extra_cols]
    )
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        os.path.join(ivf_dir, "data"), partition_cols=["list"]
    )
    with open(marker, "w"):
        pass
    return ivf_dir


def ivf_chunks(data_dir: str, block_rows: int) -> dict:
    """Footer-only chunking of the IVF hive layout: per list id, a list of
    ``(file_path, rg_lo, rg_hi)`` row-group ranges of ≤ ``block_rows`` rows
    each. No vector data is read — only parquet footers."""
    import pyarrow.parquet as pq

    chunks: dict = {}
    for name in sorted(os.listdir(data_dir)):
        if not name.startswith("list="):
            continue
        lid = int(name.split("=", 1)[1])
        chunks[lid] = []
        part = os.path.join(data_dir, name)
        for fn in sorted(os.listdir(part)):
            if not fn.endswith(".parquet"):
                continue
            fp = os.path.join(part, fn)
            md = pq.ParquetFile(fp).metadata
            lo, rows = 0, 0
            for rg in range(md.num_row_groups):
                rows += md.row_group(rg).num_rows
                if rows >= block_rows:
                    chunks[lid].append((fp, lo, rg + 1))
                    lo, rows = rg + 1, 0
            if lo < md.num_row_groups:
                chunks[lid].append((fp, lo, md.num_row_groups))
    return chunks


def ivf_radii(ivf_dir: str, cents: np.ndarray) -> np.ndarray:
    """Per-list angular radius ``r_c = max angle(member, centroid)`` —
    one column-pruned streaming pass, cached beside the layout. The
    radii power EXACT pruning: members of lists i, j satisfy
    ``angle(a,b) ≥ θ_ij − r_i − r_j`` (sphere triangle inequality)."""
    import ray
    import ray.data

    radius_path = os.path.join(ivf_dir, "radii.npy")
    if os.path.exists(radius_path):
        return np.load(radius_path)
    c_ref = ray.put(cents)

    def theta(b: pa.Table) -> pa.Table:
        cm = ray.get(c_ref)
        arr = b.column("embedding").combine_chunks()
        m = _normalize(
            np.asarray(arr.values, dtype=np.float64).reshape(len(arr), -1)
        )
        lids = np.asarray(b.column("list"), dtype=np.int64)
        d = np.einsum("ij,ij->i", m, cm[lids])
        th = np.arccos(np.clip(d, -1.0, 1.0))
        return pa.table({"list": pa.array(lids), "theta": pa.array(th)})

    rad_rows = (
        ray.data.read_parquet(
            os.path.join(ivf_dir, "data"), columns=["embedding", "list"]
        )
        .map_batches(theta, batch_format="pyarrow")
        .groupby("list")
        .max("theta")
        .take_all()
    )  # one row per list — tiny
    radii = np.zeros(len(cents), dtype=np.float64)
    for r in rad_rows:
        radii[int(r["list"])] = float(r["max(theta)"])
    tmp = radius_path + f".tmp{os.getpid()}.npy"
    np.save(tmp, radii)
    os.replace(tmp, radius_path)
    return radii


def _probe_lists(
    qn: np.ndarray, cents: np.ndarray, nprobe: int
) -> List[Set[int]]:
    """Per query: indices of the top-nprobe centroid lists."""
    sims = qn @ cents.T
    order = np.argsort(-sims, axis=1)[:, :nprobe]
    return [set(int(c) for c in row) for row in order]


def _ivf_search(sf_dir: str, nprobe: int, n_lists: int, with_codes: bool):
    """→ (qid, rank, vec_id, sim_bp) like ``knn_cosine``. Reads ONLY the
    probed list partitions; within them each query keeps its probed
    rows — or, ``with_codes``, only their :func:`int8_survivors` — and
    re-ranks them exactly (:func:`rerank_bp`)."""
    import ray
    import ray.data
    from ray.data.datasource.partitioning import (
        Partitioning,
        PathPartitionFilter,
    )

    ivf_dir = build_ivf(sf_dir, n_lists, with_codes=with_codes)
    cents = np.load(os.path.join(ivf_dir, "centroids.npy"))
    qn = _normalize(_load_queries(sf_dir))
    probe = _probe_lists(qn, cents, nprobe)
    q_codes = quantize(qn)
    q_l1 = np.abs(dequantize(q_codes)).sum(axis=1)
    bcast = ray.put((qn, q_codes, q_l1, probe))

    def score(b: pa.Table) -> pa.Table:
        qm, qc, ql1, probe_sets = ray.get(bcast)
        lists = np.asarray(b.column("list").cast(pa.int64()))
        keeps = [np.flatnonzero(np.isin(lists, list(p))) for p in probe_sets]
        if with_codes:
            codes = np.asarray(
                b.column("code").combine_chunks().values, dtype=np.int8
            ).reshape(len(b), -1)
            # the floats are not read for the bound: sum|x| <= sum|x_hat|
            # + dim*DELTA over the codes
            doc_l1 = np.abs(dequantize(codes)).sum(axis=1) + codes.shape[1] * DELTA
            keeps = [
                rows[
                    int8_survivors(
                        codes[rows],
                        doc_l1[rows],
                        qc[qi : qi + 1],
                        ql1[qi : qi + 1],
                        KNN_K,
                    )[0]
                ]
                for qi, rows in enumerate(keeps)
            ]
        a = b.column("embedding").combine_chunks()
        emb = np.asarray(a.values, dtype=np.float64).reshape(len(a), -1)
        vec_ids = np.asarray(b.column("vec_id"), dtype=np.int64)
        return partial_topk_table(
            [(vec_ids[keep], bp) for keep, bp in zip(keeps, rerank_bp(emb, keeps, qm))]
        )

    # partition pruning: the hive `list=` filter prunes whole partition
    # dirs at the read — only probed lists are touched at all
    needed = set().union(*probe)
    ds = ray.data.read_parquet(
        os.path.join(ivf_dir, "data"),
        columns=["vec_id", "embedding", "list"] + (["code"] if with_codes else []),
        partitioning=Partitioning("hive", field_types={"list": int}),
        partition_filter=PathPartitionFilter.of(
            lambda kv: int(kv["list"]) in needed, style="hive"
        ),
    )
    partials = ds.map_batches(score, batch_format="pyarrow", batch_size=4096)
    return reduce_topk(partials)


def ivf_knn(sf_dir: str, nprobe: int = N_LISTS, n_lists: int = N_LISTS):
    """→ (qid, rank, vec_id, sim_bp) like ``knn_cosine``. Reads ONLY the
    probed list partitions; exact re-rank within them."""
    return _ivf_search(sf_dir, nprobe, n_lists, with_codes=False)


def knn_ivf(sf_dir: str):
    """Driver-gate entry: nprobe == n_lists → exhaustive over the IVF
    layout, results identical to brute force (same SQL oracle as
    ``knn_cosine``)."""
    return ivf_knn(sf_dir, nprobe=N_LISTS)


# ---------------------------------------------------------------------------
# IVF x scalar quantization: partition-pruned probes over int8 codes
# ---------------------------------------------------------------------------
def build_ivf_quantized(sf_dir: str, n_lists: int = N_LISTS) -> str:
    """IVF layout with int8 codes stored beside the floats — see
    :func:`build_ivf` (``with_codes=True``)."""
    return build_ivf(sf_dir, n_lists, with_codes=True)


def ivf_knn_quantized(
    sf_dir: str, nprobe: int = N_LISTS, n_lists: int = N_LISTS
):
    """IVF probe + int8 scoring + error-bounded exact re-rank: only the
    probed ``list=`` partitions are read at all, every batch scores with
    one int32 matmul over the stored codes, and only candidates whose
    quantized score ± the per-pair bound could reach the top-k are
    re-ranked with exact float math (``index.vectors.int8_survivors``)
    — so at nprobe == n_lists results equal brute force and share its
    oracle."""
    return _ivf_search(sf_dir, nprobe, n_lists, with_codes=True)


def knn_ivf_quantized(sf_dir: str):
    """Driver-gate entry: nprobe == n_lists → partition-complete, and
    the quantized pruning is lossless → brute-force-identical (same
    oracle as ``knn_cosine``)."""
    return ivf_knn_quantized(sf_dir, nprobe=N_LISTS)
