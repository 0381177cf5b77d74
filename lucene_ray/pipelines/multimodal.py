"""Multimodal column plumbing — image/audio/video as opaque ``binary``
columns with typed metadata, processed by actor-pool ``map_batches``
stages.

``DecodeImage`` is a REAL decoder for PNG payloads (the container ships
no image libraries — probed in round 2 — but PNG is zlib + scanline
filters, both implementable with the stdlib: see ``pipelines.png``):
decode → grayscale luma → nearest-neighbor thumbnail. Non-PNG payloads
fall back to a clearly-marked deterministic digest stub so the plumbing
still exercises arbitrary binary columns (e.g. the pages corpus's
``html`` bytes). Audio/video decode would slot into the same actor shape
with ffmpeg on a real cluster.
"""

from __future__ import annotations

import hashlib
import os

from lucene_ray.cluster import actor_pool
from typing import Dict

import numpy as np
import pyarrow as pa

from lucene_ray.pipelines.png import (
    encode_png,
    PNG_SIGNATURE,
    decode_png,
    resize_nearest,
    to_gray,
)


def _fake_decode(payload: bytes, target: int = 8) -> np.ndarray:
    """STUB for non-PNG payloads: deterministic ``target×target`` uint8
    'thumbnail' from the payload digest. A real cluster would dispatch by
    magic bytes to PIL/ffmpeg here; PNG already decodes for real."""
    h = hashlib.blake2b(payload, digest_size=target * target).digest()
    return np.frombuffer(h, dtype=np.uint8).reshape(target, target)


class DecodeImage:
    """Actor-pool stage: binary payload column → fixed-size grayscale
    thumbnail + metadata. Heavy setup (codec/model init) belongs in
    __init__; per-batch work stays vectorized over rows."""

    def __init__(self, payload_col: str = "payload", target: int = 8):
        self.payload_col = payload_col
        self.target = target
        # real version would also: self.model = load_model(...)  # once

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.payload_col).to_pylist()
        grids = []
        means = []
        sizes = []
        widths = []
        heights = []
        decoded = []
        for p in payloads:
            p = p or b""
            if p[:8] == PNG_SIGNATURE:
                img = decode_png(p)  # REAL decode (pipelines.png)
                g = resize_nearest(to_gray(img), self.target, self.target)
                widths.append(img.shape[1])
                heights.append(img.shape[0])
                decoded.append(True)
            else:
                g = _fake_decode(p, self.target)
                widths.append(0)
                heights.append(0)
                decoded.append(False)
            grids.append(g.ravel().tolist())
            means.append(float(g.mean()))
            sizes.append(len(p))
        out_cols: Dict[str, pa.Array] = {}
        for name in batch.column_names:
            if name != self.payload_col:
                out_cols[name] = batch.column(name)
        out_cols["thumb"] = pa.array(grids, pa.list_(pa.uint8()))
        out_cols["thumb_mean"] = pa.array(means, pa.float64())
        out_cols["payload_bytes"] = pa.array(sizes, pa.int64())
        out_cols["width"] = pa.array(widths, pa.int32())
        out_cols["height"] = pa.array(heights, pa.int32())
        out_cols["real_decode"] = pa.array(decoded, pa.bool_())
        return pa.table(out_cols)


def image_features(pages_paths, concurrency: int = 4, batch_size: int = 256):
    """Binary-payload feature extraction pipeline: small batches (binary
    rows are fat), actor pool, payload column dropped on output so the
    heavy bytes never travel past this stage."""
    import ray.data

    ds = ray.data.read_parquet(pages_paths, columns=["url", "html"])
    ds = ds.map_batches(
        lambda b: pa.table({"url": b.column("url"), "payload": b.column("html")}),
        batch_format="pyarrow",
    )
    return ds.map_batches(
        DecodeImage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def image_decode(sf_dir: str):
    """End-to-end REAL image decode with a DuckDB-checkable oracle: each
    doc_id deterministically maps to a constant-color RGB PNG whose
    dimensions and color are analytic functions of the id —

        width  = 16 + doc_id % 13      height = 8 + doc_id % 7
        rgb    = (id % 256, 3·id % 256, 7·id % 256)

    encoded with scanline filter ``doc_id % 5`` (every PNG filter type
    exercised), then decoded by the ``DecodeImage`` actor pool (zlib
    inflate → unfilter → BT.601 luma → nearest resize). The decoded
    width/height and integer thumbnail luma must equal the analytic
    values — SQL-expressible, so this is a full-fidelity codec oracle."""
    import ray.data

    def make_images(b: pa.Table) -> pa.Table:
        ids = [int(x) for x in b.column("doc_id").to_pylist()]
        payloads = []
        for i in ids:
            w = 16 + i % 13
            h = 8 + i % 7
            img = np.empty((h, w, 3), np.uint8)
            img[..., 0] = i % 256
            img[..., 1] = (3 * i) % 256
            img[..., 2] = (7 * i) % 256
            payloads.append(encode_png(img, filter_type=i % 5))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    imgs = ds.map_batches(make_images, batch_format="pyarrow", batch_size=256)
    decoded = imgs.map_batches(
        DecodeImage, batch_format="pyarrow", batch_size=256, concurrency=actor_pool()
    )

    def finish(b: pa.Table) -> pa.Table:
        # constant-color image → integer thumbnail mean == the luma value
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "width": b.column("width").cast(pa.int64()),
                "height": b.column("height").cast(pa.int64()),
                "luma": pa.array(
                    [int(round(m)) for m in b.column("thumb_mean").to_pylist()],
                    pa.int64(),
                ),
            }
        )

    return decoded.map_batches(finish, batch_format="pyarrow")


def sql_image_decode() -> str:
    return """
select doc_id,
       16 + doc_id % 13 as width,
       8 + doc_id % 7 as height,
       (299 * (doc_id % 256) + 587 * ((3 * doc_id) % 256)
        + 114 * ((7 * doc_id) % 256)) // 1000 as luma
from documents
"""


class SampleFrames:
    """Video-style frame sampling stub: emits every k-th 'frame' (fixed
    chunk of the payload) as its own row — the flat_map-shaped stage of a
    real video pipeline, with deterministic fake frames."""

    def __init__(self, payload_col: str = "payload", every: int = 4, frame_bytes: int = 64):
        self.payload_col = payload_col
        self.every = every
        self.frame_bytes = frame_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, idxs, frames = [], [], []
        for url, p in zip(
            batch.column("url").to_pylist(), batch.column(self.payload_col).to_pylist()
        ):
            p = p or b""
            n_frames = max(1, len(p) // self.frame_bytes)
            for fi in range(0, n_frames, self.every):
                chunk = p[fi * self.frame_bytes : (fi + 1) * self.frame_bytes]
                urls.append(url)
                idxs.append(fi)
                frames.append(hashlib.blake2b(chunk, digest_size=16).digest())
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "frame_sig": pa.array(frames, pa.binary()),
            }
        )
