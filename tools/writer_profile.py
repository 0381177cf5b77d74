"""Build-layer and merge-layer times of the segment writer, in process.

For the first ``--partitions`` build partitions of a parquet corpus
(laid out as the ``ingest`` benchmark plans them: ``--rows`` docs per
partition, ``--buckets`` term buckets), prints per partition the median
over ``--repeat`` runs of:

- ``read``: ``read_partition``;
- ``analyze``: ``Analyzer.analyze_flat`` alone;
- ``invert``: ``invert_texts`` (analysis included);
- ``write``: ``write_segment``, split into postings encode
  (``encode_postings_flat``, or the SPI encoders), positions encode
  (``encode_uint_blocks_flat``) and the rest (part assembly, terms
  parquet, norms, docmap).

The check ``write <= invert`` is printed per partition. Then the
partitions' segments are merged: one ``merge_bucket`` of bucket 0, split
into decode (``merge._decode_source``: every stream of every source),
encode, assembly (``write_term_parts`` less its encoders) and merge (the
rest: union term sort and the stream gathers), followed by the
tracemalloc peak of one more, untimed ``merge_bucket`` run.

The corpus is any directory of parquet files with ``url`` and ``text``
columns, e.g. one written by ``lucene_ray.corpus.generator.write_corpus``
or the ``.bench_work`` corpora of ``perfbench``.

Usage: python tools/writer_profile.py <corpus_dir> [--partitions 4]
       [--rows 4000] [--buckets 4] [--repeat 3]
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np

from lucene_ray.analysis.analyzer import analyzer_for_config
from lucene_ray.codecs import spi
from lucene_ray.index import merge, segment
from lucene_ray.index.build import plan_partitions, read_partition
from lucene_ray.index.config import IndexConfig
from lucene_ray.index.manifest import segment_dir


class Timers:
    """Accumulated wall time of wrapped module-level functions."""

    def __init__(self):
        self.s = defaultdict(float)

    def wrap(self, module, name: str, label: str) -> None:
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.s[label] += time.perf_counter() - t0

        setattr(module, name, timed)

    def take(self) -> dict:
        out, self.s = dict(self.s), defaultdict(float)
        return out


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus_dir")
    ap.add_argument("--partitions", type=int, default=4)
    ap.add_argument("--rows", type=int, default=4000)
    ap.add_argument("--buckets", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    paths = sorted(glob.glob(os.path.join(args.corpus_dir, "*.parquet")))
    if not paths:
        sys.exit(f"no parquet files in {args.corpus_dir}")
    cfg = IndexConfig(
        key_col="url", text_col="text", rows_per_segment=args.rows,
        num_buckets=args.buckets,
    )
    analyzer = analyzer_for_config(cfg)
    timers = Timers()
    timers.wrap(segment, "encode_postings_flat", "post_enc")
    timers.wrap(spi, "encode_postings_by_format", "post_enc")
    timers.wrap(segment, "encode_uint_blocks_flat", "pos_enc")
    timers.wrap(merge, "_decode_source", "decode")
    timers.wrap(merge, "write_term_parts", "parts")

    work = tempfile.mkdtemp(prefix="writer_profile_")
    index_dir = os.path.join(work, "index")
    seg_ids = []
    cols = ("read", "analyze", "invert", "write", "post_enc", "pos_enc", "rest")
    print(f"{'partition':>9} {'docs':>6} " + " ".join(f"{c:>8}" for c in cols)
          + "  write<=invert")
    try:
        plan = plan_partitions(paths, cfg.rows_per_segment)[: args.partitions]
        for item in plan:
            runs = defaultdict(list)
            for rep in range(args.repeat):
                tbl, t = timed(
                    read_partition, item["path"], item["row_start"],
                    item["row_end"], [cfg.key_col, cfg.text_col],
                )
                runs["read"].append(t)
                texts = tbl.column(cfg.text_col).to_pylist()
                runs["analyze"].append(timed(analyzer.analyze_flat, texts)[1])
                inv, t = timed(
                    segment.invert_texts, texts, analyzer,
                    with_positions=cfg.positions,
                )
                runs["invert"].append(t)
                seg_dir = segment_dir(index_dir, item["seg_id"])
                shutil.rmtree(seg_dir, ignore_errors=True)
                os.makedirs(os.path.dirname(seg_dir), exist_ok=True)
                timers.take()
                _, t = timed(
                    segment.write_segment, seg_dir, item["seg_id"],
                    item["base_docid"], tbl.column(cfg.key_col).combine_chunks(),
                    inv, cfg,
                )
                split = timers.take()
                runs["write"].append(t)
                runs["post_enc"].append(split.get("post_enc", 0.0))
                runs["pos_enc"].append(split.get("pos_enc", 0.0))
                runs["rest"].append(
                    t - split.get("post_enc", 0.0) - split.get("pos_enc", 0.0)
                )
            seg_ids.append(item["seg_id"])
            med = {c: float(np.median(runs[c])) for c in cols}
            print(f"{item['seg_id']:>9} {item['row_end'] - item['row_start']:>6} "
                  + " ".join(f"{med[c]:>8.4f}" for c in cols)
                  + f"  {'yes' if med['write'] <= med['invert'] else 'NO'}")

        runs = defaultdict(list)
        for rep in range(args.repeat):
            out = os.path.join(work, f"merge_{rep}")
            os.makedirs(out)
            timers.take()
            _, t = timed(merge.merge_bucket, index_dir, seg_ids, 0, out)
            split = timers.take()
            if not split.get("decode"):
                sys.exit("merge_bucket no longer calls merge._decode_source")
            enc = split.get("post_enc", 0.0) + split.get("pos_enc", 0.0)
            runs["total"].append(t)
            runs["decode"].append(split.get("decode", 0.0))
            runs["encode"].append(enc)
            runs["assembly"].append(split.get("parts", 0.0) - enc)
            runs["merge"].append(
                t - split.get("decode", 0.0) - split.get("parts", 0.0)
            )
            shutil.rmtree(out)
        parts = ("total", "decode", "merge", "encode", "assembly")
        print(f"merge_bucket(bucket 0 of {len(seg_ids)} segments), median of "
              f"{args.repeat}: " + " ".join(
                  f"{p} {float(np.median(runs[p])):.4f}s" for p in parts))
        out = os.path.join(work, "merge_traced")
        os.makedirs(out)
        tracemalloc.start()
        merge.merge_bucket(index_dir, seg_ids, 0, out)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"merge_bucket tracemalloc peak {peak / 2**20:.1f} MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
