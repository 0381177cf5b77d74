"""lucene_ray — a Ray-Data-native inverted-index build + BM25 top-k query engine.

A from-scratch rebuild of the query/data-processing capabilities of the
reference Lucene fork (kaivalnp/lucene) expressed in idiomatic Ray Data:

- analysis (standard tokenizer + simple lowercase + stopword chain) as
  vectorized ``map_batches`` transforms over zero-copy Arrow batches,
- inverted-index construction as a hash-bucketed groupby-term shuffle with
  explicit head-term salting, producing immutable segment shards,
- postings with delta-gap + FOR/PFor block compression and per-block
  max-impact metadata,
- tiered size-ratio segment merging,
- top-k BM25 (k1=1.2, b=0.75) with bound-then-verify top-k for terms,
  disjunctions and exact phrases, served from stateful searcher actor
  pools over memory-mapped shards.

Nothing here is a port: the reference tells us WHAT to compute (semantics
cited per-module as ``file:line`` into /root/reference), the execution
engine is Ray Data throughout.
"""

__version__ = "0.1.0"
