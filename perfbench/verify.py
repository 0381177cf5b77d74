"""Output checks, run after the timed phase and outside it.

- Served top-k rows must equal ``IndexSearcher.search(q, k,
  mode="exhaustive")`` in keys, docids and order, with bit-exact float32
  scores.
- A codec-independent oracle scores a few single-term queries straight
  from the corpus text (analyzer + SmallFloat norms + BM25 formula) and
  both search paths must match it; this catches a defect that the
  exhaustive and pruned paths share.
- The ingest index must pass ``check_index`` and hold every corpus row.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench.common import CONFIG, index_config

Rows = List[tuple]  # (key, docid, float32 score bits) in rank order


def _rows(keys, docids, scores) -> Rows:
    bits = np.asarray(scores, dtype=np.float32).view(np.uint32)
    return [(k, int(d), int(b)) for k, d, b in zip(keys, docids, bits)]


def collect(tables: Sequence[pa.Table]) -> Dict[int, Rows]:
    """Served result tables → qid → rows in rank order."""
    out: Dict[int, Rows] = {}
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return out
    t = pa.concat_tables(tables, promote_options="permissive")
    t = t.sort_by([("qid", "ascending"), ("rank", "ascending")])
    qids = t.column("qid").to_numpy()
    rows = _rows(t.column("key").to_pylist(), t.column("docid").to_numpy(), t.column("score").to_numpy())
    for q, r in zip(qids, rows):
        out.setdefault(int(q), []).append(r)
    return out


def sample_distinct(stream: List[str], seed: int, n: int) -> List[str]:
    distinct = sorted(set(stream))
    rng = np.random.default_rng([seed, 0xC4EC])
    pick = rng.choice(len(distinct), size=min(n, len(distinct)), replace=False)
    return [distinct[i] for i in sorted(pick)]


def postings_blocks(searcher, q: str) -> int:
    """FOR blocks of the postings of every term key of the query's plan,
    over every segment: the decode work the query implies."""
    from lucene_ray.search.query import parse_query, query_terms

    terms = sorted(set(query_terms(parse_query(q, searcher.analyzer))))
    states = searcher.term_states(terms)
    blocks = 0
    for t in terms:
        for seg, ti in zip(searcher.segments, states[t][0]):
            if ti is not None:
                blocks += seg.postings(ti).n_blocks
    return blocks


def reference(index_dir: str, queries: List[str]) -> tuple:
    """In-process exhaustive top-k of each query, plus the deterministic
    work counters of the set (rows, hits, pruned share, postings blocks)."""
    from lucene_ray.search.searcher import IndexSearcher

    k = CONFIG["k"]
    searcher = IndexSearcher(index_dir)
    ref: Dict[str, Rows] = {}
    total_hits = gte = blocks = 0
    for q in queries:
        ex = searcher.search(q, k, mode="exhaustive")
        ref[q] = _rows(ex["keys"], ex["docids"], ex["scores"])
        auto = searcher.search(q, k)
        total_hits += int(auto["total_hits"])
        gte += auto["relation"] == "GTE"
        blocks += postings_blocks(searcher, q)
    n = max(1, len(queries))
    return ref, {
        "checked_queries": len(queries),
        "result_rows": sum(len(r) for r in ref.values()),
        "total_hits_sum": total_hits,
        "searcher.gte_share": gte / n,
        "codecs.blocks_per_query": blocks / n,
    }


def check_served(index_dir: str, stream: List[str], served: Dict[int, Rows], check_set: List[str]) -> dict:
    """Compare every served request whose query is in ``check_set`` with
    the in-process exhaustive result. → failed count + work counters."""
    ref, counters = reference(index_dir, check_set)
    failed = 0
    for qid, q in enumerate(stream):
        if q in ref and served.get(qid, []) != ref[q]:
            failed += 1
            if failed <= 5:
                print(f"mismatch qid={qid} query={q!r}: served "
                      f"{served.get(qid, [])[:2]} expected {ref[q][:2]}")
    return {"failed": failed, "counters": counters}


def check_ingest(index_dir: str, manifest, n_docs: int) -> List[str]:
    from lucene_ray.index.check import check_index

    problems = list(check_index(index_dir))
    if manifest.total_docs != n_docs:
        problems.append(f"index holds {manifest.total_docs} docs, corpus has {n_docs}")
    return problems


def _oracle_part(path: str, terms: List[str], n_docs: int):
    """One corpus file → (doc lengths, {term: (rows, tfs, keys)})."""
    from lucene_ray.analysis.analyzer import analyzer_for_config

    cfg = index_config(n_docs)
    tbl = pq.read_table(path, columns=[cfg.key_col, cfg.text_col])
    all_terms, lengths, _ = analyzer_for_config(cfg).analyze_flat(
        tbl.column(cfg.text_col).to_pylist()
    )
    tokens = np.asarray(all_terms, dtype=object)
    doc_of = np.repeat(np.arange(len(lengths)), lengths)
    keys = tbl.column(cfg.key_col).to_pylist()
    hits = {}
    for t in terms:
        rows, tfs = np.unique(doc_of[tokens == t], return_counts=True)
        hits[t] = (rows, tfs, [keys[r] for r in rows])
    return np.asarray(lengths, dtype=np.int64), hits


def text_oracle(paths: List[str], index_dir: str, n_docs: int, vocab_seed: int) -> dict:
    """BM25 top-k of a few single-term queries scored from corpus text,
    compared with both search paths (exhaustive and auto/pruned)."""
    import ray

    from lucene_ray.codecs.smallfloat import encode_norms
    from lucene_ray.corpus.generator import make_vocab
    from lucene_ray.search.bm25 import BM25Similarity
    from lucene_ray.search.searcher import IndexSearcher

    vocab = make_vocab(seed=vocab_seed)
    terms = [str(vocab[r]) for r in CONFIG["oracle_ranks"]]
    part = ray.remote(_oracle_part)
    parts = ray.get([part.remote(p, terms, n_docs) for p in sorted(paths)])
    lengths = np.concatenate([p[0] for p in parts])
    doc_count = int((lengths > 0).sum())
    sum_ttf = int(lengths.sum())
    k = CONFIG["k"]
    searcher = IndexSearcher(index_dir)
    failed = rows_total = 0
    for t in terms:
        ids, tfs, keys, base = [], [], [], 0
        for plen, hits in parts:
            rows, tf, ks = hits[t]
            ids.append(rows + base)
            tfs.append(tf)
            keys.extend(ks)
            base += len(plen)
        ids = np.concatenate(ids)
        tfs = np.concatenate(tfs)
        scorer = BM25Similarity().scorer(1.0, doc_count, sum_ttf, len(ids))
        scores = scorer.score(tfs, encode_norms(lengths[ids]))
        order = np.lexsort((ids, -scores.astype(np.float64)))[:k]
        want = _rows([keys[i] for i in order], ids[order], scores[order])
        rows_total += len(want)
        for mode in ("exhaustive", "auto"):
            got = searcher.search(t, k, mode=mode)
            ok = _rows(got["keys"], got["docids"], got["scores"]) == want
            if mode == "exhaustive":
                ok = ok and int(got["total_hits"]) == len(ids)
            if not ok:
                failed += 1
                print(f"oracle mismatch term={t!r} mode={mode}")
    return {
        "attempted": 2 * len(terms),
        "failed": failed,
        "counters": {"oracle.result_rows": rows_total, "oracle.doc_count": doc_count},
    }
