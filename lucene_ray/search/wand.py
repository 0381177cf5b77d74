"""Block-max pruned top-k disjunction — the role of ``WANDScorer`` /
``MaxScoreBulkScorer`` (``core/search/WANDScorer.java:39-137``,
``core/search/MaxScoreBulkScorer.java:26-127``), re-expressed for a
vectorized engine:

- per-term, per-block score upper bounds come from the stored competitive
  impact frontiers (``Impacts``/``MaxScoreCache`` role,
  ``core/search/MaxScoreCache.java:35-119``) — computed at query time
  because idf needs global stats;
- the docid space is cut into fixed windows (4096 docs, the reference's
  ``INNER_WINDOW_SIZE``); a window's bound = Σ per-term max block bound
  overlapping it;
- windows are evaluated exactly (dense float32 accumulation in clause
  order — identical arithmetic to the exhaustive scorer) in descending
  bound order, maintaining the k-th-best threshold θ; a window is skipped
  iff its bound < θ (strictly — equal-bound windows may hold equal-score
  docs that win the lower-docid tie-break);
- final selection sorts all surviving candidates by (score desc, docid
  asc), so results are provably rank-identical to exhaustive evaluation.

θ carries across segments like ``MaxScoreAccumulator`` shares the floor
across slices (``core/search/MaxScoreAccumulator.java``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from lucene_ray.codecs.postings import PostingsView
from lucene_ray.index.segment import SegmentReader, TermInfo

F32 = np.float32
WINDOW = 4096  # MaxScoreBulkScorer.INNER_WINDOW_SIZE (:28)


def block_gmax(view: PostingsView, norm_inverse: np.ndarray) -> np.ndarray:
    """Weight-independent bound factor per block: ``max over the impact
    frontier of 1 - 1/(1 + freq * normInv)``. The block score bound is
    ``weight * gmax`` (score = weight * g(freq, norm) algebraically), so
    it depends only on (segment, term) — the role of ``MaxScoreCache``
    (``core/search/MaxScoreCache.java:35-119``); :func:`window_gmax`
    folds it to the window bounds the searcher caches."""
    out = np.empty(view.n_blocks, dtype=F32)
    one = F32(1.0)
    for bi in range(view.n_blocks):
        imp = view.impacts(bi)
        if len(imp) == 0:
            out[bi] = one  # no impacts recorded → sup over freq→∞
        else:
            g = one - one / (one + imp["freq"].astype(F32) * norm_inverse[imp["norm"]])
            out[bi] = g.max()
    return out


def window_gmax(
    view: PostingsView, gmax: np.ndarray, n_docs: int
) -> np.ndarray:
    """Per-WINDOW max of the weight-independent block bound factors.

    The window upper bound used for skipping is ``Σ_terms w·max_blocks
    gmax`` — the weight distributes over the max, so this array depends
    only on (segment, term) and is cached across queries (the
    MaxScoreCache role at window granularity). Removes the per-query
    Python loop over blocks."""
    n_win = (n_docs + WINDOW - 1) // WINDOW
    d = view.directory
    first = d["first_docid"].astype(np.int64)
    last = d["last_docid"].astype(np.int64)
    ws = first // WINDOW
    we = last // WINDOW
    wmax = np.zeros(n_win, dtype=np.float64)
    g64 = gmax.astype(np.float64)
    same = ws == we
    if same.any():
        np.maximum.at(wmax, ws[same], g64[same])
    for bi in np.flatnonzero(~same):  # blocks spanning window boundaries
        sl = wmax[ws[bi] : we[bi] + 1]
        np.maximum(sl, g64[bi], out=sl)
    return wmax


def wand_topk(
    seg: SegmentReader,
    term_infos: List[Optional[TermInfo]],
    weights: List[np.float32],
    k: int,
    theta: float,
    wgmaxes: List[np.ndarray],
    denoms: List[np.ndarray],
    after: Optional[Tuple[float, int]] = None,
    total_hits_threshold: int = 1000,
    evaluated_so_far: int = 0,
    deleted: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, float, bool, int]:
    """Top-k of a SHOULD-disjunction of terms over one segment.

    ``wgmaxes[i]``: term i's :func:`window_gmax`; ``denoms[i]``: its
    weight-independent BM25 denominators ``1 + freq·normInv`` aligned
    with its postings (the engine's documented ``w - w/d`` algebra). Both
    depend only on (segment, term), so the caller caches them across
    queries.

    Returns ``(docids, scores, theta_out, pruned, evaluated_matches)``;
    docids local, result exact top-k by (score desc, docid asc).

    ``after=(score, local_docid)``: cursor pagination on the pruned path —
    hits at/above the cursor position are dropped BEFORE candidates are
    collected, so θ tracks the k-th best *post-cursor* score and window
    skipping stays rank-neutral for the page
    (``IndexSearcher.searchAfter`` + ``PagingTopScoreDocCollector``).

    ``total_hits_threshold``: θ starts rising only once
    ``evaluated_so_far + evaluated`` matches have been counted — below
    the threshold every window is evaluated, so hit counts are exact
    (relation EQ); past it the count is a lower bound (GTE), the
    reference's ``TotalHitCountCollector`` / threshold-1000 behavior
    (``core/search/IndexSearcher.java:100``, ``TotalHits.java``).
    """
    live = [
        (ti, w, wgm, d)
        for ti, w, wgm, d in zip(term_infos, weights, wgmaxes, denoms)
        if ti is not None
    ]
    if not live:
        return np.empty(0, np.uint32), np.empty(0, F32), theta, False, 0
    n = seg.n_docs
    n_win = (n + WINDOW - 1) // WINDOW

    # Decode each term ONCE with the batched kernel (cheaper per element
    # than per-block decoding), precompute its scores; the block-max
    # metadata still drives WINDOW SKIPPING of the scoring/accumulation
    # phase — the expensive part of a vectorized engine. (A per-block
    # cursor design like the reference's pays off only when per-doc
    # evaluation dominates; here batched decode is ~10x the per-block
    # path, so pruning moves to the accumulate stage.)
    terms_data = []
    ub = np.zeros(n_win, dtype=np.float64)
    for ti, w, wgm, d in live:
        # f64 w·max(gmax) ≥ every f32 per-block bound up to one f32 ulp,
        # covered by the 1e-6 relative skip margin below
        ub += float(w) * wgm
        ids, _ = seg.decoded(ti)  # reader-level decode cache
        terms_data.append((ids, w - w / d))

    cand_ids: List[np.ndarray] = []
    cand_scores: List[np.ndarray] = []
    n_cand = 0
    pruned = False
    evaluated = 0
    run_scores = np.empty(0, F32)  # running top-k pool for θ updates

    if evaluated_so_far < total_hits_threshold:
        # Below the exact-count threshold NO window may be skipped, so the
        # per-window loop has nothing to prune — one dense vectorized pass
        # (same clause-order float32 accumulation, identical scores) is
        # cheaper and counts every hit exactly.
        if len(terms_data) == 1:
            # single term: postings ARE the hit list — skip the dense
            # accumulator entirely (the common term-query case)
            ids0, tscores0 = terms_data[0]
            hit_ids = ids0.astype(np.uint32)
            hit_scores = tscores0
            if deleted is not None:
                live_m = ~deleted[hit_ids]
                hit_ids, hit_scores = hit_ids[live_m], hit_scores[live_m]
            evaluated = len(hit_ids)
        else:
            scores_all = np.zeros(n, dtype=F32)
            matched_all = np.zeros(n, dtype=bool)
            for ids, tscores in terms_data:
                scores_all[ids] += tscores
                matched_all[ids] = True
            if deleted is not None:
                matched_all &= ~deleted  # live docs only (tombstone bitmap)
            hits = np.flatnonzero(matched_all)
            evaluated = len(hits)
            hit_ids = hits.astype(np.uint32)
            hit_scores = scores_all[hits]
        if after is not None:
            a_score = np.float32(after[0])
            a_doc = int(after[1])
            keep = (hit_scores < a_score) | (
                (hit_scores == a_score) & (hit_ids.astype(np.int64) > a_doc)
            )
            hit_ids, hit_scores = hit_ids[keep], hit_scores[keep]
        if len(hit_ids):
            cand_ids.append(hit_ids)
            cand_scores.append(hit_scores)
            n_cand = len(hit_ids)
            if n_cand >= k and evaluated_so_far + evaluated >= total_hits_threshold:
                kth = float(
                    np.partition(hit_scores, len(hit_scores) - k)[
                        len(hit_scores) - k
                    ]
                )
                if kth > theta:
                    theta = kth
        order = np.empty(0, dtype=np.int64)  # all windows already evaluated
    else:
        order = np.argsort(-ub, kind="stable")
    for wi in order:
        bound = ub[wi]
        if bound <= 0:
            break  # no term touches this window
        # 1e-6 relative safety margin: f32 score rounding could land a hair
        # above the f64 sum of f32 bounds; never skip a window that could
        # hold an exact tie (rank-identity is the contract)
        if bound * (1.0 + 1e-6) + 1e-9 < theta:
            pruned = True
            continue
        lo = int(wi) * WINDOW
        hi = min(lo + WINDOW, n)
        scores_w = np.zeros(hi - lo, dtype=F32)
        matched = np.zeros(hi - lo, dtype=bool)
        for ids, tscores in terms_data:  # clause order — same f32 sum order
            s = int(np.searchsorted(ids, lo))
            e = int(np.searchsorted(ids, hi))
            if s == e:
                continue
            sel = ids[s:e].astype(np.int64) - lo
            scores_w[sel] += tscores[s:e]
            matched[sel] = True
        hits = np.flatnonzero(matched)
        if len(hits) == 0:
            continue
        hit_ids = (hits + lo).astype(np.uint32)
        hit_scores = scores_w[hits]
        if deleted is not None:
            live = ~deleted[hit_ids]
            hit_ids, hit_scores = hit_ids[live], hit_scores[live]
            if len(hit_ids) == 0:
                continue
        evaluated += len(hit_ids)
        if after is not None:
            a_score = np.float32(after[0])
            a_doc = int(after[1])
            keep = (hit_scores < a_score) | (
                (hit_scores == a_score) & (hit_ids.astype(np.int64) > a_doc)
            )
            hit_ids, hit_scores = hit_ids[keep], hit_scores[keep]
            if len(hit_ids) == 0:
                continue
        cand_ids.append(hit_ids)
        cand_scores.append(hit_scores)
        n_cand += len(hit_ids)
        if evaluated_so_far + evaluated >= total_hits_threshold:
            # running top-k pool: θ maintenance partitions only
            # (k + window hits) elements, not the whole candidate set
            # (re-partitioning the growing concat was quadratic)
            run_scores = (
                np.concatenate([run_scores, hit_scores])
                if len(run_scores)
                else hit_scores
            )
            if len(run_scores) > k:
                part = np.partition(run_scores, len(run_scores) - k)
                run_scores = part[len(run_scores) - k :]
            if n_cand >= k and len(run_scores) >= k:
                kth = float(run_scores.min())
                if kth > theta:
                    theta = kth
    if not cand_ids:
        return np.empty(0, np.uint32), np.empty(0, F32), theta, pruned, evaluated
    ids = np.concatenate(cand_ids)
    scores = np.concatenate(cand_scores)
    if len(ids) > k:
        part = np.argpartition(-scores, k - 1)[:k]
        thresh = scores[part].min()
        keep = scores >= thresh
        ids, scores = ids[keep], scores[keep]
    sel = np.lexsort((ids, -scores.astype(np.float64)))[:k]
    return ids[sel], scores[sel], theta, pruned, evaluated
