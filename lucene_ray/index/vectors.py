"""Vector search core — the role of Lucene's ``Lucene99HnswVectorsFormat``
+ ``HnswGraphBuilder`` / ``HnswGraphSearcher``
(``core/codecs/lucene99/Lucene99HnswVectorsFormat.java``,
``core/util/hnsw/HnswGraphBuilder.java``): float32 vectors plus a
deterministic HNSW graph and int8 codes, stored per segment
(``vectors.hnsw.npz`` beside postings), together with the one int8
quantizer and the one exact basis-point scorer every KNN path uses.

Clean-room implementation of the published HNSW algorithm (Malkov &
Yashunin 2016); level assignment hashes the vector id (splitmix64) so
rebuilds are bit-identical. The filtered search follows
``KnnFloatVectorQuery.java``: an accept bitset gates result collection
(rejected nodes still traverse, keeping the graph connected) under a
visit budget equal to the filter's cardinality, falling back to an
exact scan over the accepted rows when exceeded.
"""

from __future__ import annotations

import heapq
import io
import math
from typing import Dict, List, Tuple

import numpy as np

VECTORS_FILE = "vectors.hnsw.npz"

M = 8  # max neighbors per node on upper levels; level 0 allows 2M
EF_CONSTRUCTION = 64
EF_SEARCH = 48

_ML = 1.0 / math.log(M)

SCALE = 127  # symmetric int8: codes in [-127, 127]
DELTA = 1.0 / (2 * SCALE)  # max per-component dequantization error


class _VisitBudgetExceeded(Exception):
    """HNSW traversal scored more nodes than the filter's cardinality —
    signal the caller to fall back to exact search over the accepted set
    (``KnnFloatVectorQuery.java`` visitedLimit semantics)."""


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (public splitmix64 constants)."""
    z = (x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(-1)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(-1)
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(-1)
    return z ^ (z >> np.uint64(31))


def _levels_for(vec_ids: np.ndarray) -> np.ndarray:
    """Hash-derived HNSW level per node: floor(-ln(u) * mL)."""
    h = _splitmix64(vec_ids.astype(np.uint64))
    u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return np.floor(-np.log(u) * _ML).astype(np.int32)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def to_bp(sims: np.ndarray) -> np.ndarray:
    """Similarities → integer basis points, floor(sim*1e4 + 0.5): the
    half-away rounding the SQL oracles write the same way."""
    return np.floor(sims * 10000 + 0.5).astype(np.int64)


def exact_bp(x: np.ndarray, qn: np.ndarray) -> np.ndarray:
    """The exact scorer: float64 row-normalize of the raw vectors ``x``,
    one GEMM against the normalized query matrix ``qn``, basis points →
    int64 (rows, queries). Every exact KNN path and every re-rank scores
    through it, so all of them match brute force bit for bit."""
    return to_bp(_normalize(np.asarray(x, dtype=np.float64)) @ qn.T)


def rerank_bp(
    x: np.ndarray, keeps: List[np.ndarray], qn: np.ndarray
) -> List[np.ndarray]:
    """Exact basis points of each query's kept rows of ``x``: one
    :func:`exact_bp` over the union of the kept rows, gathered per
    query → one int64 array per entry of ``keeps``."""
    sub = np.unique(np.concatenate(keeps))
    bp = exact_bp(x[sub], qn)
    return [bp[np.searchsorted(sub, keep), qi] for qi, keep in enumerate(keeps)]


def quantize(m: np.ndarray) -> np.ndarray:
    """Symmetric int8 quantization of row-normalized vectors (components
    in [-1, 1]): code = round(x * 127). Matches the reference's
    confidence-interval quantizer with the interval pinned to [-1, 1]."""
    return np.clip(np.rint(m * SCALE), -SCALE, SCALE).astype(np.int8)


def dequantize(q: np.ndarray) -> np.ndarray:
    return q.astype(np.float64) / SCALE


def int8_survivors(
    codes: np.ndarray,
    doc_l1: np.ndarray,
    q_codes: np.ndarray,
    q_l1: np.ndarray,
    k: int,
) -> List[np.ndarray]:
    """Filter-then-verify over int8 codes (the
    ``Lucene99ScalarQuantizedVectorsFormat`` scoring path): one int32
    GEMM scores every row, and → per query, the rows whose quantized
    score could still reach the exact top-k. The bound

        |x.y - x_hat.y_hat|  <=  DELTA * (sum|x_i| + sum|y_hat_j|)

    follows from x.y - x_hat.y_hat = x.(y - y_hat) + (x - x_hat).y_hat
    with per-component error <= DELTA; ``doc_l1`` is sum|x| (or an upper
    bound of it), ``q_l1`` is sum|y_hat|. Rows with ``approx + eps <
    theta - 1e-4`` are dropped (theta = k-th largest ``approx - eps``);
    the extra basis-point quantum keeps same-bucket ties in the final
    (bp, id) order, so no true top-k member is ever dropped. int32 dots
    (<= dim*127^2) are exact; the rescale's ~1e-16 error sits inside
    the 1e-9 slack."""
    if len(codes) == 0:
        return [np.empty(0, np.int64) for _ in range(len(q_codes))]
    approx = (codes.astype(np.int32) @ q_codes.T.astype(np.int32)) / (SCALE * SCALE)
    eps = DELTA * (doc_l1[:, None] + q_l1[None, :]) + 1e-9
    kth = len(codes) - min(k, len(codes))
    theta = np.partition(approx - eps, kth, axis=0)[kth]
    return [
        np.flatnonzero(approx[:, qi] + eps[:, qi] >= theta[qi] - 1e-4)
        for qi in range(len(q_codes))
    ]


class _ShardGraph:
    """In-memory HNSW graph for one segment (build + search).

    Neighbor storage: per level, an int32 matrix [n, cap] padded with
    -1 (cap = 2M at level 0, M above), plus a per-node neighbor count.
    Similarity = dot over normalized vectors (cosine), maximized.
    """

    def __init__(self, vectors: np.ndarray, vec_ids: np.ndarray):
        xn = _normalize(vectors.astype(np.float64))
        # quantize through float32 (the persisted dtype, like Lucene's
        # float vectors) so a saved+loaded graph scores identically
        self.v = xn.astype(np.float32).astype(np.float64)
        # raw (un-normalized) float32 vectors — the exact-fallback path
        # (``KnnFloatVectorQuery.java`` visitedLimit → exact scan) scores
        # from these through ``exact_bp``, like brute-force ``knn_cosine``
        self.raw = vectors.astype(np.float32)
        # int8 codes (the ``Lucene99ScalarQuantizedVectorsFormat`` role:
        # Lucene stores int8 codes in .veq AND keeps raw floats in .vec
        # for re-rank/merge), quantized from the SAME float64-normalized
        # form the exact scan scores
        self.codes = quantize(xn)
        self.ids = vec_ids.astype(np.int64)
        self.levels = _levels_for(self.ids)
        self.max_level = -1
        self.entry = -1
        n = len(self.v)
        self.nbrs: List[np.ndarray] = []  # per level [n, cap] int32
        self.cnt: List[np.ndarray] = []  # per level [n] int32
        for i in range(n):
            self._insert(i)

    # -- storage helpers ---------------------------------------------------
    def _ensure_level(self, lvl: int) -> None:
        n = len(self.v)
        while len(self.nbrs) <= lvl:
            cap = 2 * M if len(self.nbrs) == 0 else M
            self.nbrs.append(np.full((n, cap), -1, np.int32))
            self.cnt.append(np.zeros(n, np.int32))

    def _neigh(self, node: int, lvl: int) -> np.ndarray:
        return self.nbrs[lvl][node, : self.cnt[lvl][node]]

    # -- core ---------------------------------------------------------------
    def _greedy(self, q: np.ndarray, start: int, lvl: int) -> int:
        """ef=1 descent on one level: move to the best neighbor until a
        local maximum of similarity."""
        cur = start
        cur_sim = float(self.v[cur] @ q)
        improved = True
        while improved:
            improved = False
            nb = self._neigh(cur, lvl)
            if len(nb):
                sims = self.v[nb] @ q
                j = int(np.argmax(sims))
                if sims[j] > cur_sim or (
                    sims[j] == cur_sim and int(nb[j]) < cur
                ):
                    cur, cur_sim = int(nb[j]), float(sims[j])
                    improved = True
        return cur

    def _search_level(
        self,
        q: np.ndarray,
        eps: List[int],
        ef: int,
        lvl: int,
        accept: np.ndarray = None,
        visit_limit: int = None,
    ) -> List[Tuple[float, int]]:
        """Best-first search with ef results on one level →
        [(sim, node)] unsorted. Deterministic tie-breaks via node index.

        ``accept``: optional bool mask over row indices — rejected nodes
        are still TRAVERSED (they keep the graph connected, exactly like
        Lucene's acceptOrds bitset in ``HnswGraphSearcher.java``: the
        filter gates result collection, not expansion). ``visit_limit``:
        abort by raising ``_VisitBudgetExceeded`` once that many nodes
        have been scored — ``KnnFloatVectorQuery.java`` sets this to the
        filter's cardinality and falls back to exact search on excess.
        """
        visited = set(eps)
        n_visited = len(visited)
        # heaps keyed on (-sim, node) / (sim, node): node index breaks ties
        cand: List[Tuple[float, int]] = []
        res: List[Tuple[float, int]] = []
        for e in eps:
            s = float(self.v[e] @ q)
            heapq.heappush(cand, (-s, e))
            if accept is None or accept[e]:
                heapq.heappush(res, (s, e))
        while cand:
            negs, c = heapq.heappop(cand)
            if len(res) >= ef and -negs < res[0][0]:
                break
            nb = self._neigh(c, lvl)
            fresh = [int(x) for x in nb if int(x) not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            n_visited += len(fresh)
            if visit_limit is not None and n_visited > visit_limit:
                raise _VisitBudgetExceeded()
            sims = self.v[fresh] @ q
            for x, s in zip(fresh, sims):
                s = float(s)
                worst = res[0][0] if res else -math.inf
                if len(res) < ef or s > worst:
                    heapq.heappush(cand, (-s, x))
                    if accept is None or accept[x]:
                        heapq.heappush(res, (s, x))
                        if len(res) > ef:
                            heapq.heappop(res)
        return res

    def _select(
        self, cands: List[Tuple[float, int]], m: int
    ) -> List[int]:
        """Neighbor-selection heuristic (paper Algorithm 4): keep a
        candidate only if it is closer to the base than to every
        already-selected neighbor — spreads links across clusters."""
        out: List[int] = []
        for sim, node in sorted(cands, key=lambda t: (-t[0], t[1])):
            if len(out) >= m:
                break
            ok = True
            for o in out:
                if float(self.v[node] @ self.v[o]) > sim:
                    ok = False
                    break
            if ok:
                out.append(node)
        if len(out) < m:  # backfill with closest rejected ones
            chosen = set(out)
            for sim, node in sorted(cands, key=lambda t: (-t[0], t[1])):
                if len(out) >= m:
                    break
                if node not in chosen:
                    out.append(node)
        return out

    def _link(self, a: int, b: int, lvl: int) -> None:
        """Add edge a→b, pruning a's list with the heuristic if full."""
        cap = self.nbrs[lvl].shape[1]
        c = int(self.cnt[lvl][a])
        if c < cap:
            self.nbrs[lvl][a, c] = b
            self.cnt[lvl][a] = c + 1
            return
        cur = [int(x) for x in self.nbrs[lvl][a]]
        cands = [(float(self.v[x] @ self.v[a]), x) for x in cur + [b]]
        keep = self._select(cands, cap)
        self.nbrs[lvl][a, : len(keep)] = keep
        self.nbrs[lvl][a, len(keep) :] = -1
        self.cnt[lvl][a] = len(keep)

    def _insert(self, i: int) -> None:
        lvl = int(self.levels[i])
        if self.entry < 0:
            self._ensure_level(lvl)
            self.entry, self.max_level = i, lvl
            return
        self._ensure_level(lvl)
        q = self.v[i]
        cur = self.entry
        for l in range(self.max_level, lvl, -1):
            cur = self._greedy(q, cur, l)
        eps = [cur]
        for l in range(min(lvl, self.max_level), -1, -1):
            res = self._search_level(q, eps, EF_CONSTRUCTION, l)
            m = 2 * M if l == 0 else M
            sel = self._select(res, m)
            for nb in sel:
                self._link(i, nb, l)
                self._link(nb, i, l)
            eps = [n for _, n in sorted(res, key=lambda t: (-t[0], t[1]))]
        if lvl > self.max_level:
            self.max_level, self.entry = lvl, i

    # -- public -------------------------------------------------------------
    def search(self, q: np.ndarray, k: int, ef: int) -> List[Tuple[float, int]]:
        """→ [(sim, row_index)] top-k, sim desc then row asc."""
        if self.entry < 0:
            return []
        cur = self.entry
        for l in range(self.max_level, 0, -1):
            cur = self._greedy(q, cur, l)
        res = self._search_level(q, [cur], max(ef, k), 0)
        res.sort(key=lambda t: (-t[0], t[1]))
        return res[:k]

    def search_filtered(
        self, q: np.ndarray, k: int, ef: int, accept: np.ndarray
    ) -> List[Tuple[float, int]]:
        """Filtered top-k: graph traversal collects only ``accept``-ed
        rows, with visit budget = |accept| (the filter's cost, as in
        ``KnnFloatVectorQuery.java``) — if the traversal would score more
        nodes than a linear scan of the filtered set, do the exact scan
        instead (identical result discipline, guaranteed full recall)."""
        n_ok = int(accept.sum())
        if n_ok == 0:
            return []
        budget = max(n_ok, ef)
        try:
            if self.entry < 0:
                raise _VisitBudgetExceeded()
            cur = self.entry
            for l in range(self.max_level, 0, -1):
                cur = self._greedy(q, cur, l)
            res = self._search_level(
                q, [cur], max(ef, k), 0, accept=accept, visit_limit=budget
            )
        except _VisitBudgetExceeded:
            rows = np.nonzero(accept)[0]
            sims = self.v[rows] @ q
            res = [(float(s), int(r)) for s, r in zip(sims, rows)]
        res.sort(key=lambda t: (-t[0], t[1]))
        return res[:k]

    def exact_topk(
        self,
        qm: np.ndarray,
        k: int,
        accept: np.ndarray = None,
        tie: np.ndarray = None,
    ) -> List[List[Tuple[int, int]]]:
        """Exact per-shard top-k — the ``KnnFloatVectorQuery.java``
        visitedLimit-exceeded fallback, scored by :func:`exact_bp` from
        the RAW float32 vectors, bit-identically to brute-force
        ``knn_cosine``. → per query row of ``qm``, a list of
        (bp, row_index) cut and ordered by (bp desc, tie asc) — the
        FINAL ordering, so the cut can never drop a global winner.

        ``tie``: per-row tie-break values (global ids); defaults to
        ``self.ids``. ``accept``: optional bool row mask.
        """
        rows = self._rows(accept)
        return self._topk(qm, k, rows, [np.arange(len(rows))] * len(qm), tie)

    def exact_topk_quantized(
        self,
        qm: np.ndarray,
        k: int,
        accept: np.ndarray = None,
        tie: np.ndarray = None,
    ) -> List[List[Tuple[int, int]]]:
        """Same contract and PROVABLY same output as :meth:`exact_topk`,
        but the full scan runs on the int8 codes (:func:`int8_survivors`,
        the ``Lucene99ScalarQuantizedVectorsFormat`` scoring path); exact
        float64 math touches only the survivors. Falls back to the float
        scan on pre-codes graphs."""
        if self.codes is None:
            return self.exact_topk(qm, k, accept=accept, tie=tie)
        rows = self._rows(accept)
        raw = self.raw if self.raw is not None else self.v
        q_codes = quantize(qm)
        keeps = int8_survivors(
            self.codes[rows],
            np.abs(_normalize(raw[rows].astype(np.float64))).sum(axis=1),
            q_codes,
            np.abs(dequantize(q_codes)).sum(axis=1),
            k,
        )
        return self._topk(qm, k, rows, keeps, tie)

    def _rows(self, accept: np.ndarray = None) -> np.ndarray:
        if accept is None:
            return np.arange(len(self.ids))
        return np.flatnonzero(accept)

    def _topk(self, qm, k, rows, keeps, tie) -> List[List[Tuple[int, int]]]:
        """Exact re-rank of each query's kept positions in ``rows``, cut
        to k by (bp desc, tie asc)."""
        if len(rows) == 0:
            return [[] for _ in range(qm.shape[0])]
        ties = (self.ids if tie is None else np.asarray(tie, dtype=np.int64))[rows]
        raw = (self.raw if self.raw is not None else self.v)[rows]
        out: List[List[Tuple[int, int]]] = []
        for keep, bp in zip(keeps, rerank_bp(raw, keeps, qm)):
            order = np.lexsort((ties[keep], -bp))[:k]
            out.append([(int(bp[j]), int(rows[keep[j]])) for j in order])
        return out

    @classmethod
    def load(cls, path: str) -> "_ShardGraph":
        z = np.load(path)
        g = cls.__new__(cls)
        g.v = z["v"].astype(np.float64)
        g.raw = z["raw"] if "raw" in z else None  # pre-raw-format graphs
        g.codes = z["codes"] if "codes" in z else None  # pre-int8 graphs
        g.ids = z["ids"]
        g.entry, g.max_level = (int(x) for x in z["meta"])
        g.nbrs, g.cnt = [], []
        l = 0
        while f"nbrs{l}" in z:
            g.nbrs.append(z[f"nbrs{l}"])
            g.cnt.append(z[f"cnt{l}"])
            l += 1
        return g


def graph_to_bytes(g: _ShardGraph) -> bytes:
    """Serialize a built graph to npz bytes (for write_segment's
    checksummed put()); :meth:`_ShardGraph.load` reads them back."""
    arrs: Dict[str, np.ndarray] = {
        "v": g.v.astype(np.float32),
        "ids": g.ids,
        "meta": np.array([g.entry, g.max_level], np.int64),
    }
    if g.raw is not None:
        arrs["raw"] = g.raw
    if g.codes is not None:
        arrs["codes"] = g.codes
    for l, (nb, c) in enumerate(zip(g.nbrs, g.cnt)):
        arrs[f"nbrs{l}"] = nb
        arrs[f"cnt{l}"] = c
    buf = io.BytesIO()
    np.savez(buf, **arrs)
    return buf.getvalue()


def build_graph_bytes(matrix: np.ndarray, ids: np.ndarray) -> bytes:
    """vectors (n, dim) + int64 ids → serialized per-segment graph."""
    return graph_to_bytes(_ShardGraph(matrix, ids))


# -- byte vectors (KnnByteVectorField) ---------------------------------------

BYTE_VECTORS_FILE = "vectors.byte.npz"


def build_byte_vector_bytes(codes: np.ndarray) -> bytes:
    """Signed-byte vectors (n, dim) → serialized flat per-segment
    sidecar — the ``KnnByteVectorField`` storage role
    (``core/document/KnnByteVectorField.java``; flat codes like the
    ``Lucene99FlatVectorsFormat``: byte similarity needs no re-rank
    floats, the codes ARE the exact representation)."""
    codes = np.ascontiguousarray(codes, dtype=np.int8)
    buf = io.BytesIO()
    np.savez(buf, codes=codes)
    return buf.getvalue()


def load_byte_vectors(path: str) -> np.ndarray:
    """→ int8 (n, dim) codes, row == segment-local docid."""
    return np.load(path)["codes"]


def byte_dot_topk(
    codes: np.ndarray,
    q_codes: np.ndarray,
    k: int,
    accept: np.ndarray = None,
) -> List[List[Tuple[int, int]]]:
    """Exact byte-vector top-k per query — ``KnnByteVectorQuery``'s
    scoring over DOT_PRODUCT byte similarity: raw integer dot product
    (monotone with ``VectorUtil.dotProductScore`` for a fixed dim), one
    int32 GEMM per batch, ordered (dot desc, row asc). → per query,
    [(dot, row_index)]."""
    rows = np.arange(len(codes), dtype=np.int64)
    if accept is not None:
        rows = rows[accept]
        if len(rows) == 0:
            return [[] for _ in range(q_codes.shape[0])]
        codes = codes[accept]
    dots = codes.astype(np.int32) @ q_codes.T.astype(np.int32)
    out: List[List[Tuple[int, int]]] = []
    for qi in range(q_codes.shape[0]):
        d = dots[:, qi].astype(np.int64)
        order = np.lexsort((rows, -d))[: min(k, len(rows))]
        out.append([(int(d[j]), int(rows[j])) for j in order])
    return out
