"""Shared pieces of the benchmark: the tracer, the Ray session, corpora,
index builds, the query generators and small statistics helpers.

Everything here calls ``lucene_ray`` from outside through its public
functions; nothing is patched or wrapped inside the package.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# corpora, indexes, Ray's session files and traces: all under the checkout
WORK_DIR = os.path.join(REPO_ROOT, ".bench_work")
RAY_TEMP_DIR = "ray"  # under WORK_DIR, see ray_start
_work_fd: Optional[int] = None

with open(os.path.join(BENCH_DIR, "config.json")) as _f:
    CONFIG = json.load(_f)


class Tracer:
    """In-memory spans (name, start, end, parent, request id) and integer
    counters, written out once when the benchmark ends. Disabled, every
    call is a no-op, so the end-to-end runs pay nothing for it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def add(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def dump(self, path: str) -> None:
        if not self.enabled:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
            f.write(json.dumps({"counters": self.counters}) + "\n")


# -- statistics -------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


@contextmanager
def no_gc():
    """Keep the load generator free of collector pauses while it times
    requests (collected once before and after)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- environment record -----------------------------------------------------


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(argv: List[str], seed: int) -> dict:
    import ray

    return {
        "command": argv,
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_version": ray.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- Ray session ------------------------------------------------------------


def ray_start() -> None:
    """Start a private local Ray session of ``CONFIG['cpus']`` CPUs.

    Workers get the checkout root on ``PYTHONPATH`` so they import
    ``lucene_ray`` whatever directory the benchmark was started from."""
    import ray

    # Ray's session goes under the work dir. Its unix sockets sit at
    # <temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store, and an
    # AF_UNIX path may hold at most 107 bytes, which a path through a long
    # checkout exceeds. So Ray is given the work dir by a short alias that
    # fits whatever the checkout's path: /proc/<pid>/fd/<fd> of a
    # descriptor this process keeps open on it.
    global _work_fd
    if _work_fd is None:
        os.makedirs(WORK_DIR, exist_ok=True)
        _work_fd = os.open(WORK_DIR, os.O_RDONLY | os.O_DIRECTORY)
    ray.init(
        address="local",
        num_cpus=CONFIG["cpus"],
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=CONFIG["object_store_mb"] << 20,
        runtime_env={"env_vars": {"PYTHONPATH": REPO_ROOT}},
        _temp_dir=f"/proc/{os.getpid()}/fd/{_work_fd}/{RAY_TEMP_DIR}",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def _children() -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        out.setdefault(ppid, []).append(int(entry))
    return out


def _descendants(root: int) -> List[int]:
    children = _children()
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def ray_stop() -> None:
    """Shut the session down and wait until every process it started has
    ended (``ray.shutdown`` itself does not wait); stragglers get SIGKILL
    after 30 s."""
    import ray

    if not ray.is_initialized():
        return
    procs = _descendants(os.getpid())
    ray.shutdown()
    deadline = time.time() + 30
    while True:
        alive = [p for p in procs if _running(p)]
        if not alive:
            break
        if time.time() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.time() + 30
        time.sleep(0.05)
    for p in procs:  # reap the session's direct children
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass


def spawn_service(index_dir: str, tracer: Tracer):
    """Spawn and warm a searcher pool: the set-up a serving process pays.
    → (service, seconds)."""
    from lucene_ray.search.service import SearcherService

    warm = hot_base_queries()
    t0 = time.perf_counter()
    with tracer.span("service.spawn"):
        svc = SearcherService(index_dir, num_actors=CONFIG["actors"], k=CONFIG["k"])
    with tracer.span("service.warmup"):
        svc.warmup(warm)
    return svc, time.perf_counter() - t0


def rss_mb(pid: int, field: str = "VmRSS") -> float:
    """Resident set size (or its peak, ``VmHWM``) of ``pid`` from
    ``/proc/<pid>/status``; psutil is not available."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no {field} for pid {pid}")


def session_worker_pids() -> List[int]:
    """Pids of this Ray session's worker processes: the raylet's children
    whose process title starts with ``ray::``."""
    import ray
    from ray._private import ray_constants

    node = ray._private.worker.global_worker.node
    raylet = node.all_processes[ray_constants.PROCESS_TYPE_RAYLET][0].process.pid
    pids = []
    for pid in _children().get(raylet, []):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    pids.append(pid)
        except OSError:
            continue
    return pids


# -- corpora and indexes ----------------------------------------------------


def write_corpus(name: str, n_docs: int, seed: int) -> List[str]:
    """Generated ``pages`` corpus under the work dir, written afresh by
    this checkout's generator on every run (never reused across runs, so
    the corpus always comes from the code under test)."""
    from lucene_ray.corpus.generator import write_corpus as _write

    for old in glob.glob(os.path.join(WORK_DIR, f"{name}_[0-9]*_s[0-9]*")):
        shutil.rmtree(old)  # a corpus left by an earlier run
    out = os.path.join(WORK_DIR, f"{name}_{n_docs}_s{seed}")
    paths = _write(out, n_docs, n_files=CONFIG["corpus_files"], seed=seed)
    for p in paths:  # page cache warm: measure compute, not first disk read
        with open(p, "rb") as f:
            while f.read(1 << 22):
                pass
    return paths


def index_config(n_docs: int):
    from lucene_ray.index.config import IndexConfig

    # the bench.py layout: ~64 build partitions whatever the CPU count, 4
    # term buckets per segment (merge parallelism = merges x buckets)
    return IndexConfig(
        key_col="url",
        text_col="text",
        rows_per_segment=max(2000, n_docs // 64),
        num_buckets=4,
    )


def index_bytes(manifest) -> int:
    return int(sum(s["bytes"] for s in manifest.segments))


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


# -- query generators -------------------------------------------------------


def hot_queries() -> List[str]:
    """The query set of ``bench.py:build_query_set``: its 15-query base
    (single terms across the Zipf df range, disjunctions, conjunctions,
    one with a negation, exact phrases) cycled 408 times, 6120 queries."""
    from bench import build_query_set

    return [str(q["query"]) for q in build_query_set(0)]


def hot_base_queries() -> List[str]:
    """The distinct queries of ``hot_queries``, in first-seen order."""
    return list(dict.fromkeys(hot_queries()))


QUERY_CLASSES = ("term", "disjunction", "conjunction", "phrase")


def query_class(q: str) -> str:
    if q.startswith('"'):
        return "phrase"
    if q.startswith("+"):
        return "conjunction"
    return "disjunction" if " " in q else "term"


def zipf_queries(seed: int, n: int, vocab_seed: int = 42) -> List[str]:
    """Seeded mixed-shape stream over ``make_vocab(vocab_seed)`` with the
    corpus's own Zipf skew (alpha 1.1): ~30% term, 25% disjunction, 25%
    ``+a +b`` conjunction, 20% exact phrase."""
    from lucene_ray.corpus.generator import make_vocab

    vocab = make_vocab(seed=vocab_seed)
    nv = len(vocab)
    rng = np.random.default_rng([seed, 0x5EED])
    mix = CONFIG["zipf_mix"]
    shapes = rng.choice(
        len(QUERY_CLASSES), size=n, p=[mix[c] for c in QUERY_CLASSES]
    )
    ranks = np.minimum(rng.zipf(CONFIG["zipf_alpha"], size=(n, 3)) - 1, nv - 1)
    n_or = rng.integers(2, 4, size=n)
    out = []
    for i in range(n):
        w = [str(vocab[r]) for r in ranks[i]]
        shape = QUERY_CLASSES[shapes[i]]
        if shape == "term":
            out.append(w[0])
        elif shape == "disjunction":
            out.append(" ".join(w[: n_or[i]]))
        elif shape == "conjunction":
            out.append(f"+{w[0]} +{w[1]}")
        else:
            out.append(f'"{w[0]} {w[1]}"')
    return out


def repeat_share(queries: List[str]) -> float:
    """Share of requests whose query text was already sent earlier."""
    return 1.0 - len(set(queries)) / len(queries) if queries else 0.0


def import_searcher_s() -> float:
    """Wall time of ``import lucene_ray.search.searcher`` in a fresh
    interpreter (median of three)."""
    env = dict(os.environ, PYTHONPATH=REPO_ROOT)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import lucene_ray.search.searcher"],
            env=env,
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return median(times)
