#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (a few minutes):

- every workload runs untraced and traced with one seed; each prints
  exactly the metrics ``BENCHMARK.json`` names, passes its output checks,
  and both runs give the same deterministic work counters;
- two seeds give different ``serve_zipf`` query streams;
- a ``serve_zipf`` run whose generator falls behind (here: a lateness
  limit of 0 ms) is reported invalid.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, REPO_ROOT)

from perfbench.common import zipf_queries  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402

# the counters a given seed must repeat exactly
DETERMINISTIC = (
    "result_rows",
    "total_hits_sum",
    "searcher.gte_share",
    "codecs.blocks_per_query",
    "index_bytes_per_doc",
    "segment.count",
    "merge.bytes_rewritten_per_doc",
)


def run(workload: str, seed: int, trace: int, *extra: str) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--size", "tiny",
         *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr[-3000:]}")
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return info, result


def main() -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    counters = {}
    for w in WORKLOAD_NAMES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            info, result = run(w, 1, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace {trace}: {result['failed']} failed")
            want = {m["name"] for m in spec[group]}
            if set(result["metrics"]) != want:
                problems.append(f"{w} trace {trace}: metrics {sorted(set(result['metrics']) ^ want)} differ")
            got = {k: info["counters"][k] for k in DETERMINISTIC}
            if counters.setdefault(w, got) != got:
                problems.append(f"{w}: counters did not repeat: {counters[w]} vs {got}")
        print(w, "ok" if not problems else problems, flush=True)
    other = run("serve_zipf", 2, 0)[0]["counters"]
    if all(other[k] == counters["serve_zipf"][k] for k in ("result_rows", "total_hits_sum")):
        problems.append("serve_zipf: seeds 1 and 2 gave the same counters")
    if zipf_queries(1, 500) == zipf_queries(2, 500):
        problems.append("serve_zipf: seeds 1 and 2 gave the same query stream")
    late = run("serve_zipf", 1, 0, "--late-limit-ms", "0")[1]
    if late["correct"] or not late["failed"]:
        problems.append("serve_zipf: a late generator did not make the run invalid")
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
