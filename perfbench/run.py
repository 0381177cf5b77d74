#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {ingest,serve_hot,serve_zipf} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}] \\
        [--late-limit-ms MS]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The line before it records the environment (command,
CPU count, OMP_NUM_THREADS, Ray version, git commit, seed), the metrics
the workload names itself and its deterministic work counters.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)
# the benchmark runs offline: Ray must not try to report usage statistics
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

WORKLOAD_NAMES = ("ingest", "serve_hot", "serve_zipf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--late-limit-ms", type=float, default=None,
                    help="serve_zipf only: p99 send lateness above which the "
                         "run is invalid (default: zipf_late_limit_ms in config.json)")
    args = ap.parse_args(argv)
    extra = {}
    if args.late_limit_ms is not None:
        if args.workload != "serve_zipf":
            ap.error("--late-limit-ms applies to serve_zipf only")
        extra["late_limit"] = args.late_limit_ms
    # the package under test is the checkout's own copy, never an installed one
    try:
        import lucene_ray
    except ImportError as e:
        print(f"cannot import lucene_ray from {REPO_ROOT}: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(lucene_ray.__file__))) != REPO_ROOT:
        print(f"lucene_ray comes from {lucene_ray.__file__}, not {REPO_ROOT}", file=sys.stderr)
        return 2

    from perfbench.common import (
        CONFIG, RAY_TEMP_DIR, WORK_DIR, Tracer, environment, median, ray_stop,
    )
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tracer = Tracer(bool(args.trace))
    try:
        run = WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, CONFIG["sizes"][args.size], **extra
        )
    finally:
        ray_stop()
        shutil.rmtree(os.path.join(WORK_DIR, RAY_TEMP_DIR), ignore_errors=True)
    tracer.dump(os.path.join(WORK_DIR, f"trace_{args.workload}_s{args.seed}.jsonl"))

    if args.trace:
        values = dict(run.layers)
        values.update(run.counters)
        values["loop.latency_p50_ms"] = run.latency_p50_ms
        values["loop.latency_p99_ms"] = run.latency_p99_ms
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": median(run.setup_s),
            "throughput_per_s": run.throughput_per_s,
            "rss_mb": run.rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "environment": environment([sys.executable] + sys.argv, args.seed),
        "workload": args.workload,
        "named": run.named,
        "counters": run.counters,
        "ops_failed_frac": run.failed / run.attempted,
        "setup_s_samples": run.setup_s,
    }))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
