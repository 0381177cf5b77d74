"""Benchmark of lucene_ray: ingest, serve_hot and serve_zipf workloads.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root.
"""
