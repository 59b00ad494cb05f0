"""Benchmark of mttsort: workloads, per-layer tracing and correctness checks.

Run it as ``python3 mttbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``mttbench/README.md``.
"""
