"""Benchmark for the normform CLI: seeded workloads, output checks, tracing.

Run ``python3 bench/run.py --workload reduce --seed 1 --seconds 10 --trace 0``
from the repository root; see ``bench/run.py`` for the measured metrics.
"""
