"""Benchmark for ruthvb: seeded workloads, end-to-end metrics, outside-in layer tracing.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see run.py.
"""
