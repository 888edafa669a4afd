"""Repository benchmark: seeded workloads, correctness checks, metrics.

Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""
