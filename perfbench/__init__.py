"""Repository benchmark: seeded workloads, output oracles and layer tracing.

See ``perfbench/README.md``; run ``python3 perfbench/run.py --help``.
"""
