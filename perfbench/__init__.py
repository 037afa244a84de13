"""End-to-end and per-layer benchmark of the aybe verification harness.

Run it from the repository root with ``python3 perfbench/run.py --help``.
"""
