"""Benchmark for su3kit; run it with ``python3 perfbench/run.py --help``."""
