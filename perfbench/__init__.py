"""The repository benchmark: end-to-end metrics on four workloads and a
traced run for the per-layer numbers.  See ``perfbench/README.md``;
the entry point is ``python3 perfbench/run.py``."""
