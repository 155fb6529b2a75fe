"""The repository's benchmark: a multi-process DSSP fleet under open-loop load.

``run.py`` is the entry point (see ``BENCHMARK.json`` at the repository
root for the command, workloads and metrics).  The benchmark's own tests
run with ``python -m pytest perfbench/tests`` from the repository root.
"""
