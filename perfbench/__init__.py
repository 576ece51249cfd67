"""End-to-end benchmark of the detector, its serving replica and the
fuzz/repair harness.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md`` for workloads and metrics."""
