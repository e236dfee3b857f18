"""Epoch-based end-to-end benchmark of the DaVinci sketch package.

Run it from the repository root::

    python3 perfbench/run.py --workload ingest_tight --seed 1 --seconds 50 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the traced
run.
"""
