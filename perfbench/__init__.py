"""The repository's end-to-end benchmark.

Run one workload with::

    python3 perfbench/run.py --workload solve_refined --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics; ``perfbench/WORKLOADS.md`` records why each workload exists,
which layers it exercises and bypasses, and which per-layer metric should
move which end-to-end metric.  Importing this package pulls in nothing
beyond the standard library: ``run.py`` pins the BLAS thread count before
NumPy is first imported.
"""
