"""End-to-end and per-layer benchmark of the repro package.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in a fresh worker process and prints its metrics; the
last line of standard output is the JSON result. See ``BENCHMARK.json``
for the workloads and metrics and ``perfbench/config.py`` for the sizes.
"""
