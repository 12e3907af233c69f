"""The repo benchmark: three workloads, end-to-end and per-layer metrics.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see perfbench/README.md.
"""
