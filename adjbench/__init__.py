"""The repository benchmark: seeded workloads driven through ``repro``'s
public API, end-to-end latency metrics, and a traced layer ledger.

Run ``python3 adjbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`adjbench.run`.
"""
