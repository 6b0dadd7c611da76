"""The repository benchmark: generate → validate → merge → simulate → serve.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh process and prints its
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``)
as the last line of standard output.  See ``perfbench/README.md``.
"""
