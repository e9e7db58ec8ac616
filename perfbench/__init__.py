"""Host-time benchmark of the ProvLight reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives the library from outside through its public
calls and prints end-to-end metrics (``--trace 0``) or the per-layer
breakdown of a traced run (``--trace 1``).  See ``perfbench/NOTES.md``.
"""
