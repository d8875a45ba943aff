"""Training benchmark for the Hotline reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one named workload through the public ``TrainingEngine`` in a fresh
worker process and prints its metrics; see ``perfbench/README.md``.
"""
