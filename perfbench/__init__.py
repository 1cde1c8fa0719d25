"""Benchmark of ``illposed.experiment.run()``: workloads, tracer and checks.

Run it from the root of a checkout with ``python3 perfbench/run.py``; see
``perfbench/NOTES.md`` for the workloads, metrics and recorded baselines.
"""
