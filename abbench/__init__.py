"""Seeded, closed-loop benchmark of the abcoulomb package.

``run.py`` is the entry point; ``workloads`` generates the inputs and runs
the operations, ``checks`` holds the output checks (built on scipy, not on
abcoulomb), and ``tracing`` wraps the package's public functions for the
per-layer run.
"""
