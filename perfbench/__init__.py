"""The qcageom benchmark: workloads, output checks and per-layer tracing (see README.md)."""
