"""Benchmark of branchbox: seeded workloads, checks and a per-layer tracer."""
