"""Benchmark of the geothue library: four seeded workloads, measured end to
end with tracing off and per module with tracing on.

Entry points: ``run.py`` (one workload, one seed), ``sweep.py`` (every
workload over several seeds, with the steadiness check) and
``selftest.py`` (the reference checks catch corrupted answers).
``calibrate.py`` holds the kernel that the end-to-end timings are
scaled by.
"""
