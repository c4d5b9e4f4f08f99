"""The DMPC benchmark: five workloads, end-to-end metrics, outside-in per-layer trace.

Self-contained: imports only the public API of ``src/repro`` and nothing from
the legacy ``benchmarks/`` scaffolding.  See ``bench/README.md``.
"""
