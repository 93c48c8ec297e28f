"""The repo benchmark: ``python -m bench``.

Four seeded workloads driven closed-loop from one client thread through
``TVDPService.handle``, every answer checked, end-to-end metrics from an
untraced run and per-layer metrics from a separate outside-in traced
run.  ``BENCHMARK.json`` at the repo root is the contract; ``README.md``
beside this file says which number should move where.

The package imports only ``repro``'s public API, numpy and the stdlib.
"""
