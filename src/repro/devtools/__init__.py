"""Static-analysis suite guarding the platform's architecture.

Fourteen rules, one table (``repro.devtools.check.RULES``), one
suppression mechanism (``docs/static_analysis.md`` has the catalogue
and the evidence each rule has earned).

Per-file AST lints (``layer-boundary`` in ``repro.devtools.layers``;
the other seven are rows of one table in ``repro.devtools.lint``, all
served by a single walk per module):

* **layer-boundary** — the package-dependency DAG (geo/imaging at the
  bottom, features/ml/index/db mid, core above, api/edge/crowd/analysis
  on top, ``obs`` importable everywhere) is machine-checked, including
  lazy function-local imports.
* **module-mutable-state** — module-level mutable state mutated
  outside a lock.
* **broad-except**, **mutable-default**, **no-print**, **geo-range**,
  **no-sleep** — silently-swallowing broad handlers, shared default
  arguments, ``print()`` in library code, out-of-range lat/lng
  literals, and real ``time.sleep``.
* **determinism** — wall-clock reads, unseeded/global RNG, raw
  entropy, and unordered-set iteration outside the sanctioned
  ``resilience.Clock`` / seeded-RNG seams.

Whole-program analyses, all standing on the one kit in
``repro.devtools.callgraph`` (symbol table, call graph with every body
walked once, root expansion + reachability, one ``propagate`` fixpoint
with witness chains, one blocking-call classification, one lock
resolver):

* **lock-order** — the lock-acquisition graph across the whole tree
  (interprocedurally, via may-acquire propagation) has no cycles and no
  lock is held across blocking IO/sleep/policy calls.  Runtime
  companion: ``repro.devtools.sanitizers`` ("tsan-lite"), enabled with
  ``REPRO_SANITIZE=1 pytest``.
* **dead-code** — public module-level symbols nothing in src or
  examples references.
* **hot-path** — per-item work on the query paths outside the
  ``COST_MODEL``.
* **thread-escape** / **atomicity** — every mutable attribute of a
  class shared across concurrent entry points is immutable,
  contextvar-scoped or guarded by one lock (classifications drift-gated
  in ``tools/concurrency_manifest.json`` and enforced at runtime by the
  lock-coverage sanitizer), and guarded state is not read or
  check-then-acted on outside its lock.
* **blocking-in-handler** — no blocking call is reachable from a
  routed HTTP handler.

Run the suite with ``python -m repro.devtools.check`` (or just
``python -m repro.devtools``); any finding fails the run.  The only way
to accept one is an inline ``devtools: allow[rule-id] — reason``
comment on (or directly above) the offending line.

This package deliberately imports nothing from the rest of ``repro`` —
it sits outside the layer DAG it enforces.  (The runtime sanitizer
reaches platform seams through ``importlib`` at install time only.)
"""
