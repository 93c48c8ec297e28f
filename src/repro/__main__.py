"""``python -m repro`` — a two-minute guided tour of the platform.

Runs a miniature end-to-end cycle (upload, query, annotate, translate,
dispatch) and narrates what happened at each step.  Pass ``--stats`` to
also dump the observability snapshot (counters, gauges, latency
histograms) the tour produced; add ``--json`` to suppress all
narration and emit the snapshot as one machine-readable JSON document
(metrics + SLO health + breaker states + hot queries) on stdout, for
piping into ``jq`` or a collector.  Pass ``--chaos`` to run a fault-drill
on top: a seeded :class:`~repro.resilience.FaultPlan` (seed from
``$REPRO_FAULT_SEED``) kills a share of edge transfers and the first
database save while the resilient fleet/persistence paths ride it out —
then prints what was injected, what retried, and how the breakers and
SLOs look afterwards.  The full experiment reproductions live in
``examples/`` and ``benchmarks/``.

The narration goes through :func:`repro.obs.console` — the library-wide
``no-print`` lint holds here too, and routing the tour through the
logging stack keeps its output joinable with trace ids when a host app
reconfigures the console formatter.
"""

from __future__ import annotations

import json
import sys

from repro import TVDP, __version__, obs
from repro.analysis import cluster_encampments
from repro.core import CategoricalQuery, SpatialQuery, TextualQuery, VisualQuery, explain
from repro.datasets import generate_lasan_dataset
from repro.edge import PAPER_DEVICES, PAPER_MODELS, dispatch_fleet
from repro.features import ColorHistogramExtractor
from repro.geo import BoundingBox
from repro.imaging import CLEANLINESS_CLASSES

_out = obs.console("tour")


def _chaos_drill(platform: TVDP) -> None:
    """Run the resilient fleet + persistence paths under a scripted
    fault plan and narrate what the platform absorbed."""
    import tempfile
    from pathlib import Path

    from repro.db.persistence import dump_database, load_database
    from repro.edge import (
        UploadPlan,
        dispatch_fleet_resilient,
        feature_vector_bytes,
        upload_fleet,
    )
    from repro.resilience import (
        FaultPlan,
        breaker_states,
        reset_breakers,
        seed_from_env,
    )

    seed = seed_from_env(default=0)
    _out.info("\n[chaos] fault drill, seed=%d ($REPRO_FAULT_SEED)", seed)
    reset_breakers()
    plan = (
        FaultPlan(seed=seed)
        .kill("edge.transfer", rate=0.3)
        .kill("db.save", at_calls={1})
    )
    with plan.activate():
        dispatch = dispatch_fleet_resilient(
            list(PAPER_DEVICES), list(PAPER_MODELS), 1_000.0, seed=seed
        )
        plans = {
            name: UploadPlan(
                n_items=32,
                bytes_per_item=feature_vector_bytes(512),
                device=decision.device,
            )
            for name, decision in dispatch.decisions.items()
        }
        transfers = upload_fleet(plans, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            snapshot = Path(tmp) / "tvdp.json"
            dump_database(platform.db, snapshot, seed=seed)
            restored = load_database(snapshot, seed=seed)
        _out.info(
            "  dispatched %d/%d devices, delivered %d/%d batches, "
            "snapshot round-tripped %d tables",
            len(dispatch.decisions),
            len(dispatch.decisions) + len(dispatch.failed),
            len(transfers.delivered),
            len(plans),
            len(restored.table_names()),
        )
        for name, reason in sorted(transfers.failed.items()):
            _out.info("  lost despite retries: %-18s %s", name, reason)
        _out.info("  faults injected: %s", json.dumps(plan.summary(), sort_keys=True))
        snap = obs.snapshot()
        retries = {
            key: value
            for key, value in snap["counters"].items()
            if key.startswith("resilience.retries")
        }
        _out.info("  retries: %s", json.dumps(retries, sort_keys=True))
        for name, state in breaker_states().items():
            _out.info(
                "  breaker %-24s %-9s trips=%d", name, state["state"], state["trips"]
            )
        health = obs.health()
        _out.info(
            "  health after drill: %s (virtual time elapsed: %.2fs, real sleeps: 0)",
            health["status"],
            plan.clock.now(),
        )


def _stats_document() -> dict:
    """The ``--stats --json`` payload: one document with everything the
    human-readable stats narration reports, machine-readable."""
    from repro.resilience import breaker_states

    return {
        "version": __version__,
        "metrics": obs.snapshot(),
        "health": obs.health(),
        "breakers": breaker_states(),
        "hot_queries": obs.records().top(),
        "latency_ms_window": obs.records().window_summaries(),
        "usage": obs.records().report(),
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(argv or ())
    show_stats = "--stats" in argv
    run_chaos = "--chaos" in argv
    as_json = "--json" in argv
    import logging

    if as_json:
        # Machine-readable mode: mute the console branch so the only
        # bytes on stdout are the final JSON document.
        logging.getLogger("tvdp.console").setLevel(logging.WARNING)
    _out.info("TVDP reproduction v%s — guided tour\n", __version__)

    platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))

    _out.info("[acquisition] uploading 50 synthetic LASAN street images...")
    records = generate_lasan_dataset(n_per_class=10, image_size=40, seed=0)
    for record in records:
        receipt = platform.upload_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
        platform.annotations.annotate(
            receipt.image_id, "street_cleanliness", record.label, 1.0, "human"
        )
    platform.extract_features("color_hsv_20_20_10")
    _out.info("             rows: %s images\n", platform.stats()["rows"]["images"])

    _out.info("[access] one query per family:")
    block = BoundingBox(34.035, -118.26, 34.05, -118.24)
    for query in (
        SpatialQuery(region=block),
        TextualQuery(text="encampment tent"),
        CategoricalQuery("street_cleanliness", labels=("encampment",)),
        VisualQuery(extractor_name="color_hsv_20_20_10", example=records[0].image, k=5),
    ):
        plan = explain(platform, query, analyze=True)
        _out.info("  %s", plan.render().replace("\n", "\n  "))
    _out.info("")

    _out.info("[analysis -> translation] homeless study over shared annotations:")
    report = cluster_encampments(platform, min_confidence=0.5, eps_m=600.0, min_samples=2)
    _out.info(
        "  %s encampment sightings -> %s clusters (+%s isolated)\n",
        report.total_sightings, report.n_clusters, report.noise_sightings,
    )

    _out.info("[action] capability-aware model dispatch (1 s latency budget):")
    for name, decision in sorted(
        dispatch_fleet(list(PAPER_DEVICES), list(PAPER_MODELS), 1_000.0).items()
    ):
        _out.info(
            "  %-18s -> %-14s (%.0f ms predicted)",
            name, decision.model.name, decision.predicted_latency_ms,
        )
    if run_chaos:
        _chaos_drill(platform)

    _out.info("\ndone — see examples/ and benchmarks/ for the full reproductions.")

    if show_stats and as_json:
        document = _stats_document()
        logging.getLogger("tvdp.console").setLevel(logging.NOTSET)
        sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    elif show_stats:
        _out.info("\n[observability] metrics snapshot for this tour:")
        _out.info(json.dumps(platform.metrics_snapshot(), indent=2, sort_keys=True))
        health = obs.health()
        _out.info(
            "\n[observability] SLO health: %s (%s objectives)",
            health["status"], len(health["objectives"]),
        )
        for objective in health["objectives"]:
            _out.info(
                "  %-28s %-9s burn=%-7.2f %s",
                objective["objective"],
                objective["status"]
                + ("*" if objective["insufficient_data"] else ""),
                objective["burn_ratio"],
                objective["description"],
            )
        _out.info("  (* = fewer samples than the objective's minimum)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
