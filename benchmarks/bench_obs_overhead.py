"""Instrumentation overhead: what a billed unit of work and a span add
to a query.

The cost ledger (``repro.obs.accounting``) and the tracer ride the
serving hot path: ``Router.dispatch`` opens one ``ledger_scope`` per
request, every query runs inside spans, every index probe / row scan
calls ``charge*``, and the request's record is folded once when it
ends (``repro.obs.record``).  This bench pins those fixed costs down
and gates each against the *un-instrumented index query* timed in the
same run:

1. **Plain query** — a seeded R-tree range-query batch with no ledger
   active (``charge_probes`` takes the contextvar fast path).  This is
   the yardstick: work the platform does for the caller, untouched by
   anything measured here.  It is timed as ``tools/cost.py`` times a
   step: a sweep of the batch in short blocks of :data:`BLOCK` queries,
   each block its fastest of :data:`PASSES` passes, one sweep after
   every pair below; the figure is the median sweep.  (The fastest of
   the pairs' plain chunks read 26-47 µs across 20 smoke runs: a
   chunk-long minimum is one lucky moment of the host, which the
   median pair difference it divides is not.)
2. **Marginal metering cost** — the same batch in alternating *plain*
   and *ledgered* chunks (each query wrapped in its own registry-backed
   ``ledger_scope``: a billed unit of work — ledger, record, one fold
   into the principal and operation rows, the spend ring and the
   ``usage.*`` metrics).  Differencing the chunks of a pair isolates
   that fixed per-request cost; interleaving makes machine noise hit
   both modes equally.
3. **Span cost** — open + close of an empty root span on the
   process-wide tracer with the registry warm (every platform counter
   registered, the operation's worst-N full): a unit of work of one
   span — two counter snapshots, the record, one fold.

``overhead_pct`` = marginal metering cost (the median pair difference)
as a percentage of one plain query (the median sweep);
``span_pct`` = one span likewise.  The bench fails any run where either
exceeds its ceiling (:data:`OVERHEAD_LIMIT_PCT`, :data:`SPAN_LIMIT_PCT`),
smoke mode included — numerator and yardstick come from the same run
on the same machine, so the ratios survive slow CI runners.  The yardstick is deliberately *not* a served request: a
served request contains the very costs being gated, so dividing by it
let slower serving pass and made faster serving fail.  The wall time
of a real ``POST /search`` is still printed (``request_us``), ungated.
"""

import statistics
import time

import numpy as np

from benchmarks.conftest import print_table, sized
from repro import TVDP, obs
from repro.api import Request, TVDPService
from repro.datasets import generate_lasan_dataset
from repro.features import ColorHistogramExtractor
from repro.geo import BoundingBox, GeoPoint
from repro.index import RTree

REGION = BoundingBox(33.9, -118.5, 34.1, -118.3)
#: Not shrunk in smoke mode: the plain query over this index is the
#: yardstick both gated ratios divide by, so it must be the same query
#: in a smoke run (what CI gates) and a full one.
N_POINTS = 4_000
QUERIES_PER_CHUNK = sized(400, 250)
#: Back-to-back (plain, ledgered) chunk pairs.  Differencing within a
#: pair cancels machine drift; the median over pairs rejects outlier
#: pairs that caught a scheduler hiccup on one side.
PAIRS = 25
#: The yardstick's sweeps: blocks of this many queries, each timed as
#: its fastest of this many passes.
BLOCK = 25
PASSES = 5
REQUEST_CHUNKS = 4
REQUESTS_PER_CHUNK = sized(200, 80)
SPAN_CHUNKS = 5
SPANS_PER_CHUNK = sized(5_000, 2_000)
#: Hard ceilings on the two ratios.  Measured 28-36 % and 45-57 % when
#: set (the eager slow-span log this gate was added against read
#: 210 %): the ledger may cost half a query.  Since a span is its own
#: record and its samples are bucketed a row at a time, 20 smoke runs
#: read 16-29 % for a span (the ledger 25-49 %), so its ceiling is the
#: worst of them with a 1.5x margin.
OVERHEAD_LIMIT_PCT = 50.0
SPAN_LIMIT_PCT = 43.0


def build_index_workload(seed: int = 0):
    rng = np.random.default_rng(seed)
    rtree = RTree(max_entries=8)
    for i in range(N_POINTS):
        rtree.insert_point(
            i,
            GeoPoint(
                float(rng.uniform(REGION.min_lat, REGION.max_lat)),
                float(rng.uniform(REGION.min_lng, REGION.max_lng)),
            ),
        )
    queries = []
    for _ in range(QUERIES_PER_CHUNK):
        lat = float(rng.uniform(REGION.min_lat, REGION.max_lat - 0.02))
        lng = float(rng.uniform(REGION.min_lng, REGION.max_lng - 0.02))
        queries.append(BoundingBox(lat, lng, lat + 0.02, lng + 0.02))
    return rtree, queries


def run_index_chunk(rtree, queries, *, ledgered, table):
    """Wall seconds for one batch; ledgered mode opens one ledger per
    query (the serving pattern: one request, one scope, one fold)."""
    if ledgered:
        t0 = time.perf_counter()
        for query in queries:
            with obs.ledger_scope(
                table=table, principal="bench", operation="bench.spatial"
            ):
                rtree.search_range(query)
        return time.perf_counter() - t0
    t0 = time.perf_counter()
    for query in queries:
        rtree.search_range(query)
    return time.perf_counter() - t0


def sweep_us(rtree, queries) -> float:
    """µs per plain query over one sweep of ``queries``: each block of
    :data:`BLOCK` timed as its fastest of :data:`PASSES` passes."""
    total = 0.0
    for start in range(0, len(queries), BLOCK):
        block = queries[start:start + BLOCK]
        passes = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            for query in block:
                rtree.search_range(query)
            passes.append(time.perf_counter() - t0)
        total += min(passes)
    return total / len(queries) * 1e6


def build_service():
    platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    service = TVDPService(platform, deterministic_keys=True)
    api_key = service.keys.issue(platform.add_user("bench", "benchmark"))
    for record in generate_lasan_dataset(n_per_class=10, image_size=24, seed=0):
        platform.upload_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
    spec = {
        "type": "spatial",
        "region": {
            "min_lat": REGION.min_lat,
            "min_lng": REGION.min_lng,
            "max_lat": REGION.max_lat,
            "max_lng": REGION.max_lng,
        },
    }
    return service, api_key, spec


def run_request_chunk(service, api_key, spec):
    t0 = time.perf_counter()
    for _ in range(REQUESTS_PER_CHUNK):
        response = service.handle(
            Request(method="POST", path="/search", body=spec, api_key=api_key)
        )
        assert response.status == 200
    return time.perf_counter() - t0


def run_span_chunk():
    t0 = time.perf_counter()
    for _ in range(SPANS_PER_CHUNK):
        with obs.span("bench.unit"):
            pass
    return time.perf_counter() - t0


def test_accounting_overhead(benchmark, capsys):
    def run():
        table = obs.RecordStore(registry=obs.metrics())
        rtree, queries = build_index_workload()
        service, api_key, spec = build_service()
        # One untimed warmup per mode: caches, allocator, interning.
        run_index_chunk(rtree, queries, ledgered=False, table=table)
        run_index_chunk(rtree, queries, ledgered=True, table=table)
        run_request_chunk(service, api_key, spec)
        run_span_chunk()
        pairs, sweeps = [], []
        for _ in range(PAIRS):
            plain = run_index_chunk(rtree, queries, ledgered=False, table=table)
            ledgered = run_index_chunk(rtree, queries, ledgered=True, table=table)
            pairs.append((plain, ledgered))
            sweeps.append(sweep_us(rtree, queries))
        requests = [
            run_request_chunk(service, api_key, spec)
            for _ in range(REQUEST_CHUNKS)
        ]
        spans = [run_span_chunk() for _ in range(SPAN_CHUNKS)]
        return pairs, statistics.median(sweeps), min(requests), min(spans), table

    pairs, plain_query_us, request_s, span_s, table = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    diffs = sorted(ledgered - plain for plain, ledgered in pairs)
    marginal_us = diffs[len(diffs) // 2] / QUERIES_PER_CHUNK * 1e6
    request_us = request_s / REQUESTS_PER_CHUNK * 1e6
    span_us = span_s / SPANS_PER_CHUNK * 1e6
    overhead_pct = marginal_us / plain_query_us * 100.0
    span_pct = span_us / plain_query_us * 100.0

    header = f"{'measure':<28}{'value':>14}"
    rows = [
        f"{'plain index query':<28}{plain_query_us:>11.2f} us",
        f"{'ledger marginal cost':<28}{marginal_us:>11.2f} us",
        f"{'empty span, warm registry':<28}{span_us:>11.2f} us",
        f"{'serving request (/search)':<28}{request_us:>11.2f} us",
        f"{'ledger / plain query':<28}{overhead_pct:>13.2f}%",
        f"{'span / plain query':<28}{span_pct:>13.2f}%",
    ]
    print_table(
        capsys,
        f"Instrumentation overhead: {QUERIES_PER_CHUNK} range queries/chunk, "
        f"N={N_POINTS}, {PAIRS} (plain, ledgered) pairs",
        header,
        rows,
    )

    # The ledgered chunks really metered: every query charged its probes
    # and absorbed into the table under the bench principal.
    report = table.report()
    bench_row = next(
        row for row in report["by_principal"] if row["key"] == "bench"
    )
    assert bench_row["count"] >= PAIRS * QUERIES_PER_CHUNK
    assert bench_row["cost"] > 0.0

    assert overhead_pct <= OVERHEAD_LIMIT_PCT, (
        f"ledger costs {overhead_pct:.1f}% of a plain query "
        f"(ceiling {OVERHEAD_LIMIT_PCT:g}%)"
    )
    assert span_pct <= SPAN_LIMIT_PCT, (
        f"a span costs {span_pct:.1f}% of a plain query "
        f"(ceiling {SPAN_LIMIT_PCT:g}%)"
    )
