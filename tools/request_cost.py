"""What each step of a served ``POST /search`` costs, in process.

Walks one request the way ``TVDPService.handle`` and ``Router.dispatch``
run it, stopping the clock between the nine steps of the step table in
``docs/observability.md``: (1) request id and route resolution, (2) the
key check, (3) the unit opening (its billable scope and the
``http.request`` span), (4) the
declaration check, (5) the query (its span, the answer — a cache hit:
the same spatial query every time — and ``note_query``), (6) the
response body, (7) the span closing and ``note_request``, (8) the unit
closing — ``Unit.close`` without its fold — and (9) the fold.  The fold
is timed by wrapping the store's ``fold``, so step 8 carries that one
extra call.  ``handle`` is a whole ``TVDPService.handle`` of the same
request, timed on its own; ``obs`` is the bare instrumentation of one
routed search, timed on its own with nothing inside it: the router's
billable scope and ``http.request`` span, the query's scope and
``query.<family>`` span, their attributes, ``note_query``,
``note_request``, the unit's close and the fold.  Each step's time is
its fastest of ``--passes`` passes of ``--reps`` requests.  Printed:
one JSON line, µs per request by step.

    python3 tools/request_cost.py [OTHER_CHECKOUT] [--passes 15] [--reps 2000]

Given another checkout's directory (the parent's, say), its ``repro`` is
loaded into this process beside this checkout's, every pass walks both,
alternating which goes first, and each step is printed as ``{"this":
µs, "other": µs, "speedup": other / this}`` — one process keeps the
heap and the host's load alike for both sides.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
STEPS = ("resolve", "authenticate", "open", "check", "query", "body", "close_spans",
         "unit_close", "fold")
#: A region holding a few of the generated images: a selective search.
SPEC = {
    "type": "spatial",
    "region": {"min_lat": 34.0, "min_lng": -118.3, "max_lat": 34.02, "max_lng": -118.28},
}


def load(checkout: Path) -> SimpleNamespace:
    """A served platform of the ``repro`` under ``checkout/src``, imported
    with any other checkout's ``repro`` modules set aside meanwhile."""
    aside = {k: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] == "repro"}
    sys.path.insert(0, str(checkout / "src"))
    try:
        from repro import TVDP, obs
        from repro.api import Request, TVDPService
        from repro.api.auth import principal_label
        from repro.api.http import Response, new_request_id
        from repro.datasets import generate_lasan_dataset

        platform = TVDP()
        service = TVDPService(platform, deterministic_keys=True)
        key = service.keys.issue(platform.add_user("cost", "researcher"))
        for record in generate_lasan_dataset(n_per_class=20, image_size=24, seed=0):
            platform.upload_image(
                record.image, record.fov, record.captured_at, record.uploaded_at,
                keywords=record.keywords,
            )
        store = obs.records()
        side = SimpleNamespace(
            obs=obs, service=service, key=key, Request=Request, Response=Response,
            principal_label=principal_label, new_request_id=new_request_id,
            fold_s=0.0, store=store,
        )
        fold = store.fold

        def timed_fold(record) -> None:
            start = time.perf_counter()
            fold(record)
            side.fold_s += time.perf_counter() - start

        store.fold = side.timed_fold = timed_fold
        for _ in range(3):  # the third asking is answered by the cache
            assert handle(side).status == 200
        return side
    finally:
        sys.path.remove(str(checkout / "src"))
        for name in [k for k in sys.modules if k.split(".")[0] == "repro"]:
            del sys.modules[name]
        sys.modules.update(aside)


def handle(side: SimpleNamespace):
    return side.service.handle(
        side.Request("POST", "/search", body=dict(SPEC), api_key=side.key)
    )


def walk(side: SimpleNamespace, reps: int) -> dict[str, float]:
    """``reps`` requests walked step by step: µs per request by step."""
    obs, service, clock = side.obs, side.service, time.perf_counter
    totals = dict.fromkeys(STEPS, 0.0)
    side.fold_s = 0.0
    for _ in range(reps):
        request = side.Request("POST", "/search", body=dict(SPEC), api_key=side.key)
        t0 = clock()
        request.request_id = side.new_request_id()
        template, _, declaration, params = service.router.resolve("POST", request.path)
        t1 = clock()
        request.user_id = service.keys.validate(request.api_key)
        t2 = clock()
        unit = obs.ledger_scope(table=obs.usage(), principal=side.principal_label(request.api_key))
        unit.__enter__()
        opened = obs.span(
            "http.request", remote_parent=None, method="POST", path=request.path,
            request_id=request.request_id,
        )
        span = opened.__enter__()
        t3 = clock()
        request.path_params, request.params, request.body = declaration.check(
            params, request.params, request.body
        )
        t4 = clock()
        answer = service.platform.answer(request.body)
        t5 = clock()
        side.Response(200, {
            "results": [{"image_id": i, "score": s} for i, s in answer.pairs()]
        })
        t6 = clock()
        span.set("route", template)
        span.set("status", 200)
        opened.__exit__(None, None, None)
        obs.note_request(request.request_id, "POST", template, 200, span)
        t7 = clock()
        unit.__exit__(None, None, None)
        t8 = clock()
        for step, (start, end) in zip(STEPS, [
            (t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5), (t5, t6), (t6, t7), (t7, t8),
        ]):
            totals[step] += end - start
    totals["unit_close"] -= side.fold_s
    totals["fold"] = side.fold_s
    return {step: seconds / reps * 1e6 for step, seconds in totals.items()}


def bare(side: SimpleNamespace, reps: int) -> float:
    """µs per bare instrumentation sequence of one routed search (the
    store's own fold, not the step table's timed one)."""
    obs, store = side.obs, side.store
    del store.fold
    try:
        start = time.perf_counter()
        for _ in range(reps):
            with obs.ledger_scope(table=store, principal="key:cost"):
                with obs.span(
                    "http.request", remote_parent=None, method="POST", path="/search",
                    request_id="req-cost",
                ) as span:
                    with obs.ledger_scope(store, principal="local", operation="execute.spatial"):
                        with obs.span("query.spatial") as query:
                            query.set("cache", "hit")
                            query.set("results", 1)
                        obs.note_query("spatial(region)", "spatial", query.duration_ms)
                    span.set("route", "/search")
                    span.set("status", 200)
                obs.note_request("req-cost", "POST", "/search", 200, span)
        return (time.perf_counter() - start) / reps * 1e6
    finally:
        store.fold = side.timed_fold


def whole(side: SimpleNamespace, reps: int) -> float:
    """µs per ``TVDPService.handle`` of the same request."""
    start = time.perf_counter()
    for _ in range(reps):
        handle(side)
    return (time.perf_counter() - start) / reps * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", type=Path)
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--reps", type=int, default=2000)
    args = parser.parse_args()
    sides = {"this": load(ROOT)}
    if args.other is not None:
        sides["other"] = load(args.other.resolve())
    best = {side: dict.fromkeys((*STEPS, "handle", "obs"), float("inf")) for side in sides}
    for number in range(args.passes):
        order = list(sides) if number % 2 == 0 else list(sides)[::-1]
        for side in order:
            for step, us in walk(sides[side], args.reps).items():
                best[side][step] = min(best[side][step], us)
            best[side]["handle"] = min(best[side]["handle"], whole(sides[side], args.reps))
            best[side]["obs"] = min(best[side]["obs"], bare(sides[side], args.reps))
    if args.other is None:
        print(json.dumps({step: round(us, 2) for step, us in best["this"].items()}))
        return
    print(json.dumps({
        step: {
            "this": round(best["this"][step], 2),
            "other": round(best["other"][step], 2),
            "speedup": round(best["other"][step] / best["this"][step], 2),
        }
        for step in best["this"]
    }))


if __name__ == "__main__":
    main()
