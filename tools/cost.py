"""What each step of a request, an upload or a query costs, in process.

One table of targets, ``TARGETS``; each row builds a checkout's side and
times one pass over a block of work on it.

``request``
    A served ``POST /search``, a spatial query asked three times before
    timing, so each timed one is a cache hit, walked as
    ``TVDPService.handle`` and ``Router.dispatch`` run it, the clock
    stopped between the nine steps of ``docs/observability.md``'s step
    table: (1) request id and route resolution, (2) the key check, (3)
    the unit opening (its billable scope and the ``http.request`` span),
    (4) the declaration check, (5) the query (its span, the answer and
    ``note_query``), (6) the response body, (7) the span closing and
    ``note_request``, (8) the unit closing, ``Unit.close`` without its
    fold, and (9) the fold, timed by wrapping the store's ``fold`` (so
    step 8 carries that one extra call).  ``handle``: a whole
    ``TVDPService.handle`` of it.  ``obs``: the bare instrumentation of
    one routed search with nothing inside — the router's billable scope
    and ``http.request`` span, a query's scope (which a routed search no
    longer opens; kept so that the row times the same calls on either
    side) and ``query.<family>`` span, their attributes, ``note_query``,
    ``note_request``, the unit's close and the store's own fold.  Row
    ``per_request``, µs per request.  Then one row per family: a cached
    ``serial_select`` search of the family (drawn from the side's own
    schedule) on ``serial_select``'s platform, built as ``miss`` builds
    it, through the same nine steps and a whole ``handle``; the
    categorical one answers about 250 rows at the full corpus.
``write``
    The write handlers' steps, each alone: the upload's decode
    (``image_from_payload``), its content hash, a feature request's HSV
    histogram (each at 8x8, what the benchmark uploads, and at 640x480,
    a camera frame of the paper's traffic, one call per pass), an
    ``images`` row's ``validate_row``, an annotation's
    ``Database.insert`` and a label's ``type_id``.  Row ``per_call``, µs
    per call.
``miss``, ``miss_broad``
    What the answer cache adds to a query it cannot answer, on
    ``serial_select``'s platform (the benchmark corpus, ingested through
    the API): per family, blocks of fresh queries through ``TVDP.answer``
    (the cache looked up, each key's first sighting noted) and through
    ``TVDP._answer(query, None)`` (the same execution with no cache, as
    the serial oracle and EXPLAIN ANALYZE take it), the arms alternating
    which goes first, the cache emptied before every pass: every cached
    run is its key's first sighting.  ``miss`` draws ``serial_select``'s
    queries, ``miss_broad`` ``serial_broad``'s (about a quarter of the
    corpus each).  A small parameter space is made unique without
    changing its access path: a ``min_confidence`` below every stored
    one, a vector nudged by far less than any distance between two
    images, a text's letters in another case.  Rows: the families;
    ``miss``, the median over blocks of (cached − uncached) µs per query,
    ``q1`` and ``q3`` its quartiles; ``query``, the uncached µs per query.
``shard``
    ``sharded_select``'s platform (the corpus on four shards) and its
    families' ``serial_select`` queries, walked through the router's
    steps: (1) prepare, each query's leaf; (2) prune, each part's
    ``survivors(cut)`` bitmask and the shard ids of their union; (3)
    dispatch, one retried dispatch of those shards; (4) pass, each
    part's task over every row (a part pruned everywhere: under the
    owner mask of no shard, as the router runs it); (5) answer, each part's answer and a
    general hybrid's combination of them (4 and 5 are ``run_leaf``, a
    general hybrid's part spans aside).  Then their ``sum``, the sharded
    runner ``TVDP._run_sharded`` (the router's ``answer``: the steps,
    the counters, the info dict, the span facts) and the serial one,
    ``TVDP._run``; nothing reaches the answer cache.  ``<family>.block``
    rows: each step over the whole block, then each runner (warm caches,
    each call after one like it); ``<family>.interleaved``: query by
    query, the steps and then the runners (each call after other work,
    as a served query comes after a request's parsing), plus ``over``
    (sharded − serial, the gap a served ``POST /search`` shows) and
    ``book`` (sharded − ``sum``, the router's bookkeeping).  µs per query.

A cell's time in a block is its fastest of ``--passes`` passes, its
figure the median over ``--blocks`` blocks of ``--reps`` calls per step
(``request``, ``write``) or of ``--block`` queries (the others).  The
defaults are each target's row of ``TARGETS``; ``--seed`` seeds the data.

    python3 tools/cost.py [TARGET ...] [OTHER_CHECKOUT] [--passes N] [--reps N]
                          [--blocks N] [--block N] [--seed N]

With no target named, every target runs.  Printed: one JSON line,
``{target: {row: {column: µs}}}``.  Given another checkout (the
parent's, say), its ``repro`` and ``bench`` are imported beside this
checkout's, both sides walk the same work, every pass runs both,
flipping which goes first, and each cell becomes ``{"this": µs,
"other": µs, "speedup": other / this}``, the ratio of the two printed
figures (``None`` unless both are above zero: ``over`` and ``book`` are
differences, and a difference's ratio is no speedup).  One process
keeps the heap and the host's load alike for both sides; two run one
after the other differ by more than a step does.  The other checkout needs what these
steps call: a flat request record (``obs.note_query``,
``RecordStore.fold``), a cut that is one table (``survivors(cut)``
bitmasks, the router's ``_shard_ids``) and a router that dispatches
once and runs one pass (``ScatterGatherExecutor.dispatch``); an older
one fails while its side is built or walked.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import random
import statistics
import sys
import time
from collections import defaultdict
from functools import partial, reduce
from operator import or_
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: The benchmark corpus's size for ``miss`` and ``shard``; ``None``: the
#: full profile's, as ``python3 -m bench`` runs it.
CORPUS: int | None = None
PACKAGES = ("repro", "bench")


def load(checkout: Path, build: Callable, seed: int) -> SimpleNamespace:
    """``build(seed)`` — one side — with the ``repro`` and ``bench``
    under ``checkout`` importable, any other checkout's modules of those
    packages set aside meanwhile and put back after."""
    aside = {k: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] in PACKAGES}
    paths = [str(checkout / "src"), str(checkout)]
    sys.path[:0] = paths
    try:
        return build(seed)
    finally:
        del sys.path[:len(paths)]
        for name in [k for k in sys.modules if k.split(".")[0] in PACKAGES]:
            del sys.modules[name]
        sys.modules.update(aside)


def per_query_us(run: Callable, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        run(query)
    return (time.perf_counter() - start) / len(queries) * 1e6


# -- request -------------------------------------------------------------------

STEPS = ("resolve", "authenticate", "open", "check", "query", "body", "close_spans",
         "unit_close", "fold")
#: A region holding a few of the generated images: a selective search.
SPEC = {
    "type": "spatial",
    "region": {"min_lat": 34.0, "min_lng": -118.3, "max_lat": 34.02, "max_lng": -118.28},
}


def served(seed: int) -> SimpleNamespace:
    """A served platform with a fold-timing store, its search cached;
    and the benchmark's platform with one ``serial_select`` search per
    family, each cached too."""
    from repro import TVDP, obs
    from repro.api import Request, TVDPService
    from repro.api.auth import principal_label
    from repro.api.http import Response, new_request_id
    from repro.datasets import generate_lasan_dataset

    platform = TVDP()
    service = TVDPService(platform, deterministic_keys=True)
    key = service.keys.issue(platform.add_user("cost", "researcher"))
    for record in generate_lasan_dataset(n_per_class=20, image_size=24, seed=seed):
        platform.upload_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
    bench = bench_platform(seed, sharded=False)
    rng = random.Random(f"{seed}:request_cost")
    store = obs.records()
    side = SimpleNamespace(
        obs=obs, Request=Request, Response=Response, principal_label=principal_label,
        new_request_id=new_request_id, fold_s=0.0, store=store,
        searches={"per_request": (service, key, SPEC)} | {
            family: (bench.service, bench.key, bench.schedule.select_spec(rng, family, bench.vectors))
            for family in bench.schedule.FAMILIES
        },
    )
    fold = store.fold

    def timed_fold(record) -> None:
        start = time.perf_counter()
        fold(record)
        side.fold_s += time.perf_counter() - start

    store.fold = side.timed_fold = timed_fold
    for search in side.searches.values():
        for _ in range(3):  # the third asking is answered by the cache
            assert handle(side, *search).status == 200
    return side


def handle(side: SimpleNamespace, service, key: str, spec: dict):
    return service.handle(side.Request("POST", "/search", body=dict(spec), api_key=key))


def walk_request(side: SimpleNamespace, service, key: str, spec: dict, reps: int) -> dict:
    """``reps`` requests walked step by step: µs per request by step."""
    obs, clock = side.obs, time.perf_counter
    totals = dict.fromkeys(STEPS, 0.0)
    side.fold_s = 0.0
    for _ in range(reps):
        request = side.Request("POST", "/search", body=dict(spec), api_key=key)
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
        stamps = (t0, t1, t2, t3, t4, t5, t6, t7, t8)
        for step, start, end in zip(STEPS, stamps, stamps[1:]):
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


def request_pass(side: SimpleNamespace, reps: int) -> dict:
    """Each search's steps and whole ``handle``; ``obs`` on the first row."""
    rows = {}
    for row, search in side.searches.items():
        rows[row] = walk_request(side, *search, reps)
        rows[row]["handle"] = per_query_us(lambda _: handle(side, *search), range(reps))
    rows["per_request"]["obs"] = bare(side, reps)
    return rows


# -- write ---------------------------------------------------------------------

def write_path(seed: int) -> SimpleNamespace:
    """The write path's steps, by name, each a call on one platform with
    the benchmark's catalog (16 districts, the five cleanliness labels)."""
    from bench.corpus import CLASSIFICATIONS
    from repro import TVDP
    from repro.api.schema import image_from_payload as decode
    from repro.geo import FieldOfView, GeoPoint
    from repro.imaging import hsv_histogram

    rng = np.random.default_rng(seed)
    small = rng.integers(0, 256, (8, 8, 3)).tolist()
    large = rng.integers(0, 256, (480, 640, 3)).tolist()
    image = decode({"pixels_u8": small})
    frame = decode({"pixels_u8": large})
    platform = TVDP()
    catalog = platform.catalog
    for name, labels in CLASSIFICATIONS.items():
        catalog.define(name, labels)
    name, labels = next(iter(CLASSIFICATIONS.items()))
    fov = FieldOfView(GeoPoint(34.05, -118.25), 90.0, 60.0, 100.0)
    image_id = platform.upload_image(image, fov, 0.0, 1.0).image_id
    images = platform.db.table("images")
    row = images.get(image_id)
    row.pop("image_id")
    annotation = {
        "image_id": image_id, "type_id": catalog.type_id(name, labels[-1]),
        "confidence": 0.9, "source": "human", "bbox": None, "annotator": None,
        "created_at": 0.0,
    }
    return SimpleNamespace(steps={
        "decode_8x8": lambda: decode({"pixels_u8": small}),
        "hash_8x8": image.content_hash,
        "histogram_8x8": lambda: hsv_histogram(image),
        "decode_640x480": lambda: decode({"pixels_u8": large}),
        "hash_640x480": frame.content_hash,
        "histogram_640x480": lambda: hsv_histogram(frame),
        "images_validate_row": lambda: images.schema.validate_row(row),
        "annotation_insert": lambda: platform.db.insert("image_content_annotation", annotation),
        "label_lookup": lambda: catalog.type_id(name, labels[-1]),
    })


def write_pass(side: SimpleNamespace, reps: int) -> dict:
    us = {}
    for step, call in side.steps.items():
        calls = 1 if step.endswith("640x480") else reps
        start = time.perf_counter()
        for _ in range(calls):
            call()
        us[step] = (time.perf_counter() - start) / calls * 1e6
    return {"per_call": us}


# -- the benchmark's platforms: miss and shard ---------------------------------

def bench_platform(seed: int, sharded: bool) -> SimpleNamespace:
    """The benchmark's platform, serial or on four shards."""
    from bench import corpus, schedule
    from bench.session import Session, build_query
    from repro.core import CategoricalQuery, TextualQuery, VisualQuery
    from repro.core.answercache import answer_key
    from repro.core.families import prepare

    size = CORPUS or schedule.FULL.corpus
    session = Session(sharded=sharded)
    for capture in corpus.captures(seed, 0, size):
        session.write(capture)
    assert session.failed == 0, session.problems
    side = SimpleNamespace(
        platform=session.platform, service=session.service, key=session.key,
        schedule=schedule, build_query=build_query,
        vectors=schedule.example_vectors(seed, size), answer_key=answer_key,
        prepare=prepare, Categorical=CategoricalQuery, Textual=TextualQuery,
        Visual=VisualQuery, warm={}, turns=itertools.count(),
    )
    if sharded:
        from repro.shard.router import _shard_ids

        side.router = session.platform._shard_router()
        side.cut, side.shard_ids = side.router._ensure(), _shard_ids
    return side


def nudged(side: SimpleNamespace, spec: dict, n: int):
    """``spec``'s query made the ``n``-th of a family's unique ones."""
    query = side.build_query(spec)
    if isinstance(query, side.Categorical):
        return dataclasses.replace(query, min_confidence=n * 1e-9)
    if isinstance(query, side.Visual):
        return side.Visual(query.extractor_name, vector=query.vector + n * 1e-9, k=query.k)
    if isinstance(query, side.Textual):
        # Terms are lowercased: the case of a letter changes the key only.
        text = "".join(c.upper() if n >> i & 1 else c for i, c in enumerate(query.text))
        return dataclasses.replace(query, text=text)
    return query


def fresh_blocks(spec_name: str, this: SimpleNamespace, side: SimpleNamespace, options) -> list:
    """Per family, ``--blocks`` blocks of ``--block`` queries drawn by
    ``this`` side's ``spec_name``, no two with the same cache key, built
    by ``side``; one more, kept in ``side.warm``, warms the family's path."""
    spec = getattr(this.schedule, spec_name)
    rng = random.Random(f"{options.seed}:miss_cost")
    blocks = []
    for family in this.schedule.FAMILIES:
        queries, keys = [], set()
        while len(queries) < (options.blocks + 1) * options.block:
            drawn = spec(rng, family, this.vectors)
            key = this.answer_key(nudged(this, drawn, len(queries) + 1))
            if key not in keys:
                keys.add(key)
                queries.append(nudged(side, drawn, len(queries) + 1))
        side.warm[family] = queries[-options.block:]
        blocks += [(family, queries[i:i + options.block])
                   for i in range(0, options.blocks * options.block, options.block)]
    return blocks


def miss_pass(side: SimpleNamespace, block: tuple) -> dict:
    family, queries = block
    platform = side.platform
    arms = {"cached": platform.answer, "uncached": lambda query: platform._answer(query, None)}
    if family in side.warm:
        per_query_us(arms["cached"], side.warm.pop(family))
    us = {}
    for arm in ("cached", "uncached") if next(side.turns) % 2 else ("uncached", "cached"):
        platform.close()  # a fresh answer cache
        us[arm] = per_query_us(arms[arm], queries)
    return {family: us}


def miss_figures(cells: dict) -> dict:
    figures = {}
    for family, arms in cells.items():
        diffs = [c - u for c, u in zip(arms["cached"], arms["uncached"])]
        q1, miss, q3 = statistics.quantiles(diffs, n=4) if len(diffs) > 1 else diffs * 3
        figures[family] = {"miss": miss, "q1": q1, "q3": q3,
                           "query": statistics.median(arms["uncached"])}
    return figures


SHARD_STEPS = ("prepare", "prune", "dispatch", "pass", "answer")


def select_blocks(this: SimpleNamespace, side: SimpleNamespace, options) -> list:
    """Per family, ``--blocks`` blocks of ``--block`` ``serial_select``
    queries, drawn by ``this`` side's schedule and built by ``side``."""
    rng = random.Random(f"{options.seed}:shard_cost")
    blocks = []
    for family in this.schedule.FAMILIES:
        specs = [this.schedule.select_spec(rng, family, this.vectors)
                 for _ in range(options.blocks * options.block)]
        blocks += [(family, [side.build_query(s) for s in specs[i:i + options.block]])
                   for i in range(0, len(specs), options.block)]
    return blocks


def walk_shard(side: SimpleNamespace, queries: list) -> dict[str, float]:
    """The router's steps, each over every query, their sum, then the
    sharded and the serial runner over them: µs per query by column."""
    platform, clock, cut = side.platform, time.perf_counter, side.cut
    t0 = clock()
    leaves = [side.prepare(query, platform) for query in queries]
    t1 = clock()
    groups = [[(part, part.survivors(cut)) for part in leaf.parts or (leaf,)] for leaf in leaves]
    wanted = [side.shard_ids(group[0][1] if len(group) == 1 else reduce(or_, [m for _, m in group]))
              for group in groups]
    t2 = clock()
    for shard_ids in wanted:
        side.router._executor.dispatch(shard_ids)
    t3 = clock()
    payloads = [[part.task(platform.slice, None if mask else cut.owns([])) for part, mask in group]
                for group in groups]
    t4 = clock()
    for leaf, group, loads in zip(leaves, groups, payloads):
        answers = [part.answer(load) for (part, _), load in zip(group, loads)]
        leaf.answer(answers) if leaf.parts else answers[0]
    t5 = clock()
    us = {step: (end - start) / len(queries) * 1e6
          for step, start, end in zip(SHARD_STEPS, (t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5))}
    us["sum"] = sum(us.values())
    us["sharded"] = per_query_us(platform._run_sharded, queries)
    us["serial"] = per_query_us(platform._run, queries)
    return us


def shard_pass(side: SimpleNamespace, block: tuple) -> dict:
    """The block both ways: the steps, then the runners, over all of it;
    then query by query, the mean of each query's steps and runners."""
    family, queries = block
    whole = walk_shard(side, queries)
    mixed = [walk_shard(side, [query]) for query in queries]
    interleaved = {column: statistics.fmean(us[column] for us in mixed) for column in whole}
    return {f"{family}.block": whole, f"{family}.interleaved": interleaved}


def medians(cells: dict) -> dict:
    return {row: {c: statistics.median(us) for c, us in columns.items()}
            for row, columns in cells.items()}


def shard_figures(cells: dict) -> dict:
    figures = medians(cells)
    for row, us in figures.items():
        if row.endswith(".interleaved"):
            us["over"], us["book"] = us["sharded"] - us["serial"], us["sharded"] - us["sum"]
    return figures


# -- the table, the timer, the command -----------------------------------------

@dataclasses.dataclass(frozen=True)
class Target:
    build: Callable  # seed -> one checkout's side
    run: Callable  # (side, block) -> one pass, {row: {column: µs}}
    defaults: dict  # the options this target sets
    #: (this side, the side, options) -> its blocks; default: --blocks of --reps calls
    work: Callable = lambda this, side, options: [options.reps] * options.blocks
    figures: Callable = medians  # {row: {column: [µs per block]}} -> {row: {column: µs}}


SERIAL, SHARDED = partial(bench_platform, sharded=False), partial(bench_platform, sharded=True)
TARGETS = {
    "request": Target(served, request_pass, {"passes": 15, "reps": 2000}),
    "write": Target(write_path, write_pass, {"passes": 15, "reps": 200}),
    "miss": Target(SERIAL, miss_pass, {"passes": 3, "blocks": 40, "block": 50},
                   partial(fresh_blocks, "select_spec"), miss_figures),
    "miss_broad": Target(SERIAL, miss_pass, {"passes": 3, "blocks": 40, "block": 50},
                         partial(fresh_blocks, "broad_spec"), miss_figures),
    "shard": Target(SHARDED, shard_pass, {"passes": 5, "blocks": 20, "block": 50},
                    select_blocks, shard_figures),
}
OPTIONS = {"passes": 1, "reps": 1, "blocks": 1, "block": 1, "seed": 0}


def measure(target: Target, sides: dict, options) -> dict:
    """Every block on every side, ``passes`` times, the sides flipping
    which goes first on every pass: per side, the figures of each cell's
    fastest pass per block."""
    names = list(sides)
    work = {name: target.work(sides["this"], side, options) for name, side in sides.items()}
    cells = {name: defaultdict(lambda: defaultdict(list)) for name in names}
    for index in range(len(work["this"])):
        passes = {name: [] for name in names}
        for number in range(options.passes):
            for name in names if number % 2 == 0 else names[::-1]:
                passes[name].append(target.run(sides[name], work[name][index]))
        for name, runs in passes.items():
            for row, columns in runs[0].items():
                for column in columns:
                    cells[name][row][column].append(min(run[row][column] for run in runs))
    return {name: target.figures(cells[name]) for name in names}


def paired(this: float, other: float) -> dict:
    """One cell of two checkouts, its speedup taken from the printed
    figures so that the three numbers agree."""
    speedup = round(other / this, 2) if this > 0 and other > 0 else None
    return {"this": this, "other": other, "speedup": speedup}


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="TARGET ... [OTHER_CHECKOUT]")
    for option in OPTIONS:
        parser.add_argument(f"--{option}", type=int)
    args = parser.parse_args(argv)
    chosen = [name for name in args.names if name in TARGETS] or list(TARGETS)
    others = [Path(name).resolve() for name in args.names if name not in TARGETS]
    if len(others) > 1 or not all(path.is_dir() for path in others):
        parser.error(f"targets are {', '.join(TARGETS)}; then one checkout directory at most")
    given = {k: v for k, v in vars(args).items() if k in OPTIONS and v is not None}
    found = {}
    for name in chosen:
        target = TARGETS[name]
        options = SimpleNamespace(**{**OPTIONS, **target.defaults, **given})
        checkouts = dict(zip(("this", "other"), [ROOT, *others]))
        sides = {side: load(path, target.build, options.seed) for side, path in checkouts.items()}
        figures = measure(target, sides, options)
        found[name] = {
            row: {
                column: round(us, 2) if not others else paired(
                    round(us, 2), round(figures["other"][row][column], 2)
                )
                for column, us in columns.items()
            }
            for row, columns in figures["this"].items()
        }
    print(json.dumps(found))
    return found


if __name__ == "__main__":
    main()
