"""The four workloads and the untraced run that yields the end-to-end
metrics.

The timed region adds nothing of the benchmark's own inside a request:
two clock reads around each ``handle`` call, and between requests the
host-speed sample of :mod:`bench.hostspeed`.  Answers are compared with
the oracle before and after it, never inside it.  Every time is at
reference host speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from bench import corpus, schedule
from bench.oracle import Oracle
from bench.schedule import FAMILIES, Sizes
from bench.session import Session, build_query, median, percentile

WARMUP_SEARCHES = 60
ORACLE_SAMPLE = 200
RELOAD_SAMPLE = 12

WORKLOADS = {
    "serial_select": "few results per query: index probes and the fixed per-request "
    "cost (api, obs, core) dominate; the shard layer does nothing",
    "serial_broad": "a quarter of the corpus per query: db row access and result "
    "materialisation dominate; an index-only change must show no effect",
    "sharded_select": "serial_select's requests on 4 shards with the default pool: "
    "the difference to serial_select is the shard layer's net effect",
    "ingest_mix": "uploads, annotations and feature requests beside searches, then "
    "save and load: what a faster read path costs the write path",
}


#: Workloads that run on ``TVDP(shards=4)``.
SHARDED = ("sharded_select",)


@dataclass
class Plan:
    """Everything a workload sends, generated before any clock starts."""

    base: list[corpus.Capture]
    searches: list[dict]
    cycles: list[schedule.WriteCycle]
    digest: str
    repeat_share: float


def plan(name: str, sizes: Sizes, seed: int) -> Plan:
    if name == "ingest_mix":
        vectors = schedule.example_vectors(seed, sizes.ingest_base)
        cycles = schedule.write_cycles(
            seed, sizes.ingest_base, sizes.ingest_cycles, vectors
        )
        return Plan(
            base=corpus.captures(seed, 0, sizes.ingest_base),
            searches=[c.search for c in cycles],
            cycles=cycles,
            digest=schedule.digest([c.payload() for c in cycles]),
            repeat_share=sum(c.reupload for c in cycles) / len(cycles),
        )
    vectors = schedule.example_vectors(seed, sizes.corpus)
    repeats = 0
    if name == "serial_broad":
        searches = schedule.broad_searches(seed, sizes.broad_requests, vectors)
    else:
        # The generator draws request by request, so a shorter schedule is
        # a prefix of a longer one: sharded_select's request i is
        # byte-identical to serial_select's request i.
        count = sizes.sharded_requests if name in SHARDED else sizes.select_requests
        searches, repeats = schedule.select_searches(seed, count, vectors)
    return Plan(
        base=corpus.captures(seed, 0, sizes.corpus),
        searches=searches,
        cycles=[],
        digest=schedule.digest(searches),
        repeat_share=repeats / len(searches),
    )


@dataclass
class Timings:
    """Latencies in seconds, as the client saw them."""

    search: dict[str, list[float]] = field(
        default_factory=lambda: {f: [] for f in FAMILIES}
    )
    in_order: list[float] = field(default_factory=list)  # every search, as sent
    raw: list[float] = field(default_factory=list)  # the same, unadjusted
    upload: list[float] = field(default_factory=list)
    cycle: list[float] = field(default_factory=list)

    def add_search(self, family: str, elapsed: float, raw: float) -> None:
        self.search[family].append(elapsed)
        self.in_order.append(elapsed)
        self.raw.append(raw)


def strided(items: list, count: int) -> list:
    step = max(1, len(items) // count)
    return items[::step][:count]


def check_against_oracle(session: Session, specs: list[dict]) -> None:
    oracle = Oracle(session.platform, corpus.EXTRACTOR)
    for spec in specs:
        results, _ = session.search(spec)
        problem = oracle.mismatch(spec, results)
        if problem:
            session.fail(problem)


def set_up(name: str, p: Plan) -> tuple[Session, Timings]:
    """Build the platform, ingest the base corpus through the API and
    warm every query path (on a sharded platform the first search builds
    the partition and starts the pool, so that lands here too).  The
    set-up time is the program's share of it, ``session.seconds`` on
    return: construction plus every request served."""
    session = Session(sharded=name in SHARDED)
    timings = Timings()
    for c in p.base:
        _, upload_s, cycle_s = session.write(c)
        timings.upload.append(upload_s)
        timings.cycle.append(cycle_s)
    for spec in p.searches[:WARMUP_SEARCHES]:
        session.search(spec)
    return session, timings


def cycle_budget(p: Plan, sizes: Sizes, seconds: float) -> int:
    """How many write cycles a run of ``seconds`` serves: a fixed count,
    not a deadline.  Every cycle grows the corpus, and a search over a
    larger corpus is slower, so under a deadline a faster write path (or
    a faster host) would finish more cycles and read as a slower search."""
    return min(len(p.cycles), max(1, round(sizes.ingest_cycles_per_s * seconds)))


def timed_phase(session: Session, p: Plan, seconds: float, cycles: int) -> Timings:
    """The measured closed loop: one client, next request only after the
    previous reply.  A read-only workload draws every request from one
    distribution, so it runs until ``seconds`` have passed (or the
    schedule ends); the write workload serves its first ``cycles``."""
    timings = Timings()
    if p.cycles:
        for cycle in p.cycles[:cycles]:
            _, upload_s, cycle_s = session.write(cycle.capture, cycle.reupload)
            _, search_s = session.search(cycle.search)
            timings.upload.append(upload_s)
            timings.cycle.append(cycle_s)
            timings.add_search(cycle.search["type"], search_s, session.last_raw)
        return timings
    deadline = time.perf_counter() + seconds
    for spec in p.searches:
        _, search_s = session.search(spec)
        timings.add_search(spec["type"], search_s, session.last_raw)
        if time.perf_counter() >= deadline:
            break
    return timings


def check_reload(session: Session, reloaded, specs: list[dict]) -> None:
    """A reloaded snapshot must answer like the platform it was saved from."""
    wanted = {family: RELOAD_SAMPLE // len(FAMILIES) for family in FAMILIES}
    for spec in specs:
        family = spec["type"]
        if not wanted[family]:
            continue
        wanted[family] -= 1
        query = build_query(spec)
        session.attempted += 1
        if reloaded.execute(query) != session.platform.execute_serial(query):
            session.fail(f"reloaded platform answers {family} differently")
        if not any(wanted.values()):
            break


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    notes: dict[str, object]


def run(name: str, sizes: Sizes, seed: int, seconds: float) -> Result:
    p = plan(name, sizes, seed)
    session, setup_timings = set_up(name, p)
    setup_s, raw_setup_s = session.seconds, session.raw_seconds
    try:
        check_against_oracle(session, strided(p.searches, ORACLE_SAMPLE))
        cycles = cycle_budget(p, sizes, seconds)
        timings = timed_phase(session, p, seconds, cycles)
        if p.cycles:
            check_against_oracle(
                session, strided(p.searches[:cycles], ORACLE_SAMPLE // 2)
            )
        else:
            # A read-only workload wrote only during set-up.
            timings.upload, timings.cycle = setup_timings.upload, setup_timings.cycle
        peak_rss_mb = session.peak_rss_mb()
    finally:
        session.close()

    searches = timings.in_order
    metrics = {
        "setup_s": (setup_s, "s"),
        "search_p95_ms": (percentile(searches, 95.0) * 1e3, "ms"),
        "search_rps": (len(searches) / sum(searches), "1/s"),
    }
    for family in FAMILIES:
        metrics[f"{family}_p50_ms"] = (median(timings.search[family]) * 1e3, "ms")
    metrics.update(
        {
            "upload_p50_ms": (median(timings.upload) * 1e3, "ms"),
            "upload_p95_ms": (percentile(timings.upload, 95.0) * 1e3, "ms"),
            "ingest_rps": (len(timings.cycle) / sum(timings.cycle), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    )
    notes = {
        "schedule_sha256": p.digest,
        "searches_timed": len(searches),
        "searches_per_family": {f: len(timings.search[f]) for f in FAMILIES},
        "uploads_timed": len(timings.upload),
        "write_cycles_timed": len(timings.cycle) if p.cycles else 0,
        "failed_share": session.failed / session.attempted,
        # To cross-check the adjusted numbers of two runs against raw ones.
        "host_slowdown": session.raw_seconds / session.seconds,
        "host_kernel_us": median(session.speed.samples) * 1e6,
        "raw": {
            "setup_s": raw_setup_s,
            "search_p50_ms": median(timings.raw) * 1e3,
            "search_p95_ms": percentile(timings.raw, 95.0) * 1e3,
            "search_rps": len(timings.raw) / sum(timings.raw),
        },
    }
    return Result(metrics, session.attempted, session.failed, session.problems, notes)
