"""What each step of a sharded query costs, in process.

Builds ``sharded_select``'s platform (the benchmark corpus on four
shards, ingested through the API), then, per query family, walks blocks
of ``serial_select``'s queries through the shard router's steps: (1)
prepare — each query's leaf, on the whole catalog; (2) prune — each
part's surviving shards (one ``survivors(cut)`` call per part, a
bitmask, where the cut is one table) and their union; (3) dispatch — one retried
dispatch per surviving shard; (4) pass — each part's task, over every
row (or, in a checkout that masks every pass, over the rows of its
surviving shards); (5) answer — each part's answer, and a general
hybrid's combination of them.  Steps 4 and 5 are what the one runner,
``repro.core.families.run_leaf``, does (a general hybrid's part spans
aside).  Beside the steps: the whole sharded runner
(``TVDP._run_sharded``, which is the router's one query entry,
``ShardRouter.answer``: the steps plus the counters, the info dict and
the span facts) and the serial runner (``TVDP._run``).  Nothing here
reaches the answer cache.

Each block is timed two ways.  *Block*: each step over the whole block
before the next starts, then each runner over the whole block — warm
caches, each call after one just like it.  *Interleaved*: query by
query, the steps, then the sharded runner, then the serial one — each
call after other work, as a served query comes after a request's
parsing and bookkeeping; its ``over`` column is sharded − serial and
``book`` is sharded − the steps' sum (the router's bookkeeping).  Each
figure is a block's fastest of ``--passes`` passes, median over
``--blocks`` blocks; printed per family: µs per query.

    python3 tools/shard_cost.py [OTHER_CHECKOUT] [--blocks 20] [--block 50]
                                [--passes 5] [--seed 0]

Given another checkout's directory (the parent's, say), its ``repro``
and ``bench`` are loaded into this process beside this checkout's, both
walk the same queries, every pass alternates which side goes first, and
each family gets a row per side, one of speedups (other / this) in the
block table and one of µs saved (other − this) in the interleaved one:
the saving split into mask (``pass``), prune, dispatch and bookkeeping
(``book``).  A checkout from before the one-pass router — a scatter of
per-shard tasks, then a merge of their payloads — is walked with its
scatter as the dispatch step (the shards' scans included), no pass
step, and its merge as the answer step; one whose cut holds a
``ShardStats`` per shard is pruned by its router's ``_survivors``, a
shard list per part.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from functools import reduce
from operator import or_
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
STEPS = ("prepare", "prune", "dispatch", "pass", "answer")
COLUMNS = (*STEPS, "sum", "sharded", "serial")
#: The interleaved table: the steps and runners, then what they imply.
MIXED = (*COLUMNS, "over", "book")


def load(checkout: Path, seed: int) -> SimpleNamespace:
    """``sharded_select``'s platform built by the ``repro`` and ``bench``
    under ``checkout``, imported with any other checkout's set aside
    meanwhile, and what walking it needs."""
    packages = ("repro", "bench")
    aside = {k: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] in packages}
    paths = [str(checkout / "src"), str(checkout)]
    sys.path[:0] = paths
    try:
        from bench import corpus, schedule
        from bench.session import Session, build_query
        from repro.core.families import prepare
        from repro.shard import router as router_module

        session = Session(sharded=True)
        for capture in corpus.captures(seed, 0, schedule.FULL.corpus):
            session.write(capture)
        assert session.failed == 0, session.problems
        platform = session.platform
        router = platform._shard_router()
        cut = router._ensure()
        one_pass = hasattr(router_module.ScatterGatherExecutor, "dispatch")
        return SimpleNamespace(
            platform=platform, router=router, cut=cut, prepare=prepare, one_pass=one_pass,
            # A router whose cut caches owner masks masks every pass.
            masks=not one_pass or hasattr(cut, "_owners"),
            # None: the cut is one table, and a part prunes to a bitmask.
            survivors=getattr(router_module, "_survivors", None),
            shard_ids=getattr(router_module, "_shard_ids", None), build_query=build_query,
            select_spec=schedule.select_spec, families=schedule.FAMILIES,
            vectors=schedule.example_vectors(seed, schedule.FULL.corpus),
        )
    finally:
        del sys.path[:len(paths)]
        for name in [k for k in sys.modules if k.split(".")[0] in packages]:
            del sys.modules[name]
        sys.modules.update(aside)


def walk(side: SimpleNamespace, queries: list) -> dict[str, float]:
    """The block's steps, each over every query: µs per query by step."""
    platform, clock = side.platform, time.perf_counter
    catalog = platform.slice
    if side.one_pass:
        stats, executor = getattr(side.cut, "stats", None), side.router._executor
    else:
        stats, executor = side.cut
    t0 = clock()
    leaves = [side.prepare(query, platform) for query in queries]
    t1 = clock()
    if side.survivors is None:
        groups = [
            [(part, part.survivors(side.cut)) for part in leaf.parts or (leaf,)]
            for leaf in leaves
        ]
        wanted = [
            side.shard_ids(group[0][1] if len(group) == 1 else reduce(or_, [m for _, m in group]))
            for group in groups
        ]
    else:
        groups = [
            [(part, side.survivors(part, stats)) for part in leaf.parts or (leaf,)]
            for leaf in leaves
        ]
        wanted = [
            group[0][1] if len(group) == 1 and not side.masks
            else sorted({s for _, survivors in group for s in survivors})
            for group in groups
        ]
    t2 = clock()
    if side.one_pass:
        for shard_ids in wanted:
            executor.dispatch(shard_ids)
        t3 = clock()
        payloads = [
            [
                part.task(catalog, side.cut.owns(tuple(survivors)) if side.masks else None)
                if survivors else part.empty
                for part, survivors in group
            ]
            for group in groups
        ]
        t4 = clock()
        for leaf, group, loads in zip(leaves, groups, payloads):
            answers = [part.answer(load) for (part, _), load in zip(group, loads)]
            leaf.answer(answers) if leaf.parts else answers[0]
    else:
        # The scatter: a batch of tasks per shard, their payloads back.
        payloads = []
        for group, shard_ids in zip(groups, wanted):
            batches = {
                s: [part.task for part, survivors in group if s in survivors] for s in shard_ids
            }
            results = executor.scatter(batches).results
            payloads.append([
                [results[s].payloads[batches[s].index(part.task)] for s in survivors]
                for part, survivors in group
            ])
        t3 = t4 = clock()
        for leaf, group, loads in zip(leaves, groups, payloads):
            answers = [part.merge(load) for (part, _), load in zip(group, loads)]
            leaf.merge(answers) if leaf.parts else answers[0]
    t5 = clock()
    spent = dict(zip(STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)))
    return {step: seconds / len(queries) * 1e6 for step, seconds in spent.items()}


def per_query_us(run, queries: list) -> float:
    start = time.perf_counter()
    for query in queries:
        run(query)
    return (time.perf_counter() - start) / len(queries) * 1e6


def measure(side: SimpleNamespace, queries: list) -> dict[str, float]:
    """One pass over a block: the steps, the sharded and the serial runner."""
    us = walk(side, queries)
    us["sum"] = sum(us.values())
    us["sharded"] = per_query_us(side.platform._run_sharded, queries)
    us["serial"] = per_query_us(side.platform._run, queries)
    return us


def interleave(side: SimpleNamespace, queries: list) -> dict[str, float]:
    """One interleaved pass over a block: query by query, the steps, the
    sharded runner and the serial one."""
    us = dict.fromkeys(COLUMNS, 0.0)
    for query in queries:
        for step, spent in walk(side, [query]).items():
            us[step] += spent
        us["sharded"] += per_query_us(side.platform._run_sharded, [query])
        us["serial"] += per_query_us(side.platform._run, [query])
    us = {column: total / len(queries) for column, total in us.items()}
    us["sum"] = sum(us[step] for step in STEPS)
    return us


def table(family: str, medians: dict, columns: tuple, compare: str) -> None:
    """A family's rows: one per side, then (given another side) the
    comparison — ``speedup`` (other / this) or ``saved`` (other − this)."""
    for name, row in medians.items():
        print(f"{family:<12}{name:<8}" + "".join(f"{row[c]:>10.2f}" for c in columns))
    if "other" in medians:
        other, this = medians["other"], medians["this"]
        if compare == "speedup":
            row = {c: other[c] / this[c] if this[c] else float("nan") for c in columns}
        else:
            row = {c: other[c] - this[c] for c in columns}
        print(f"{family:<12}{compare:<8}" + "".join(f"{row[c]:>10.2f}" for c in columns))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", type=Path)
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--block", type=int, default=50)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sides = {"this": load(ROOT, args.seed)}
    if args.other is not None:
        sides["other"] = load(args.other.resolve(), args.seed)
    this = sides["this"]
    rng = random.Random(f"{args.seed}:shard_cost")
    modes = {"block": measure, "interleaved": interleave}
    found: dict[str, dict] = {mode: {} for mode in modes}
    for family in this.families:
        specs = [
            this.select_spec(rng, family, this.vectors)
            for _ in range(args.blocks * args.block)
        ]
        per_block = {mode: {name: [] for name in sides} for mode in modes}
        for start in range(0, len(specs), args.block):
            block = specs[start:start + args.block]
            queries = {name: [side.build_query(s) for s in block] for name, side in sides.items()}
            best = {
                mode: {name: dict.fromkeys(COLUMNS, float("inf")) for name in sides}
                for mode in modes
            }
            for number in range(args.passes):
                order = list(sides) if number % 2 == 0 else list(sides)[::-1]
                for mode, run in modes.items():
                    for name in order:
                        for column, us in run(sides[name], queries[name]).items():
                            best[mode][name][column] = min(best[mode][name][column], us)
            for mode in modes:
                for name in sides:
                    per_block[mode][name].append(best[mode][name])
        for mode in modes:
            found[mode][family] = {
                name: {c: statistics.median(b[c] for b in blocks) for c in COLUMNS}
                for name, blocks in per_block[mode].items()
            }
    print("block: each step, then each runner, over the whole block")
    print(f"{'family':<12}{'side':<8}" + "".join(f"{c:>10}" for c in COLUMNS))
    for family, medians in found["block"].items():
        table(family, medians, COLUMNS, "speedup")
    print("interleaved: query by query, the steps, the sharded runner, the serial one")
    print(f"{'family':<12}{'side':<8}" + "".join(f"{c:>10}" for c in MIXED))
    for family, medians in found["interleaved"].items():
        for row in medians.values():
            row["over"], row["book"] = row["sharded"] - row["serial"], row["sharded"] - row["sum"]
        table(family, medians, MIXED, "saved")


if __name__ == "__main__":
    main()
