"""What the answer cache adds to a query it cannot answer.

Builds ``serial_select``'s platform (the benchmark corpus, ingested
through the API), then, per query family, times blocks of fresh queries
through ``TVDP.answer`` (the cache is looked up and each key's first
sighting noted) and through the same execution with no cache
(``TVDP._answer(query, None)``, the path the serial oracle and EXPLAIN
ANALYZE take, which leaves the cache alone).  Each block runs
``--passes`` times per arm, the arms alternating which goes first, and
the cache is emptied before every pass, so every cached run of a query
is its key's first sighting: a miss.  An arm's time for a block is its
fastest pass (what is left of the host's noise is above it).  Printed
per family: the miss cost — the median over blocks of (cached −
uncached) µs per query — its quartiles, and the uncached µs per query.

    python3 tools/miss_cost.py [--blocks 40] [--block 50] [--passes 3] [--seed 0]

Specs come from the benchmark's own ``select_spec``.  Families with a
small parameter space are made unique without changing their access
path: a distinct ``min_confidence`` below every stored confidence, a
vector nudged by far less than any distance between two images, the
letters of a text in another case.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import corpus, schedule  # noqa: E402
from bench.session import Session, build_query  # noqa: E402
from repro.core import CategoricalQuery, TextualQuery, VisualQuery  # noqa: E402
from repro.core.answercache import answer_key  # noqa: E402


def fresh_queries(family: str, count: int, rng: random.Random, vectors: list) -> list:
    """``count`` queries of ``family``, no two with the same cache key."""
    out, keys = [], set()
    while len(out) < count:
        query = build_query(schedule.select_spec(rng, family, vectors))
        n = len(out) + 1
        if isinstance(query, CategoricalQuery):
            query = dataclasses.replace(query, min_confidence=n * 1e-9)
        elif isinstance(query, VisualQuery):
            query = VisualQuery(
                query.extractor_name, vector=query.vector + n * 1e-9, k=query.k
            )
        elif isinstance(query, TextualQuery):
            # Terms are lowercased: the case of a letter changes the key only.
            text = "".join(
                c.upper() if n >> i & 1 else c for i, c in enumerate(query.text)
            )
            query = dataclasses.replace(query, text=text)
        key = answer_key(query)
        if key not in keys:
            keys.add(key)
            out.append(query)
    return out


def per_query_us(run, queries: list) -> float:
    start = time.perf_counter()
    for query in queries:
        run(query)
    return (time.perf_counter() - start) / len(queries) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--block", type=int, default=50)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    session = Session(sharded=False)
    for capture in corpus.captures(args.seed, 0, schedule.FULL.corpus):
        session.write(capture)
    platform = session.platform
    vectors = schedule.example_vectors(args.seed, schedule.FULL.corpus)
    rng = random.Random(f"{args.seed}:miss_cost")

    def cached(query):
        return platform.answer(query)

    def uncached(query):
        return platform._answer(query, None)

    print(f"{'family':<12}{'miss +us':>10}{'q1':>8}{'q3':>8}{'query us':>10}")
    for family in schedule.FAMILIES:
        size = args.block
        queries = fresh_queries(family, (args.blocks + 1) * size, rng, vectors)
        blocks = [queries[i:i + size] for i in range(0, len(queries), size)]
        per_query_us(cached, blocks.pop())  # warm the family's path
        diffs, plain = [], []
        for block in blocks:
            best = {cached: float("inf"), uncached: float("inf")}
            for n in range(args.passes):
                for run in (cached, uncached) if n % 2 else (uncached, cached):
                    platform.close()  # a fresh answer cache
                    best[run] = min(best[run], per_query_us(run, block))
            diffs.append(best[cached] - best[uncached])
            plain.append(best[uncached])
        q1, miss, q3 = statistics.quantiles(diffs, n=4)
        print(
            f"{family:<12}{miss:>10.2f}{q1:>8.2f}{q3:>8.2f}"
            f"{statistics.median(plain):>10.1f}"
        )
    session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
