"""Shared fixtures for the benchmark harness.

The expensive artefacts (dataset, feature matrices) are built once per
session; each bench then measures and prints its own table.  Benches
use ``benchmark.pedantic(rounds=1)`` because the measured units are
whole experiments, not microbenchmarks.

Every bench runs inside the autouse ``isolated_metrics`` fixture, which
resets the process-wide metrics before and after it.

Smoke mode (the ``TVDP_BENCH_SMOKE=1`` environment variable) shrinks
the size-swept benches via :func:`sized` and turns off the
timing-sensitive assertions (:data:`PERF_ASSERTS`) so the suite can
gate CI on shared runners.  The session corpus itself is *not*
shrunk — several benches assert against its exact size.
"""

import contextlib
import os

import numpy as np
import pytest

from repro import obs
from repro.analysis import build_feature_suite, feature_matrices
from repro.datasets import generate_lasan_dataset
from repro.obs import counters_delta

#: Scale of the synthetic LASAN corpus used by the experiment benches.
#: The paper's corpus is 22K images; 5 x 40 keeps the full pipeline
#: under a minute while preserving every qualitative shape.
N_PER_CLASS = 40
IMAGE_SIZE = 48
SEED = 0

#: Smoke mode: reduced sweep sizes, timing assertions off.  Read at
#: import time, so set the variable before pytest collects this file.
SMOKE = os.environ.get("TVDP_BENCH_SMOKE") == "1"

#: Wall-clock-sensitive assertions ("the index beats the scan by 10x")
#: hold on a quiet machine at full sizes but are noise on shared CI
#: runners at smoke sizes; benches gate them on this flag.
PERF_ASSERTS = not SMOKE


def sized(full, smoke):
    """Pick the smoke-mode variant of a size sweep in smoke mode."""
    return smoke if SMOKE else full


@pytest.fixture(scope="session")
def lasan_corpus():
    return generate_lasan_dataset(
        n_per_class=N_PER_CLASS, image_size=IMAGE_SIZE, seed=SEED
    )


@pytest.fixture(scope="session")
def feature_suite(lasan_corpus):
    return build_feature_suite(lasan_corpus, bow_words=48, seed=SEED)


@pytest.fixture(scope="session")
def matrices(lasan_corpus, feature_suite):
    return feature_matrices(lasan_corpus, feature_suite)


@pytest.fixture(autouse=True)
def isolated_metrics():
    """Reset the process-wide registry/tracer state before *and* after
    each bench, so no bench sees another's counters or slow-span
    exemplars (:func:`probe_counters` relies on it)."""
    obs.reset()
    yield
    obs.reset()


@contextlib.contextmanager
def probe_counters(out: dict, prefix: str = "index."):
    """Accumulate observability-counter increments produced inside the
    block into ``out`` (filtered to ``prefix``), so benches can report
    index-probe work (node visits, candidates, bucket hits) alongside
    wall time."""
    before = obs.snapshot()
    try:
        yield out
    finally:
        after = obs.snapshot()
        for name, delta in counters_delta(before, after).items():
            if name.startswith(prefix):
                out[name] = out.get(name, 0) + delta


def print_table(capsys, title, header, rows):
    """Uniform table printer that bypasses pytest capture so the tables
    land in the bench log."""
    with capsys.disabled():
        print(f"\n=== {title} ===")
        print(header)
        print("-" * len(header))
        for row in rows:
            print(row)
