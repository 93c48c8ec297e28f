"""``tools/cost.py`` runs every target at minimal sizes and names its
cells as the step tools it replaced did; given a second checkout (this
one), it loads it beside this process's ``repro`` and pairs every cell."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MINIMAL = ["--passes", "1", "--reps", "2", "--blocks", "2", "--block", "3"]
FAMILIES = ("spatial", "visual", "categorical", "textual", "temporal", "hybrid")
MISS = {family: ("miss", "q1", "q3", "query") for family in FAMILIES}
SHARD = ("prepare", "prune", "dispatch", "pass", "answer", "sum", "sharded", "serial")
STEPS = ("resolve", "authenticate", "open", "check", "query", "body", "close_spans",
         "unit_close", "fold", "handle")
EXPECTED = {
    "request": {"per_request": (*STEPS, "obs")} | {family: STEPS for family in FAMILIES},
    "write": {"per_call": (
        "decode_8x8", "hash_8x8", "histogram_8x8", "decode_640x480", "hash_640x480",
        "histogram_640x480", "images_validate_row", "annotation_insert", "label_lookup",
    )},
    "miss": MISS,
    "miss_broad": MISS,
    "shard": {
        row: columns
        for family in FAMILIES
        for row, columns in (
            (f"{family}.block", SHARD), (f"{family}.interleaved", (*SHARD, "over", "book"))
        )
    },
}


@pytest.fixture(scope="module")
def cost():
    spec = importlib.util.spec_from_file_location("cost_tool", ROOT / "tools" / "cost.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.CORPUS = 120  # the benchmark corpus, cut to what a test can afford
    yield module
    del sys.modules[spec.name]


def shape(found: dict) -> dict:
    return {target: {row: tuple(cells) for row, cells in rows.items()}
            for target, rows in found.items()}


def test_every_target_alone(cost, capsys):
    found = cost.main(MINIMAL)
    assert shape(found) == EXPECTED
    assert all(
        isinstance(us, float) for rows in found.values() for cells in rows.values()
        for us in cells.values()
    )
    assert capsys.readouterr().out.count("\n") == 1  # one JSON line


def test_every_target_against_a_second_checkout(cost):
    before = {name: module for name, module in sys.modules.items()
              if name.split(".")[0] in ("repro", "bench")}
    found = cost.main([*MINIMAL, str(ROOT)])
    assert shape(found) == EXPECTED
    for rows in found.values():
        for cells in rows.values():
            for cell in cells.values():
                assert set(cell) == {"this", "other", "speedup"}
                # The speedup is the ratio of the printed figures, where both are positive.
                if cell["this"] > 0 and cell["other"] > 0:
                    assert cell["speedup"] == pytest.approx(
                        cell["other"] / cell["this"], abs=0.01, rel=0.01
                    )
                else:
                    assert cell["speedup"] is None
    # Both sides were set aside: this process's own modules are back.
    assert {name: module for name, module in sys.modules.items()
            if name.split(".")[0] in ("repro", "bench")} == before
