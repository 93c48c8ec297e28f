"""What each step of an upload / annotate / extract cycle costs, in process.

Times the steps the four write handlers run, each on its own: the
upload's decode (``image_from_payload``), its content hash, the HSV
histogram a feature request computes, an ``images`` row's
``validate_row``, an annotation's ``Database.insert``, and a label's
``type_id``.  The image steps run at two sizes: 8x8, what the benchmark
uploads, and 640x480, a camera frame of the paper's traffic.  Each step
runs ``--passes`` passes of ``--reps`` calls (one call at 640x480); its
time is its fastest pass.  Printed: one JSON line, µs per call by step.

    python3 tools/write_cost.py [OTHER_CHECKOUT] [--passes 15] [--reps 200]

Given another checkout's directory (the parent's, say), its ``repro`` is
loaded into this process beside this checkout's, every pass times each
step on both sides, alternating which goes first, and each step is
printed as ``{"this": µs, "other": µs, "speedup": other / this}``.  One
process keeps the heap and the host's load alike for both sides; two
processes run one after the other do not (at 640x480, two runs of one
checkout can differ by more than a change does).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: The benchmark's catalog: 16 districts and the five cleanliness labels.
CLASSIFICATIONS = {
    "district": [f"d{d}" for d in range(16)],
    "street_cleanliness": [
        "bulky_item", "illegal_dumping", "encampment", "overgrown_vegetation", "clean"
    ],
}


def load(checkout: Path) -> SimpleNamespace:
    """The write path of the ``repro`` under ``checkout/src``, imported
    with any other checkout's ``repro`` modules set aside meanwhile."""
    aside = {k: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] == "repro"}
    sys.path.insert(0, str(checkout / "src"))
    try:
        from repro import TVDP
        from repro.api.schema import image_from_payload
        from repro.geo import FieldOfView, GeoPoint
        from repro.imaging import hsv_histogram

        return SimpleNamespace(
            platform=TVDP(), decode=image_from_payload, histogram=hsv_histogram,
            fov=FieldOfView(GeoPoint(34.05, -118.25), 90.0, 60.0, 100.0),
        )
    finally:
        sys.path.remove(str(checkout / "src"))
        for name in [k for k in sys.modules if k.split(".")[0] == "repro"]:
            del sys.modules[name]
        sys.modules.update(aside)


def steps(side: SimpleNamespace, small: list, large: list, reps: int) -> dict:
    """Step name -> ``(call, calls per pass)``."""
    image = side.decode({"pixels_u8": small})
    frame = side.decode({"pixels_u8": large})
    platform, catalog = side.platform, side.platform.catalog
    for name, labels in CLASSIFICATIONS.items():
        catalog.define(name, labels)
    name, labels = next(iter(CLASSIFICATIONS.items()))
    image_id = platform.upload_image(image, side.fov, 0.0, 1.0).image_id
    images = platform.db.table("images")
    row = images.get(image_id)
    row.pop("image_id")
    annotation = {
        "image_id": image_id, "type_id": catalog.type_id(name, labels[-1]),
        "confidence": 0.9, "source": "human", "bbox": None, "annotator": None,
        "created_at": 0.0,
    }
    return {
        "decode_8x8": (lambda: side.decode({"pixels_u8": small}), reps),
        "hash_8x8": (image.content_hash, reps),
        "histogram_8x8": (lambda: side.histogram(image), reps),
        "decode_640x480": (lambda: side.decode({"pixels_u8": large}), 1),
        "hash_640x480": (frame.content_hash, 1),
        "histogram_640x480": (lambda: side.histogram(frame), 1),
        "images_validate_row": (lambda: images.schema.validate_row(row), reps),
        "annotation_insert": (
            lambda: platform.db.insert("image_content_annotation", annotation), reps
        ),
        "label_lookup": (lambda: catalog.type_id(name, labels[-1]), reps),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", type=Path)
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    small = rng.integers(0, 256, (8, 8, 3)).tolist()
    large = rng.integers(0, 256, (480, 640, 3)).tolist()
    sides = {"this": load(ROOT)}
    if args.other is not None:
        sides["other"] = load(args.other.resolve())
    timed = {side: steps(api, small, large, args.reps) for side, api in sides.items()}
    best = {side: dict.fromkeys(timed[side], float("inf")) for side in sides}
    for number in range(args.passes):
        order = list(sides) if number % 2 == 0 else list(sides)[::-1]
        for step in timed["this"]:
            for side in order:
                call, reps = timed[side][step]
                start = time.perf_counter()
                for _ in range(reps):
                    call()
                elapsed = (time.perf_counter() - start) / reps * 1e6
                best[side][step] = min(best[side][step], elapsed)
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
