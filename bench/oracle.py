"""Brute-force oracle over the platform's public rows.

Every family is answered by a linear scan of the relational rows with
the public predicates (``FieldOfView.intersects_box``, ``tokenize``,
plain numpy), never through an index, so an index that drifts from its
rows is caught.  Used outside the timed region only.
"""

from __future__ import annotations

import math

import numpy as np

from repro import TVDP
from repro.geo import BoundingBox, FieldOfView, GeoPoint
from repro.index import tokenize

SCORE_TOL = 1e-9


class Oracle:
    def __init__(self, platform: TVDP, extractor: str) -> None:
        db = platform.db
        self._catalog = platform.catalog
        images = db.table("images").all_rows()
        self.ids = np.array([row["image_id"] for row in images])
        self.lat = np.array([row["lat"] for row in images])
        self.lng = np.array([row["lng"] for row in images])
        self.captured = np.array([row["timestamp_capturing"] for row in images])
        camera = {row["image_id"]: GeoPoint(row["lat"], row["lng"]) for row in images}

        self.fovs = {
            row["image_id"]: FieldOfView(
                camera[row["image_id"]],
                row["direction_deg"],
                row["angle_deg"],
                row["range_m"],
            )
            for row in db.table("image_fov").all_rows()
        }
        mbrs = [self.fovs[i].mbr() for i in self.ids]
        self._mbr = np.array(
            [[b.min_lat, b.min_lng, b.max_lat, b.max_lng] for b in mbrs]
        )

        words: dict[int, list[str]] = {}
        for row in db.table("image_manual_keywords").all_rows():
            words.setdefault(row["image_id"], []).append(row["keyword"])
        self._tokens = {i: tokenize(" ".join(w)) for i, w in words.items()}

        annotations = db.table("image_content_annotation").all_rows()
        self._ann_image = np.array([row["image_id"] for row in annotations])
        self._ann_type = np.array([row["type_id"] for row in annotations])
        self._ann_conf = np.array([row["confidence"] for row in annotations])

        features = [
            row
            for row in db.table("image_visual_features").all_rows()
            if row["extractor_name"] == extractor
        ]
        self._feat_ids = np.array([row["image_id"] for row in features])
        self._feat = np.array([row["vector"] for row in features], dtype=np.float64)
        row_of = {int(i): n for n, i in enumerate(self.ids)}
        self._feat_row = np.array([row_of[int(i)] for i in self._feat_ids])

    # -- per-family answers: [(image_id, score)] in the platform's order ------

    def answer(self, spec: dict) -> list[tuple[int, float]]:
        return getattr(self, "_" + spec["type"])(spec)

    def _in_box(self, box: BoundingBox, lat: np.ndarray, lng: np.ndarray) -> np.ndarray:
        return (
            (box.min_lat <= lat)
            & (lat <= box.max_lat)
            & (box.min_lng <= lng)
            & (lng <= box.max_lng)
        )

    def _spatial(self, spec: dict) -> list[tuple[int, float]]:
        box = BoundingBox.from_dict(spec["region"])
        direction = spec.get("direction_deg")
        tolerance = spec.get("direction_tolerance_deg", 45.0)
        if spec.get("mode", "scene") == "camera":
            candidates = self.ids[self._in_box(box, self.lat, self.lng)]
        else:
            m = self._mbr
            overlap = ~(
                (m[:, 0] > box.max_lat)
                | (m[:, 2] < box.min_lat)
                | (m[:, 1] > box.max_lng)
                | (m[:, 3] < box.min_lng)
            )
            candidates = self.ids[overlap]
        hits = []
        for image_id in candidates.tolist():
            fov = self.fovs[image_id]
            if direction is not None and not fov.direction_matches(direction, tolerance):
                continue
            if fov.intersects_box(box):
                hits.append(image_id)
        return [(i, 0.0) for i in sorted(hits)]

    def _temporal(self, spec: dict) -> list[tuple[int, float]]:
        lo = spec.get("start", -math.inf)
        hi = spec.get("end", math.inf)
        mask = (lo <= self.captured) & (self.captured <= hi)
        return [(i, 0.0) for i in sorted(self.ids[mask].tolist())]

    def _categorical(self, spec: dict) -> list[tuple[int, float]]:
        best: dict[int, float] = {}
        for label in spec["labels"]:
            type_id = self._catalog.type_id(spec["classification"], label)
            mask = (self._ann_type == type_id) & (
                self._ann_conf >= spec.get("min_confidence", 0.0)
            )
            for image_id, conf in zip(
                self._ann_image[mask].tolist(), self._ann_conf[mask].tolist()
            ):
                best[image_id] = max(best.get(image_id, 0.0), conf)
        return sorted(best.items())

    def _textual(self, spec: dict) -> list[tuple[int, float]]:
        terms = sorted(set(tokenize(spec["text"])))
        n_docs = len(self._tokens)
        df = {t: sum(1 for toks in self._tokens.values() if t in toks) for t in terms}
        scores: dict[int, float] = {}
        for image_id, toks in self._tokens.items():
            present = [t for t in terms if t in toks]
            if not present or (spec.get("match") == "all" and len(present) < len(terms)):
                continue
            score = 0.0
            for t in present:
                score += (toks.count(t) / max(len(toks), 1)) * math.log(
                    1.0 + n_docs / df[t]
                )
            scores[image_id] = score
        return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))

    def _ranked(self, vector: list, k: int, rows: np.ndarray) -> list[tuple[int, float]]:
        distances = np.linalg.norm(self._feat[rows] - np.asarray(vector), axis=1)
        ids = self._feat_ids[rows]
        order = sorted(range(len(ids)), key=lambda n: (float(distances[n]), int(ids[n])))
        return [(int(ids[n]), 1.0 / (1.0 + float(distances[n]))) for n in order[:k]]

    def _visual(self, spec: dict) -> list[tuple[int, float]]:
        return self._ranked(spec["vector"], spec["k"], np.arange(len(self._feat_ids)))

    def _hybrid(self, spec: dict) -> list[tuple[int, float]]:
        spatial, visual = spec["queries"]
        box = BoundingBox.from_dict(spatial["region"])
        inside = self._in_box(box, self.lat[self._feat_row], self.lng[self._feat_row])
        return self._ranked(visual["vector"], visual["k"], np.flatnonzero(inside))

    # -- comparison -----------------------------------------------------------

    def mismatch(self, spec: dict, results: list[dict]) -> str | None:
        """Why ``results`` (a ``POST /search`` body's list) is wrong for
        ``spec``, or ``None`` when it is right."""
        got = [(r["image_id"], r["score"]) for r in results]
        want = self.answer(spec)
        if spec["type"] == "visual":
            return self._visual_mismatch(spec, got, want)
        if [i for i, _ in got] != [i for i, _ in want]:
            return f"{spec['type']}: ids differ ({len(got)} got, {len(want)} expected)"
        for (image_id, a), (_, b) in zip(got, want):
            if abs(a - b) > SCORE_TOL:
                return f"{spec['type']}: score of image {image_id} is {a}, expected {b}"
        return None

    def _visual_mismatch(self, spec: dict, got: list, want: list) -> str | None:
        """LSH is approximate by design, so the exact top-k is not the
        reference.  What must hold: ``min(k, n)`` distinct hits in
        canonical order, each scored by its true distance, led by the
        query's own source image at distance zero."""
        if len(got) != len(want) or len({i for i, _ in got}) != len(got):
            return f"visual: {len(got)} hits, expected {len(want)} distinct"
        everything = np.arange(len(self._feat_ids))
        truth = dict(self._ranked(spec["vector"], len(everything), everything))
        for image_id, score in got:
            if abs(score - truth.get(image_id, -1.0)) > SCORE_TOL:
                return f"visual: image {image_id} scored {score}, not {truth.get(image_id)}"
        if got != sorted(got, key=lambda pair: (-pair[1], pair[0])):
            return "visual: hits are not in canonical order"
        if got and got[0] != want[0]:
            return f"visual: best hit is {got[0]}, expected {want[0]}"
        return None
