"""Per-shard physical plans.

A :class:`ShardTask` is the unit the coordinator runs against a shard:
an op name plus a spec dict (query objects and resolved parameters).
:func:`run_task` executes one task against one
:class:`~repro.shard.partition.ShardHandle`, mirroring the platform's
serial runners *exactly* over the shard's slice; the router merges the
per-shard payloads back into the serial answer.

Ranked ops return raw ``(item, distance)`` pairs or postings rather
than scored results: scoring and tie-breaking happen once, at the
coordinator, with the same float-operation order as serial execution —
that is what keeps merged scores bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.queries import SpatialQuery, TemporalQuery
from repro.errors import ShardError
from repro.geo.point import GeoPoint
from repro.shard.partition import ShardHandle


@dataclass(frozen=True)
class ShardTask:
    """One physical-plan step to run on one shard."""

    op: str
    spec: dict = field(default_factory=dict)


def _run_spatial(handle: ShardHandle, query: SpatialQuery) -> list:
    region = query.bounding_region()
    if query.mode == "scene":
        if query.point is not None and query.radius_m == 0.0:
            hits = handle.spatial.search_point(
                query.point.lat,
                query.point.lng,
                direction_deg=query.direction_deg,
                tolerance_deg=query.direction_tolerance_deg,
            )
        else:
            hits = handle.spatial.search_range(
                region,
                direction_deg=query.direction_deg,
                tolerance_deg=query.direction_tolerance_deg,
            )
    else:
        hits = []
        for image_id in handle.spatial.search_range(
            region,
            direction_deg=query.direction_deg,
            tolerance_deg=query.direction_tolerance_deg,
        ):
            row = handle.db.table("images").get(image_id)
            if region.contains_point(GeoPoint(row["lat"], row["lng"])):
                hits.append(image_id)
    return sorted(hits)


def _run_temporal(handle: ShardHandle, query: TemporalQuery) -> list:
    return sorted(
        handle.db.table("images").keys_in_range(query.field, query.start, query.end)
    )


def _run_categorical(handle: ShardHandle, spec: dict) -> dict:
    """Mirror of ``AnnotationService.images_with_label`` over resolved
    type ids (the coordinator resolves labels; shards must not depend on
    catalog name lookups at query time)."""
    out: dict = {}
    table = handle.db.table("image_content_annotation")
    for type_id in spec["type_ids"]:
        for row in table.find("type_id", type_id):
            if row["confidence"] < spec["min_confidence"]:
                continue
            if spec["source"] is not None and row["source"] != spec["source"]:
                continue
            image_id = row["image_id"]
            out[image_id] = max(out.get(image_id, 0.0), row["confidence"])
    return out


def run_task(handle: ShardHandle, task: ShardTask) -> object:
    """Execute one task against one shard; returns its payload."""
    spec = task.spec
    if task.op == "spatial":
        return _run_spatial(handle, spec["query"])
    if task.op == "temporal":
        return _run_temporal(handle, spec["query"])
    if task.op == "categorical":
        return _run_categorical(handle, spec)
    if task.op == "textual":
        return {"postings": handle.text.postings_for(spec["terms"])}
    if task.op == "visual_topk":
        pairs, candidates = handle.lsh[spec["extractor"]].topk_with_stats(
            spec["vector"], spec["k"]
        )
        return {"pairs": pairs, "candidates": candidates}
    if task.op == "visual_linear":
        return handle.lsh[spec["extractor"]].linear_topk(spec["vector"], spec["k"])
    if task.op == "visual_radius":
        return handle.lsh[spec["extractor"]].query_radius(
            spec["vector"], spec["radius"]
        )[: spec["k"]]
    if task.op == "hybrid_fused":
        return handle.hybrid[spec["extractor"]].spatial_visual_knn(
            spec["region"], spec["vector"], spec["k"]
        )
    raise ShardError(f"unknown shard op {task.op!r}")
