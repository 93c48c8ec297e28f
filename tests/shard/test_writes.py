"""Writes interleaved with sharded queries: after every write, every
family's sharded answer is the serial one.

Each write — an upload, an annotation, a feature request for one image
or for all — that stores anything moves the catalog's write version, so
the next sharded query cuts a fresh partition over the grown catalog
(the repartition path); a re-upload or a cached vector stores nothing.
Hypothesis draws the writes and the queries; after each step all of
``make_queries``' families are asked on four shards and held to the
serial oracle, ids, order and score bits.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import FieldOfView, GeoPoint
from tests.shard.test_equivalence import (
    LABELS,
    PixelProbeExtractor,
    assert_equivalent,
    build_platform,
    image_specs,
    make_queries,
    query_params,
    tie_prone_image,
)

EXTRACTOR = PixelProbeExtractor.name

writes = st.lists(
    st.one_of(
        st.tuples(st.just("upload"), image_specs.map(lambda specs: specs[0])),
        st.tuples(
            st.just("annotate"),
            st.integers(0, 63),
            st.sampled_from(LABELS),
            st.sampled_from([0.3, 0.6, 0.9]),
            st.sampled_from(["human", "machine"]),
        ),
        st.tuples(st.just("features"), st.integers(0, 63)),
        st.tuples(st.just("features"), st.none()),
    ),
    min_size=1,
    max_size=8,
)


def apply(platform, write: tuple) -> None:
    """One write through the platform's public surface."""
    ids = platform.image_ids()
    if write[0] == "upload":
        spec = write[1]
        platform.upload_image(
            image=tie_prone_image(spec["levels"], spec["delta"]),
            fov=FieldOfView(GeoPoint(spec["lat"], spec["lng"]), spec["direction"], 60.0, 500.0),
            captured_at=float(spec["t"]),
            uploaded_at=float(spec["t"]) + 1.0,
            keywords=tuple(spec["keywords"]),
        )
    elif write[0] == "annotate":
        _, pick, label, confidence, source = write
        platform.annotations.annotate(
            ids[pick % len(ids)], "condition", label, confidence, source=source
        )
    elif write[1] is None:
        platform.extract_features(EXTRACTOR)
    else:
        platform.feature_vector(ids[write[1] % len(ids)], EXTRACTOR)


@settings(max_examples=20, deadline=None)
@given(specs=image_specs, steps=writes, params=query_params)
def test_sharded_equals_serial_after_every_write(specs, steps, params):
    platform = build_platform(specs)
    queries = make_queries(params)
    platform.set_shards(4)
    try:
        assert_equivalent(platform, queries, 4)
        for write in steps:
            apply(platform, write)
            assert_equivalent(platform, queries, 4)
    finally:
        platform.close()
