"""Model-based test: the answer cache never answers from a stale catalog.

A hypothesis ``RuleBasedStateMachine`` drives one platform through the
writes its users make — upload, annotate, extract features, localise a
scene, define a classification, issue an API key, save and load
(``restore``), re-shard — interleaved with queries drawn from a small
pool, so that repeats, and with them cache hits, are common.  After
every step, on a serial and on a 4-shard platform:

* ``platform.answer(q)`` equals the uncached serial runner
  (``TVDP._run``) for every query in the pool;
* ``db.version`` never decreases, and it moved on every step that
  changed a row (answering queries changes neither).
"""

from __future__ import annotations

import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.api.auth import ApiKeyManager
from repro.core import TVDP, load_platform, save_platform
from repro.db import Database
from repro.errors import QueryError
from repro.geo import FieldOfView, GeoPoint
from tests.shard.test_equivalence import (
    FIXED_PARAMS,
    LABELS,
    LATS,
    LNGS,
    PixelProbeExtractor,
    image_specs,
    make_queries,
    tie_prone_image,
)

POOL = make_queries(FIXED_PARAMS) + make_queries(
    dict(FIXED_PARAMS, mode="camera", k=2, max_distance=None, match="all")
)
#: Camera positions, two of them 180 m apart: their views overlap, so
#: ``localize_scene`` refines (rewrites) a scene row.
POSITIONS = [(LATS[0], LNGS[0]), (LATS[0], LNGS[0] + 0.002), (LATS[2], LNGS[1])]


def outcome(run, query) -> object:
    """What ``run(query)`` answers: its results, or the error it raised."""
    try:
        return run(query).results()
    except QueryError as exc:
        return type(exc).__name__


def rows_of(db: Database) -> dict:
    return {name: db.table(name).all_rows() for name in db.table_names()}


class AnswerCacheMachine(RuleBasedStateMachine):
    @initialize(shards=st.sampled_from([1, 4]), specs=image_specs.map(lambda s: s[:3]))
    def start(self, shards, specs):
        self.platform = TVDP(shards=shards, shard_grid=(3, 3))
        self.platform.catalog.define("condition", LABELS)
        self.platform.register_extractor(PixelProbeExtractor())
        for n, spec in enumerate(specs):
            self.upload(spec, POSITIONS[n])
        self.written = 0  # classifications defined, keys issued
        self.note_catalog()

    def note_catalog(self) -> None:
        self.db = self.platform.db
        self.version = self.db.version
        self.rows = rows_of(self.db)

    def image_id(self, pick: int) -> int:
        ids = self.platform.image_ids()
        return ids[pick % len(ids)]

    # -- writes ------------------------------------------------------------

    @rule(spec=image_specs.map(lambda s: s[0]), position=st.sampled_from(POSITIONS))
    def upload(self, spec, position):
        self.platform.upload_image(
            image=tie_prone_image(spec["levels"], spec["delta"]),
            fov=FieldOfView(GeoPoint(*position), spec["direction"], 60.0, 500.0),
            captured_at=float(spec["t"]),
            uploaded_at=float(spec["t"]) + 1.0,
            keywords=tuple(spec["keywords"]),
        )

    @rule(
        pick=st.integers(0, 63),
        label=st.sampled_from(LABELS),
        confidence=st.sampled_from([0.3, 0.6, 0.9]),
        source=st.sampled_from(["human", "machine"]),
    )
    def annotate(self, pick, label, confidence, source):
        self.platform.annotations.annotate(
            self.image_id(pick), "condition", label, confidence, source=source
        )

    @rule()
    def extract(self):
        self.platform.extract_features(PixelProbeExtractor.name)

    @rule(pick=st.integers(0, 63))
    def localize(self, pick):
        self.platform.localize_scene(self.image_id(pick))

    @rule()
    def define_classification(self):
        self.written += 1
        self.platform.catalog.define(f"scheme{self.written}", ["a", "b"])

    @rule()
    def issue_key(self):
        self.written += 1
        user_id = self.platform.add_user(f"user{self.written}", role="researcher")
        ApiKeyManager(self.platform.db, deterministic_seed=self.written).issue(user_id)

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as directory:
            save_platform(self.platform, directory)
            reloaded = load_platform(directory)
        self.platform.restore(reloaded.db, reloaded.blobs())

    @rule(shards=st.sampled_from([1, 4]))
    def set_shards(self, shards):
        self.platform.set_shards(shards)

    # -- reads -------------------------------------------------------------

    @rule(index=st.integers(0, len(POOL) - 1))
    def query(self, index):
        query = POOL[index]
        assert outcome(self.platform.answer, query) == outcome(self.platform._run, query)

    @invariant()
    def answers_are_fresh_and_the_version_honest(self):
        db = self.platform.db
        if db is self.db:
            assert db.version >= self.version
            if rows_of(db) != self.rows:
                assert db.version > self.version
        self.note_catalog()
        for query in POOL:
            assert outcome(self.platform.answer, query) == outcome(
                self.platform._run, query
            ), f"shards={self.platform.shards} {query!r}"
        assert db.version == self.version  # answering wrote nothing

    def teardown(self):
        if hasattr(self, "platform"):
            self.platform.close()


AnswerCacheMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestAnswerCache = AnswerCacheMachine.TestCase
