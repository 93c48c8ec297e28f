"""End-to-end tests of the API layer: auth, routes, client."""

import numpy as np
import pytest

from repro import obs
from repro.api import (
    ApiKeyManager,
    Request,
    Router,
    TVDPClient,
    TVDPService,
    deserialize_classifier,
    image_from_payload,
    image_to_payload,
    schema,
)
from repro.core import TVDP, TemporalQuery
from repro.datasets import generate_lasan_dataset
from repro.errors import APIError, AuthenticationError
from repro.features import ColorHistogramExtractor
from repro.imaging import CLEANLINESS_CLASSES, solid_color
from repro.api.http import Response
from repro.resilience import FaultPlan, ManualClock
from tests.api import route_table


@pytest.fixture()
def service():
    platform = TVDP()
    platform.register_extractor(ColorHistogramExtractor())
    return TVDPService(platform, deterministic_keys=True)


@pytest.fixture()
def client(service):
    client = TVDPClient(service)
    user_id = client.register_user("usc", role="researcher")
    client.create_key(user_id)
    return client


@pytest.fixture()
def records():
    return generate_lasan_dataset(n_per_class=4, image_size=32, seed=0)


#: Every single-field mutation of a well-formed request to every route
#: the service registers, generated from the router's own declarations
#: (see ``tests/api/route_table.py``): nothing here names a route.
_DECLARED = TVDPService(TVDP()).router.declarations()
_SWEEP = route_table.sweep(_DECLARED)
_TAKES_A_QUERY = [route for route, d in _DECLARED.items() if d.body is schema.QUERY]
_SEARCH_SWEEP = [
    case for case in _SWEEP if case.route == "POST /search" and case.where == "body"
]
#: Everything else; where several routes take the same body (a query
#: spec), the search sweep above sends it to all of them.
_ROUTE_SWEEP = [
    case for case in _SWEEP if case.route not in _TAKES_A_QUERY or case.where != "body"
]


def _search_id(case):
    """``{'type': 'spatial'}-region.min_lat-nan``; a body that is not
    an object at all is its own id."""
    if not isinstance(case.body, dict):
        return str(case.body)
    return f"{{'type': '{case.body['type']}'}}-{case.field}-{case.mutation}"


_REGION = route_table.example(schema.REGION, "")
_REGION_QUERY = {"type": "spatial", "region": _REGION}
_OFF_EARTH = {"min_lat": 0, "min_lng": 0, "max_lat": 1e30, "max_lng": 1}


def _visual(vector, **extra):
    return {
        "type": "visual", "extractor": "color_hsv_20_20_10", "vector": vector, **extra
    }


@pytest.fixture(scope="module")
def table():
    return route_table.harness()


@pytest.fixture(scope="module")
def sharded_table():
    return route_table.harness(shards=4)


def upload_all(client, records):
    ids = []
    for record in records:
        body = client.add_image(
            record.image, record.fov, record.captured_at, record.uploaded_at,
            keywords=record.keywords,
        )
        ids.append(body["image_id"])
    return ids


class TestAuth:
    def test_issue_validate_revoke(self):
        platform = TVDP()
        manager = ApiKeyManager(platform.db, deterministic_seed=1)
        user = platform.add_user("x", role="citizen")
        key = manager.issue(user)
        assert manager.validate(key) == user
        assert manager.keys_of(user) == [key]
        manager.revoke(key)
        with pytest.raises(AuthenticationError):
            manager.validate(key)

    def test_missing_key_rejected(self):
        platform = TVDP()
        manager = ApiKeyManager(platform.db)
        with pytest.raises(AuthenticationError):
            manager.validate(None)
        with pytest.raises(AuthenticationError):
            manager.validate("bogus")

    def test_service_requires_key(self, service):
        response = service.handle(Request("GET", "/stats"))
        assert response.status == 401

    def test_key_for_unknown_user_404(self, service):
        response = service.handle(
            Request("POST", "/keys", body={"user_id": 999})
        )
        assert response.status == 404

    def test_refusals_are_labelled_by_route_template_not_raw_path(self, service):
        """Bad-key requests to ``/nope/0`` ... ``/nope/4`` must not mint
        one ``api.errors`` series per path: a path no route takes counts
        as ``<unmatched>``, one a template fits as that template."""
        obs.reset()
        for n in range(5):
            assert service.handle(Request("GET", f"/nope/{n}", api_key="bad")).status == 401
        for n in range(2):
            assert service.handle(Request("GET", f"/images/{n}", api_key="bad")).status == 401
        refused = {
            name: value
            for name, value in obs.metrics().counter_values().items()
            if name.startswith("api.errors") and value
        }
        assert refused == {
            'api.errors{exception="AuthenticationError",route="<unmatched>"}': 5.0,
            'api.errors{exception="AuthenticationError",route="/images/{image_id}"}': 2.0,
        }


class TestRouter:
    def test_404_and_405(self):
        router = Router()
        router.add("GET", "/things/{id}", lambda r: Response(200, {"id": r.path_params["id"]}))
        assert router.dispatch(Request("GET", "/nothing")).status == 404
        assert router.dispatch(Request("POST", "/things/3")).status == 405
        ok = router.dispatch(Request("GET", "/things/3"))
        assert ok.status == 200 and ok.body["id"] == "3"

    def test_405_is_labelled_by_route_template_not_raw_path(self):
        """Hostile ``DELETE /images/1``, ``/images/2``, ... must not mint
        one metric series and one usage row per distinct path."""
        from repro import obs

        obs.reset()
        router = Router()
        router.add("GET", "/images/{image_id}", lambda r: Response(200, {}))
        for image_id in range(5):
            assert router.dispatch(Request("DELETE", f"/images/{image_id}")).status == 405
        rejected = {
            name: value
            for name, value in obs.metrics().snapshot()["counters"].items()
            # reset() zeroes earlier tests' series in place; only live ones count
            if name.startswith("api.requests") and 'status="405"' in name and value
        }
        assert rejected == {
            'api.requests{method="DELETE",route="/images/{image_id}",status="405"}': 5.0
        }
        operations = [row["key"] for row in obs.usage().report()["by_operation"]]
        assert operations == ["DELETE /images/{image_id}"]

    def test_exception_mapping(self):
        from tests.resilience.conftest import failing_stub

        router = Router()
        router.add("GET", "/boom", failing_stub(APIError(418, "teapot")))
        router.add("GET", "/crash", failing_stub(RuntimeError("oops")))
        assert router.dispatch(Request("GET", "/boom")).status == 418
        assert router.dispatch(Request("GET", "/crash")).status == 500


class TestClientRetries:
    """The client retries a server failure (5xx) and never a client
    error (4xx): repeating a bad request cannot fix it."""

    @staticmethod
    def count_handled(service, monkeypatch) -> list:
        handled: list = []
        handle = service.handle

        def counting(request):
            handled.append(request.path)
            return handle(request)

        monkeypatch.setattr(service, "handle", counting)
        return handled

    def test_a_4xx_is_one_attempt(self, service, client, monkeypatch):
        handled = self.count_handled(service, monkeypatch)
        obs.reset()
        with pytest.raises(APIError) as err:
            client.get_image(999)
        assert err.value.status == 404
        assert handled == ["/images/999"]
        assert len(obs.records().spans("client.request")) == 1

    def test_a_5xx_is_retried_until_the_route_answers(self, service, client, monkeypatch):
        stats = service.platform.stats
        failures = [RuntimeError("disk on fire"), RuntimeError("still on fire")]

        def flaky_stats():
            if failures:
                raise failures.pop(0)
            return stats()

        monkeypatch.setattr(service.platform, "stats", flaky_stats)
        handled = self.count_handled(service, monkeypatch)
        obs.reset()
        # An active plan's manual clock takes the backoff: no real sleep.
        with FaultPlan(seed=0, clock=ManualClock()).activate():
            body = client.stats()
        assert "rows" in body
        assert handled == ["/stats"] * 3
        statuses = [span.attrs["status"] for span in obs.records().spans("client.request")]
        assert statuses == [500, 500, 200]


class TestImagePayload:
    def test_round_trip(self):
        image = solid_color(8, 8, (0.2, 0.5, 0.8))
        restored = image_from_payload(image_to_payload(image))
        assert restored == image

    def test_bad_payload(self):
        with pytest.raises(APIError):
            image_from_payload({})
        with pytest.raises(APIError):
            image_from_payload({"pixels_u8": [[1, 2], [3, 4]]})

    @pytest.mark.parametrize("pixel", [1.5, True])
    def test_a_pixel_is_a_whole_level_not_a_fraction_or_a_bool(self, pixel):
        """``1.5`` used to be stored as level 1 (a 201), and ``true`` then
        deduplicated against it (a 200): both are a 400 naming the field,
        and nothing is stored."""
        harness = route_table.harness()
        body = route_table.example(schema.ROUTES["POST /images"].body, "")
        before = harness.state()
        for value in (1, pixel):
            body["image"] = {"pixels_u8": [[[value, 0, 0]]]}
            response = harness.call("POST", "/images", body)
        assert response.status == 400, response.body
        assert "'image.pixels_u8' must be an integer" in response.body["error"]["message"]
        route_table.assert_is_error_envelope(response)
        counts = harness.state()[0]
        assert counts["images"] == before[0]["images"] + 1  # the level-1 upload alone

    def test_a_level_is_one_image_however_it_is_spelt(self, table):
        body = route_table.example(schema.ROUTES["POST /images"].body, "")
        statuses = []
        for spelling in (7, 7.0, "7"):
            body["image"] = {"pixels_u8": [[[spelling, 1, 2]]]}
            statuses.append(table.call("POST", "/images", body).status)
        assert statuses == [201, 200, 200]


class TestDataRoutes:
    def test_upload_and_download(self, client, records):
        ids = upload_all(client, records[:3])
        assert len(set(ids)) == 3
        metadata = client.get_image(ids[0])["metadata"]
        assert metadata["image_id"] == ids[0]
        with_pixels = client.get_image(ids[0], include_pixels=True)
        restored = image_from_payload(with_pixels["image"])
        assert restored == records[0].image

    def test_duplicate_upload_flagged(self, client, records):
        first = records[0]
        client.add_image(first.image, first.fov, 0.0, 1.0)
        body = client.add_image(first.image, first.fov, 0.0, 1.0)
        assert body["deduplicated"] is True

    def test_unknown_image_404(self, client):
        with pytest.raises(APIError) as err:
            client.get_image(424242)
        assert err.value.status == 404

    def test_search_textual(self, client, records):
        upload_all(client, records)
        hits = client.search({"type": "textual", "text": "encampment tent"})
        assert hits
        assert all("image_id" in h for h in hits)

    def test_search_spatial(self, client, records):
        upload_all(client, records)
        region = {
            "min_lat": 34.03, "min_lng": -118.27, "max_lat": 34.06, "max_lng": -118.23,
        }
        hits = client.search({"type": "spatial", "region": region, "mode": "camera"})
        assert hits  # downtown region contains the dataset

    def test_search_bad_spec_400(self, client):
        with pytest.raises(APIError) as err:
            client.search({"type": "spatial"})
        assert err.value.status == 400
        with pytest.raises(APIError) as err:
            client.search({"type": "quantum"})
        assert err.value.status == 400

    @pytest.mark.parametrize("case", _SEARCH_SWEEP, ids=_search_id)
    def test_malformed_search_is_400_with_the_error_envelope(
        self, table, sharded_table, case
    ):
        """A spec of the wrong shape is the caller's fault: never a 500,
        never a quietly empty 200 — serial, sharded and under EXPLAIN."""
        for harness in (table, sharded_table):
            for route in _TAKES_A_QUERY:
                response = harness.send(case, route)
                if case.refused:
                    assert response.status == 400, (route, response.body)
                    assert response.body["error"]["type"] == "APIError"
                assert response.status < 500, (route, response.body)
                if not response.ok:
                    route_table.assert_is_error_envelope(response)

    @pytest.mark.parametrize(
        "body",
        [
            # Wrong only in what they mean, which no declaration of
            # types can say: the index's or the query model's to judge.
            _visual([0.1] * 7),
            _visual([0.1] * 50, k=0),
            {"type": "spatial"},
            {**_REGION_QUERY, "point": {"lat": 34.0, "lng": -118.2}, "radius_m": 50.0},
            {**_REGION_QUERY, "direction_deg": 90.0, "direction_tolerance_deg": -1.0},
            {"type": "hybrid", "queries": [_REGION_QUERY, _visual([0.1] * 7)]},
            {"type": "hybrid", "queries": [_REGION_QUERY]},
            {"type": "temporal", "start": 5.0, "end": 1.0},
            {"type": "textual", "text": "  "},
            # Finite numbers, but no distance to them is: this was a 200
            # with the three lowest ids at score 0.0.
            _visual([1e200] * 50, k=3),
            {"type": "hybrid", "queries": [_REGION_QUERY, _visual([1e200] * 50, k=3)]},
            # A finite box, but not one on Earth: this was a 200 too.
            {"type": "spatial", "region": _OFF_EARTH},
            {"type": "spatial", "point": {"lat": 0, "lng": 180.5}, "radius_m": 5.0},
        ],
        ids=lambda body: str(body)[:48],
    )
    def test_search_that_means_nothing_is_400(self, table, sharded_table, body):
        for harness in (table, sharded_table):
            for route in _TAKES_A_QUERY:
                method, path = route.split(" ")
                response = harness.call(method, path, body)
                assert response.status == 400, (route, response.body)
                route_table.assert_is_error_envelope(response)

    @pytest.mark.parametrize("k", [5.0, "5", "5.0"])
    def test_a_whole_k_is_accepted_however_it_is_spelt(self, client, records, k):
        """Only a bool or a fraction is rejected: the spellings ``int()``
        used to let through still mean 5."""
        for image_id in upload_all(client, records[:6]):
            client.get_features("color_hsv_20_20_10", image_id=image_id)
        assert len(client.search(_visual([0.1] * 50, k=5))) == 5
        assert client.search(_visual([0.1] * 50, k=k)) == client.search(
            _visual([0.1] * 50, k=5)
        )

    def test_flags_mean_what_they_always_meant(self, table):
        """The two flag conventions predate the table and each keeps its
        meaning: ``include_pixels`` is Python truthiness (so the text
        ``"0"`` is on), ``analyze`` is on unless text switches it off
        (so a bool ``False`` is on)."""
        for value, on in (("1", True), ("0", True), ("", False), (True, True),
                          (False, False), (0, False), (None, False)):
            body = table.call("GET", "/images/1", None, {"include_pixels": value}).body
            assert ("image" in body) is on, value
        for value, on in (("1", True), ("0", False), ("false", False), ("no", False),
                          ("", True), (False, True), (0, True), (None, True)):
            body = table.call("GET", "/debug/explain", _REGION_QUERY, {"analyze": value}).body
            assert body["analyze"] is on, value

    def test_a_path_id_is_exact_however_long(self, table):
        """Digits go through ``int``, not ``float``: an id above 2**53
        must not address its even neighbour."""
        assert schema.ID("9007199254740993") == 9007199254740993
        assert schema.ID("7.0") == schema.ID(7.0) == 7
        response = table.call("GET", "/images/9007199254740993")
        assert response.status == 404 and "9007199254740993" in str(response.body)

    @pytest.mark.parametrize("case", _ROUTE_SWEEP, ids=lambda case: case.id)
    def test_malformed_write_body_is_400_with_the_error_envelope(self, table, case):
        """A path, query or body field that is missing, ``null``, of the
        wrong type or out of any sane range is the caller's fault on
        every route: a 400 where the value is not of the declared kind
        (``route_table.must_refuse``), and never a 500 where it is and
        only the handler can tell what it means."""
        response = table.send(case)
        if case.refused:
            assert response.status == 400, response.body
            assert response.body["error"]["type"] == "APIError"
        assert response.status < 500, response.body
        if not response.ok:
            route_table.assert_is_error_envelope(response)

    @pytest.mark.parametrize(
        "case", [c for c in _SWEEP if c.where == "credential"], ids=lambda case: case.id
    )
    def test_a_credential_that_is_not_a_string_is_a_401_or_nobody(self, table, case):
        """An int, a list, a dict or bytes where the API key goes used to
        leave ``handle`` as a raw ``TypeError``: a route that asks for a
        key answers 401, an open one serves the request and bills it to
        ``anonymous`` — on every route."""
        def served_nobody() -> int:
            rows = obs.usage().report(top=None)["by_principal"]
            return sum(row["count"] for row in rows if row["key"] == "anonymous")

        case = table.resolve(case)
        before = served_nobody()
        response = table.send(case)
        if _DECLARED[case.route].open:
            assert response.ok, response.body
            assert served_nobody() == before + 1
        else:
            assert response.status == 401, response.body
            assert response.body["error"]["type"] == "AuthenticationError"
            route_table.assert_is_error_envelope(response)

    @pytest.mark.parametrize(
        "path, body",
        [
            # Of the right kinds and still a 400, as the hand-kept sweep
            # had them: a name nothing answers to, nothing to act on.
            ("/images/1/annotations", {"classification": "never defined", "label": "clean"}),
            ("/images/1/annotations", {"classification": "street_cleanliness", "label": "x"}),
            (f"/features/{route_table.EXTRACTOR}", {}),
            (f"/features/{route_table.EXTRACTOR}", {"image_id": None}),
            ("/classifications", {"name": "graffiti", "labels": []}),
            ("/campaigns", {"region": _OFF_EARTH}),  # was a 201
        ],
    )
    def test_write_that_means_nothing_is_400(self, table, path, body):
        response = table.call("POST", path, body)
        assert response.status == 400, response.body
        route_table.assert_is_error_envelope(response)

    def test_every_route_declares_its_request_and_has_a_well_formed_example(self):
        """The sweeps above mutate these requests, so each must succeed
        as it stands — and there must be one for every route."""
        fresh = route_table.harness()
        declared = fresh.service.router.declarations()
        assert sorted(declared) == fresh.service.router.routes() and len(declared) == 26
        assert all(isinstance(d, schema.Declaration) for d in declared.values())
        examples = route_table.well_formed(declared)
        assert {case.route for case in examples} == set(declared)
        for case in examples:
            response = fresh.send(case)
            assert response.ok, (case.route, response.body)

    @pytest.mark.parametrize(
        "method, path, params, body",
        [
            ("POST", f"/models/{route_table.MODEL}/train", {}, {"min_confidence": "abc"}),
            ("POST", f"/models/{route_table.MODEL}/predict", {}, {"image_id": "x"}),
            ("GET", "/campaigns/1/tasks", {"max_tasks": "x"}, None),
            ("GET", "/campaigns/1/tasks", {"rows": "x"}, None),
            ("GET", "/debug/resources", {"budget": "inf", "window_s": "inf"}, None),
            ("GET", "/debug/resources", {"budget": "nan"}, None),
            ("POST", "/images", {}, {"image": {"pixels_u8": [[[300, 0, 0]]]}}),
            ("GET", "/health", {"verbose": "1"}, None),  # undeclared parameter
        ],
    )
    def test_the_500s_the_hand_kept_tables_missed_are_400s(
        self, table, method, path, params, body
    ):
        if body is not None and "image" in body:
            body = {**route_table.example(schema.ROUTES["POST /images"].body, ""), **body}
        response = table.call(method, path, body, params)
        assert response.status == 400, response.body
        route_table.assert_is_error_envelope(response)

    def test_features_roundtrip(self, client, records):
        ids = upload_all(client, records[:2])
        by_image = client.get_features("color_hsv_20_20_10", image=records[0].image)
        by_id = client.get_features("color_hsv_20_20_10", image_id=ids[0])
        assert by_image.shape == (50,)
        assert np.allclose(by_image, by_id)

    def test_features_unknown_extractor_404(self, client, records):
        with pytest.raises(APIError) as err:
            client.get_features("nonexistent", image=records[0].image)
        assert err.value.status == 404


class TestDegradedShardedSearch:
    """A sharded search that lost a shard says so in its body; a healthy
    one says nothing it did not say before."""

    EVERYTHING = {"type": "temporal", "start": 0.0, "end": 1e12}

    @pytest.fixture()
    def sharded(self, records):
        """A 3-shard service over ``records`` and a search for all of them."""
        service = TVDPService(TVDP(shards=3, shard_grid=(4, 4)), deterministic_keys=True)
        client = TVDPClient(service)
        client.create_key(client.register_user("usc", role="researcher"))
        upload_all(client, records)
        request = Request("POST", "/search", body=self.EVERYTHING, api_key=client.api_key)
        return service, request

    def test_lost_shard_is_flagged_in_the_body(self, sharded, records):
        service, request = sharded
        # As many back-to-back faults as a dispatch has attempts: the
        # first shard dispatched is lost, the others answer.
        plan = FaultPlan(seed=0).kill("shard.dispatch", max_faults=3)
        with plan.activate():
            response = service.handle(request)
        assert response.status == 200
        assert response.body["partial"] is True
        assert len(response.body["failed_shards"]) == 1
        got = {row["image_id"] for row in response.body["results"]}
        serial = service.platform.execute_serial(TemporalQuery(start=0.0, end=1e12))
        assert len(serial) == len(records)
        assert got < {r.image_id for r in serial}

    def test_healthy_body_has_results_and_nothing_else(self, sharded, records):
        service, request = sharded
        response = service.handle(request)
        assert response.status == 200
        assert set(response.body) == {"results"}
        assert len(response.body["results"]) == len(records)


class TestModelRoutes:
    def setup_trained_model(self, client, service, records):
        ids = upload_all(client, records)
        platform = service.platform
        platform.catalog.define("street_cleanliness", list(CLEANLINESS_CLASSES))
        for image_id, record in zip(ids, records):
            platform.annotations.annotate(
                image_id, "street_cleanliness", record.label, 1.0, "human"
            )
        client.devise_model(
            "cleanliness_lr",
            extractor="color_hsv_20_20_10",
            classification="street_cleanliness",
            classifier="logistic_regression",
        )
        trained_on = client.train_model("cleanliness_lr")
        return ids, trained_on

    def test_devise_train_predict(self, client, service, records):
        ids, trained_on = self.setup_trained_model(client, service, records)
        assert trained_on == len(ids)
        result = client.predict("cleanliness_lr", image=records[0].image)
        assert result["label"] in CLEANLINESS_CLASSES
        assert 0.0 <= result["confidence"] <= 1.0

    def test_predict_with_annotate_writes_back(self, client, service, records):
        ids, _ = self.setup_trained_model(client, service, records)
        result = client.predict("cleanliness_lr", image_id=ids[0], annotate=True)
        assert result["annotated"] is True
        annotations = service.platform.annotations.annotations_of(ids[0])
        machine = [a for a in annotations if a.source == "machine"]
        assert machine and machine[0].annotator == "cleanliness_lr"

    def test_download_and_edge_side_load(self, client, service, records):
        self.setup_trained_model(client, service, records)
        payload = client.download_model("cleanliness_lr")
        assert payload["type"] == "LogisticRegression"
        model = deserialize_classifier(payload)
        vector = client.get_features("color_hsv_20_20_10", image=records[0].image)
        local = model.predict(vector[np.newaxis, :])[0]
        remote = client.predict("cleanliness_lr", image=records[0].image)["label"]
        assert str(local) == remote

    def test_devise_duplicate_409(self, client, service, records):
        self.setup_trained_model(client, service, records)
        with pytest.raises(APIError) as err:
            client.devise_model(
                "cleanliness_lr", "color_hsv_20_20_10", "street_cleanliness"
            )
        assert err.value.status == 409

    def test_train_without_annotations_409(self, client, service, records):
        upload_all(client, records[:2])
        service.platform.catalog.define(
            "street_cleanliness", list(CLEANLINESS_CLASSES)
        )
        client.devise_model(
            "empty_model", "color_hsv_20_20_10", "street_cleanliness",
            classifier="logistic_regression",
        )
        with pytest.raises(APIError) as err:
            client.train_model("empty_model")
        assert err.value.status == 409

    def test_unknown_model_404(self, client, records):
        with pytest.raises(APIError) as err:
            client.predict("ghost", image=records[0].image)
        assert err.value.status == 404

    def test_unknown_classifier_400(self, client):
        with pytest.raises(APIError) as err:
            client.devise_model("m", "color_hsv_20_20_10", "c", classifier="xgboost")
        assert err.value.status == 400

    def test_stats_lists_models(self, client, service, records):
        self.setup_trained_model(client, service, records)
        stats = client.stats()
        assert "cleanliness_lr" in stats["models"]
        assert stats["rows"]["images"] == len(records)
