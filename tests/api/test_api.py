"""End-to-end tests of the API layer: auth, routes, client."""

import copy

import numpy as np
import pytest

from repro.api import (
    ApiKeyManager,
    Request,
    Router,
    TVDPClient,
    TVDPService,
    deserialize_classifier,
    image_from_payload,
    image_to_payload,
)
from repro.core import TVDP
from repro.datasets import generate_lasan_dataset
from repro.errors import APIError, AuthenticationError
from repro.features import ColorHistogramExtractor
from repro.imaging import CLEANLINESS_CLASSES, solid_color
from repro.api.http import Response


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


#: Well-formed write-path bodies (the repo benchmark's shapes), by route.
_WRITE_BODIES = {
    "/images": {
        "image": {"pixels_u8": [[[10, 20, 30]] * 8] * 8},
        "fov": {
            "lat": 34.0, "lng": -118.2, "direction_deg": 10.0,
            "angle_deg": 60.0, "range_m": 120.0,
        },
        "captured_at": 100.0,
        "uploaded_at": 105.0,
        "keywords": ["street", "tent"],
    },
    "/images/1/annotations": {
        "classification": "street_cleanliness",
        "label": "clean",
        "confidence": 0.9,
        "source": "machine",
    },
    "/features/color_hsv_20_20_10": {"image_id": 1},
    "/users": {"name": "ada", "role": "researcher"},
    "/keys": {"user_id": 1},
    "/models": {
        "name": "cleanliness_svm",
        "extractor": "color_hsv_20_20_10",
        "classification": "street_cleanliness",
        "classifier": "svm",
    },
    "/classifications": {"name": "graffiti", "labels": ["tagged", "untagged"]},
}
_MISSING = object()
_FIELD_MUTATIONS = {
    "missing": _MISSING, "null": None, "str": "x", "list": [], "dict": {},
    "nan": float("nan"),
}
#: Single-field mutations that leave a body the API accepts by contract
#: (optional fields left out, an empty keyword list) or a well-formed
#: one: "x" where a free-form name goes is a name — it may miss a
#: registry (404), but it is not malformed.
_STILL_VALID = {
    ("/images", "keywords", "missing"),
    ("/images", "keywords", "list"),
    ("/images/1/annotations", "confidence", "missing"),
    ("/images/1/annotations", "source", "missing"),
    ("/users", "name", "str"),
    ("/users", "role", "str"),
    ("/models", "name", "str"),
    ("/models", "extractor", "str"),
    ("/models", "classification", "str"),
    ("/classifications", "name", "str"),
}


_REGION = {"min_lat": 33.9, "min_lng": -118.3, "max_lat": 34.1, "max_lng": -118.1}
_REGION_QUERY = {"type": "spatial", "region": _REGION}


def _visual(vector, **extra):
    return {
        "type": "visual", "extractor": "color_hsv_20_20_10", "vector": vector, **extra
    }


def _field_paths(body, prefix=()):
    for key, value in body.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _field_paths(value, (*prefix, key))


def _malformed_write_bodies():
    """Every single-field mutation (missing / null / "x" / [] / {} /
    NaN) of every field of the well-formed write bodies."""
    for route, body in _WRITE_BODIES.items():
        for path in _field_paths(body):
            for kind, value in _FIELD_MUTATIONS.items():
                if (route, ".".join(path), kind) in _STILL_VALID:
                    continue
                mutated = copy.deepcopy(body)
                holder = mutated
                for key in path[:-1]:
                    holder = holder[key]
                if value is _MISSING:
                    del holder[path[-1]]
                else:
                    holder[path[-1]] = value
                yield pytest.param(
                    route, mutated, id=f"{route.split('/')[-1]}-{'.'.join(path)}-{kind}"
                )


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

    @pytest.mark.parametrize(
        "body",
        [
            {"type": "temporal", "start": 5, "end": [1]},
            {"type": "temporal", "start": "yesterday"},
            {"type": "temporal", "start": float("nan")},
            {"type": "visual", "extractor": "color_hsv_20_20_10", "vector": ["a"]},
            {"type": "visual", "extractor": "color_hsv_20_20_10", "vector": [0.1], "k": "x"},
            {"type": "visual", "extractor": "color_hsv_20_20_10", "vector": [0.1], "k": [1]},
            {
                "type": "visual",
                "extractor": "color_hsv_20_20_10",
                "vector": [0.1],
                "max_distance": "far",
            },
            {"type": "visual", "extractor": "color_hsv_20_20_10", "example": 5},
            {"type": "visual", "extractor": ["color_hsv_20_20_10"], "vector": [0.1]},
            {"type": "visual", "extractor": 5, "vector": [0.1]},
            {"type": "textual", "text": 5},
            {"type": "categorical", "classification": "street_cleanliness", "labels": 5},
            {"type": "categorical", "classification": "street_cleanliness", "labels": "clean"},
            {"type": "categorical", "classification": "street_cleanliness", "labels": [5]},
            {"type": "categorical", "classification": ["street_cleanliness"], "labels": ["clean"]},
            {"type": "categorical", "classification": 5, "labels": ["clean"]},
            {
                "type": "categorical",
                "classification": "street_cleanliness",
                "labels": ["clean"],
                "min_confidence": "x",
            },
            {"type": "spatial", "region": {"min_lat": "a"}},
            {"type": "spatial", "region": 5},
            {"type": "spatial", "point": {"lat": 34.0, "lng": -118.2}, "radius_m": "x"},
            {
                "type": "spatial",
                "point": {"lat": 34.0, "lng": -118.2},
                "radius_m": 50.0,
                "direction_deg": "north",
            },
            {"type": "hybrid", "queries": 5},
            {"type": "hybrid", "queries": [5, 6]},
            [1, 2],
            "search",
            # Vectors only the index can judge: wrong length, not finite.
            _visual([0.1] * 7),
            _visual([]),
            _visual([float("nan")] * 50),
            _visual([float("inf")] * 50),
            _visual([0.1] * 49 + [float("-inf")]),
            {"type": "hybrid", "queries": [_REGION_QUERY, _visual([0.1] * 7)]},
            {"type": "hybrid", "queries": [_REGION_QUERY, _visual([float("nan")] * 50)]},
            _visual([0.1] * 50, k=True),
            _visual([0.1] * 50, k=2.7),
            _visual([0.1] * 50, k=0),
            # Geometry a vectorised mask would answer with a quiet [].
            {"type": "spatial", "region": {**_REGION, "max_lat": float("nan")}},
            {"type": "spatial", "region": {**_REGION, "min_lng": float("-inf")}},
            {**_REGION_QUERY, "direction_deg": float("inf")},
            {**_REGION_QUERY, "direction_deg": 90.0, "direction_tolerance_deg": -1.0},
            {**_REGION_QUERY, "direction_deg": 90.0, "direction_tolerance_deg": None},
            {**_REGION_QUERY, "mode": "camera", "direction_deg": float("-inf")},
        ],
        ids=lambda body: str(body)[:48],
    )
    def test_malformed_search_is_400_with_the_error_envelope(
        self, service, client, body
    ):
        """A spec of the wrong shape is the caller's fault: never a 500,
        never a quietly empty 200 — serial, sharded and under EXPLAIN."""
        for method, path in (("POST", "/images"), ("POST", "/features/color_hsv_20_20_10")):
            stored = service.handle(
                Request(method, path, body=_WRITE_BODIES[path], api_key=client.api_key)
            )
            assert stored.ok
        for shards in (1, 4):
            service.platform.set_shards(shards)
            for method, path in (("POST", "/search"), ("GET", "/debug/explain")):
                response = service.handle(
                    Request(method, path, body=body, api_key=client.api_key)
                )
                assert response.status == 400, (shards, path, response.body)
                error = response.body["error"]
                assert error["status"] == 400 and error["type"] == "APIError"
                assert error["message"] and error["request_id"]

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

    @pytest.mark.parametrize("route, body", _malformed_write_bodies())
    def test_malformed_write_body_is_400_with_the_error_envelope(
        self, service, client, route, body
    ):
        """A write-path field that is missing, ``null``, or of the wrong
        type is the caller's fault on every route: never a 500."""

        def post(path, payload):
            return service.handle(
                Request("POST", path, body=payload, api_key=client.api_key)
            )

        assert post("/images", _WRITE_BODIES["/images"]).body["image_id"] == 1
        labels = {"name": "street_cleanliness", "labels": ["clean", "dirty"]}
        assert post("/classifications", labels).status == 201
        assert post(route, _WRITE_BODIES[route]).status in (200, 201)

        response = post(route, body)
        assert response.status == 400
        error = response.body["error"]
        assert error["status"] == 400 and error["type"] == "APIError"
        assert error["message"] and error["request_id"]

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
