"""Package-level integrity: exports resolve, utilities behave."""

import importlib

import numpy as np
import pytest

from repro.errors import MLError
from repro.geo import BoundingBox, GeoPoint
from repro.ml.base import check_fitted, check_X, check_X_y, unique_labels
from repro.ml.knn import pairwise_sq_distances

SUBPACKAGES = [
    "repro",
    "repro.geo",
    "repro.imaging",
    "repro.features",
    "repro.ml",
    "repro.db",
    "repro.index",
    "repro.crowd",
    "repro.edge",
    "repro.api",
    "repro.core",
    "repro.datasets",
    "repro.analysis",
]


class TestExports:
    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} in __all__ but missing"

    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_module_has_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip()


class TestValidationHelpers:
    def test_check_X_rejects_bad_shapes(self):
        with pytest.raises(MLError):
            check_X(np.zeros(5))
        with pytest.raises(MLError):
            check_X(np.zeros((0, 3)))
        with pytest.raises(MLError):
            check_X(np.array([[np.inf, 1.0]]))

    def test_check_X_y_rejects_mismatch(self):
        with pytest.raises(MLError):
            check_X_y(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(MLError):
            check_X_y(np.zeros((3, 2)), np.zeros((3, 1)))

    def test_check_fitted(self):
        class Thing:
            attr = None

        from repro.errors import NotFittedError

        with pytest.raises(NotFittedError):
            check_fitted(Thing(), "attr")

    def test_unique_labels_needs_two_classes(self):
        with pytest.raises(MLError):
            unique_labels(np.zeros(5))
        assert unique_labels(np.array([1, 2, 1])).tolist() == [1, 2]


class TestPairwiseDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        A, B = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (4, 3))
        d2 = pairwise_sq_distances(A, B)
        for i in range(6):
            for j in range(4):
                assert d2[i, j] == pytest.approx(np.sum((A[i] - B[j]) ** 2))

    def test_never_negative(self):
        # The expansion trick can go slightly negative; must be clipped.
        A = np.full((3, 4), 1e8)
        d2 = pairwise_sq_distances(A, A)
        assert (d2 >= 0).all()


class TestGeoUtilities:
    def test_bounding_region_for_point_query(self):
        from repro.core import SpatialQuery

        query = SpatialQuery(point=GeoPoint(34.0, -118.0), radius_m=500.0)
        region = query.bounding_region()
        assert region.contains_point(GeoPoint(34.0, -118.0))
        explicit = SpatialQuery(region=BoundingBox(0, 0, 1, 1))
        assert explicit.bounding_region() == BoundingBox(0, 0, 1, 1)
