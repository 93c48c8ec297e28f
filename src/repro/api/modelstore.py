"""Shared ML-model registry with download support.

Backs the paper's API items 5-7: collaborators *use* hosted models,
*download* them for offline edge execution, and *devise* new ones by
declaring input (feature extractor) and output (classification) specs
and training on the platform's annotated data.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import APIError
from repro.ml.linear import LogisticRegression
from repro.ml.svm import LinearSVM, _BinarySVM

_log = obs.get_logger("api.modelstore")

#: The classifier families ``POST /models`` can devise, by wire name.
CLASSIFIER_FACTORIES = {
    "svm": lambda: LinearSVM(epochs=40),
    "logistic_regression": lambda: LogisticRegression(epochs=60),
}


@dataclass
class ModelRecord:
    """One shared model: its I/O contract plus the fitted estimator."""

    name: str
    extractor_name: str
    classification: str
    owner_id: int | None
    classifier: object
    description: str = ""
    metrics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Training and metric updates may race with concurrent
        # predictions on the same shared record.
        self._lock = threading.RLock()

    def train(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fit the classifier under a ``model.train`` span and record
        training-set size both as shared-model metadata and metrics."""
        with self._lock, obs.span(
            "model.train", model=self.name, samples=int(X.shape[0])
        ):
            self.classifier.fit(X, y)
            self.metrics["training_samples"] = int(X.shape[0])
        obs.metrics().counter("model.train_runs", {"model": self.name}).inc()
        obs.metrics().counter("model.train_samples", {"model": self.name}).inc(
            int(X.shape[0])
        )
        _log.info("trained model %s on %d samples", self.name, int(X.shape[0]))

    def predict_one(self, vector: np.ndarray) -> tuple[str, float]:
        """One inference under a ``model.predict`` span; returns
        ``(label, confidence)`` (confidence 1.0 when the classifier has
        no probability estimate)."""
        with obs.span("model.predict", model=self.name):
            label = self.classifier.predict(vector[np.newaxis, :])[0]
            confidence = 1.0
            if hasattr(self.classifier, "predict_proba"):
                confidence = float(
                    self.classifier.predict_proba(vector[np.newaxis, :]).max()
                )
        obs.metrics().counter("model.predictions", {"model": self.name}).inc()
        return str(label), confidence


def serialize_classifier(classifier: object) -> dict:
    """Portable dict form of a fitted classifier (for model download).

    Linear models serialise exactly; other classifier families would
    need their own codecs and are reported as non-portable.
    """
    if isinstance(classifier, LogisticRegression):
        if classifier.weights_ is None:
            raise APIError(409, "model is not fitted")
        return {
            "type": "LogisticRegression",
            "classes": classifier.classes_.tolist(),
            "weights": classifier.weights_.tolist(),
            "bias": classifier.bias_.tolist(),
        }
    if isinstance(classifier, LinearSVM):
        if classifier._machines is None:
            raise APIError(409, "model is not fitted")
        return {
            "type": "LinearSVM",
            "classes": classifier.classes_.tolist(),
            "machines": [
                {"w": m.w.tolist(), "b": m.b} for m in classifier._machines
            ],
        }
    raise APIError(
        501, f"model type {type(classifier).__name__} is not downloadable"
    )


def deserialize_classifier(data: dict) -> object:
    """Inverse of :func:`serialize_classifier` (edge-side loading)."""
    kind = data.get("type")
    if kind == "LogisticRegression":
        model = LogisticRegression()
        model.classes_ = np.array(data["classes"])
        model.weights_ = np.array(data["weights"], dtype=np.float64)
        model.bias_ = np.array(data["bias"], dtype=np.float64)
        return model
    if kind == "LinearSVM":
        model = LinearSVM()
        model.classes_ = np.array(data["classes"])
        model._machines = []
        for machine_data in data["machines"]:
            machine = _BinarySVM(model.l2, model.epochs, model.batch_size, model.seed)
            machine.w = np.array(machine_data["w"], dtype=np.float64)
            machine.b = float(machine_data["b"])
            model._machines.append(machine)
        return model
    raise APIError(400, f"unknown serialized model type {kind!r}")


class ModelStore:
    """Name-keyed registry of shared models."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._models: dict[str, ModelRecord] = {}

    def register(self, record: ModelRecord) -> None:
        with self._lock:
            if record.name in self._models:
                raise APIError(409, f"model {record.name!r} already exists")
            self._models[record.name] = record

    def get(self, name: str) -> ModelRecord:
        with self._lock:
            if name not in self._models:
                raise APIError(404, f"no model named {name!r}")
            return self._models[name]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models
