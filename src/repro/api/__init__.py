"""API layer: key auth, in-process REST router, service, client."""

from repro.api.auth import ApiKeyManager
from repro.api.http import Request, Response, Router
from repro.api.modelstore import (
    ModelRecord,
    ModelStore,
    deserialize_classifier,
    serialize_classifier,
)
from repro.api.schema import image_from_payload, image_to_payload
from repro.api.service import TVDPService
from repro.api.client import TVDPClient

__all__ = [
    "ApiKeyManager",
    "Request",
    "Response",
    "Router",
    "ModelRecord",
    "ModelStore",
    "serialize_classifier",
    "deserialize_classifier",
    "TVDPService",
    "image_to_payload",
    "image_from_payload",
    "TVDPClient",
]
