"""API-key management.

"Users can create API keys to use TVDP features."  Keys live in the
``api_keys`` table; every service request must present an active key.
"""

from __future__ import annotations

import hashlib
import secrets
import threading

from repro.errors import AuthenticationError, QueryError
from repro.db.database import Database


def principal_label(api_key: object) -> str:
    """Stable, non-secret label identifying the caller for accounting.

    Uses a key prefix rather than the full key so usage reports and
    ``usage.*`` metric labels never carry a whole credential;
    unauthenticated traffic (open routes) is pooled under
    ``"anonymous"`` — and so is whatever was sent in place of a key
    that is not a string: it names nobody.
    """
    if not api_key or not isinstance(api_key, str):
        return "anonymous"
    return f"key:{api_key[:8]}"


class ApiKeyManager:
    """Issue, validate, and revoke API keys against the database."""

    def __init__(self, db: Database, deterministic_seed: int | None = None) -> None:
        self._db = db
        self._lock = threading.Lock()
        self._counter = 0
        self._seed = deterministic_seed

    def _generate(self) -> str:
        if self._seed is not None:
            # Deterministic keys for reproducible examples and tests;
            # the counter bump is atomic so concurrent issues never
            # mint the same key.
            with self._lock:
                self._counter += 1
                material = f"tvdp-{self._seed}-{self._counter}".encode()
            return hashlib.sha256(material).hexdigest()[:40]
        # API keys must be unpredictable; the seeded branch above
        # exists for reproducible runs.
        # devtools: allow[determinism] — entropy is the point here
        return secrets.token_hex(20)

    def issue(self, user_id: int, created_at: float = 0.0) -> str:
        """Create an active key for a user; returns the key string."""
        key = self._generate()
        self._db.insert(
            "api_keys",
            {
                "user_id": user_id,
                "key": key,
                "created_at": float(created_at),
                "active": True,
            },
        )
        return key

    def validate(self, key: object) -> int:
        """User id for an active key; raises AuthenticationError otherwise."""
        if not key:
            raise AuthenticationError("missing API key")
        if not isinstance(key, str):  # a list or dict would not even hash
            raise AuthenticationError("invalid or revoked API key")
        rows = self._db.table("api_keys").find("key", key)
        if not rows or not rows[0]["active"]:
            raise AuthenticationError("invalid or revoked API key")
        return rows[0]["user_id"]

    def revoke(self, key: str) -> None:
        """Deactivate a key."""
        rows = self._db.table("api_keys").find("key", key)
        if not rows:
            raise QueryError("cannot revoke unknown key")
        self._db.table("api_keys").update(rows[0]["key_id"], {"active": False})

    def keys_of(self, user_id: int) -> list[str]:
        """Active keys belonging to a user."""
        return [
            row["key"]
            for row in self._db.table("api_keys").all_rows()
            if row["user_id"] == user_id and row["active"]
        ]
