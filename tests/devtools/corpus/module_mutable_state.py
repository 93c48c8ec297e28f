# corpus: module-mutable-state -> repro/core/registry.py
"""A module-level dict written at runtime with no lock."""
_CACHE = {}


def _put(key, value):
    _CACHE[key] = value
