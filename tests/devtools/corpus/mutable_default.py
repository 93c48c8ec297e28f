# corpus: mutable-default -> repro/core/defaults.py
"""One list shared across every call."""


def _collect(item, into=[]):
    into.append(item)
    return into
