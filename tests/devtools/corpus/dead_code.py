# corpus: dead-code -> repro/core/legacy.py
"""A public function nothing references."""


def rebuild_everything(catalog):
    return list(catalog)
