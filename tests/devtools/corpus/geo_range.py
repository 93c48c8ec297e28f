# corpus: geo-range -> repro/core/sites.py
"""Latitude and longitude transposed in a literal."""


def _downtown(make_point):
    return make_point(lat=-118.24, lng=34.05)
