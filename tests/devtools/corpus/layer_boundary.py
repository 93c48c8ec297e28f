# corpus: layer-boundary -> repro/geo/shapes.py
"""A bottom-layer package importing the facade above it."""
from repro.core import platform as _platform
