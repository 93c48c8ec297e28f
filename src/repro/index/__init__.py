"""Index structures: R-tree, Oriented R-tree, LSH, inverted, hybrid."""

from repro.index.ordering import tie_key
from repro.index.rtree import RTree
from repro.index.oriented_rtree import SECTORS, OrientedRTree, direction_mask
from repro.index.lsh import LSHIndex
from repro.index.inverted import STOPWORDS, InvertedIndex, tokenize
from repro.index.hybrid import VisualRTree
from repro.index.grid import GridIndex

__all__ = [
    "RTree",
    "OrientedRTree",
    "direction_mask",
    "SECTORS",
    "LSHIndex",
    "InvertedIndex",
    "tokenize",
    "STOPWORDS",
    "VisualRTree",
    "GridIndex",
    "tie_key",
]
