"""Quadtree-family hierarchical structures.

- :class:`PRQuadtree` — the generalized PR quadtree the paper analyzes
  (regular decomposition, bucket capacity m, any dimension).
- :class:`PRBintree` — binary-fanout regular decomposition.
- :class:`PointQuadtree` — the classical data-defined point quadtree.
- :class:`PMRQuadtree` — the line-segment structure of the paper's
  companion analysis.
- :class:`OccupancyCensus` / :class:`DepthCensus` /
  :class:`CensusAccumulator` — the measurement layer.

Names load from their submodules on first read (:mod:`repro._lazy`),
so a caller of one module, such as the paged tree's census, loads no
other tree.
"""

from typing import Dict, Tuple

from .._lazy import lazy_namespace

#: Every public name, by the submodule that defines it.
_SUBMODULE_NAMES: Dict[str, Tuple[str, ...]] = {
    "bintree": ("PRBintree",),
    "bulk": ("bulk_load", "from_dict", "to_dict"),
    "census": ("CensusAccumulator", "DepthCensus", "OccupancyCensus"),
    "labeling": (
        "black_blocks",
        "component_areas",
        "component_count",
        "label_components",
    ),
    "mx": ("MXQuadtree",),
    "neighbors": (
        "SIDES",
        "all_neighbor_pairs",
        "edge_neighbors",
        "leaf_adjacency_degree",
    ),
    "pm1": ("PM1Quadtree", "PM2Quadtree", "PM3Quadtree"),
    "pmr": ("PMRQuadtree",),
    "point_quadtree": ("PointQuadtree",),
    "pr": ("DuplicatePointError", "PRQuadtree"),
    "region": ("RegionQuadtree",),
}

_HOME, __all__, __getattr__, __dir__ = lazy_namespace(
    __name__, _SUBMODULE_NAMES
)
