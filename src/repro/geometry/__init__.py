"""Geometric primitives shared by every hierarchical structure.

- :class:`Point` — immutable d-dimensional points.
- :class:`Rect` — half-open axis-aligned boxes with regular-split helpers.
- :class:`Segment` — planar line segments with box-clipping predicates.
"""

from .morton import (
    deinterleave,
    interleave,
    interleave_many,
    morton_key,
    prefix_at_depth,
    quantize,
)
from .point import Point
from .rect import Rect
from .segment import Segment

__all__ = [
    "Point",
    "Rect",
    "Segment",
    "deinterleave",
    "interleave",
    "interleave_many",
    "morton_key",
    "prefix_at_depth",
    "quantize",
]
