"""Points in d-dimensional space.

The spatial substrate for every hierarchical structure in this package.
Points are immutable, hashable, and support the small amount of vector
arithmetic the tree algorithms need (distance, midpoint interpolation,
componentwise comparison against box boundaries).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple


class Point:
    """An immutable point in d-dimensional Euclidean space.

    Coordinates are stored as a tuple of floats.  Two points compare
    equal iff they have the same dimension and identical coordinates,
    which makes ``Point`` safe to use in sets and as dictionary keys
    (the PR quadtree's "distinct point" splitting rule relies on this).

    >>> p = Point(0.25, 0.75)
    >>> p.dim
    2
    >>> p[0], p[1]
    (0.25, 0.75)
    """

    __slots__ = ("_coords",)

    def __init__(self, *coords: float):
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        self._coords: Tuple[float, ...] = tuple(float(c) for c in coords)
        for c in self._coords:
            if math.isnan(c):
                raise ValueError("point coordinates may not be NaN")

    @classmethod
    def of(cls, coords: Iterable[float]) -> "Point":
        """Build a point from any iterable of coordinates."""
        return cls(*coords)

    @classmethod
    def _trusted(cls, coords: Tuple[float, ...]) -> "Point":
        """A point over ``coords``, a non-empty tuple of non-NaN floats
        the caller has already checked."""
        p = object.__new__(cls)
        p._coords = coords
        return p

    @property
    def coords(self) -> Tuple[float, ...]:
        """The coordinate tuple."""
        return self._coords

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self._coords)

    @property
    def x(self) -> float:
        """First coordinate (convenience for planar data)."""
        return self._coords[0]

    @property
    def y(self) -> float:
        """Second coordinate (convenience for planar data)."""
        if len(self._coords) < 2:
            raise AttributeError("1-dimensional point has no y coordinate")
        return self._coords[1]

    def __getitem__(self, i: int) -> float:
        return self._coords[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self._coords)

    def __len__(self) -> int:
        return len(self._coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self._coords == other._coords

    def __hash__(self) -> int:
        return hash(self._coords)

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self._coords)
        return f"Point({inner})"

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``.

        Raises ``ValueError`` on dimension mismatch.
        """
        self._check_dim(other)
        return math.sqrt(
            sum((a - b) ** 2 for a, b in zip(self._coords, other._coords))
        )

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (cheaper; used by nearest-neighbor)."""
        self._check_dim(other)
        return sum((a - b) ** 2 for a, b in zip(self._coords, other._coords))

    def manhattan_distance_to(self, other: "Point") -> float:
        """L1 distance to ``other``."""
        self._check_dim(other)
        return sum(abs(a - b) for a, b in zip(self._coords, other._coords))

    def midpoint(self, other: "Point") -> "Point":
        """Point halfway between ``self`` and ``other``."""
        self._check_dim(other)
        return Point(*((a + b) / 2.0 for a, b in zip(self._coords, other._coords)))

    def translated(self, offsets: Sequence[float]) -> "Point":
        """A new point shifted by ``offsets`` componentwise."""
        if len(offsets) != self.dim:
            raise ValueError(
                f"offset dimension {len(offsets)} != point dimension {self.dim}"
            )
        return Point(*(a + o for a, o in zip(self._coords, offsets)))

    def scaled(self, factor: float) -> "Point":
        """A new point with every coordinate multiplied by ``factor``."""
        return Point(*(a * factor for a in self._coords))

    def dominates(self, other: "Point") -> bool:
        """True iff every coordinate of ``self`` is >= the matching one."""
        self._check_dim(other)
        return all(a >= b for a, b in zip(self._coords, other._coords))

    def _check_dim(self, other: "Point") -> None:
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
