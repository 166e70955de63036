"""Axis-aligned boxes (rectangles in 2-d, intervals in 1-d, boxes in d-d).

Every hierarchical decomposition in this package carves space into
half-open boxes ``[lo, hi)``.  Using half-open boundaries makes the
quadrants of a split *disjoint* and their union exactly the parent —
a point on an internal boundary belongs to exactly one child.  The
tree invariant tests rely on this.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Tuple

from .point import Point


class Rect:
    """A half-open axis-aligned box ``[lo, hi)`` in d dimensions.

    ``lo`` and ``hi`` are corner points; ``lo[i] < hi[i]`` must hold in
    every dimension (degenerate boxes are rejected — a quadtree block
    always has positive area).

    >>> r = Rect(Point(0, 0), Point(1, 1))
    >>> r.contains_point(Point(0, 0)), r.contains_point(Point(1, 1))
    (True, False)
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Point, hi: Point):
        if lo.dim != hi.dim:
            raise ValueError(f"corner dimension mismatch: {lo.dim} vs {hi.dim}")
        for a, b in zip(lo, hi):
            if not a < b:
                raise ValueError(f"degenerate box: lo={lo!r} hi={hi!r}")
        self._lo = lo
        self._hi = hi

    @classmethod
    def unit(cls, dim: int) -> "Rect":
        """The unit box ``[0,1)^dim`` — the default root block."""
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        return cls(Point(*([0.0] * dim)), Point(*([1.0] * dim)))

    @classmethod
    def from_bounds(cls, bounds: Sequence[Tuple[float, float]]) -> "Rect":
        """Build from a list of per-dimension ``(lo, hi)`` pairs."""
        los = [b[0] for b in bounds]
        his = [b[1] for b in bounds]
        return cls(Point(*los), Point(*his))

    @property
    def lo(self) -> Point:
        """Inclusive lower corner."""
        return self._lo

    @property
    def hi(self) -> Point:
        """Exclusive upper corner."""
        return self._hi

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return self._lo.dim

    @property
    def center(self) -> Point:
        """Center point — the split point of a regular decomposition."""
        return self._lo.midpoint(self._hi)

    def side(self, i: int) -> float:
        """Extent along dimension ``i``."""
        return self._hi[i] - self._lo[i]

    @property
    def sides(self) -> Tuple[float, ...]:
        """Extents along every dimension."""
        return tuple(self._hi[i] - self._lo[i] for i in range(self.dim))

    @property
    def volume(self) -> float:
        """Product of side lengths (area in 2-d)."""
        v = 1.0
        for i in range(self.dim):
            v *= self.side(i)
        return v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self) -> int:
        return hash((self._lo, self._hi))

    def __repr__(self) -> str:
        return f"Rect({self._lo!r}, {self._hi!r})"

    def contains_point(self, p: Point) -> bool:
        """True iff ``p`` lies inside the half-open box."""
        if p.dim != self.dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {self.dim}")
        return all(
            lo <= c < hi for lo, c, hi in zip(self._lo, p, self._hi)
        )

    def contains_rect(self, other: "Rect") -> bool:
        """True iff ``other`` lies entirely within ``self``."""
        return all(
            slo <= olo and ohi <= shi
            for slo, olo, ohi, shi in zip(self._lo, other._lo, other._hi, self._hi)
        )

    def intersects(self, other: "Rect") -> bool:
        """True iff the two half-open boxes share any point."""
        return all(
            slo < ohi and olo < shi
            for slo, olo, ohi, shi in zip(self._lo, other._lo, other._hi, self._hi)
        )

    def intersection(self, other: "Rect") -> "Rect":
        """The overlapping box; raises ``ValueError`` if disjoint."""
        if not self.intersects(other):
            raise ValueError(f"boxes do not intersect: {self!r}, {other!r}")
        lo = Point(*(max(a, b) for a, b in zip(self._lo, other._lo)))
        hi = Point(*(min(a, b) for a, b in zip(self._hi, other._hi)))
        return Rect(lo, hi)

    def quadrant_index(self, p: Point) -> int:
        """Index of the regular-split child containing ``p``.

        The children of a regular split are numbered by a bitmask:
        bit ``i`` is set iff ``p[i] >= center[i]``.  In 2-d this gives
        the familiar SW=0, SE=1, NW=2, NE=3 ordering.
        """
        if not self.contains_point(p):
            raise ValueError(f"{p!r} not inside {self!r}")
        c = self.center
        idx = 0
        for i in range(self.dim):
            if p[i] >= c[i]:
                idx |= 1 << i
        return idx

    def child(self, index: int) -> "Rect":
        """The ``index``-th child of a regular split (bitmask numbering).

        Each split coordinate is ``(lo + hi) / 2.0``, the expression
        :attr:`center` evaluates; a child too thin to be a box (the
        parent is unsplittable on that axis) raises ``ValueError``.
        """
        lo = self._lo._coords
        hi = self._hi._coords
        n_children = 1 << len(lo)
        if not 0 <= index < n_children:
            raise ValueError(f"child index {index} out of range 0..{n_children - 1}")
        los: List[float] = []
        his: List[float] = []
        for i, (a, b) in enumerate(zip(lo, hi)):
            c = (a + b) / 2.0
            if index >> i & 1:
                if not c < b:
                    raise ValueError(f"degenerate child {index} of {self!r}")
                los.append(c)
                his.append(b)
            else:
                if not a < c:
                    raise ValueError(f"degenerate child {index} of {self!r}")
                los.append(a)
                his.append(c)
        child = object.__new__(Rect)
        child._lo = Point._trusted(tuple(los))
        child._hi = Point._trusted(tuple(his))
        return child

    @property
    def is_splittable(self) -> bool:
        """True iff a regular split produces non-degenerate children.

        Near the limits of float precision the midpoint of a very thin
        box can collide with a boundary; trees pin such blocks (treat
        them as at a depth limit) instead of splitting them.
        """
        c = self.center
        return all(
            lo < mid < hi for lo, mid, hi in zip(self._lo, c, self._hi)
        )

    def is_splittable_on(self, axis: int) -> bool:
        """True iff halving ``axis`` produces non-degenerate children."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        mid = self.center[axis]
        return self._lo[axis] < mid < self._hi[axis]

    def split(self) -> List["Rect"]:
        """All ``2^dim`` children of a regular split, in index order.

        The children are pairwise disjoint and their union is exactly
        ``self`` (a consequence of the half-open convention).
        """
        return [self.child(i) for i in range(1 << self.dim)]

    def split_binary(self, axis: int) -> Tuple["Rect", "Rect"]:
        """Halve along a single ``axis`` — the bintree split rule."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        c = self.center
        lo_his = list(self._hi.coords)
        lo_his[axis] = c[axis]
        hi_los = list(self._lo.coords)
        hi_los[axis] = c[axis]
        return (
            Rect(self._lo, Point(*lo_his)),
            Rect(Point(*hi_los), self._hi),
        )

    def corners(self) -> Iterator[Point]:
        """Iterate over the ``2^dim`` corner points."""
        axes = [(self._lo[i], self._hi[i]) for i in range(self.dim)]
        for combo in itertools.product(*axes):
            yield Point(*combo)

    def clamp(self, p: Point) -> Point:
        """The point of the *closed* box closest to ``p``.

        Used by nearest-neighbor pruning: the distance from a query
        point to a block is the distance to its clamped projection.
        """
        return Point(
            *(min(max(c, lo), hi) for lo, c, hi in zip(self._lo, p, self._hi))
        )

    def distance_to_point(self, p: Point) -> float:
        """Minimum distance from ``p`` to the closed box (0 if inside)."""
        return self.clamp(p).distance_to(p)
