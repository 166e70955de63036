"""Unit and property tests for repro.geometry.rect."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def unit_points(dim=2):
    return st.builds(lambda cs: Point(*cs), st.lists(
        st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
        min_size=dim, max_size=dim,
    ))


def rects():
    """Non-degenerate boxes inside [0,1]^2."""

    def build(x0, x1, y0, y1):
        xs = sorted([x0, x1])
        ys = sorted([y0, y1])
        return Rect(Point(xs[0], ys[0]), Point(xs[1] + 0.001, ys[1] + 0.001))

    return st.builds(build, coord, coord, coord, coord)


class TestConstruction:
    def test_unit(self):
        r = Rect.unit(2)
        assert r.lo == Point(0, 0) and r.hi == Point(1, 1)

    def test_unit_bad_dim(self):
        with pytest.raises(ValueError):
            Rect.unit(0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(Point(0, 0), Point(0, 1))

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Rect(Point(1, 0), Point(0, 1))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Rect(Point(0, 0), Point(1.0))

    def test_from_bounds(self):
        r = Rect.from_bounds([(0, 2), (1, 3)])
        assert r.lo == Point(0, 1) and r.hi == Point(2, 3)

    def test_equality_and_hash(self):
        assert Rect.unit(2) == Rect.unit(2)
        assert hash(Rect.unit(2)) == hash(Rect.unit(2))


class TestGeometry:
    def test_center(self):
        assert Rect.unit(2).center == Point(0.5, 0.5)

    def test_sides_and_volume(self):
        r = Rect(Point(0, 0), Point(2, 3))
        assert r.sides == (2.0, 3.0)
        assert r.volume == 6.0
        assert r.side(1) == 3.0

    def test_half_open_membership(self):
        r = Rect.unit(2)
        assert r.contains_point(Point(0, 0))
        assert not r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1, 0))
        assert not r.contains_point(Point(0.5, 1))

    def test_contains_rect(self):
        outer = Rect.unit(2)
        inner = Rect(Point(0.25, 0.25), Point(0.5, 0.5))
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)

    def test_contains_rect_self(self):
        r = Rect.unit(2)
        assert r.contains_rect(r)

    def test_intersects_and_intersection(self):
        a = Rect(Point(0, 0), Point(0.6, 0.6))
        b = Rect(Point(0.4, 0.4), Point(1, 1))
        assert a.intersects(b)
        both = a.intersection(b)
        assert both == Rect(Point(0.4, 0.4), Point(0.6, 0.6))

    def test_touching_half_open_boxes_disjoint(self):
        a = Rect(Point(0, 0), Point(0.5, 1))
        b = Rect(Point(0.5, 0), Point(1, 1))
        assert not a.intersects(b)
        with pytest.raises(ValueError):
            a.intersection(b)

    def test_clamp_and_distance(self):
        r = Rect.unit(2)
        assert r.clamp(Point(2, 0.5)) == Point(1, 0.5)
        assert r.distance_to_point(Point(2, 0.5)) == 1.0
        assert r.distance_to_point(Point(0.5, 0.5)) == 0.0

    def test_corners(self):
        corners = set(Rect.unit(2).corners())
        assert corners == {
            Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 1)
        }


class TestRegularSplit:
    def test_split_produces_fanout_children(self):
        assert len(Rect.unit(2).split()) == 4
        assert len(Rect.unit(3).split()) == 8
        assert len(Rect.unit(1).split()) == 2

    def test_children_tile_parent(self):
        parent = Rect.unit(2)
        children = parent.split()
        assert sum(c.volume for c in children) == pytest.approx(parent.volume)
        for i, a in enumerate(children):
            assert parent.contains_rect(a)
            for b in children[i + 1 :]:
                assert not a.intersects(b)

    def test_bitmask_ordering(self):
        children = Rect.unit(2).split()
        # SW=0, SE=1 (x high), NW=2 (y high), NE=3
        assert children[0].contains_point(Point(0.1, 0.1))
        assert children[1].contains_point(Point(0.9, 0.1))
        assert children[2].contains_point(Point(0.1, 0.9))
        assert children[3].contains_point(Point(0.9, 0.9))

    def test_quadrant_index_agrees_with_child(self):
        parent = Rect.unit(2)
        for p in (Point(0.1, 0.1), Point(0.7, 0.2), Point(0.5, 0.5)):
            idx = parent.quadrant_index(p)
            assert parent.child(idx).contains_point(p)

    def test_quadrant_index_outside_raises(self):
        with pytest.raises(ValueError):
            Rect.unit(2).quadrant_index(Point(1.5, 0.5))

    def test_child_index_range(self):
        with pytest.raises(ValueError):
            Rect.unit(2).child(4)
        with pytest.raises(ValueError):
            Rect.unit(2).child(-1)

    def test_split_binary(self):
        lo, hi = Rect.unit(2).split_binary(0)
        assert lo == Rect(Point(0, 0), Point(0.5, 1))
        assert hi == Rect(Point(0.5, 0), Point(1, 1))

    def test_split_binary_axis_out_of_range(self):
        with pytest.raises(ValueError):
            Rect.unit(2).split_binary(2)


class TestProperties:
    @given(unit_points())
    def test_every_unit_point_in_exactly_one_quadrant(self, p):
        parent = Rect.unit(2)
        hits = [c for c in parent.split() if c.contains_point(p)]
        assert len(hits) == 1
        assert hits[0] == parent.child(parent.quadrant_index(p))

    @given(rects(), unit_points())
    def test_clamp_is_inside_closed_box(self, r, p):
        c = r.clamp(p)
        for lo, cc, hi in zip(r.lo, c, r.hi):
            assert lo <= cc <= hi

    @given(rects(), unit_points())
    def test_distance_consistent_with_clamp(self, r, p):
        d = r.distance_to_point(p)
        clamped = r.clamp(p)
        assert d == clamped.distance_to(p)
        if clamped == p:
            assert d == 0.0

    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        if a.intersects(b):
            both = a.intersection(b)
            assert a.contains_rect(both)
            assert b.contains_rect(both)


def _center_child(r, index):
    """A child built from ``r.center``, the way ``child`` once was."""
    c = r.center
    los, his = [], []
    for i in range(r.dim):
        if index & (1 << i):
            los.append(c[i])
            his.append(r.hi[i])
        else:
            los.append(r.lo[i])
            his.append(c[i])
    return Rect(Point(*los), Point(*his))


def _bits(r):
    import struct

    coords = r.lo.coords + r.hi.coords
    return struct.pack(f"<{len(coords)}d", *coords)


class TestChild:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bit_identical_to_center_construction(self, dim):
        import numpy as np

        rng = np.random.default_rng(dim)
        for _ in range(200):
            lo = rng.uniform(-50.0, 50.0, dim)
            hi = lo + np.exp(rng.uniform(-30.0, 4.0, dim))
            r = Rect(Point(*lo), Point(*hi))
            # descend a few levels: rounding compounds down a path,
            # and the thinnest boxes run out of halvings on the way
            for _ in range(6):
                for index in range(1 << dim):
                    try:
                        expected = _center_child(r, index)
                    except ValueError:
                        with pytest.raises(ValueError):
                            r.child(index)
                        continue
                    got = r.child(index)
                    assert _bits(got) == _bits(expected)
                    assert type(got.lo) is Point and got.dim == dim
                if not r.is_splittable:
                    break
                r = r.child(int(rng.integers(1 << dim)))

    def test_unsplittable_box_raises_where_center_construction_did(self):
        import math

        one_ulp = Rect(Point(1.0, 0.0), Point(math.nextafter(1.0, 2.0), 1.0))
        assert not one_ulp.is_splittable
        raised = 0
        for index in range(4):
            try:
                expected = _center_child(one_ulp, index)
            except ValueError:
                raised += 1
                with pytest.raises(ValueError):
                    one_ulp.child(index)
            else:
                assert _bits(one_ulp.child(index)) == _bits(expected)
        assert raised == 2  # the two children thin on axis 0
