"""Unit and property tests for Morton codes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    Rect,
    deinterleave,
    interleave,
    morton_key,
    prefix_at_depth,
    quantize,
)
from repro.quadtree import PRQuadtree

unit_coord = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
points = st.builds(Point, unit_coord, unit_coord)
cells = st.integers(min_value=0, max_value=255)


class TestInterleave:
    def test_known_values_2d(self):
        # (x, y) with axis 0 most significant within each bit group
        assert interleave((0, 0), 1) == 0b00
        assert interleave((1, 0), 1) == 0b10
        assert interleave((0, 1), 1) == 0b01
        assert interleave((1, 1), 1) == 0b11

    def test_range_checked(self):
        with pytest.raises(ValueError):
            interleave((4,), 2)
        with pytest.raises(ValueError):
            interleave((-1, 0), 4)
        with pytest.raises(ValueError):
            interleave((0, 0), 0)
        with pytest.raises(ValueError):
            interleave((), 4)

    @given(cells, cells)
    def test_round_trip_2d(self, x, y):
        code = interleave((x, y), 8)
        assert deinterleave(code, 2, 8) == (x, y)

    @given(cells, cells, cells)
    def test_round_trip_3d(self, x, y, z):
        code = interleave((x, y, z), 8)
        assert deinterleave(code, 3, 8) == (x, y, z)

    @given(cells, cells)
    def test_monotone_per_axis(self, x, y):
        if x < 255:
            assert interleave((x + 1, y), 8) > interleave((x, y), 8)
        if y < 255:
            assert interleave((x, y + 1), 8) > interleave((x, y), 8)

    def test_deinterleave_range(self):
        with pytest.raises(ValueError):
            deinterleave(1 << 16, 2, 8)
        with pytest.raises(ValueError):
            deinterleave(-1, 2, 8)

    def test_mixed_validity_reports_lowest_axis(self):
        # regression for the hoisted range check: the error must still
        # name the lowest offending axis, exactly as the first loop
        # iteration used to find it
        with pytest.raises(ValueError, match=r"coordinate 9 outside 0\.\.7"):
            interleave((2, 9, 12), 3)
        with pytest.raises(ValueError, match=r"coordinate -1 outside 0\.\.7"):
            interleave((3, -1, 99), 3)


class TestInterleaveMany:
    def test_matches_scalar_known_values(self):
        import numpy as np

        from repro.geometry import interleave_many

        grid = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert interleave_many(grid, 1).tolist() == [0b00, 0b10, 0b01, 0b11]

    @given(
        st.lists(
            st.tuples(cells, cells, cells), min_size=1, max_size=40
        )
    )
    def test_matches_scalar_3d(self, rows):
        import numpy as np

        from repro.geometry import interleave_many

        codes = interleave_many(np.array(rows), 8)
        assert codes.dtype == np.uint64
        assert codes.tolist() == [interleave(row, 8) for row in rows]

    def test_full_62_bit_budget(self):
        import numpy as np

        from repro.geometry import interleave_many

        top = (1 << 31) - 1
        codes = interleave_many(np.array([[top, top]]), 31)
        assert int(codes[0]) == interleave((top, top), 31)

    @pytest.mark.parametrize("dim,bits", [(1, 62), (2, 31), (3, 20)])
    def test_mask_spread_matches_scalar_at_full_budget(self, dim, bits):
        import numpy as np

        from repro.geometry import interleave_many

        rng = np.random.default_rng(bits)
        rows = rng.integers(0, 1 << bits, size=(200, dim), dtype=np.uint64)
        rows[0] = (1 << bits) - 1
        rows[1] = 0
        rows[2] = [(1 << bits) - 1 if a % 2 else 0 for a in range(dim)]
        codes = interleave_many(rows, bits)
        assert codes.tolist() == [
            interleave([int(v) for v in row], bits) for row in rows
        ]

    def test_loop_dims_match_scalar(self):
        import numpy as np

        from repro.geometry import interleave_many

        rng = np.random.default_rng(4)
        rows = rng.integers(0, 1 << 15, size=(50, 4))
        assert interleave_many(rows, 15).tolist() == [
            interleave(row.tolist(), 15) for row in rows
        ]

    def test_validation_matches_scalar(self):
        import numpy as np

        from repro.geometry import interleave_many

        with pytest.raises(ValueError, match=r"coordinate 4 outside 0\.\.3"):
            interleave_many(np.array([[1, 2], [4, 0]]), 2)
        with pytest.raises(ValueError, match="bits must be >= 1"):
            interleave_many(np.array([[0, 0]]), 0)
        with pytest.raises(ValueError, match="at least one coordinate"):
            interleave_many(np.empty((3, 0), dtype=np.int64), 4)
        with pytest.raises(ValueError, match="62-bit"):
            interleave_many(np.array([[0, 0]]), 32)
        with pytest.raises(ValueError, match="2-d"):
            interleave_many(np.array([1, 2, 3]), 4)
        with pytest.raises(ValueError, match="integer array"):
            interleave_many(np.array([[0.5, 0.5]]), 4)

    def test_empty_input(self):
        import numpy as np

        from repro.geometry import interleave_many

        assert interleave_many(np.empty((0, 2), dtype=np.int64), 8).size == 0


class TestQuantize:
    def test_corners(self):
        unit = Rect.unit(2)
        assert quantize(Point(0, 0), unit, 4) == (0, 0)
        assert quantize(Point(0.999, 0.999), unit, 4) == (15, 15)

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            quantize(Point(1.0, 0.0), Rect.unit(2), 4)

    @given(points)
    def test_cell_contains_point(self, p):
        cell = quantize(p, Rect.unit(2), 6)
        side = 1.0 / 64
        assert cell[0] * side <= p.x < (cell[0] + 1) * side + 1e-12
        assert cell[1] * side <= p.y < (cell[1] + 1) * side + 1e-12


class TestPrefixQuadtreeEquivalence:
    @given(st.lists(points, min_size=2, max_size=20, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_shared_prefix_iff_same_block(self, pts):
        """Two points share their depth-k Morton prefix iff the PR
        quadtree puts them in the same depth-k block — the [Oren82]
        trie equivalence."""
        bits = 12
        tree = PRQuadtree(capacity=1)
        tree.insert_many(pts)
        height = min(tree.height(), bits)
        codes = {p: morton_key(p, bits=bits) for p in pts}
        for depth in range(height + 1):
            # block id of each point at this depth, from the geometry
            def block_id(p):
                rect = Rect.unit(2)
                path = []
                for _ in range(depth):
                    idx = rect.quadrant_index(p)
                    path.append(idx)
                    rect = rect.child(idx)
                return tuple(path)

            for a in pts:
                for b in pts:
                    same_block = block_id(a) == block_id(b)
                    same_prefix = prefix_at_depth(
                        codes[a], depth, 2, bits
                    ) == prefix_at_depth(codes[b], depth, 2, bits)
                    assert same_block == same_prefix

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            prefix_at_depth(0, 5, 2, 4)
