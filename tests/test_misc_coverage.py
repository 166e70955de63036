"""Focused tests for branches the main suites touch only indirectly."""

import numpy as np
import pytest

from repro.core import StochasticPopulation
from repro.core.fagin import expected_leaves_at_depth_poisson
from repro.experiments import render_semilog_ascii
from repro.geometry import Point, Rect
from repro.gridfile import GridFile
from repro.quadtree import OccupancyCensus, PMRQuadtree, PRQuadtree
from repro.workloads import (
    DiagonalPoints,
    GaussianPoints,
    RandomSegments,
    UniformPoints,
)


class TestRectSplittability:
    def test_unit_square_splittable(self):
        assert Rect.unit(2).is_splittable
        assert Rect.unit(2).is_splittable_on(0)
        assert Rect.unit(2).is_splittable_on(1)

    def test_degenerate_axis_detected(self):
        tiny = np.nextafter(0.0, 1.0)  # smallest positive subnormal
        thin = Rect(Point(0.0, 0.0), Point(tiny, 1.0))
        assert not thin.is_splittable_on(0)
        assert thin.is_splittable_on(1)
        assert not thin.is_splittable

    def test_axis_range_checked(self):
        with pytest.raises(ValueError):
            Rect.unit(2).is_splittable_on(2)


class TestCensusEdges:
    def test_capacity_zero_census(self):
        census = OccupancyCensus((5,))
        assert census.capacity == 0
        assert census.average_occupancy() == 0.0
        with pytest.raises(ValueError):
            census.storage_utilization()


class TestGridFileMerging:
    def test_scales_never_removed(self):
        grid = GridFile(bucket_capacity=1)
        pts = UniformPoints(seed=0).generate(50)
        grid.insert_many(pts)
        scale_counts = [len(s) for s in grid.scales()]
        for p in pts:
            grid.delete(p)
        assert [len(s) for s in grid.scales()] == scale_counts
        grid.validate()

    def test_merge_reduces_buckets(self):
        grid = GridFile(bucket_capacity=4)
        pts = UniformPoints(seed=1).generate(100)
        grid.insert_many(pts)
        full = grid.bucket_count()
        for p in pts:
            grid.delete(p)
        assert grid.bucket_count() < full


class TestPMRQueries:
    @pytest.fixture(scope="class")
    def tree(self):
        tree = PMRQuadtree(threshold=3)
        tree.insert_many(RandomSegments(seed=4).generate(120))
        return tree

    def test_window_query_no_duplicates_across_blocks(self, tree):
        whole = tree.window_query(tree.bounds)
        assert len(whole) == len(set(whole)) == len(tree)

    def test_nearest_segment_matches_brute_force(self, tree):
        for q in (Point(0.2, 0.8), Point(0.5, 0.5), Point(0.93, 0.07)):
            got = tree.nearest_segment(q)
            best = min(
                tree.segments(), key=lambda s: s.distance_to_point(q)
            )
            assert got.distance_to_point(q) == pytest.approx(
                best.distance_to_point(q)
            )

    def test_stabbing_outside_bounds(self, tree):
        assert tree.stabbing_query(Point(5.0, 5.0)) == []


class TestFigureRendering:
    def test_semilog_custom_y_range(self):
        art = render_semilog_ascii(
            [64, 128, 256], [3.5, 3.6, 3.4], y_range=(3.0, 4.0)
        )
        assert "4.00" in art and "3.00" in art
        assert art.count("o") == 3

    def test_semilog_flat_series(self):
        art = render_semilog_ascii([10, 100], [2.0, 2.0])
        assert "o" in art


class TestWorkloadStreams:
    def test_gaussian_stream_distinct(self):
        stream = GaussianPoints(seed=2).stream()
        pts = [next(stream) for _ in range(50)]
        assert len(set(pts)) == 50

    def test_diagonal_points_build_deep_trees(self):
        """The adversarial diagonal workload drives deeper trees than
        uniform data of the same size."""
        diag = PRQuadtree(capacity=1)
        diag.insert_many(DiagonalPoints(seed=3, jitter=0.002).generate(200))
        uniform = PRQuadtree(capacity=1)
        uniform.insert_many(UniformPoints(seed=3).generate(200))
        assert diag.height() > uniform.height()
        diag.validate()


class TestStochasticOctree:
    def test_octree_population_converges(self):
        pop = StochasticPopulation(capacity=2, buckets=8, seed=7)
        pop.insert_many(8000)
        pop.validate()
        from repro.core import PopulationModel

        e = PopulationModel(2, buckets=8).expected_distribution()
        assert np.max(np.abs(pop.proportions() - e)) < 0.03


class TestPoissonDepthZero:
    def test_root_leaf_probabilities(self):
        vec = expected_leaves_at_depth_poisson(3, capacity=4, depth=0)
        # Poisson(3) masses at 0..4
        assert vec.sum() == pytest.approx(0.815, abs=0.01)
        assert vec[3] == pytest.approx(0.224, abs=0.01)


class TestPRQuadtreeEdges:
    def test_conflicting_bounds_dim(self):
        with pytest.raises(ValueError):
            PRQuadtree(bounds=Rect.unit(2), dim=3)

    def test_nonconflicting_default_dim_with_3d_bounds(self):
        tree = PRQuadtree(bounds=Rect.unit(3), dim=3)
        assert tree.dim == 3

    def test_negative_bounds_tree(self):
        bounds = Rect(Point(-8, -8), Point(8, 8))
        tree = PRQuadtree(capacity=2, bounds=bounds)
        gen = UniformPoints(bounds=bounds, seed=8)
        tree.insert_many(gen.generate(300))
        tree.validate()
        assert tree.occupancy_census().total_items == 300
