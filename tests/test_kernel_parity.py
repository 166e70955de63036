"""Vector vs object engine parity — the tentpole's correctness contract.

The vector census engine must be *bit-identical* to
``PRQuadtree(...).occupancy_census()`` / ``depth_census()`` for every
dimension, capacity, depth limit, bounds, and pathological point set.
These tests sweep that space with randomized and hypothesis-driven
inputs and also check the executor-level integration (serial, pooled,
and legacy paths give the same numbers on either engine).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import run_trials
from repro.geometry import Point, Rect
from repro.kernels import rows_distinct, vector_census, vector_census_batch
from repro.quadtree import PRQuadtree
from repro.runtime import ExperimentSpec, RuntimeConfig, build_trials
from repro.workloads import ClusteredPoints, UniformPoints


def assert_parity(pts, capacity, bounds=None, dim=2, max_depth=None):
    """Build both ways; every census statistic must match exactly."""
    tree_dim = bounds.dim if bounds is not None else dim
    tree = PRQuadtree(
        capacity=capacity, bounds=bounds, dim=tree_dim, max_depth=max_depth
    )
    for p in pts:
        tree.insert(p)
    partition = vector_census(
        pts, capacity, bounds=bounds, dim=tree_dim, max_depth=max_depth
    )
    assert partition.occupancy_census() == tree.occupancy_census()
    assert partition.depth_census() == tree.depth_census()
    assert partition.leaf_count == tree.leaf_count()
    assert partition.size == len(tree)
    if len(tree):
        assert partition.height() == tree.height()


def random_points(rng, n, bounds):
    return [
        Point(
            *(
                bounds.lo[i] + rng.random() * (bounds.hi[i] - bounds.lo[i])
                for i in range(bounds.dim)
            )
        )
        for _ in range(n)
    ]


class TestRandomizedSweep:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [1, 2, 8])
    def test_uniform_unit_box(self, dim, capacity):
        rng = random.Random(1000 * dim + capacity)
        for trial in range(5):
            bounds = Rect.unit(dim)
            pts = random_points(rng, rng.randrange(0, 200), bounds)
            assert_parity(pts, capacity, bounds=bounds, dim=dim)

    @pytest.mark.parametrize("max_depth", [0, 1, 3, 9])
    def test_depth_limits(self, max_depth):
        rng = random.Random(max_depth)
        pts = random_points(rng, 150, Rect.unit(2))
        assert_parity(pts, 1, max_depth=max_depth)
        assert_parity(pts, 4, max_depth=max_depth)

    def test_non_dyadic_bounds(self):
        # midpoints of these bounds are not exact binary fractions, so
        # any quantization that doesn't replay the tree's float descent
        # drifts within a few levels
        bounds = Rect(Point(0.1, 0.2), Point(0.9, 1.7))
        rng = random.Random(7)
        pts = random_points(rng, 300, bounds)
        assert_parity(pts, 2, bounds=bounds)
        assert_parity(pts, 8, bounds=bounds, max_depth=5)

    def test_negative_and_asymmetric_bounds(self):
        bounds = Rect(Point(-3.7, -0.01, 2.2), Point(-1.1, 0.93, 9.0))
        rng = random.Random(11)
        pts = random_points(rng, 120, bounds)
        assert_parity(pts, 2, bounds=bounds)

    def test_clustered_distribution(self):
        pts = ClusteredPoints(seed=5).generate(400)
        assert_parity(pts, 8)
        assert_parity(pts, 1, max_depth=9)


class TestNearCoincidentPoints:
    def test_cluster_beyond_one_code_budget(self):
        # points within 2**-40 share their first ~40 quadrant choices;
        # one 62-bit 2-d code resolves 31 levels, so the kernel must
        # recurse into the overfull prefix group (the worklist path)
        base = 0.3
        eps = 2.0 ** -40
        pts = [
            Point(base, base),
            Point(base + eps, base),
            Point(base, base + eps),
            Point(0.9, 0.9),
        ]
        assert_parity(pts, 1)

    @pytest.mark.parametrize("max_depth", [31, 32, 35, 45])
    def test_depth_limit_across_code_boundary(self, max_depth):
        base = 0.3
        eps = 2.0 ** -40
        pts = [Point(base, base), Point(base + eps, base)]
        assert_parity(pts, 1, max_depth=max_depth)

    def test_adjacent_floats_pin_leaves(self):
        # one-ulp-apart coordinates exhaust float precision: the tree
        # pins the unsplittable block and overflows it; so must we
        import math

        x = 0.5
        pts = [
            Point(x, 0.25),
            Point(math.nextafter(x, 1.0), 0.25),
            Point(math.nextafter(x, 0.0), 0.25),
        ]
        assert_parity(pts, 1)

    def test_tiny_coordinates(self):
        pts = [Point(1e-300, 1e-300), Point(2e-300, 1e-300), Point(0.5, 0.5)]
        assert_parity(pts, 1)


class TestDistinctRows:
    """``rows_distinct`` decides whether the census may skip its row
    dedupe, so every input it can misjudge must still census exactly
    like the tree (which rejects duplicates by float equality)."""

    BOUNDS = Rect(Point(-1.0, -1.0), Point(1.0, 1.0))

    def check(self, rows, distinct):
        arr = np.array(rows, dtype=np.float64)
        assert rows_distinct(arr) is distinct
        pts = [Point(*row) for row in rows]
        for capacity in (1, 2):
            tree = PRQuadtree(capacity=capacity, bounds=self.BOUNDS)
            tree.insert_many(pts)
            partition = vector_census(arr, capacity, bounds=self.BOUNDS)
            assert partition.occupancy_census() == tree.occupancy_census()
            assert partition.depth_census() == tree.depth_census()
            assert partition.size == len(tree)
        assert (len(set(pts)) == len(pts)) is distinct

    def test_shared_first_column_but_distinct(self):
        self.check(
            [(0.25, 0.1), (0.25, 0.7), (0.25, -0.3), (-0.5, 0.1)], True
        )

    def test_exact_duplicate_rows(self):
        self.check(
            [(0.25, 0.1), (0.6, 0.7), (0.25, 0.1), (0.25, 0.1)], False
        )

    def test_negative_zero_equals_zero(self):
        self.check([(0.0, 0.5), (-0.0, 0.5), (0.3, 0.3)], False)
        self.check([(0.5, 0.0), (0.5, -0.0), (0.3, 0.3)], False)
        self.check([(-0.0, 0.5), (0.0, -0.5), (0.3, 0.3)], True)

    def test_trivial_sizes(self):
        assert rows_distinct(np.empty((0, 2)))
        assert rows_distinct(np.array([[0.5, 0.5]]))


coord = st.floats(
    min_value=0.0, max_value=0.9999999, allow_nan=False, width=64
)


class TestHypothesisParity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), max_size=60),
        st.sampled_from([1, 2, 8]),
        st.sampled_from([None, 3, 9]),
    )
    def test_2d(self, rows, capacity, max_depth):
        pts = [Point(x, y) for x, y in rows]
        assert_parity(pts, capacity, max_depth=max_depth)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord, coord), max_size=40),
        st.sampled_from([1, 2, 8]),
    )
    def test_3d(self, rows, capacity):
        pts = [Point(x, y, z) for x, y, z in rows]
        assert_parity(pts, capacity, dim=3, bounds=Rect.unit(3))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(coord, max_size=60), st.sampled_from([1, 2]))
    def test_1d(self, xs, capacity):
        pts = [Point(x) for x in xs]
        assert_parity(pts, capacity, dim=1, bounds=Rect.unit(1))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=20))
    def test_near_coincident_perturbations(self, rows):
        # shadow every point with near-copies at descending offsets
        pts = [Point(x, y) for x, y in rows]
        for x, y in rows[:3]:
            for k in (1e-9, 1e-12, 1e-15):
                if x + k < 1.0:
                    pts.append(Point(x + k, y))
        assert_parity(pts, 1)
        assert_parity(pts, 2, max_depth=20)


class TestExecutorParity:
    def spec(self, **overrides):
        base = dict(
            capacity=4, n_points=400, trials=6, seed=77, collect_depth=True
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_build_trials_engines_agree(self):
        spec = self.spec()
        obj = build_trials(spec, 0, spec.trials, engine="object")
        vec = build_trials(spec, 0, spec.trials, engine="vector")
        assert obj.accumulator.count_sums == vec.accumulator.count_sums
        assert obj.depth_censuses == vec.depth_censuses

    def test_gaussian_generator(self):
        spec = self.spec(generator="gaussian")
        obj = build_trials(spec, 0, spec.trials, engine="object")
        vec = build_trials(spec, 0, spec.trials, engine="vector")
        assert obj.accumulator.count_sums == vec.accumulator.count_sums

    def test_run_trials_parallel_vector_matches_serial_object(self):
        serial = run_trials(
            4, n_points=300, trials=8, seed=21,
            runtime=RuntimeConfig(workers=1, engine="object"),
        )
        pooled = run_trials(
            4, n_points=300, trials=8, seed=21,
            runtime=RuntimeConfig(workers=2, engine="vector"),
        )
        assert serial.accumulator.count_sums == pooled.accumulator.count_sums

    def test_collect_area_falls_back_to_object(self):
        vec = run_trials(
            4, n_points=200, trials=2, seed=9, collect_area=True,
            runtime=RuntimeConfig(engine="vector"),
        )
        obj = run_trials(
            4, n_points=200, trials=2, seed=9, collect_area=True,
            runtime=RuntimeConfig(engine="object"),
        )
        assert vec.area_occupancy == obj.area_occupancy
        assert vec.area_occupancy  # the fallback actually collected

    def test_legacy_factory_honors_engine(self):
        def factory(seed):
            return UniformPoints(seed=seed)

        vec = run_trials(
            3, n_points=250, trials=3, seed=4, generator_factory=factory,
            engine="vector",
        )
        obj = run_trials(
            3, n_points=250, trials=3, seed=4, generator_factory=factory,
        )
        assert vec.accumulator.count_sums == obj.accumulator.count_sums

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            build_trials(self.spec(), 0, 1, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            run_trials(2, trials=1, runtime=RuntimeConfig(engine="warp"))


class TestBatchKernelParity:
    """``vector_census_batch`` must match per-trial ``vector_census``
    exactly — the pool's batched path feeds the same accumulators."""

    def batch(self, n_trials, n, dim, seed):
        rng = np.random.default_rng(seed)
        return rng.random((n_trials, n, dim))

    def assert_batch_parity(self, arrays, capacity, bounds=None,
                            dim=2, max_depth=None):
        parts = vector_census_batch(
            arrays, capacity, bounds=bounds, dim=dim, max_depth=max_depth
        )
        assert len(parts) == arrays.shape[0]
        for trial, part in enumerate(parts):
            pts = [Point(*row) for row in arrays[trial].tolist()]
            solo = vector_census(
                pts, capacity, bounds=bounds, dim=dim, max_depth=max_depth
            )
            assert part.occupancy_census() == solo.occupancy_census()
            assert part.depth_census() == solo.depth_census()
            assert part.leaf_count == solo.leaf_count
            assert part.size == solo.size
            if part.size:
                assert part.height() == solo.height()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [1, 2, 8])
    def test_uniform_sweep(self, dim, capacity):
        arrays = self.batch(5, 120, dim, seed=10 * dim + capacity)
        self.assert_batch_parity(
            arrays, capacity, bounds=Rect.unit(dim), dim=dim
        )

    @pytest.mark.parametrize("max_depth", [0, 1, 3, 9])
    def test_depth_limits(self, max_depth):
        arrays = self.batch(4, 90, 2, seed=max_depth)
        self.assert_batch_parity(arrays, 2, max_depth=max_depth)

    def test_custom_bounds(self):
        bounds = Rect(Point(-3.0, 0.25), Point(1.5, 1.75))
        lo = np.array(tuple(bounds.lo))
        hi = np.array(tuple(bounds.hi))
        arrays = lo + self.batch(3, 150, 2, seed=3) * (hi - lo)
        self.assert_batch_parity(arrays, 4, bounds=bounds)

    def test_varied_occupancy_across_trials(self):
        # trials whose trees differ wildly in depth exercise the
        # trial-tag bookkeeping through splits, empties, and pins
        rng = np.random.default_rng(8)
        arrays = np.empty((3, 64, 2))
        arrays[0] = rng.random((64, 2))                       # spread
        arrays[1] = 0.5 + rng.random((64, 2)) * 1e-6          # one cell
        arrays[2, :, 0] = np.linspace(0.01, 0.99, 64)         # diagonal
        arrays[2, :, 1] = arrays[2, :, 0]
        self.assert_batch_parity(arrays, 2)

    def test_deep_groups_past_code_budget(self):
        # a nextafter chain shares >62 bits of Morton prefix, forcing
        # the per-trial deep-group worklist inside the batch kernel
        chain = [0.3]
        for _ in range(5):
            chain.append(np.nextafter(chain[-1], 1.0))
        arrays = np.empty((2, len(chain) + 1, 2))
        arrays[0, :-1, 0] = chain
        arrays[0, :-1, 1] = 0.25
        arrays[0, -1] = (0.9, 0.9)
        arrays[1] = np.random.default_rng(5).random((len(chain) + 1, 2))
        self.assert_batch_parity(arrays, 1)
        self.assert_batch_parity(arrays, 1, max_depth=40)

    def test_trials_at_or_below_capacity(self):
        arrays = self.batch(3, 4, 2, seed=2)
        self.assert_batch_parity(arrays, 8)  # every trial one root leaf

    def test_empty_batch(self):
        assert vector_census_batch(np.empty((0, 10, 2)), 4) == []

    def test_single_trial_matches_scalar_path(self):
        arrays = self.batch(1, 200, 2, seed=77)
        self.assert_batch_parity(arrays, 4)

    def test_rejects_bad_shapes_and_params(self):
        flat = np.random.default_rng(1).random((10, 2))
        with pytest.raises(ValueError):
            vector_census_batch(flat, 4)  # 2-d, needs (B, n, dim)
        with pytest.raises(ValueError):
            vector_census_batch(flat[None], 0)  # capacity < 1
        with pytest.raises(ValueError):
            vector_census_batch(
                flat[None], 4, bounds=Rect.unit(3), dim=2
            )  # bounds/dim conflict

    def test_rejects_out_of_bounds_point(self):
        arrays = self.batch(2, 20, 2, seed=4)
        arrays[1, 7] = (1.5, 0.5)
        with pytest.raises(ValueError, match="outside"):
            vector_census_batch(arrays, 4)
