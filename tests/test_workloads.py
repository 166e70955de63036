"""Unit tests for the workload generators."""

import math

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.workloads import (
    ClusteredPoints,
    DiagonalPoints,
    GaussianPoints,
    RandomSegments,
    UniformPoints,
    logarithmic_sample_sizes,
)


class TestUniform:
    def test_count_and_distinctness(self):
        pts = UniformPoints(seed=0).generate(500)
        assert len(pts) == 500
        assert len(set(pts)) == 500

    def test_inside_bounds(self):
        bounds = Rect(Point(-2, -2), Point(2, 2))
        pts = UniformPoints(bounds=bounds, seed=1).generate(200)
        assert all(bounds.contains_point(p) for p in pts)

    def test_deterministic_seeding(self):
        a = UniformPoints(seed=7).generate(50)
        b = UniformPoints(seed=7).generate(50)
        assert a == b

    def test_different_seeds_differ(self):
        a = UniformPoints(seed=1).generate(50)
        b = UniformPoints(seed=2).generate(50)
        assert a != b

    def test_negative_n(self):
        with pytest.raises(ValueError):
            UniformPoints(seed=0).generate(-1)

    def test_stream_distinct(self):
        stream = UniformPoints(seed=3).stream()
        pts = [next(stream) for _ in range(100)]
        assert len(set(pts)) == 100

    def test_roughly_uniform_quadrant_counts(self):
        pts = UniformPoints(seed=4).generate(4000)
        counts = [0, 0, 0, 0]
        unit = Rect.unit(2)
        for p in pts:
            counts[unit.quadrant_index(p)] += 1
        for c in counts:
            assert 800 < c < 1200

    def test_higher_dimensions(self):
        pts = UniformPoints(dim=3, seed=5).generate(100)
        assert all(p.dim == 3 for p in pts)


class TestGaussian:
    def test_inside_bounds(self):
        pts = GaussianPoints(seed=0).generate(500)
        unit = Rect.unit(2)
        assert all(unit.contains_point(p) for p in pts)

    def test_concentrated_in_center(self):
        """sigma = 0.4*side: the central quarter-area box holds ~34% of
        the retained mass — above the uniform 25% but far from a tight
        bell (the calibrated middle ground, see generator docstring)."""
        pts = GaussianPoints(seed=1).generate(4000)
        central = Rect(Point(0.25, 0.25), Point(0.75, 0.75))
        inside = sum(1 for p in pts if central.contains_point(p))
        assert 0.28 < inside / len(pts) < 0.42

    def test_tight_sigma_concentrates_more(self):
        pts = GaussianPoints(seed=2, sigma_fraction=0.15).generate(1000)
        central = Rect(Point(0.25, 0.25), Point(0.75, 0.75))
        inside = sum(1 for p in pts if central.contains_point(p))
        assert inside / len(pts) > 0.8

    def test_sigma_fraction_validation(self):
        with pytest.raises(ValueError):
            GaussianPoints(sigma_fraction=0.0)

    def test_deterministic(self):
        assert (
            GaussianPoints(seed=3).generate(30)
            == GaussianPoints(seed=3).generate(30)
        )


class TestClustered:
    def test_centers_count(self):
        gen = ClusteredPoints(seed=0, n_clusters=5)
        assert len(gen.centers) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusteredPoints(n_clusters=0)
        with pytest.raises(ValueError):
            ClusteredPoints(cluster_sigma=0.0)

    def test_points_near_some_center(self):
        gen = ClusteredPoints(seed=1, n_clusters=4, cluster_sigma=0.02)
        pts = gen.generate(300)
        for p in pts:
            nearest = min(c.distance_to(p) for c in gen.centers)
            assert nearest < 0.15  # within a handful of sigmas

    def test_inside_bounds(self):
        pts = ClusteredPoints(seed=2).generate(200)
        unit = Rect.unit(2)
        assert all(unit.contains_point(p) for p in pts)


class TestDiagonal:
    def test_near_diagonal(self):
        pts = DiagonalPoints(seed=0, jitter=0.005).generate(200)
        for p in pts:
            assert abs(p.x - p.y) < 0.05

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            DiagonalPoints(jitter=-0.1)


class TestSegments:
    def test_count_and_distinctness(self):
        segs = RandomSegments(seed=0).generate(100)
        assert len(segs) == 100
        assert len(set(segs)) == 100

    def test_endpoints_inside_bounds(self):
        segs = RandomSegments(seed=1).generate(100)
        unit = Rect.unit(2)
        for s in segs:
            assert unit.contains_point(s.a)
            assert unit.contains_point(s.b)

    def test_length_range(self):
        segs = RandomSegments(seed=2, min_length=0.1, max_length=0.2).generate(100)
        for s in segs:
            assert 0.099 <= s.length <= 0.201

    def test_length_validation(self):
        with pytest.raises(ValueError):
            RandomSegments(min_length=0.3, max_length=0.2)
        with pytest.raises(ValueError):
            RandomSegments(min_length=0.0)

    def test_planar_bounds_required(self):
        with pytest.raises(ValueError):
            RandomSegments(bounds=Rect.unit(3))

    def test_deterministic(self):
        assert (
            RandomSegments(seed=3).generate(20)
            == RandomSegments(seed=3).generate(20)
        )


class TestSampleSizes:
    def test_paper_grid(self):
        """The defaults reproduce the paper's Table 4/5 sizes exactly."""
        assert logarithmic_sample_sizes() == [
            64, 90, 128, 181, 256, 362, 512, 724,
            1024, 1448, 2048, 2896, 4096,
        ]

    def test_power_of_two_entries_quadruple_exactly(self):
        sizes = logarithmic_sample_sizes(64, 4096, 4)
        powers = sizes[::4]
        for a, b in zip(powers, powers[1:]):
            assert b == 4 * a

    def test_validation(self):
        with pytest.raises(ValueError):
            logarithmic_sample_sizes(0, 100)
        with pytest.raises(ValueError):
            logarithmic_sample_sizes(100, 50)
        with pytest.raises(ValueError):
            logarithmic_sample_sizes(64, 4096, 0)

    def test_ratio_spacing(self):
        sizes = logarithmic_sample_sizes(100, 10_000, 2)
        ratios = [b / a for a, b in zip(sizes, sizes[1:])]
        for r in ratios:
            assert r == pytest.approx(2.0, rel=0.05)

    def test_single_step_doubles_are_quadruples(self):
        assert logarithmic_sample_sizes(10, 700, 1) == [10, 40, 160, 640]


class _ReplayRNG:
    """A ``Generator`` stand-in replaying a fixed stream: ``random``
    returns the values themselves and ``normal`` maps them to
    ``loc + scale * value``, one value per coordinate either way, so a
    test can script exactly which rows a generator draws."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)
        self.pos = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.pos

    @state.setter
    def state(self, pos):
        self.pos = pos

    def _take(self, size):
        count = 1 if size is None else int(np.prod(size))
        out = self._values[self.pos:self.pos + count]
        assert out.size == count, "replay stream exhausted"
        self.pos += count
        return float(out[0]) if size is None else out.reshape(size)

    def random(self, size=None):
        return self._take(size)

    def normal(self, loc, scale, size=None):
        return loc + scale * self._take(size)


class TestGenerateArray:
    """``generate_array`` must be bit-identical to ``generate`` — pool
    workers and vector trials draw with it while object-engine serial
    trials draw with ``generate``, so any divergence breaks the
    serial/parallel parity contract."""

    GENERATORS = [
        lambda seed, bounds: UniformPoints(seed=seed, bounds=bounds),
        lambda seed, bounds: GaussianPoints(seed=seed, bounds=bounds),
        lambda seed, bounds: ClusteredPoints(seed=seed, bounds=bounds),
        lambda seed, bounds: DiagonalPoints(seed=seed, bounds=bounds),
    ]

    @pytest.mark.parametrize("factory", GENERATORS)
    def test_bit_identical_to_generate(self, factory):
        bounds = Rect(Point(-1.0, 2.0), Point(3.0, 5.0))
        points = factory(9, bounds).generate(200)
        arr = factory(9, bounds).generate_array(200)
        assert arr.shape == (200, 2)
        assert arr.dtype == np.float64
        expected = np.array([tuple(p) for p in points], dtype=np.float64)
        assert np.array_equal(arr, expected)

    def test_unit_bounds_and_higher_dim(self):
        for dim in (1, 3):
            bounds = Rect.unit(dim)
            points = UniformPoints(seed=4, bounds=bounds).generate(150)
            arr = UniformPoints(seed=4, bounds=bounds).generate_array(150)
            expected = np.array(
                [tuple(p) for p in points], dtype=np.float64
            )
            assert np.array_equal(arr, expected)

    def test_stream_continuation_matches(self):
        # array and scalar draws interleave on one shared RNG stream
        mixed = UniformPoints(seed=7)
        scalar = UniformPoints(seed=7)
        first = mixed.generate_array(60)
        second = mixed.generate(60)
        expect = scalar.generate(120)
        assert np.array_equal(
            first, np.array([tuple(p) for p in expect[:60]])
        )
        assert second == expect[60:]

    @pytest.mark.parametrize("factory", GENERATORS)
    def test_rng_state_matches_generate(self, factory):
        # later draws on the same generator must not depend on which
        # of the two methods made the earlier points
        for n in (1, 37, 500):
            array_gen = factory(n, Rect.unit(2))
            scalar_gen = factory(n, Rect.unit(2))
            array_gen.generate_array(n)
            scalar_gen.generate(n)
            assert (
                array_gen._rng.bit_generator.state
                == scalar_gen._rng.bit_generator.state
            )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("sigma_fraction", [0.1, 0.4, 1.0, 3.0])
    def test_gaussian_bit_identical_across_seeds(self, dim, sigma_fraction):
        # sigma_fraction 3.0 rejects most rows, so several block draws
        # are needed; 0.1 rejects almost none
        boxes = [
            Rect.unit(dim),
            Rect(Point(*[-2.5] * dim), Point(*[0.75 + i for i in range(dim)])),
        ]
        for bounds in boxes:
            for seed in range(8):
                def make():
                    return GaussianPoints(
                        bounds=bounds, dim=dim, seed=seed,
                        sigma_fraction=sigma_fraction,
                    )

                array_gen, scalar_gen = make(), make()
                arr = array_gen.generate_array(300)
                expected = np.array(
                    [p.coords for p in scalar_gen.generate(300)],
                    dtype=np.float64,
                )
                assert np.array_equal(arr, expected)
                assert (
                    array_gen._rng.bit_generator.state
                    == scalar_gen._rng.bit_generator.state
                )

    @pytest.mark.parametrize("cls", [UniformPoints, GaussianPoints])
    def test_duplicate_rows_fall_back_to_scalar_loop(self, cls):
        # the first two draws repeat, so the vectorized rows hold a
        # duplicate; the result must still be the scalar loop's first
        # n distinct points, and the stream must stop where it stops
        stream = [0.1, 0.2, 0.1, 0.2] + [
            0.05 * k + 0.01 for k in range(1, 19)
        ] * 100

        def make():
            gen = cls(seed=0)
            gen._rng = _ReplayRNG(stream)
            return gen

        array_gen, scalar_gen = make(), make()
        arr = array_gen.generate_array(4)
        points = scalar_gen.generate(4)
        assert len(set(points)) == 4
        assert np.array_equal(
            arr, np.array([p.coords for p in points], dtype=np.float64)
        )
        assert array_gen._rng.pos == scalar_gen._rng.pos == 10

    def test_zero_points(self):
        arr = UniformPoints(seed=1).generate_array(0)
        assert arr.shape == (0, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UniformPoints(seed=1).generate_array(-1)


class TestGenerateThroughArrayDraw:
    """``generate`` wraps the vectorized draw where a class has one; the
    scalar ``_raw`` loop stays the reference it must equal bit for bit,
    leaving the RNG in the same state."""

    FACTORIES = {
        "uniform": UniformPoints,
        "gaussian": GaussianPoints,
        "clustered": ClusteredPoints,
        "diagonal": DiagonalPoints,
    }

    @staticmethod
    def _boxes(dim):
        return [
            Rect.unit(dim),
            Rect(Point(*[-2.5] * dim), Point(*[0.75 + i for i in range(dim)])),
        ]

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_scalar_loop(self, name, dim):
        cls = self.FACTORIES[name]
        for bounds in self._boxes(dim):
            for seed in (0, 11):
                fast = cls(bounds=bounds, dim=dim, seed=seed)
                slow = cls(bounds=bounds, dim=dim, seed=seed)
                got = fast.generate(257)
                want = slow._scalar_points(257)
                assert [p.coords for p in got] == [p.coords for p in want]
                assert got == want
                assert all(type(c) is float for p in got for c in p.coords)
                assert (
                    fast._rng.bit_generator.state
                    == slow._rng.bit_generator.state
                )

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_consecutive_calls_continue_the_stream(self, name):
        cls = self.FACTORIES[name]
        split = cls(seed=3)
        whole = cls(seed=3)
        first = split.generate(40)
        second = split.generate(25)
        assert first + second == whole._scalar_points(65)
        assert split._rng.random() == whole._rng.random()

    @pytest.mark.parametrize("cls", [UniformPoints, GaussianPoints])
    def test_duplicate_draw_falls_back_to_scalar_loop(self, cls, monkeypatch):
        gen = cls(seed=5)
        ref = cls(seed=5)
        real = cls._draw_rows

        def with_duplicate(self, n):
            rows = real(self, n)
            rows[-1] = rows[0]
            return rows

        monkeypatch.setattr(cls, "_draw_rows", with_duplicate)
        got = gen.generate(50)
        assert got == ref._scalar_points(50)
        assert len(set(got)) == 50
        assert gen._rng.bit_generator.state == ref._rng.bit_generator.state

    def test_nan_draw_falls_back_and_raises_like_point(self, monkeypatch):
        def with_nan(self, n):
            return np.full((n, self.bounds.dim), np.nan)

        monkeypatch.setattr(UniformPoints, "_draw_rows", with_nan)
        monkeypatch.setattr(
            UniformPoints, "_raw", lambda self: Point(float("nan"), 0.0)
        )
        with pytest.raises(ValueError, match="NaN"):
            UniformPoints(seed=1).generate(3)

    def test_zero_and_negative(self):
        gen = UniformPoints(seed=2)
        state = gen._rng.bit_generator.state
        assert gen.generate(0) == []
        assert gen._rng.bit_generator.state == state
        with pytest.raises(ValueError, match="n must be >= 0"):
            gen.generate(-1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            gen.generate_array(-1)

    def test_generate_and_generate_array_do_not_call_each_other(
        self, monkeypatch
    ):
        # a wrapper on either method (as a tracing benchmark installs)
        # must see exactly one call per public call
        from repro.workloads.generators import PointGenerator

        calls = []
        for attr in ("generate", "generate_array"):
            original = getattr(PointGenerator, attr)

            def counted(self, n, _original=original, _attr=attr):
                calls.append(_attr)
                return _original(self, n)

            monkeypatch.setattr(PointGenerator, attr, counted)
        ClusteredPoints(seed=1).generate(10)
        DiagonalPoints(seed=1).generate_array(10)
        GaussianPoints(seed=1).generate(10)
        assert calls == ["generate", "generate_array", "generate"]
