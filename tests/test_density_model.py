"""Tests for the arbitrary-density statistical model."""

import numpy as np
import pytest

from repro.core import (
    Density,
    TruncatedGaussianDensity,
    UniformDensity,
    density_average_occupancy,
    density_expected_leaf_census,
    fagin,
)
from repro.experiments import run_trials
from repro.geometry import Point, Rect


class TestDensities:
    def test_uniform_masses(self):
        u = UniformDensity()
        assert u.block_mass(u.bounds) == pytest.approx(1.0)
        for child in u.bounds.split():
            assert u.block_mass(child) == pytest.approx(0.25)

    def test_gaussian_masses_sum_to_one(self):
        g = TruncatedGaussianDensity()
        children = g.bounds.split()
        assert sum(g.block_mass(c) for c in children) == pytest.approx(1.0)

    def test_gaussian_center_heavier_than_corner(self):
        g = TruncatedGaussianDensity(sigma_fraction=0.3)
        center = Rect(Point(0.375, 0.375), Point(0.625, 0.625))
        corner = Rect(Point(0.0, 0.0), Point(0.25, 0.25))
        assert g.block_mass(center) > g.block_mass(corner)

    def test_gaussian_additivity(self):
        g = TruncatedGaussianDensity()
        block = Rect(Point(0.25, 0.25), Point(0.5, 0.5))
        children_mass = sum(g.block_mass(c) for c in block.split())
        assert children_mass == pytest.approx(g.block_mass(block))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            TruncatedGaussianDensity(sigma_fraction=0.0)

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            Density().block_mass(Rect.unit(2))


class TestUniformReduction:
    @pytest.mark.parametrize("n,m", [(50, 2), (200, 4), (1000, 8)])
    def test_matches_fagin_exactly(self, n, m):
        """With a uniform density, the descent reproduces the closed
        per-depth computation of the fagin module."""
        ours = density_average_occupancy(n, m, UniformDensity())
        reference = fagin.average_occupancy(n, m)
        assert ours == pytest.approx(reference, rel=1e-6)

    def test_census_matches_fagin(self):
        census = density_expected_leaf_census(300, 4, UniformDensity())
        reference = np.sum(
            list(fagin.expected_leaf_profile(300, 4).values()), axis=0
        )
        assert census == pytest.approx(reference, rel=1e-6)

    def test_tiny_n_is_root_leaf(self):
        census = density_expected_leaf_census(2, 4, UniformDensity())
        assert census[2] == 1.0
        assert census.sum() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            density_expected_leaf_census(-1, 4, UniformDensity())
        with pytest.raises(ValueError):
            density_expected_leaf_census(10, 0, UniformDensity())


class TestGaussianModel:
    def test_matches_gaussian_simulation(self):
        """The analytic Gaussian census lands on the simulated one."""
        from repro.experiments.harness import gaussian_factory

        n, m = 362, 8
        analytic = density_average_occupancy(
            n, m, TruncatedGaussianDensity(), eps=1e-7
        )
        trials = run_trials(
            m, n_points=n, trials=10, seed=5,
            generator_factory=gaussian_factory(),
        )
        assert analytic == pytest.approx(trials.mean_occupancy(), rel=0.05)

    def test_conserves_points(self):
        n, m = 256, 8
        census = density_expected_leaf_census(
            n, m, TruncatedGaussianDensity(), eps=1e-9
        )
        assert float(census @ np.arange(m + 1)) == pytest.approx(n, rel=1e-4)

    def test_damping_is_analytic(self):
        """The Gaussian curve's swing between the n=256 crest region
        and n=512 trough region is smaller than the uniform curve's —
        damping derived, not simulated."""
        g = TruncatedGaussianDensity()
        u = UniformDensity()
        swing_g = abs(
            density_average_occupancy(256, 8, g, eps=1e-7)
            - density_average_occupancy(512, 8, g, eps=1e-7)
        )
        swing_u = abs(
            density_average_occupancy(256, 8, u, eps=1e-7)
            - density_average_occupancy(512, 8, u, eps=1e-7)
        )
        assert swing_g < swing_u


class TestSharedLogPmfHelpers:
    """The density model computes its binomial and trinomial terms with
    :mod:`repro.core.fagin`'s helpers.  These values were recorded with
    the model's own former copies of those helpers; they must not move
    by a single bit."""

    PINNED = {
        "uniform": [
            "0x1.031e0f40f30c1p+3", "0x1.0ebf3854daf9ep+4",
            "0x1.0124ec5c027b2p+4", "0x1.3bf0e77e56ebfp+3",
            "0x1.550c465ca0d08p+2",
        ],
        "gaussian": [
            "0x1.023dee9698b02p+3", "0x1.ef7fae3591de5p+3",
            "0x1.dc76b494c70d4p+3", "0x1.450e73d390848p+3",
            "0x1.843130a50ae16p+2",
        ],
    }

    @pytest.mark.parametrize("name", ["uniform", "gaussian"])
    def test_census_bit_identical_to_recorded(self, name):
        density = (
            UniformDensity() if name == "uniform"
            else TruncatedGaussianDensity(sigma_fraction=0.3)
        )
        census = density_expected_leaf_census(100, 4, density, eps=1e-6)
        assert [float(v).hex() for v in census] == self.PINNED[name]

    def test_helpers_are_fagins(self):
        from repro.core import density_model

        assert density_model._binom_pmf is fagin._binom_pmf
        assert density_model._log_trinomial is fagin._log_trinomial
