"""Exact statistical model under arbitrary data densities.

:mod:`repro.core.fagin` computes the expected PR-tree census under
*uniform* data, where all depth-k blocks are exchangeable and a single
binomial term covers them.  Under a non-uniform density every block
carries its own probability mass, but the leaf characterization is
unchanged — block b is a leaf iff it fits and its parent does not —
so the computation survives as a *recursive descent*: expand a block
only while the chance it overflows is non-negligible, accumulate each
child's leaf contribution from the trinomial over (mass of child,
rest-of-parent, outside).

This yields the analytic counterpart of the paper's Table 5/Figure 3:
the expected occupancy curve for the Gaussian workload, whose
oscillation damps *in closed form* — the effect the paper could only
demonstrate by simulation.

Cost: expanded blocks ≈ expected internal nodes ≈ O(n), each O(m),
so a full Table 5 curve takes seconds.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np
from scipy.special import gammaln

from ..geometry import Rect


class Density:
    """A probability density over a bounding box.

    Subclasses implement :meth:`block_mass` — the probability that one
    sample falls in a given block.  Masses must be additive over a
    block's children and total 1 over the bounds.
    """

    def __init__(self, bounds: Optional[Rect] = None):
        self._bounds = bounds if bounds is not None else Rect.unit(2)

    @property
    def bounds(self) -> Rect:
        """The support box."""
        return self._bounds

    def block_mass(self, rect: Rect) -> float:
        raise NotImplementedError


class UniformDensity(Density):
    """Uniform over the bounds — reduces to the fagin module's model."""

    def block_mass(self, rect: Rect) -> float:
        return rect.volume / self._bounds.volume


class TruncatedGaussianDensity(Density):
    """The paper's Gaussian workload: axis-aligned normal centered in
    the box, truncated (renormalized) to it.

    ``sigma_fraction`` matches :class:`repro.workloads.GaussianPoints`
    (default 0.4: the calibrated reading of "two standard deviations
    wide").
    """

    def __init__(self, bounds: Optional[Rect] = None,
                 sigma_fraction: float = 0.4):
        # imported on first use: scipy.stats is slow to load and only
        # this density needs it
        from scipy.stats import norm

        super().__init__(bounds)
        if sigma_fraction <= 0:
            raise ValueError("sigma_fraction must be positive")
        self._sigma = [
            sigma_fraction * self._bounds.side(i)
            for i in range(self._bounds.dim)
        ]
        self._center = self._bounds.center
        # per-axis normalization over the truncated support
        self._axis_mass = [
            norm.cdf(
                (self._bounds.hi[i] - self._center[i]) / self._sigma[i]
            )
            - norm.cdf(
                (self._bounds.lo[i] - self._center[i]) / self._sigma[i]
            )
            for i in range(self._bounds.dim)
        ]

    def block_mass(self, rect: Rect) -> float:
        from scipy.stats import norm

        mass = 1.0
        for i in range(self._bounds.dim):
            z_hi = (rect.hi[i] - self._center[i]) / self._sigma[i]
            z_lo = (rect.lo[i] - self._center[i]) / self._sigma[i]
            mass *= (norm.cdf(z_hi) - norm.cdf(z_lo)) / self._axis_mass[i]
        return float(mass)


def _log_trinomial(n: int, j: int, s: int, pj: float, ps: float) -> float:
    rest = n - j - s
    p_rest = max(1.0 - pj - ps, 0.0)
    if rest < 0:
        return -math.inf
    total = gammaln(n + 1) - gammaln(j + 1) - gammaln(s + 1) - gammaln(rest + 1)
    for count, prob in ((j, pj), (s, ps), (rest, p_rest)):
        if count > 0:
            if prob <= 0.0:
                return -math.inf
            total += count * math.log(prob)
    return float(total)


def _binom_pmf(count: int, trials: int, p: float) -> float:
    if count < 0 or count > trials:
        return 0.0
    if p <= 0.0:
        return 1.0 if count == 0 else 0.0
    if p >= 1.0:
        return 1.0 if count == trials else 0.0
    lp = (
        gammaln(trials + 1)
        - gammaln(count + 1)
        - gammaln(trials - count + 1)
        + count * math.log(p)
        + (trials - count) * math.log1p(-p)
    )
    return math.exp(lp) if lp > -700 else 0.0


def _overflow_probability(n: int, capacity: int, mass: float) -> float:
    """P[Binomial(n, mass) > capacity]."""
    return max(
        0.0,
        1.0 - sum(_binom_pmf(j, n, mass) for j in range(capacity + 1)),
    )


def expected_leaf_census(
    n: int,
    capacity: int,
    density: Density,
    eps: float = 1e-9,
    max_depth: int = 40,
) -> np.ndarray:
    """Expected leaf counts by occupancy under an arbitrary density.

    Recursive descent over the regular decomposition of the density's
    bounds: a block is expanded while its overflow probability exceeds
    ``eps``; each child contributes its exact leaf probability
    ``P[child = j, parent > m]`` via the trinomial over (child mass,
    rest-of-parent mass, outside).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    m = capacity
    out = np.zeros(m + 1)
    # root leaf case
    if n <= m:
        out[n] = 1.0
        return out

    def leaf_terms(child_mass: float, parent_mass: float) -> np.ndarray:
        contributions = np.zeros(m + 1)
        sibling = max(parent_mass - child_mass, 0.0)
        for j in range(m + 1):
            fit_both = 0.0
            for s in range(0, m - j + 1):
                lt = _log_trinomial(n, j, s, child_mass, sibling)
                if lt > -700:
                    fit_both += math.exp(lt)
            contributions[j] = max(
                _binom_pmf(j, n, child_mass) - fit_both, 0.0
            )
        return contributions

    stack = [(density.bounds, density.block_mass(density.bounds), 0)]
    while stack:
        rect, mass, depth = stack.pop()
        if depth >= max_depth:
            raise ArithmeticError(
                f"density model did not close off by depth {max_depth}"
            )
        for child in rect.split():
            child_mass = density.block_mass(child)
            out += leaf_terms(child_mass, mass)
            if _overflow_probability(n, m, child_mass) > eps:
                stack.append((child, child_mass, depth + 1))
    return out


def average_occupancy(
    n: int, capacity: int, density: Density, eps: float = 1e-9
) -> float:
    """Expected mean occupancy at size ``n`` under ``density``."""
    census = expected_leaf_census(n, capacity, density, eps)
    leaves = census.sum()
    if leaves <= 0:
        raise ArithmeticError("no expected leaves")
    points = float(census @ np.arange(capacity + 1))
    return points / leaves


def occupancy_series(
    sizes, capacity: int, density: Density, eps: float = 1e-9
) -> list:
    """The analytic occupancy-vs-n curve — Figure 2/3 without trees."""
    return [average_occupancy(n, capacity, density, eps) for n in sizes]
