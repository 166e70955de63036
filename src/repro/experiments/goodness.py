"""Goodness-of-fit between censuses and model distributions.

The paper compares distributions by eye ("agree fairly well").  This
module makes the comparison a statistic: Pearson chi-squared of an
observed node census against a model's expected distribution, with the
usual small-expected-count bucketing, plus total-variation and
Kullback–Leibler summaries.

Caveat baked into the API: PR-tree leaves are *not* independent draws
(siblings are produced together), so the chi-squared p-value is a
heuristic index of fit, not a calibrated test level — the docstring of
:func:`chi_squared_fit` repeats this and the tests check behavior, not
significance dogma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..quadtree.census import OccupancyCensus


@dataclass(frozen=True)
class FitResult:
    """A census-vs-model comparison."""

    statistic: float
    p_value: float
    dof: int
    total_variation: float
    kl_divergence: float

    @property
    def plausible(self) -> bool:
        """Heuristic: fit not rejected at the 1% index level."""
        return self.p_value > 0.01


def _pooled(counts: np.ndarray, expected: np.ndarray,
            min_expected: float) -> Tuple[np.ndarray, np.ndarray]:
    """Merge adjacent classes until every expected count is adequate."""
    pooled_counts: List[float] = []
    pooled_expected: List[float] = []
    acc_c, acc_e = 0.0, 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= min_expected:
            pooled_counts.append(acc_c)
            pooled_expected.append(acc_e)
            acc_c, acc_e = 0.0, 0.0
    if acc_e > 0:
        if pooled_expected:
            pooled_counts[-1] += acc_c
            pooled_expected[-1] += acc_e
        else:
            pooled_counts.append(acc_c)
            pooled_expected.append(acc_e)
    return np.asarray(pooled_counts), np.asarray(pooled_expected)


def chi_squared_fit(
    census: OccupancyCensus,
    model_distribution: Sequence[float],
    min_expected: float = 5.0,
) -> FitResult:
    """Pearson chi-squared of a census against a model distribution.

    Classes with expected counts below ``min_expected`` are pooled with
    neighbors (the standard smallness fix).  Because tree leaves are
    correlated, treat the p-value as a fit index, not a test level.
    """
    observed = np.asarray(census.counts, dtype=float)
    probabilities = np.asarray(model_distribution, dtype=float)
    if probabilities.shape != observed.shape:
        raise ValueError(
            f"model has {probabilities.shape[0]} classes, census "
            f"{observed.shape[0]}"
        )
    if abs(probabilities.sum() - 1.0) > 1e-6:
        raise ValueError("model distribution must sum to 1")
    total = observed.sum()
    if total <= 0:
        raise ValueError("census has no nodes")
    expected = probabilities * total
    obs_pooled, exp_pooled = _pooled(observed, expected, min_expected)
    if len(obs_pooled) < 2:
        raise ValueError(
            "fewer than two classes survive pooling; census too small"
        )
    dof = len(obs_pooled) - 1
    statistic = float(((obs_pooled - exp_pooled) ** 2 / exp_pooled).sum())
    from scipy import stats

    p_value = float(stats.chi2.sf(statistic, dof))

    observed_p = observed / total
    tv = float(0.5 * np.abs(observed_p - probabilities).sum())
    mask = observed_p > 0
    kl = float(
        (observed_p[mask]
         * np.log(observed_p[mask] / np.maximum(probabilities[mask], 1e-300))
         ).sum()
    )
    return FitResult(statistic, p_value, dof, tv, kl)
