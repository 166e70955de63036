"""The statistical baseline: exact expected occupancy analysis.

Section III of the paper contrasts population analysis with "a typical
statistical approach": compute, for every tree size n, the average
state vector ``d_n`` over all trees of n uniform points, and hope the
sequence converges.  Fagin et al. (1979) carried this through for
extendible hashing; the paper notes their result transfers to the PR
quadtree "with slight modifications" and that the limit does **not**
exist — ``d_n`` oscillates forever (phasing).

This module performs that statistical computation for the generalized
PR tree, exactly.  The key observation making it tractable: a depth-k
block B is a leaf iff it holds at most m points *and its parent holds
more than m* (ancestor counts nest, so the parent condition subsumes
the rest).  Under uniform data the joint law of (points in B, points
in the rest of the parent) is multinomial, giving

    E[leaves at depth k with occupancy j]
        = b^k ( P[B = j] - P[B = j, parent <= m] )

with B ~ Binomial(n, b^-k).  A Poisson cell-model variant (independent
Poisson counts, Fagin's asymptotic regime) is also provided.

Evaluating the average occupancy n -> n / E[total leaves] exhibits the
non-damping oscillation with period b in n that the paper's Tables 4
and Figure 2 measure experimentally.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np


def gammaln(x):
    """``scipy.special.gammaln``, imported on the first call.

    ``scipy.special`` takes 0.3–0.4 s to load (2-vCPU host) and only
    the model functions need it, so a server that never takes a drift
    sample never pays for it.  The import rebinds this module's ``gammaln`` to
    the ufunc itself: later calls from the helpers below (and from
    :mod:`repro.core.density_model`, which shares them) go straight to
    it.
    """
    global gammaln
    from scipy.special import gammaln

    return gammaln(x)


def _check(n: int, capacity: int, buckets: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if buckets < 2:
        raise ValueError(f"buckets must be >= 2, got {buckets}")


def _log_binom_pmf(count: int, trials: int, p: float) -> float:
    """log P[Binomial(trials, p) = count], handling the p edge cases."""
    if count < 0 or count > trials:
        return -math.inf
    if p <= 0.0:
        return 0.0 if count == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if count == trials else -math.inf
    return float(
        gammaln(trials + 1)
        - gammaln(count + 1)
        - gammaln(trials - count + 1)
        + count * math.log(p)
        + (trials - count) * math.log1p(-p)
    )


def _binom_pmf(count: int, trials: int, p: float) -> float:
    lp = _log_binom_pmf(count, trials, p)
    return math.exp(lp) if lp > -700 else 0.0


def _log_trinomial(n: int, j: int, s: int, pj: float, ps: float) -> float:
    """log P[(X, Y) = (j, s)] for a multinomial over (pj, ps, rest)."""
    rest = n - j - s
    p_rest = 1.0 - pj - ps
    if rest < 0:
        return -math.inf
    if p_rest < 0:
        p_rest = 0.0  # float dust at the k=1 boundary where b*p == 1
    terms = gammaln(n + 1) - gammaln(j + 1) - gammaln(s + 1) - gammaln(rest + 1)
    for count, prob in ((j, pj), (s, ps), (rest, p_rest)):
        if count > 0:
            if prob <= 0.0:
                return -math.inf
            terms += count * math.log(prob)
    return float(terms)


def expected_leaves_at_depth(
    n: int, capacity: int, depth: int, buckets: int = 4
) -> np.ndarray:
    """Expected leaf counts by occupancy at one depth, exactly.

    Returns a vector of length ``capacity + 1`` whose ``j``-th entry is
    the expected number of depth-``depth`` leaves holding ``j`` points
    in a PR tree of ``n`` uniform points.
    """
    _check(n, capacity, buckets)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    m, b = capacity, buckets
    out = np.zeros(m + 1)
    if depth == 0:
        if n <= m:
            out[n] = 1.0
        return out
    p = float(b) ** (-depth)
    sibling_p = (b - 1) * p  # the rest of the parent block
    blocks = float(b) ** depth
    for j in range(m + 1):
        prob_j = _binom_pmf(j, n, p)
        # subtract the cases where the parent also fits (<= m points),
        # i.e. the block would never have been created.
        both = 0.0
        for s in range(0, m - j + 1):
            lt = _log_trinomial(n, j, s, p, sibling_p)
            if lt > -700:
                both += math.exp(lt)
        out[j] = blocks * max(prob_j - both, 0.0)
    return out


def expected_leaves_at_depth_poisson(
    n: int, capacity: int, depth: int, buckets: int = 4
) -> np.ndarray:
    """Poisson cell-model variant (Fagin's asymptotic regime).

    Block counts are independent Poisson(n / b^depth); the parent
    condition factorizes:  E = b^k P[Pois(lam) = j] P[Pois((b-1)lam) > m - j].
    """
    _check(n, capacity, buckets)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    m, b = capacity, buckets
    out = np.zeros(m + 1)
    lam = n / float(b) ** depth
    if depth == 0:
        # No parent: the root is a leaf iff it fits.
        for j in range(m + 1):
            out[j] = math.exp(-lam + j * math.log(lam) - gammaln(j + 1)) if lam > 0 else (1.0 if j == 0 else 0.0)
        return out
    sib_lam = (b - 1) * lam
    blocks = float(b) ** depth

    def pois_pmf(j: int, rate: float) -> float:
        if rate <= 0:
            return 1.0 if j == 0 else 0.0
        return math.exp(-rate + j * math.log(rate) - gammaln(j + 1))

    for j in range(m + 1):
        tail = 1.0 - sum(pois_pmf(s, sib_lam) for s in range(0, m - j + 1))
        out[j] = blocks * pois_pmf(j, lam) * max(tail, 0.0)
    return out


def expected_leaf_profile(
    n: int,
    capacity: int,
    buckets: int = 4,
    model: str = "exact",
    tol: float = 1e-9,
    max_depth: int = 64,
) -> Dict[int, np.ndarray]:
    """Expected leaf counts by depth and occupancy, all depths.

    Iterates depths until the expected number of *internal* blocks at a
    depth falls below ``tol`` (no leaves can appear deeper).
    """
    _check(n, capacity, buckets)
    per_depth = {
        "exact": expected_leaves_at_depth,
        "poisson": expected_leaves_at_depth_poisson,
    }
    if model not in per_depth:
        raise ValueError(f"unknown model {model!r}; use 'exact' or 'poisson'")
    fn = per_depth[model]
    m, b = capacity, buckets
    profile: Dict[int, np.ndarray] = {}
    for depth in range(max_depth + 1):
        profile[depth] = fn(n, capacity, depth, buckets)
        # expected internal blocks at this depth bounds deeper leaves
        p = float(b) ** (-depth)
        if model == "exact":
            prob_fit = sum(_binom_pmf(j, n, p) for j in range(m + 1))
        else:
            lam = n * p
            prob_fit = sum(
                math.exp(-lam + j * math.log(lam) - gammaln(j + 1))
                if lam > 0
                else (1.0 if j == 0 else 0.0)
                for j in range(m + 1)
            )
        internal = float(b) ** depth * (1.0 - prob_fit)
        if internal < tol:
            break
    else:
        raise ArithmeticError(f"profile did not close off by depth {max_depth}")
    return profile


def expected_distribution(
    n: int, capacity: int, buckets: int = 4, model: str = "exact"
) -> np.ndarray:
    """The statistical state vector ``d_n`` (normalized proportions).

    This is the quantity whose limit as n grows does not exist —
    compare against the population model's fixed point ``e``.
    """
    profile = expected_leaf_profile(n, capacity, buckets, model)
    totals = np.sum(list(profile.values()), axis=0)
    grand = totals.sum()
    if grand <= 0:
        raise ArithmeticError("no expected leaves; n too small?")
    return totals / grand


def expected_total_leaves(
    n: int, capacity: int, buckets: int = 4, model: str = "exact"
) -> float:
    """Expected leaf count of a tree of ``n`` uniform points."""
    profile = expected_leaf_profile(n, capacity, buckets, model)
    return float(np.sum(list(profile.values())))


def average_occupancy(
    n: int, capacity: int, buckets: int = 4, model: str = "exact"
) -> float:
    """Statistically exact expected average occupancy at size ``n``.

    Uses E[points]/E[leaves]; in the exact model every point lies in
    exactly one leaf so the numerator is n.
    """
    profile = expected_leaf_profile(n, capacity, buckets, model)
    totals = np.sum(list(profile.values()), axis=0)
    leaves = totals.sum()
    points = float(totals @ np.arange(capacity + 1))
    if leaves <= 0:
        raise ArithmeticError("no expected leaves; n too small?")
    return points / leaves


def occupancy_series(
    sizes: Sequence[int], capacity: int, buckets: int = 4, model: str = "exact"
) -> List[float]:
    """Average occupancy at each size — the analytic phasing curve
    underlying Figure 2's oscillation."""
    return [average_occupancy(n, capacity, buckets, model) for n in sizes]


def occupancy_by_depth(
    n: int,
    capacity: int,
    buckets: int = 4,
    model: str = "exact",
    min_expected_nodes: float = 1.0,
) -> Dict[int, float]:
    """Expected per-depth average occupancy — Table 3, analytically.

    The aging phenomenon falls straight out of the exact statistics:
    deeper (smaller) blocks have lower conditional occupancy given that
    they exist.  Depths whose expected leaf count falls below
    ``min_expected_nodes`` are omitted (they would be dominated by
    conditioning noise, as in the paper's sparse rows).
    """
    profile = expected_leaf_profile(n, capacity, buckets, model)
    occupancies = np.arange(capacity + 1)
    out: Dict[int, float] = {}
    for depth, counts in profile.items():
        nodes = counts.sum()
        if nodes >= min_expected_nodes:
            out[depth] = float(counts @ occupancies / nodes)
    return out
