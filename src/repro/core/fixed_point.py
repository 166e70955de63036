"""Solvers for the expected-distribution equations ``e T = a e``.

The steady-state condition of Section III is the quadratic system

    e T = a(e) e,      a(e) = sum_i e_i (row-sum of T)_i,
    sum_i e_i = 1,     e_i >= 0,

which, once ``e`` is normalized to sum 1, is precisely the *left Perron
eigenproblem* of the nonnegative matrix **T**: the scalar ``a`` is the
dominant eigenvalue and ``e`` the associated left eigenvector.  **T**
is irreducible (occupancy ``i`` reaches ``m`` by absorbing points, and
a split reaches every occupancy), so Perron–Frobenius guarantees the
unique positive solution the paper cites from [Nels86b].

Four independent solvers are provided and cross-checked in the tests:

- :func:`solve_analytic` — closed form for ``m = 1``;
- :func:`solve_fixed_point_iteration` — the paper's "iterative
  technique": ``e <- normalize(e T)``;
- :func:`solve_newton` — damped Newton on the full quadratic system
  via ``scipy.optimize.root``;
- :func:`solve_eigen` — direct left-eigenvector extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs


@dataclass(frozen=True)
class SteadyState:
    """A solved expected distribution.

    Attributes
    ----------
    distribution:
        The expected distribution vector ``e`` (sums to 1, positive).
    growth:
        The scalar ``a`` — expected nodes produced per insertion, also
        the rate of node-count growth ``d(nodes)/dn``.
    iterations:
        Iterations the solver used (0 for direct methods).
    """

    distribution: np.ndarray
    growth: float
    iterations: int = 0

    @property
    def capacity(self) -> int:
        """Node capacity m (one less than the vector length)."""
        return len(self.distribution) - 1

    def average_occupancy(self) -> float:
        """Dot product of ``e`` with ``(0, 1, ..., m)`` — Table 2's
        theoretical column."""
        return float(
            np.dot(self.distribution, np.arange(len(self.distribution)))
        )

    def storage_utilization(self) -> float:
        """Average occupancy over capacity — expected slot usage."""
        return self.average_occupancy() / self.capacity

    def fraction_empty(self) -> float:
        """Steady-state proportion of empty nodes, ``e_0``."""
        return float(self.distribution[0])

    def fraction_full(self) -> float:
        """Steady-state proportion of full nodes, ``e_m``."""
        return float(self.distribution[-1])


def _validate_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transform matrix must be square, got {matrix.shape}")
    if matrix.shape[0] < 2:
        raise ValueError("transform matrix needs at least two node types")
    if (matrix < 0).any():
        raise ValueError("transform matrix entries must be nonnegative")
    return matrix


def residual(matrix: np.ndarray, distribution: np.ndarray) -> float:
    """Max-norm residual of ``e T = a e`` at a candidate ``e``.

    ``a`` is taken as ``sum(e T)`` (forced by normalization), so a true
    solution has residual 0 regardless of how it was produced.
    """
    matrix = _validate_matrix(matrix)
    e = np.asarray(distribution, dtype=float)
    produced = e @ matrix
    a = produced.sum()
    return float(np.max(np.abs(produced - a * e)))


def solve_fixed_point_iteration(
    matrix: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    initial: Optional[np.ndarray] = None,
) -> SteadyState:
    """The paper's iterative technique: repeatedly push the current
    distribution through **T** and renormalize.

    Each sweep maps ``e`` to ``e T / sum(e T)`` — "insert a unit of
    data according to the current proportions, then read off the
    proportions of the nodes produced".  Converges geometrically to
    the Perron vector from any positive start.
    """
    matrix = _validate_matrix(matrix)
    n = matrix.shape[0]
    if initial is None:
        e = np.full(n, 1.0 / n)
    else:
        e = np.asarray(initial, dtype=float)
        if e.shape != (n,) or (e < 0).any() or e.sum() <= 0:
            raise ValueError("initial distribution must be nonnegative, nonzero")
        e = e / e.sum()
    with obs.span("solver.fixed_point"):
        for iteration in range(1, max_iter + 1):
            produced = e @ matrix
            total = produced.sum()
            if total <= 0:
                raise ArithmeticError("transform produced no nodes")
            nxt = produced / total
            if np.max(np.abs(nxt - e)) < tol:
                if obs.enabled():
                    obs.gauge("solver.fixed_point.iterations", iteration)
                    obs.gauge(
                        "solver.fixed_point.residual", residual(matrix, nxt)
                    )
                return SteadyState(
                    nxt, float(nxt @ matrix.sum(axis=1)), iteration
                )
            e = nxt
    raise ArithmeticError(
        f"fixed-point iteration did not converge in {max_iter} sweeps"
    )


def solve_eigen(matrix: np.ndarray) -> SteadyState:
    """Direct solution: the left Perron eigenvector of **T**.

    Normalizing ``e`` to sum 1 turns the quadratic system into the
    linear eigenproblem ``e T = a e``; the dominant eigenvalue's left
    eigenvector is the unique positive solution.
    """
    matrix = _validate_matrix(matrix)
    with obs.span("solver.eigen"):
        values, vectors = np.linalg.eig(matrix.T)
        lead = int(np.argmax(values.real))
        vec = vectors[:, lead].real
        if vec.sum() < 0:
            vec = -vec
        if (vec < -1e-9).any():
            raise ArithmeticError(
                "dominant eigenvector not positive; matrix not irreducible?"
            )
        vec = np.clip(vec, 0.0, None)
        e = vec / vec.sum()
    if obs.enabled():
        obs.gauge("solver.eigen.residual", residual(matrix, e))
    return SteadyState(e, float(values[lead].real), 0)


def solve_newton(
    matrix: np.ndarray,
    initial: Optional[np.ndarray] = None,
) -> SteadyState:
    """Newton's method on the full quadratic system.

    Unknowns are ``(e_0..e_m, a)``; equations are the ``m+1`` residuals
    of ``e T - a e`` plus the normalization ``sum e = 1``.  This treats
    the problem exactly as the paper frames it — a set of quadratic
    equations — without exploiting the eigenstructure.
    """
    matrix = _validate_matrix(matrix)
    n = matrix.shape[0]
    row_totals = matrix.sum(axis=1)

    def equations(x: np.ndarray) -> np.ndarray:
        e, a = x[:n], x[n]
        return np.concatenate([e @ matrix - a * e, [e.sum() - 1.0]])

    def jacobian(x: np.ndarray) -> np.ndarray:
        e, a = x[:n], x[n]
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = matrix.T - a * np.eye(n)
        jac[:n, n] = -e
        jac[n, :n] = 1.0
        return jac

    if initial is None:
        e0 = np.full(n, 1.0 / n)
    else:
        e0 = np.asarray(initial, dtype=float)
        e0 = e0 / e0.sum()
    x0 = np.concatenate([e0, [float(e0 @ row_totals)]])
    # imported on first use: scipy.optimize is slow to load and only
    # this solver needs it
    from scipy import optimize

    with obs.span("solver.newton"):
        result = optimize.root(equations, x0, jac=jacobian, method="hybr")
    if not result.success:
        raise ArithmeticError(f"Newton solve failed: {result.message}")
    e = result.x[:n]
    if (e < -1e-9).any():
        raise ArithmeticError("Newton converged to a non-positive solution")
    e = np.clip(e, 0.0, None)
    e = e / e.sum()
    if obs.enabled():
        obs.gauge("solver.newton.iterations", int(result.nfev))
        obs.gauge("solver.newton.residual", residual(matrix, e))
    return SteadyState(e, float(result.x[n]), int(result.nfev))


def solve_analytic(buckets: int = 4) -> SteadyState:
    """Closed form for capacity ``m = 1``.

    With ``T = [[0, 1], [b-1, 2]]`` the dominant eigenvalue solves
    ``a^2 - 2a - (b-1) = 0``, so ``a = 1 + sqrt(b)`` and
    ``e_1/e_0 = a/(b-1)``.  For the quadtree (b=4): ``a = 3`` and
    ``e = (1/2, 1/2)`` — the paper's analytic example.
    """
    if buckets < 2:
        raise ValueError(f"buckets must be >= 2, got {buckets}")
    a = 1.0 + math.sqrt(buckets)
    ratio = a / (buckets - 1)  # e_1 / e_0
    e0 = 1.0 / (1.0 + ratio)
    return SteadyState(np.array([e0, 1.0 - e0]), a, 0)


def solve(matrix: np.ndarray, method: str = "iteration") -> SteadyState:
    """Dispatch to a named solver: 'iteration', 'eigen', or 'newton'."""
    solvers = {
        "iteration": solve_fixed_point_iteration,
        "eigen": solve_eigen,
        "newton": solve_newton,
    }
    if method not in solvers:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(solvers)}"
        )
    return solvers[method](matrix)
