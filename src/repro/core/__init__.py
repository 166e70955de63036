"""Population analysis — the paper's contribution.

- :mod:`~repro.core.transform` — transform matrices **T**.
- :mod:`~repro.core.fixed_point` — solvers for ``e T = a e``.
- :mod:`~repro.core.population` — :class:`PopulationModel`, the API.
- :mod:`~repro.core.aging` — per-depth occupancy and the area-weighted
  correction.
- :mod:`~repro.core.phasing` — log-periodic oscillation analysis.
- :mod:`~repro.core.fagin` — the exact statistical baseline.
- :mod:`~repro.core.pmr_model` — population analysis of the PMR tree.

Names load on first read (PEP 562), as in the top-level package: the
server's drift monitor imports ``fagin`` and ``planning`` without the
rest of the toolkit.
"""

from typing import Dict, Tuple

from .._lazy import lazy_namespace

#: Every public name, by the submodule that defines it.
_SUBMODULE_NAMES: Dict[str, Tuple[str, ...]] = {
    "aging": (
        "AreaWeightedModel",
        "DepthRow",
        "aging_gradient",
        "calibrated_area_model",
        "depth_occupancy_table",
        "mean_area_by_occupancy",
    ),
    "density_model": (
        "Density",
        "TruncatedGaussianDensity",
        "UniformDensity",
        "density_average_occupancy",
        "density_expected_leaf_census",
        "density_occupancy_series",
    ),
    "dynamics": (
        "PopulationDynamics",
        "StochasticPopulation",
        "generation_span",
        "split_outcome_probabilities",
    ),
    "fagin": (
        "expected_leaf_profile",
        "expected_total_leaves",
        "statistical_average_occupancy",
        "statistical_expected_distribution",
        "statistical_occupancy_by_depth",
        "statistical_occupancy_series",
    ),
    "fixed_point": (
        "SteadyState",
        "residual",
        "solve",
        "solve_analytic",
        "solve_eigen",
        "solve_fixed_point_iteration",
        "solve_newton",
    ),
    "phasing": (
        "OscillationFit",
        "damping_ratio",
        "dominant_period",
        "extrema_spacing",
        "fit_oscillation",
        "log_periodogram",
        "oscillation_period",
    ),
    "planning": ("MAX_PLANNED_CAPACITY", "PlanValidation", "StoragePlanner"),
    "pmr_model": (
        "PMRPopulationModel",
        "crossing_probability_for",
        "estimate_crossing_probability",
        "pmr_transform_matrix",
    ),
    "population": ("ModelComparison", "PopulationModel"),
    "sensitivity": (
        "directional_derivative",
        "occupancy_gradient_wrt_matrix",
        "pmr_occupancy_error_bar",
        "pmr_occupancy_sensitivity",
    ),
    "transform": (
        "post_split_average_occupancy",
        "recursion_probability",
        "row_sums",
        "row_sums_exact",
        "split_distribution",
        "split_row",
        "transform_matrix",
        "transform_matrix_exact",
    ),
    "uniqueness": (
        "FixedPointCandidate",
        "enumerate_fixed_points",
        "is_irreducible",
        "verify_unique_positive",
    ),
}

#: Public names that rename their submodule's attribute.
_ALIASES: Dict[str, str] = {
    "density_average_occupancy": "average_occupancy",
    "density_expected_leaf_census": "expected_leaf_census",
    "density_occupancy_series": "occupancy_series",
    "statistical_average_occupancy": "average_occupancy",
    "statistical_expected_distribution": "expected_distribution",
    "statistical_occupancy_by_depth": "occupancy_by_depth",
    "statistical_occupancy_series": "occupancy_series",
}

_HOME, __all__, __getattr__, __dir__ = lazy_namespace(
    __name__, _SUBMODULE_NAMES, _ALIASES
)
