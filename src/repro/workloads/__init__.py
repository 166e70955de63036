"""Seeded workload generators for points, segments, queries, and
churn traces.

Names load from their submodules on first read (:mod:`repro._lazy`),
so a caller of the point generators, such as the server's preload,
loads no churn or query workload.
"""

from typing import Dict, Tuple

from .._lazy import lazy_namespace

#: Every public name, by the submodule that defines it.
_SUBMODULE_NAMES: Dict[str, Tuple[str, ...]] = {
    "churn": ("DELETE", "INSERT", "ChurnWorkload", "apply_churn"),
    "generators": (
        "ClusteredPoints",
        "DiagonalPoints",
        "GaussianPoints",
        "LatticeSubdivision",
        "PointGenerator",
        "RandomSegments",
        "UniformPoints",
        "logarithmic_sample_sizes",
    ),
    "queries": ("QueryWorkload",),
}

_HOME, __all__, __getattr__, __dir__ = lazy_namespace(
    __name__, _SUBMODULE_NAMES
)
