"""repro — population analysis for hierarchical data structures.

A full reproduction of Nelson & Samet, *"A Population Analysis for
Hierarchical Data Structures"* (SIGMOD 1987): the population model and
its solvers, the hierarchical structures it describes (PR quadtree
family, PMR quadtree, extendible hashing, grid file, EXCELL), the
statistical baseline it contrasts against, and the complete experiment
harness regenerating every table and figure in the paper.

Quickstart::

    from repro import PopulationModel, PRQuadtree, UniformPoints

    model = PopulationModel(capacity=4)
    print(model.expected_distribution())   # Table 1 theory row, m=4
    print(model.average_occupancy())       # Table 2 theory value, m=4

    tree = PRQuadtree(capacity=4)
    tree.insert_many(UniformPoints(seed=0).generate(1000))
    print(tree.occupancy_census().proportions())  # the experiment
"""

from typing import Dict, Tuple

from ._lazy import lazy_namespace

__version__ = "1.0.0"

#: Every public name, by the submodule that defines it.  Nothing is
#: imported until a name is first read (PEP 562), so ``repro serve``
#: loads the serving path without the paper toolkit.
_SUBMODULE_NAMES: Dict[str, Tuple[str, ...]] = {
    "core": (
        "AreaWeightedModel",
        "ModelComparison",
        "OscillationFit",
        "PMRPopulationModel",
        "PopulationModel",
        "SteadyState",
        "post_split_average_occupancy",
        "solve_analytic",
        "solve_eigen",
        "solve_fixed_point_iteration",
        "solve_newton",
        "transform_matrix",
    ),
    "excell": ("Excell",),
    "experiments": (
        "run_figure2",
        "run_figure3",
        "run_table1",
        "run_table2",
        "run_table3",
        "run_table4",
        "run_table5",
    ),
    "geometry": ("Point", "Rect", "Segment"),
    "gridfile": ("GridFile",),
    "hashing": ("ExtendibleHashing",),
    "quadtree": (
        "CensusAccumulator",
        "DepthCensus",
        "OccupancyCensus",
        "PMRQuadtree",
        "PointQuadtree",
        "PRBintree",
        "PRQuadtree",
    ),
    "runtime": (
        "ExperimentSpec",
        "ResultCache",
        "RunReport",
        "RuntimeConfig",
        "runtime_session",
    ),
    "storage": ("BufferPool", "PagedPRQuadtree", "PageFile"),
    "workloads": (
        "ClusteredPoints",
        "DiagonalPoints",
        "GaussianPoints",
        "RandomSegments",
        "UniformPoints",
        "logarithmic_sample_sizes",
    ),
}

_HOME, __all__, __getattr__, __dir__ = lazy_namespace(
    __name__, _SUBMODULE_NAMES
)
