"""Vectorized fast paths for the experiment pipeline.

The object structures in :mod:`repro.quadtree` are the readable,
queryable reference implementations; this package holds numpy kernels
that reproduce specific reductions of them — bit-identically — without
materializing trees.  Currently:

- :func:`vector_census` / :class:`LeafPartition` — the Morton-code
  census engine, selected by ``engine="vector"`` in the runtime;
- :func:`vector_census_batch` — the same engine over a stack of
  trials at once (one quantization, one row-wise sort and one scan per
  batch), which the runtime calls once per chunk of trials;
- :func:`rows_distinct` — the exact duplicate-row test the census
  and the vectorized point generators share;
- :class:`QueryKernel` / :class:`PartialMatchResult` — sort-once batch
  *query* kernels over the same sorted Morton array: range queries as
  code-interval stabs, exact batched k-NN, and partial match with
  exact tree-visit cost accounting (``engine="vector"`` on the query
  paths).

Names load from their submodules on first read (:mod:`repro._lazy`),
so a caller of the census, such as the paged tree's bulk loader, loads
no query kernel.
"""

from typing import Dict, Tuple

from .._lazy import lazy_namespace

#: Every public name, by the submodule that defines it.
_SUBMODULE_NAMES: Dict[str, Tuple[str, ...]] = {
    "census": (
        "LeafPartition",
        "rows_distinct",
        "vector_census",
        "vector_census_batch",
    ),
    "queries": ("PartialMatchResult", "QueryKernel"),
}

_HOME, __all__, __getattr__, __dir__ = lazy_namespace(
    __name__, _SUBMODULE_NAMES
)
