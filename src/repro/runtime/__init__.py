"""Trial execution with deterministic seeding, result caching, and run
metrics.

The harness and every table/figure/benchmark route their trial loops
through :func:`execute`, which consults the on-disk
:class:`ResultCache`, splits the trials into chunks of bounded size,
runs each chunk through the one trial body (:func:`build_trials`)
serially or on a plain process pool, and records a :class:`RunReport`'s
worth of metrics.  On the default ``engine="vector"`` a chunk is one
batched census-kernel call; the object-tree engine is the parity
oracle.
``runtime_session`` scopes a :class:`RuntimeConfig` over a whole
command so ``--workers`` and cache flags need no per-function
plumbing.
"""

from .cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from .executor import (
    ENGINES,
    ChunkOutcome,
    PersistentPool,
    RuntimeConfig,
    TrialResult,
    active_config,
    build_trials,
    execute,
    plan_chunks,
    runtime_session,
)
from .metrics import ChunkMetric, MetricsCollector, RunReport
from .spec import (
    SCHEMA_VERSION,
    ExperimentSpec,
    known_generators,
    rect_to_tuple,
    register_generator,
    tuple_to_rect,
)

__all__ = [
    "CACHE_DIR_ENV",
    "ChunkMetric",
    "ENGINES",
    "ChunkOutcome",
    "ExperimentSpec",
    "MetricsCollector",
    "PersistentPool",
    "ResultCache",
    "RunReport",
    "RuntimeConfig",
    "SCHEMA_VERSION",
    "TrialResult",
    "active_config",
    "build_trials",
    "default_cache_dir",
    "execute",
    "known_generators",
    "plan_chunks",
    "rect_to_tuple",
    "register_generator",
    "runtime_session",
    "tuple_to_rect",
]
