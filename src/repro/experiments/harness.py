"""Experiment harness — the paper's measurement protocol.

Every experiment in the paper follows one recipe: build ``trials``
independent PR quadtrees from fresh random points, census each, and
average.  The harness parameterizes that recipe over node capacity,
sample size, data distribution, and depth truncation, and returns the
accumulated statistics the table builders print.

Seeding: trial ``t`` of an experiment seeded ``s`` uses generator seed
``s + t``, so every table is reproducible bit-for-bit and trials stay
independent.

Execution is delegated to :mod:`repro.runtime`: :func:`run_trials` is a
thin compatibility wrapper that lowers its arguments to an
:class:`~repro.runtime.ExperimentSpec` and calls
:func:`repro.runtime.execute`, which handles the result cache, the
process pool, and run metrics.  Parallel and cached runs are
bit-identical to the historical serial loop.  Custom generator
factories that the spec layer cannot name (arbitrary callables) still
work: they run in-process through the executor's own trial loop
(:func:`repro.runtime.build_trials`), just without caching or
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..geometry import Rect
from ..quadtree import CensusAccumulator, DepthCensus, PRQuadtree
from ..runtime import (
    ExperimentSpec,
    RuntimeConfig,
    TrialResult,
    active_config,
    build_trials,
    execute,
    plan_chunks,
    rect_to_tuple,
)
from ..workloads import GaussianPoints, PointGenerator, UniformPoints

GeneratorFactory = Callable[[Optional[int]], PointGenerator]


def uniform_factory(bounds: Optional[Rect] = None) -> GeneratorFactory:
    """Factory of seeded uniform generators over ``bounds``."""
    def factory(seed: Optional[int]) -> PointGenerator:
        return UniformPoints(bounds=bounds, seed=seed)

    factory.spec_generator = "uniform"
    factory.spec_bounds = bounds
    factory.spec_params = ()
    return factory


def gaussian_factory(bounds: Optional[Rect] = None) -> GeneratorFactory:
    """Factory of seeded paper-style Gaussian generators (sigma = side/4)."""
    def factory(seed: Optional[int]) -> PointGenerator:
        return GaussianPoints(bounds=bounds, seed=seed)

    factory.spec_generator = "gaussian"
    factory.spec_bounds = bounds
    factory.spec_params = ()
    return factory


@dataclass
class TrialSet:
    """Everything measured across one experiment's trials."""

    capacity: int
    n_points: int
    accumulator: CensusAccumulator
    depth_censuses: List[DepthCensus] = field(default_factory=list)
    area_occupancy: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def trials(self) -> int:
        """Number of trees built."""
        return self.accumulator.trials

    def merge(self, other: "TrialSet") -> None:
        """Fold another trial set's measurements into this one.

        Partial results from parallel workers combine exactly: count
        sums are integer-valued (exact float addition), and the
        collected census/area lists concatenate in trial order.
        """
        if other.capacity != self.capacity:
            raise ValueError(
                f"capacity mismatch: {other.capacity} vs {self.capacity}"
            )
        if other.n_points != self.n_points:
            raise ValueError(
                f"n_points mismatch: {other.n_points} vs {self.n_points}"
            )
        self.accumulator.merge(other.accumulator)
        self.depth_censuses.extend(other.depth_censuses)
        self.area_occupancy.extend(other.area_occupancy)

    def mean_proportions(self) -> Tuple[float, ...]:
        """Pooled occupancy proportions — experimental Table 1 rows."""
        return self.accumulator.mean_proportions()

    def mean_occupancy(self) -> float:
        """Pooled mean occupancy — experimental Table 2 column."""
        return self.accumulator.mean_occupancy()

    def mean_nodes(self) -> float:
        """Mean leaves per tree — the 'nodes' column of Tables 4/5."""
        return self.accumulator.mean_total_nodes()


def build_tree(
    points: Sequence,
    capacity: int,
    bounds: Optional[Rect] = None,
    max_depth: Optional[int] = None,
) -> PRQuadtree:
    """Build one PR quadtree from a point sequence."""
    tree = PRQuadtree(capacity=capacity, bounds=bounds, max_depth=max_depth)
    tree.insert_many(points)
    return tree


def spec_for(
    capacity: int,
    n_points: int = 1000,
    trials: int = 10,
    seed: int = 0,
    generator_factory: Optional[GeneratorFactory] = None,
    max_depth: Optional[int] = None,
    bounds: Optional[Rect] = None,
    collect_depth: bool = False,
    collect_area: bool = False,
) -> Optional[ExperimentSpec]:
    """Lower harness kwargs to an ExperimentSpec, or ``None`` when the
    generator factory is an arbitrary callable the spec layer cannot
    name (no ``spec_generator`` tag)."""
    if generator_factory is None:
        name, gen_bounds, params = "uniform", bounds, ()
    else:
        name = getattr(generator_factory, "spec_generator", None)
        if name is None:
            return None
        gen_bounds = getattr(generator_factory, "spec_bounds", None)
        params = tuple(getattr(generator_factory, "spec_params", ()))
    return ExperimentSpec(
        capacity=capacity,
        n_points=n_points,
        trials=trials,
        seed=seed,
        generator=name,
        generator_params=params,
        max_depth=max_depth,
        bounds=rect_to_tuple(bounds),
        generator_bounds=rect_to_tuple(gen_bounds),
        collect_depth=collect_depth,
        collect_area=collect_area,
    )


def _trial_set_from_result(
    result: TrialResult, n_points: int
) -> TrialSet:
    return TrialSet(
        capacity=result.capacity,
        n_points=n_points,
        accumulator=result.accumulator,
        depth_censuses=result.depth_censuses,
        area_occupancy=result.area_occupancy,
    )


def run_trials(
    capacity: int,
    n_points: int = 1000,
    trials: int = 10,
    seed: int = 0,
    generator_factory: Optional[GeneratorFactory] = None,
    max_depth: Optional[int] = None,
    bounds: Optional[Rect] = None,
    collect_depth: bool = False,
    collect_area: bool = False,
    workers: Optional[int] = None,
    runtime: Optional[RuntimeConfig] = None,
    engine: Optional[str] = None,
) -> TrialSet:
    """The paper's protocol: ``trials`` trees of ``n_points`` each.

    Set ``collect_depth`` for the aging experiment (per-depth censuses)
    and ``collect_area`` to gather ``(block area, occupancy)`` pairs
    for the area-weighted correction.

    Execution routes through :mod:`repro.runtime`: ``runtime`` pins an
    explicit :class:`RuntimeConfig` (otherwise the ambient
    ``runtime_session`` config, if any, applies); ``workers`` and
    ``engine`` override just that setting.  The default ``"vector"``
    engine runs trials through the Morton-code census kernel;
    ``engine="object"`` builds real trees — bit-identical statistics,
    much slower at large n (``collect_area`` runs always use the
    object engine, which alone has leaf rectangles to measure).
    Results are bit-identical across serial, parallel, cached, object
    and vector execution.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    spec = spec_for(
        capacity,
        n_points=n_points,
        trials=trials,
        seed=seed,
        generator_factory=generator_factory,
        max_depth=max_depth,
        bounds=bounds,
        collect_depth=collect_depth,
        collect_area=collect_area,
    )
    if spec is None:
        # an untagged factory: in-process and uncached, through the
        # executor's trial loop with the factory's own generators
        if engine is None:
            base = runtime if runtime is not None else active_config()
            engine = (base or RuntimeConfig()).engine
        tree_spec = spec_for(
            capacity, n_points=n_points, trials=trials, seed=seed,
            max_depth=max_depth, bounds=bounds,
            collect_depth=collect_depth, collect_area=collect_area,
        )
        result = TrialResult.empty(tree_spec.capacity)
        for start, count in plan_chunks(trials, 1, n_points):
            result.merge(build_trials(
                tree_spec, start, count, engine,
                make_generator=lambda trial: generator_factory(seed + trial),
            ))
        return _trial_set_from_result(result, n_points)
    overrides = {}
    if workers is not None:
        overrides["workers"] = workers
    if engine is not None:
        overrides["engine"] = engine
    if overrides:
        base = runtime if runtime is not None else active_config()
        runtime = (
            replace(base, **overrides)
            if base is not None
            else RuntimeConfig(**overrides)
        )
    return _trial_set_from_result(execute(spec, runtime), n_points)


@dataclass(frozen=True)
class SizeSweepPoint:
    """One (n, nodes, occupancy) sample of an occupancy-vs-size sweep."""

    n_points: int
    mean_nodes: float
    mean_occupancy: float


def sweep_stride(trials: int) -> int:
    """Seed-block stride between the sizes of a sweep.

    At least ``trials`` so consecutive sizes draw from disjoint seed
    blocks, and at least the historical 1,000 so sweeps at the usual
    trial counts keep their seed streams (and result-cache keys).
    """
    return max(trials, 1_000)


def occupancy_vs_size(
    capacity: int,
    sizes: Sequence[int],
    trials: int = 10,
    seed: int = 0,
    generator_factory: Optional[GeneratorFactory] = None,
    max_depth: Optional[int] = None,
    workers: Optional[int] = None,
    runtime: Optional[RuntimeConfig] = None,
    engine: Optional[str] = None,
) -> List[SizeSweepPoint]:
    """Mean node count and occupancy at each sample size — the phasing
    sweep behind Tables 4/5 and Figures 2/3.

    Different sizes use disjoint seed blocks so the samples are
    independent, as in the paper (fresh trees per size, not grown).
    The stride between blocks is ``max(trials, 1_000)`` — a fixed
    1,000 used to let sweeps with more than 1,000 trials reuse seeds
    across sizes, silently correlating the samples.  (Consequently,
    cache keys for >1,000-trial sweeps differ from pre-fix runs.)
    """
    sweep: List[SizeSweepPoint] = []
    stride = sweep_stride(trials)
    for index, n_points in enumerate(sizes):
        trial_set = run_trials(
            capacity,
            n_points=n_points,
            trials=trials,
            seed=seed + index * stride,
            generator_factory=generator_factory,
            max_depth=max_depth,
            workers=workers,
            runtime=runtime,
            engine=engine,
        )
        sweep.append(
            SizeSweepPoint(
                n_points=n_points,
                mean_nodes=trial_set.mean_nodes(),
                mean_occupancy=trial_set.mean_occupancy(),
            )
        )
    return sweep
