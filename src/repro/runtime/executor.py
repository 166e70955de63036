"""The trial-execution engine: chunked, parallel, cached, measured.

``execute(spec)`` is the one entry point.  It answers an
:class:`~repro.runtime.spec.ExperimentSpec` with a :class:`TrialResult`:

1. **cache** — if the active config enables caching and a valid entry
   exists, no trial runs at all;
2. **chunks** — the trial range is split into chunks
   (:func:`plan_chunks`) of at most :data:`CHUNK_POINTS` points each,
   and every chunk runs through the one trial body,
   :func:`build_trials`: it draws the chunk's points with
   ``generate_array``, and the default ``vector`` engine censuses them
   with one :func:`repro.kernels.vector_census_batch` call (one
   :func:`repro.kernels.vector_census` call for a one-trial chunk),
   while the
   ``object`` engine builds a real :class:`PRQuadtree` per trial, the
   parity oracle;
3. **serial or pool** — ``workers <= 1`` runs the chunks in-process in
   order.  With ``workers > 1`` each chunk goes to a worker of one
   ``ProcessPoolExecutor`` (one per :func:`runtime_session`, kept warm
   across calls; an ad-hoc config gets one per call), which returns the
   chunk's :class:`TrialResult`.  One failure rule: a chunk left
   without an outcome — the pool could not be created, a worker died,
   or the chunk raised in its worker — runs in-process in mode
   ``degraded``.  Trials are deterministic, so the rescue gives the
   pool's result.  Traced runs give every worker its own
   :class:`~repro.obs.Tracer`; the snapshots ride home with each chunk
   and graft onto the coordinator's trace as ``worker.N`` subtrees,
   next to utilization gauges (busy fraction per worker, straggler
   ratio, rescue fraction).

Every path preserves the harness's seed-stream contract: trial ``t``
uses generator seed ``spec.seed + t``, and partial results merge in
trial order, so parallel results are bit-identical to serial ones (see
``tests/test_runtime_parity.py``).

Configuration travels either explicitly (pass a :class:`RuntimeConfig`)
or ambiently via :func:`runtime_session`, which the CLI and the
benchmark suite use so deep call stacks need no new parameters.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..geometry import Point, Rect
from ..obs import Tracer
from ..quadtree import CensusAccumulator, DepthCensus, PRQuadtree
from ..workloads import PointGenerator
from .cache import ResultCache
from .metrics import MetricsCollector
from .spec import ExperimentSpec


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class TrialResult:
    """Everything a spec's trials measured, in mergeable form."""

    capacity: int
    accumulator: CensusAccumulator
    depth_censuses: List[DepthCensus] = field(default_factory=list)
    area_occupancy: List[Tuple[float, int]] = field(default_factory=list)

    @classmethod
    def empty(cls, capacity: int) -> "TrialResult":
        """A zero-trial result to merge partials into."""
        return cls(capacity=capacity, accumulator=CensusAccumulator(capacity))

    @property
    def trials(self) -> int:
        """Trials folded in so far."""
        return self.accumulator.trials

    def merge(self, other: "TrialResult") -> None:
        """Fold another partial result in (callers merge in trial order
        so collected lists line up with the serial path)."""
        if other.capacity != self.capacity:
            raise ValueError(
                f"capacity mismatch: {other.capacity} vs {self.capacity}"
            )
        self.accumulator.merge(other.accumulator)
        self.depth_censuses.extend(other.depth_censuses)
        self.area_occupancy.extend(other.area_occupancy)

    # -- serialization (cache entries) ---------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready representation; exact under a JSON round trip
        (counts are integer-valued floats, areas round-trip via repr)."""
        return {
            "count_sums": list(self.accumulator.count_sums),
            "trials": self.trials,
            "depth_censuses": [
                {
                    "capacity": census.capacity,
                    "by_depth": {
                        str(depth): list(row)
                        for depth, row in census.by_depth.items()
                    },
                }
                for census in self.depth_censuses
            ],
            "area_occupancy": [[a, o] for a, o in self.area_occupancy],
        }

    @classmethod
    def from_payload(
        cls, spec: ExperimentSpec, payload: Dict[str, Any]
    ) -> "TrialResult":
        """Rebuild a result for ``spec``; raises ``ValueError`` (or
        ``KeyError``/``TypeError`` from malformed shapes) when the
        payload cannot be the answer to ``spec``."""
        count_sums = [float(x) for x in payload["count_sums"]]
        if len(count_sums) != spec.capacity + 1:
            raise ValueError("count_sums length does not match capacity")
        trials = int(payload["trials"])
        if trials != spec.trials:
            raise ValueError("stored trial count does not match spec")
        censuses = []
        for item in payload["depth_censuses"]:
            capacity = int(item["capacity"])
            if capacity != spec.capacity:
                raise ValueError("depth census capacity mismatch")
            by_depth = {}
            for depth, row in item["by_depth"].items():
                counts = tuple(int(c) for c in row)
                if len(counts) != capacity + 1:
                    raise ValueError("depth census row length mismatch")
                by_depth[int(depth)] = counts
            censuses.append(DepthCensus(by_depth, capacity))
        area = [(float(a), int(o)) for a, o in payload["area_occupancy"]]
        return cls(
            capacity=spec.capacity,
            accumulator=CensusAccumulator(
                spec.capacity, _count_sums=count_sums, _trials=trials
            ),
            depth_censuses=censuses,
            area_occupancy=area,
        )


@dataclass
class ChunkOutcome:
    """What one chunk of trials produced (picklable worker return)."""

    start: int
    result: TrialResult
    wall_time: float
    #: worker process id — chunks from the same pool worker share one,
    #: which is how the coordinator groups per-worker telemetry
    pid: int = 0
    #: the worker-local tracer's ``to_dict()`` snapshot, when the
    #: coordinating run was traced (``None`` otherwise)
    trace: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# the work itself (module-level so it pickles to worker processes)
# ----------------------------------------------------------------------


ENGINES = ("object", "vector")


#: Most points one chunk draws and censuses at once.  The batched
#: census peaks at about 130 bytes a point, so this bounds a chunk's
#: working set — and a run's peak memory — whatever the row size.
CHUNK_POINTS = 4096


def build_trials(
    spec: ExperimentSpec,
    start: int,
    count: int,
    engine: str = "object",
    make_generator: Optional[Callable[[int], PointGenerator]] = None,
) -> TrialResult:
    """Run trials ``start .. start+count-1`` of ``spec`` in-process.

    This is *the* trial body — serial chunks, pool workers, the
    in-process rescue of pool chunks, and the harness's untagged
    generator factories all call it.  Trial ``t`` draws its points with
    ``make_generator(t).generate_array`` (bit-identical to
    ``generate``), by default ``spec.make_generator`` (seed
    ``spec.seed + t``); a caller that passes its own takes only the
    tree parameters from ``spec``.  ``engine`` picks how the chunk's
    ``(count, n_points, dim)`` rows are censused: ``"vector"`` makes
    one :func:`repro.kernels.vector_census_batch` call for all of them
    (:func:`repro.kernels.vector_census` for a one-trial chunk) — no
    tree and no :class:`Point` objects — and ``"object"`` builds
    one real :class:`PRQuadtree` per row (the parity oracle, and the
    only engine that can enumerate leaf rectangles).  Specs that
    collect leaf areas silently use the object engine regardless,
    since the kernel has no blocks to measure.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if make_generator is None:
        make_generator = spec.make_generator
    bounds = spec.bounds_rect()
    # the object tree defaults omitted bounds to the unit square
    box = bounds or Rect.unit(2)
    rows = np.empty((count, spec.n_points, box.dim), dtype=np.float64)
    for i in range(count):
        rows[i] = make_generator(start + i).generate_array(spec.n_points)
    result = TrialResult.empty(spec.capacity)
    if engine == "object" or spec.collect_area:
        for row in rows:
            # generate_array rows are already NaN-checked
            points = [Point._trusted(tuple(c)) for c in row.tolist()]
            _object_trial(spec, bounds, points, result)
        return result
    # looked up at call time, so a wrapper set on the package fires
    from ..kernels import vector_census, vector_census_batch

    census = dict(bounds=box, dim=box.dim, max_depth=spec.max_depth)
    with obs.span("trial.build"):
        if count == 1:
            # kept while benchmarks/e2e/spans.py:install_paper wraps
            # vector_census and its self-test needs that wrapper to fire
            partitions = [vector_census(rows[0], spec.capacity, **census)]
        else:
            partitions = vector_census_batch(rows, spec.capacity, **census)
    with obs.span("trial.census"):
        for partition in partitions:
            result.accumulator.add(partition.occupancy_census())
            if spec.collect_depth:
                result.depth_censuses.append(partition.depth_census())
    return result


def _object_trial(
    spec: ExperimentSpec,
    bounds: Optional[Rect],
    points: List[Point],
    result: TrialResult,
) -> None:
    """One object-engine trial: build the tree, fold its censuses in."""
    with obs.span("trial.build"):
        tree = PRQuadtree(
            capacity=spec.capacity, bounds=bounds, max_depth=spec.max_depth
        )
        tree.insert_many(points)
    with obs.span("trial.census"):
        result.accumulator.add(tree.occupancy_census())
        if spec.collect_depth:
            result.depth_censuses.append(tree.depth_census())
        if spec.collect_area:
            result.area_occupancy.extend(
                (rect.volume, min(occ, spec.capacity))
                for rect, _, occ in tree.leaves()
            )
    if obs.enabled():
        # structural signals the tree counted for free during the
        # build (pool workers record them into their own tracer,
        # which the coordinator merges back after the pool drains)
        obs.count("tree.built")
        obs.count("tree.splits", tree.split_count)
        obs.count("tree.replace_scans", tree.replace_scans)
        obs.gauge("tree.max_depth", tree.max_depth_reached)


def _run_chunk(
    spec: ExperimentSpec,
    start: int,
    count: int,
    engine: str = "object",
    traced: bool = False,
) -> ChunkOutcome:
    """Worker entry point: run the chunk through :func:`build_trials`
    and return a picklable outcome.

    With ``traced=True`` (the coordinator's run was traced) the chunk
    runs under its own worker-local :class:`Tracer` and ships the
    snapshot home in the outcome; the coordinator merges per-worker
    snapshots into ``worker.N`` subtrees (see ``_merge_worker_traces``).
    """
    began = time.perf_counter()
    trace: Optional[Dict[str, Any]] = None
    if traced:
        tracer = Tracer()
        with obs.tracing(tracer):
            result = build_trials(spec, start, count, engine)
        trace = tracer.to_dict()
    else:
        result = build_trials(spec, start, count, engine)
    return ChunkOutcome(
        start=start,
        result=result,
        wall_time=time.perf_counter() - began,
        pid=os.getpid(),
        trace=trace,
    )


def plan_chunks(
    trials: int, workers: int, n_points: int
) -> List[Tuple[int, int]]:
    """Split ``trials`` of ``n_points`` points each into contiguous
    ``(start, count)`` chunks.

    A chunk holds at most ``CHUNK_POINTS // n_points`` trials (at least
    one), which bounds what one :func:`build_trials` call holds in
    memory; a pool plan also aims at ~4 chunks per worker so slow
    chunks load-balance.  A runt tail (smaller than half the chunk
    size) merges into the previous chunk — a 1–2-trial straggler can't
    amortize its scheduling cost — so a chunk of more than one trial
    stays under 1.5 × ``CHUNK_POINTS`` points.  Plans always cover
    ``0..trials`` exactly, in order, without overlap (property-tested).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    size = max(1, CHUNK_POINTS // max(1, n_points))
    if workers > 1:
        size = min(size, -(-trials // (workers * 4)))
    chunks = [
        (start, min(size, trials - start))
        for start in range(0, trials, size)
    ]
    if len(chunks) >= 2 and chunks[-1][1] * 2 < size:
        start, count = chunks[-2]
        chunks[-2] = (start, count + chunks[-1][1])
        chunks.pop()
    return chunks


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


class PersistentPool:
    """One ``ProcessPoolExecutor`` kept warm across ``execute`` calls.

    Worker spawn and interpreter import can cost more than a sweep
    row's trials, so a session owns one of these: :meth:`acquire`
    returns the live pool, recreating it only when the requested width
    changes or a worker crash marked it broken.  ``runtime_session``
    tears it down on exit; ad-hoc configs (an ``execute`` call outside
    any session) get a per-call pool, so nothing leaks.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._broken = False

    def acquire(self, workers: int) -> ProcessPoolExecutor:
        """The live pool at ``workers`` width (created or recreated as
        needed; raises ``OSError`` where pool creation is impossible,
        which ``_run_pool`` turns into in-process rescue)."""
        if self._pool is not None and (
            self._broken or self._workers != workers
        ):
            self.shutdown()
        if self._pool is None:
            # the module-global name, so tests can stub pool creation
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
            self._broken = False
        return self._pool

    def mark_broken(self) -> None:
        """Note a worker crash; the next :meth:`acquire` recreates."""
        self._broken = True

    @property
    def is_live(self) -> bool:
        """Whether a usable pool currently exists."""
        return self._pool is not None and not self._broken

    def shutdown(self) -> None:
        """Stop the workers (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._broken = False


@dataclass
class RuntimeConfig:
    """How the engine should run: width, caching, instrumentation."""

    workers: int = 1
    use_cache: bool = False
    cache_dir: Union[str, None] = None
    verbose: bool = False
    #: Census engine: ``"vector"`` runs the Morton-code kernel,
    #: ``"object"`` builds real trees (the parity oracle).  Deliberately
    #: part of the runtime config, not the :class:`ExperimentSpec` —
    #: engines are bit-identical, so the choice is about *how* to
    #: execute, not *what* experiment it is, and cached results stay
    #: shared between engines.
    engine: str = "vector"
    collector: MetricsCollector = field(default_factory=MetricsCollector)
    #: Optional span/counter/gauge tracer.  ``runtime_session`` and
    #: ``execute`` install it as the ambient :mod:`repro.obs` tracer, so
    #: setting it turns on structured instrumentation for the whole run.
    tracer: Optional[Tracer] = None
    #: Run-database path (see :mod:`repro.rundb`).  ``None`` (the
    #: default) records nothing — library and test use stays free of
    #: side effects; the CLI opts in via ``rundb.resolve_db_path``.
    #: With a path set, every ``execute()`` is buffered and the session
    #: flushes one run row at exit.
    db_path: Union[str, Path, None] = None
    #: Label stamped on the recorded run (e.g. the CLI command name).
    db_label: Optional[str] = None
    _cache: Optional[ResultCache] = field(
        default=None, repr=False, compare=False
    )
    _pool: Optional[PersistentPool] = field(
        default=None, repr=False, compare=False
    )
    _recorder: Optional[Any] = field(
        default=None, repr=False, compare=False
    )
    _fallback_noted: bool = field(default=False, repr=False, compare=False)

    def result_cache(self) -> ResultCache:
        """The configured cache (constructed lazily, then reused)."""
        if self._cache is None:
            self._cache = ResultCache(self.cache_dir)
        return self._cache

    def persistent_pool(self) -> PersistentPool:
        """This config's pool holder (constructed lazily, then reused)."""
        if self._pool is None:
            self._pool = PersistentPool()
        return self._pool

    def recorder(self):
        """This config's session recorder, or ``None`` when no run DB
        is configured (lazy; flushed by ``runtime_session`` exit)."""
        if self.db_path is None:
            return None
        if self._recorder is None:
            from ..rundb.recorder import SessionRecorder
            self._recorder = SessionRecorder(
                self.db_path, label=self.db_label
            )
        return self._recorder

    def flush_recording(self) -> None:
        """Write any buffered session record (safe to call always)."""
        if self._recorder is not None:
            self._recorder.flush(self)

    def shutdown_pool(self) -> None:
        """Stop any persistent workers (safe when none were started)."""
        if self._pool is not None:
            self._pool.shutdown()

    def report(self):
        """The collector's current RunReport, carrying the tracer's
        span tree when instrumentation recorded anything.  Traced runs
        also get the run-end ``cache.hit_ratio`` gauge here — the last
        observation is always the whole run's ratio."""
        report = self.collector.report()
        if self.tracer is not None and not self.tracer.is_empty():
            if report.runs:
                self.tracer.gauge("cache.hit_ratio", report.cache_hit_ratio)
            report.trace = self.tracer
        return report


_ACTIVE: List[RuntimeConfig] = []


def active_config() -> Optional[RuntimeConfig]:
    """The innermost runtime session's config, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def runtime_session(
    config: Optional[RuntimeConfig] = None, **kwargs
) -> Iterator[RuntimeConfig]:
    """Install ``config`` (or ``RuntimeConfig(**kwargs)``) as the
    ambient runtime for the dynamic extent of the ``with`` block.

    Sessions nest; the innermost wins.  The CLI wraps each command in
    one so every ``run_trials`` call under it inherits ``--workers``
    and the cache settings without signature changes down the stack.
    A session also scopes the persistent worker pool: the first pooled
    ``execute`` under it spins the workers up, later ones reuse them,
    and session exit shuts them down.
    """
    if config is None:
        config = RuntimeConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a config object or kwargs, not both")
    _ACTIVE.append(config)
    try:
        if config.tracer is not None:
            with obs.tracing(config.tracer):
                yield config
        else:
            yield config
    finally:
        _ACTIVE.pop()
        if not any(config is entry for entry in _ACTIVE):
            config.shutdown_pool()
            config.flush_recording()


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def execute(
    spec: ExperimentSpec, config: Optional[RuntimeConfig] = None
) -> TrialResult:
    """Answer ``spec``: from cache if possible, else by building trees
    (in parallel when the config asks for it), recording metrics either
    way."""
    if config is None:
        config = active_config() or RuntimeConfig()
    if config.tracer is not None and obs.active_tracer() is not config.tracer:
        # direct execute() call outside a runtime_session: the config's
        # tracer still sees the run
        with obs.tracing(config.tracer):
            return _execute(spec, config)
    return _execute(spec, config)


def _execute(spec: ExperimentSpec, config: RuntimeConfig) -> TrialResult:
    if config.engine not in ENGINES:
        raise ValueError(
            f"unknown engine {config.engine!r}; expected one of {ENGINES}"
        )
    collector = config.collector
    collector.record_workers(max(1, config.workers))
    began = time.perf_counter()
    try:
        with obs.span("runtime.execute"):
            cache = config.result_cache() if config.use_cache else None
            result: Optional[TrialResult] = None
            if cache is not None:
                payload = cache.load(spec)
                if payload is not None:
                    try:
                        result = TrialResult.from_payload(spec, payload)
                    except (KeyError, TypeError, ValueError):
                        result = None  # malformed entry: treat as a miss
            if result is not None:
                collector.record_cache_hit()
                _note_execution(config, spec, result, True, began)
                return result
            collector.record_cache_miss()
            with obs.span("runtime.build"):
                result = _execute_fresh(spec, config, collector)
            if cache is not None:
                cache.store(spec, result.to_payload())
            _note_execution(config, spec, result, False, began)
            return result
    finally:
        collector.add_wall_time(time.perf_counter() - began)


def _note_execution(
    config: RuntimeConfig,
    spec: ExperimentSpec,
    result: TrialResult,
    cache_hit: bool,
    began: float,
) -> None:
    """Buffer one execution into the config's session recorder (no-op
    without a configured run DB; pure in-memory append with one)."""
    recorder = config.recorder()
    if recorder is not None:
        recorder.note_execution(
            spec, result, config.engine, config.workers, cache_hit,
            time.perf_counter() - began,
        )


def _execute_fresh(
    spec: ExperimentSpec, config: RuntimeConfig, collector: MetricsCollector
) -> TrialResult:
    if config.engine == "vector" and spec.collect_area:
        # the kernel has no blocks to measure: this spec silently used
        # the object engine before — now it says so
        obs.count("runtime.engine_fallback")
        if config.verbose and not config._fallback_noted:
            config._fallback_noted = True
            print(
                "note: engine 'vector' cannot collect leaf areas; "
                "running these trials on the object engine",
                file=sys.stderr,
            )
    workers = max(1, config.workers)
    chunks = plan_chunks(spec.trials, workers, spec.n_points)
    if workers <= 1 or len(chunks) <= 1:
        return _run_serial(spec, chunks, collector, config.engine)
    return _merge_outcomes(
        spec, _run_pool(spec, chunks, workers, collector, config)
    )


def _run_serial(
    spec: ExperimentSpec,
    chunks: List[Tuple[int, int]],
    collector: MetricsCollector,
    engine: str = "object",
) -> TrialResult:
    result = TrialResult.empty(spec.capacity)
    for start, count in chunks:
        began = time.perf_counter()
        with obs.span("chunk.serial"):
            result.merge(build_trials(spec, start, count, engine))
        collector.record_chunk(count, time.perf_counter() - began, "serial")
    return result


def _run_pool(
    spec: ExperimentSpec,
    chunks: List[Tuple[int, int]],
    workers: int,
    collector: MetricsCollector,
    config: RuntimeConfig,
) -> List[ChunkOutcome]:
    """Run every chunk on a pool worker, or rescue it in-process.

    A chunk the pool gives no outcome for — the pool could not be
    created (``OSError``), a worker died (``BrokenProcessPool``), or
    the chunk raised in its worker — runs through :func:`build_trials`
    in mode ``degraded``.  A broken session pool is recreated on its
    next use.  Only a chunk that fails in-process too raises.
    """
    # configs installed by runtime_session keep their pool warm across
    # execute() calls; ad-hoc configs get a per-call pool so direct
    # execute(spec, config) use can't leak worker processes
    persistent = any(config is entry for entry in _ACTIVE)
    traced = obs.enabled()
    pool: Optional[ProcessPoolExecutor] = None
    futures: List[Optional[Future]] = []
    broken = False
    pool_began = time.perf_counter()
    try:
        try:
            if persistent:
                pool = config.persistent_pool().acquire(workers)
            else:
                pool = ProcessPoolExecutor(
                    max_workers=min(workers, len(chunks))
                )
            for start, count in chunks:
                futures.append(pool.submit(
                    _run_chunk, spec, start, count, config.engine, traced
                ))
        except (OSError, BrokenProcessPool):
            # no pool on this platform, or it died taking work: the
            # chunks it never took are rescued below
            broken = pool is not None
        futures += [None] * (len(chunks) - len(futures))

        outcomes: List[ChunkOutcome] = []
        rescued: List[Tuple[int, int]] = []
        for (start, count), future in zip(chunks, futures):
            try:
                outcome = future.result() if future is not None else None
            except BrokenProcessPool:
                broken, outcome = True, None
            except Exception:
                outcome = None
            if outcome is None:
                rescued.append((start, count))
                continue
            outcomes.append(outcome)
            collector.record_chunk(count, outcome.wall_time, "pool")
            # pool chunks time themselves in the worker; fold the
            # measured duration into the coordinator's span tree
            obs.record("chunk.pool", outcome.wall_time)
        pool_elapsed = time.perf_counter() - pool_began
        if broken:
            obs.count("runtime.pool_broken")
            if persistent:
                config.persistent_pool().mark_broken()

        rescue_s = 0.0
        for start, count in rescued:
            obs.count("runtime.degraded")
            began = time.perf_counter()
            with obs.span("chunk.degraded"):
                result = build_trials(spec, start, count, config.engine)
            wall = time.perf_counter() - began
            outcomes.append(ChunkOutcome(
                start=start, result=result, wall_time=wall,
            ))
            collector.record_chunk(count, wall, "degraded")
            rescue_s += wall

        if traced:
            _merge_worker_traces(outcomes, pool_elapsed)
            total = pool_elapsed + rescue_s
            obs.gauge(
                "pool.rescue_fraction",
                rescue_s / total if rescued and total > 0.0 else 0.0,
            )
    finally:
        if pool is not None and not persistent:
            pool.shutdown(wait=True)
    return outcomes


def _merge_worker_traces(
    outcomes: List[ChunkOutcome], pool_elapsed: float
) -> None:
    """Graft pool-worker telemetry onto the ambient tracer.

    Chunk outcomes carry their worker's tracer snapshot and pid; chunks
    from the same pid merge into one per-worker view, mounted under the
    open coordinator span as ``worker.0 .. worker.k-1`` (pids sorted,
    so numbering is stable for a given run).  Each worker's subtree is
    its true span tree — ``trial.build`` / ``trial.census`` timings and
    ``tree.*`` / ``kernel.*`` / ``storage.pool.*`` counters recorded in
    the worker process, not synthesized by the coordinator.  Utilization
    lands in gauges: ``pool.worker.busy_fraction`` (one observation per
    worker: busy seconds / pool wall seconds) and ``pool.straggler_ratio``
    (slowest worker's busy time over the mean — 1.0 is a perfectly
    balanced pool).
    """
    tracer = obs.active_tracer()
    if tracer is None:
        return
    by_pid: Dict[int, List[ChunkOutcome]] = {}
    for outcome in outcomes:
        if outcome.trace is not None:
            by_pid.setdefault(outcome.pid, []).append(outcome)
    if not by_pid:
        return
    busy_times: List[float] = []
    for index, pid in enumerate(sorted(by_pid)):
        group = by_pid[pid]
        merged = Tracer()
        for outcome in group:
            merged.merge(Tracer.from_dict(outcome.trace))
        busy = sum(outcome.wall_time for outcome in group)
        busy_times.append(busy)
        tracer.graft(
            f"worker.{index}", merged, count=len(group), total=busy
        )
        if pool_elapsed > 0.0:
            obs.gauge("pool.worker.busy_fraction", busy / pool_elapsed)
    obs.gauge("pool.workers_used", float(len(by_pid)))
    mean_busy = sum(busy_times) / len(busy_times)
    if mean_busy > 0.0:
        obs.gauge("pool.straggler_ratio", max(busy_times) / mean_busy)


def _merge_outcomes(
    spec: ExperimentSpec, outcomes: List[ChunkOutcome]
) -> TrialResult:
    """Combine chunk outcomes *in trial order* so collected lists match
    the serial path element for element."""
    result = TrialResult.empty(spec.capacity)
    for outcome in sorted(outcomes, key=lambda o: o.start):
        result.merge(outcome.result)
    return result
