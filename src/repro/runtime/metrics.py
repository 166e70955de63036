"""Run instrumentation for the trial-execution engine.

The executor records what it actually did — chunks run, where they ran,
trees built, cache hits — into a :class:`MetricsCollector`; the
collector renders a :class:`RunReport` that the CLI prints under
``--verbose`` and that tests use to assert things like "a warm-cache
rerun built zero trees".

Collectors are cheap plain-Python objects.  The executor only touches
them from the coordinating process (workers return timings with their
results), so no locking is needed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs import Tracer


#: Where a chunk can run, by the code the collector stores.
MODES = ("serial", "pool", "degraded")


@dataclass(frozen=True)
class ChunkMetric:
    """One executed chunk of trials."""

    trials: int
    wall_time: float
    #: where the chunk ran: "pool" (worker process), "serial"
    #: (single-worker path), or "degraded" (in-process after a pool
    #: failure)
    mode: str = "serial"


@dataclass
class RunReport:
    """What a batch of experiment runs cost and where the time went."""

    workers: int = 1
    chunks: List[ChunkMetric] = field(default_factory=list)
    trees_built: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0
    #: span/counter/gauge tracer for the run, when instrumentation was
    #: on (``RuntimeConfig.tracer``); ``summary()`` renders its tree
    trace: Optional[Tracer] = None

    @property
    def runs(self) -> int:
        """Number of experiment executions covered by this report."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of runs answered from cache (0.0 when no runs)."""
        if not self.runs:
            return 0.0
        return self.cache_hits / self.runs

    @property
    def chunk_wall_time(self) -> float:
        """Total wall time spent inside chunks (sums worker time, so it
        can exceed ``wall_time`` when chunks ran concurrently)."""
        return sum(c.wall_time for c in self.chunks)

    @property
    def trees_per_second(self) -> float:
        """Build throughput over the report's wall clock."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.trees_built / self.wall_time

    def summary(self) -> str:
        """Human-readable digest for the CLI's ``--verbose`` mode."""
        by_mode = {}
        for chunk in self.chunks:
            by_mode[chunk.mode] = by_mode.get(chunk.mode, 0) + 1
        mode_part = (
            ", ".join(f"{n} {mode}" for mode, n in sorted(by_mode.items()))
            or "none"
        )
        lines = [
            "run report:",
            f"  workers        : {self.workers}",
            f"  experiments    : {self.runs} "
            f"({self.cache_hits} cache hits, {self.cache_misses} misses, "
            f"{self.cache_hit_ratio:.0%} hit ratio)",
            f"  chunks         : {len(self.chunks)} ({mode_part})",
            f"  trees built    : {self.trees_built}",
            f"  wall time      : {self.wall_time:.3f}s",
            f"  throughput     : {self.trees_per_second:.1f} trees/sec",
        ]
        if self.trace is not None:
            lines.append(self.trace.render())
        return "\n".join(lines)


class MetricsCollector:
    """Accumulates execution events; renders them as a RunReport."""

    def __init__(self) -> None:
        # one packed 17-byte row per chunk: a long-lived session
        # records thousands of chunks, and a ChunkMetric object each
        # (~130 bytes) would grow its memory ~8x faster
        self._chunk_trials = array("q")
        self._chunk_walls = array("d")
        self._chunk_modes = bytearray()
        self._trees_built = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._wall_time = 0.0
        self._workers = 1

    # -- recording -----------------------------------------------------

    def record_workers(self, workers: int) -> None:
        """Remember the widest pool used during the session."""
        self._workers = max(self._workers, workers)

    def record_chunk(
        self, trials: int, wall_time: float, mode: str
    ) -> None:
        """One chunk of ``trials`` trees finished in ``wall_time``."""
        self._chunk_trials.append(trials)
        self._chunk_walls.append(wall_time)
        self._chunk_modes.append(MODES.index(mode))
        self._trees_built += trials

    def record_cache_hit(self) -> None:
        """An experiment was answered entirely from the result cache."""
        self._cache_hits += 1

    def record_cache_miss(self) -> None:
        """An experiment had to be (re)run."""
        self._cache_misses += 1

    def add_wall_time(self, seconds: float) -> None:
        """Fold one execution's wall clock into the session total."""
        self._wall_time += seconds

    # -- reading -------------------------------------------------------

    @property
    def trees_built(self) -> int:
        """Trees built so far (cache hits build none)."""
        return self._trees_built

    @property
    def cache_hits(self) -> int:
        """Experiments answered from cache so far."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Experiments actually executed so far."""
        return self._cache_misses

    def report(self) -> RunReport:
        """Snapshot the session as an immutable-ish report."""
        return RunReport(
            workers=self._workers,
            chunks=[
                ChunkMetric(trials, wall, MODES[mode])
                for trials, wall, mode in zip(
                    self._chunk_trials, self._chunk_walls, self._chunk_modes
                )
            ],
            trees_built=self._trees_built,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            wall_time=self._wall_time,
        )
