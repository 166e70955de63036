"""Recording hooks — how live runs land in the run database.

Nothing in the library records unless asked: a
:class:`~repro.runtime.executor.RuntimeConfig` whose ``db_path`` is
``None`` (the default) never touches disk, so tests and embedders see
zero behavior change.  The CLI entry points opt *in* by resolving a
path through :func:`resolve_db_path`, which honors the opt-outs the
issue names — ``--no-db`` and ``REPRO_NO_DB`` — plus ``REPRO_DB`` /
``--db`` overrides, defaulting to ``~/.local/share/repro/runs.sqlite``
(XDG aware), the data-dir sibling of the result cache's
``~/.cache/repro``.

Three recorders cover the three run shapes:

- :class:`SessionRecorder` — buffers every ``execute()`` under a
  ``runtime_session`` in memory and flushes one transaction at session
  exit (run row, trial rows, the session tracer's snapshot, run-report
  totals).  Buffering keeps the hot path free of sqlite I/O.
- ``record_bench_snapshot`` / ``ingest_file`` — one bench suite
  (live snapshot or historical ``BENCH_*.json`` backfill) becomes a
  ``bench`` run with stages and per-stage traces.
- :class:`ServeRecorder` — a server session writes its run row
  eagerly and appends drift samples as they happen (a serve process
  may die; its samples must already be durable).
  :class:`ServeTelemetryRecorder` extends it with periodic metric
  flushes: the server's sampler loop hands over the live tracer, and
  each flush writes one interval's histogram *deltas* (so every row is
  that interval's own p50/p99, trendable across a server's lifetime)
  plus gauge/counter samples into ``telemetry_samples``.

Recording is deliberately non-fatal everywhere: a corrupt or locked
database prints one warning and the run continues — the record is an
observer, never a dependency.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# the path rules live in repro.dbpath; re-exported here for callers
from ..dbpath import PathLike, default_db_path, resolve_db_path  # noqa: F401
from ..obs.diff import extract_traces
from .repository import RunDB


def _warn(action: str, exc: BaseException) -> None:
    print(f"warning: run DB {action} failed: {exc}", file=sys.stderr)


_GIT_SHA: List[Optional[str]] = []  # one-element cache (None = "no repo")


def current_git_sha() -> Optional[str]:
    """The working tree's commit SHA, or ``None`` outside a checkout.

    Stamped into ``runs.env`` so ``repro db trend`` can group runs by
    commit.  Resolved once per process (runs don't outlive commits);
    any git failure — no binary, not a repo, timeout — degrades to
    ``None``, never to an error.
    """
    if not _GIT_SHA:
        import subprocess

        sha: Optional[str] = None
        for cwd in (Path.cwd(), Path(__file__).resolve().parent):
            try:
                out = subprocess.run(
                    ["git", "rev-parse", "HEAD"],
                    cwd=cwd, capture_output=True, text=True, timeout=5,
                )
            except Exception:
                continue
            if out.returncode == 0 and out.stdout.strip():
                sha = out.stdout.strip()
                break
        _GIT_SHA.append(sha)
    return _GIT_SHA[0]


# ----------------------------------------------------------------------
# runtime sessions
# ----------------------------------------------------------------------


class SessionRecorder:
    """Buffers one runtime session's executions; flushes at exit.

    The executor calls :meth:`note_execution` after every ``execute()``
    — an in-memory append, no I/O.  ``runtime_session`` calls
    :meth:`flush` once the config leaves the ambient stack, writing
    the whole session as one run in one transaction.
    """

    def __init__(self, db_path: PathLike, label: Optional[str] = None):
        self._db_path = db_path
        self._label = label
        self._began = time.time()
        self._trials: List[Dict[str, Any]] = []
        self._flushed = False

    @property
    def pending(self) -> int:
        """Buffered executions not yet flushed."""
        return len(self._trials)

    def note_execution(
        self,
        spec,
        result,
        engine: str,
        workers: int,
        cache_hit: bool,
        wall_s: float,
    ) -> None:
        """Buffer one ``execute()``'s summary (spec + census totals)."""
        accumulator = result.accumulator
        self._trials.append({
            "spec": spec.to_dict(),
            "cache_key": spec.cache_key(),
            "engine": engine,
            "workers": max(1, workers),
            "cache_hit": cache_hit,
            "wall_s": wall_s,
            "trials": result.trials,
            "mean_occupancy": (
                accumulator.mean_occupancy() if result.trials else None
            ),
            "count_sums": list(accumulator.count_sums),
        })

    def flush(self, config=None) -> Optional[int]:
        """Write the session into the DB; returns the run id (``None``
        when nothing was recorded or the write failed)."""
        if self._flushed or not self._trials:
            return None
        self._flushed = True
        extra: Optional[Dict[str, Any]] = None
        tracer = None
        engine = self._trials[-1]["engine"]
        workers = max(t["workers"] for t in self._trials)
        if config is not None:
            report = config.collector.report()
            extra = {
                "trees_built": report.trees_built,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
            }
            tracer = config.tracer
        sha = current_git_sha()
        try:
            with RunDB(self._db_path) as db:
                run_id = db.begin_run(
                    kind="session",
                    label=self._label,
                    created_unix=self._began,
                    engine=engine,
                    workers=workers,
                    env={"git_sha": sha} if sha else None,
                    extra=extra,
                )
                db.record_trials(run_id, self._trials)
                if tracer is not None and not tracer.is_empty():
                    db.record_trace(run_id, "", tracer.to_dict())
                db.finish_run(run_id, wall_s=time.time() - self._began)
                return run_id
        except Exception as exc:  # recording must never break the run
            _warn("session flush", exc)
            return None


# ----------------------------------------------------------------------
# bench suites (live and ingested)
# ----------------------------------------------------------------------


def record_bench_snapshot(
    db: RunDB,
    snapshot: Dict[str, Any],
    label: Optional[str] = None,
    source: str = "live",
) -> int:
    """Persist one bench suite snapshot as a ``bench`` run: stage rows
    (scalar payloads kept as JSON), every stage trace flattened into
    the span/counter/gauge tables, and the suite's env."""
    run_id = db.begin_run(
        kind="bench",
        label=label,
        source=source,
        created_unix=float(snapshot.get("created_unix") or time.time()),
        profile=snapshot.get("profile"),
        bench_version=snapshot.get("bench_version"),
        env=snapshot.get("env"),
    )
    for stage_name, stage in sorted(snapshot.get("stages", {}).items()):
        if not isinstance(stage, dict):
            continue
        payload = {
            key: value
            for key, value in stage.items()
            if isinstance(value, (int, float, bool))
            and key not in ("stage_wall_s", "stage_peak_rss_kb")
        }
        db.record_stage(
            run_id,
            stage_name,
            stage.get("stage_wall_s"),
            stage.get("stage_peak_rss_kb"),
            payload or None,
        )
    for name, trace in sorted(extract_traces(snapshot).items()):
        db.record_trace(run_id, name, trace)
    db.finish_run(run_id, wall_s=snapshot.get("total_wall_s"))
    return run_id


def record_trace_bundle(
    db: RunDB, bundle: Dict[str, Any], label: Optional[str] = None
) -> Optional[int]:
    """Persist a ``BENCH_TRACE_*.json`` bundle.

    When an ingested bench run with the same version/profile exists,
    the bundle's traces attach to it (replacing nothing — bench
    snapshots already embed their traces, so a matching run that has
    spans is left alone and ``None`` is returned).  Otherwise the
    bundle becomes its own ``trace`` run.
    """
    version = bundle.get("bench_version")
    profile = bundle.get("profile")
    traces = {
        name: stage
        for name, stage in bundle.get("stages", {}).items()
        if isinstance(stage, dict) and "spans" in stage
    }
    for run in db.runs(kind="bench", profile=profile):
        if version is not None and run.get("bench_version") != version:
            continue
        if db.span_paths(int(run["id"])):
            return None  # snapshot ingest already carried these traces
        for name, trace in sorted(traces.items()):
            db.record_trace(int(run["id"]), name, trace)
        return int(run["id"])
    run_id = db.begin_run(
        kind="trace",
        label=label,
        source="ingest",
        created_unix=0.0,
        profile=profile,
        bench_version=version,
    )
    for name, trace in sorted(traces.items()):
        db.record_trace(run_id, name, trace)
    db.finish_run(run_id)
    return run_id


def ingest_file(db: RunDB, path: PathLike) -> Optional[int]:
    """Backfill one JSON file (bench snapshot or trace bundle) into the
    database; idempotent — re-ingesting the same file is a no-op
    returning ``None``.  Raises ``ValueError`` for unrecognized JSON.
    """
    import json

    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    stages = data.get("stages")
    if not isinstance(stages, dict) or not stages:
        raise ValueError(f"{path}: no stages; not a bench artifact")
    if any(
        isinstance(stage, dict) and "spans" in stage
        for stage in stages.values()
    ):
        if db.find_ingested("trace", 0.0, path.name) is not None:
            return None
        return record_trace_bundle(db, data, label=path.name)
    created = float(data.get("created_unix") or 0.0)
    if db.find_ingested("bench", created, path.name) is not None:
        return None
    return record_bench_snapshot(db, data, label=path.name, source="ingest")


# ----------------------------------------------------------------------
# serve sessions
# ----------------------------------------------------------------------


class ServeRecorder:
    """Incremental recorder for a server process.

    Unlike sessions, serve runs write eagerly: the run row exists from
    :meth:`start` and every drift sample commits as it is observed, so
    a killed server still leaves its drift history (status stays
    ``open`` — itself a signal).  All failures degrade to a single
    warning; serving never depends on the record.
    """

    def __init__(self, db_path: PathLike, label: Optional[str] = None):
        self._db: Optional[RunDB] = RunDB(db_path)
        self._label = label
        self._run_id: Optional[int] = None
        self._seq = 0
        self._began = time.time()

    @property
    def run_id(self) -> Optional[int]:
        return self._run_id

    def start(self, extra: Optional[Dict[str, Any]] = None) -> None:
        """Open the run row (call once the server is listening)."""
        if self._db is None:
            return
        sha = current_git_sha()
        try:
            self._run_id = self._db.begin_run(
                kind="serve",
                label=self._label,
                created_unix=self._began,
                env={"git_sha": sha} if sha else None,
                extra=extra,
            )
        except Exception as exc:
            _warn("serve start", exc)
            self._disable()

    def drift(self, sample) -> None:
        """Record one monitor sample (a DriftSample or its dict)."""
        if self._db is None or self._run_id is None:
            return
        if hasattr(sample, "to_dict"):
            sample = sample.to_dict()
        try:
            self._db.record_drift(self._run_id, self._seq, sample)
            self._seq += 1
        except Exception as exc:
            _warn("drift sample", exc)
            self._disable()

    def finish(self, tracer=None) -> None:
        """Close the run (optionally persisting the server's tracer)."""
        if self._db is None or self._run_id is None:
            self._disable()
            return
        try:
            if tracer is not None and not tracer.is_empty():
                self._db.record_trace(self._run_id, "", tracer.to_dict())
            self._db.finish_run(
                self._run_id, wall_s=time.time() - self._began
            )
        except Exception as exc:
            _warn("serve finish", exc)
        finally:
            self._disable()

    def _disable(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None


class ServeTelemetryRecorder(ServeRecorder):
    """A :class:`ServeRecorder` that also flushes live metrics.

    The server's sampler loop calls :meth:`telemetry` on its interval
    (wired as the server's ``telemetry_sink``).  Each call computes
    what changed since the previous flush — histogram deltas via
    :meth:`repro.obs.Histogram.delta`, counter differences — and
    writes one ``telemetry_samples`` batch, so every row is one
    interval's own summary: a p99 spike in minute 40 stays visible
    instead of drowning in the cumulative average.  Same non-fatal
    contract as drift samples: one warning, then recording disables.
    """

    def __init__(self, db_path: PathLike, label: Optional[str] = None):
        super().__init__(db_path, label=label)
        self._telemetry_seq = 0
        self._hist_marks: Dict[str, Any] = {}
        self._counter_marks: Dict[str, int] = {}

    @property
    def telemetry_flushes(self) -> int:
        """Completed telemetry batches."""
        return self._telemetry_seq

    def telemetry(self, tracer) -> None:
        """Flush one interval's metric samples from ``tracer``."""
        if self._db is None or self._run_id is None or tracer is None:
            return
        from ..service.telemetry import METRIC_PREFIXES

        samples: List[Dict[str, Any]] = []
        histograms = dict(tracer.span_histograms)
        histograms.update(tracer.gauge_histograms)
        for name, hist in sorted(histograms.items()):
            if not name.startswith(METRIC_PREFIXES):
                continue
            delta = hist.delta(self._hist_marks.get(name))
            self._hist_marks[name] = hist.copy()
            if not delta.count:
                continue
            samples.append({
                "name": name, "kind": "histogram",
                "count": delta.count, "value": delta.sum,
                "mean": delta.mean, "p50": delta.p50,
                "p90": delta.p90, "p99": delta.p99,
            })
        for name, value in sorted(tracer.counters.items()):
            if not name.startswith(METRIC_PREFIXES):
                continue
            delta = int(value) - self._counter_marks.get(name, 0)
            self._counter_marks[name] = int(value)
            if delta > 0:
                samples.append({
                    "name": name, "kind": "counter",
                    "count": delta, "value": float(delta),
                })
        for name, stats in sorted(tracer.gauges.items()):
            if not name.startswith(METRIC_PREFIXES) or not stats.count:
                continue
            samples.append({
                "name": name, "kind": "gauge",
                "count": stats.count, "value": stats.last,
                "mean": stats.mean,
            })
        if not samples:
            return
        try:
            self._db.record_telemetry(
                self._run_id, self._telemetry_seq, samples
            )
            self._telemetry_seq += 1
        except Exception as exc:
            _warn("telemetry flush", exc)
            self._disable()
