"""The run database: longitudinal storage + analytics for every run.

The result cache answers "have I computed exactly this before?"; the
run database answers the questions the paper's method is actually
about — occupancy vs n across engines and history, stage walls and
peak RSS over the last 20 benches, drift alarms over serve sessions.
One SQLite file (WAL, versioned schema) records runtime sessions,
bench suites, serve sessions, and ingested historical baselines;
:mod:`repro.rundb.analyzer` turns that history into trends with
rolling-median + MAD regression detection, and ``repro db`` is the
CLI over all of it.

Layout
------
``schema.py``
    Versioned DDL + migrations (``PRAGMA user_version``).
``repository.py``
    :class:`RunDB` — all reads/writes, concurrent-writer safe.
``recorder.py``
    Hooks the live system records through (sessions, bench, serve)
    plus ``ingest_file`` backfill.
``analyzer.py``
    Cross-run analytics: trends (optionally grouped by commit),
    occupancy-vs-n, run diffing.
``report.py``
    ``repro db report`` — markdown + inline SVG charts over history.
``cli.py``
    ``repro db init/ingest/ls/show/trend/occupancy/report/diff/gc``.
"""

from .analyzer import (
    Trend,
    TrendPoint,
    by_commit,
    diff_runs,
    gauge_trend,
    span_trend,
    stage_trend,
)
from .recorder import (
    ServeRecorder,
    ServeTelemetryRecorder,
    SessionRecorder,
    current_git_sha,
    default_db_path,
    ingest_file,
    record_bench_snapshot,
    resolve_db_path,
)
from .report import render_report, svg_line_chart
from .repository import RunDB, RunDBError
from .schema import SCHEMA_VERSION, SchemaError

__all__ = [
    "RunDB",
    "RunDBError",
    "SCHEMA_VERSION",
    "SchemaError",
    "Trend",
    "TrendPoint",
    "ServeRecorder",
    "ServeTelemetryRecorder",
    "SessionRecorder",
    "by_commit",
    "current_git_sha",
    "default_db_path",
    "render_report",
    "resolve_db_path",
    "ingest_file",
    "record_bench_snapshot",
    "stage_trend",
    "span_trend",
    "gauge_trend",
    "diff_runs",
    "svg_line_chart",
]
