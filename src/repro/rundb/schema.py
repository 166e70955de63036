"""The run database's schema — versioned DDL and migrations.

One SQLite file holds the longitudinal record the result cache cannot
express: every run (a CLI table sweep, a ``repro bench`` suite, a
``repro serve`` session, or an ingested historical snapshot) with its
frozen experiment specs, per-spec census summaries, bench stages,
flattened span/gauge/counter telemetry, and drift samples.

The schema is versioned through ``PRAGMA user_version``:
:data:`MIGRATIONS` maps each version to the DDL that *introduces* it,
and :func:`migrate` applies every pending step in order inside one
transaction.  Opening a database never destroys data — a v1 file
gains the v2 tables and keeps every row (round-tripped by
``tests/test_rundb_schema.py``); a file *newer* than this code refuses
to open rather than guessing.

Table map (v1)
--------------
``runs``
    One row per recorded run: kind (``session``/``bench``/``serve``/
    ``trace``), provenance (``live`` vs ``ingest``), wall clock, peak
    RSS, environment JSON.
``specs``
    Frozen :class:`~repro.runtime.spec.ExperimentSpec` rows, deduped
    by ``cache_key`` so reruns of the same experiment share one row.
``trial_results``
    One row per executed spec within a run: engine, workers, cache
    hit/miss, wall seconds, mean occupancy, and the raw per-class
    count sums (the mergeable census state).
``bench_stages``
    One row per bench stage per run: the uniform ``stage_wall_s`` /
    ``stage_peak_rss_kb`` plus the stage's scalar payload as JSON.
``spans`` / ``counters`` / ``gauges``
    Flattened tracer snapshots (span paths ``a/b/c`` as in
    :func:`repro.obs.diff.flatten_spans`), keyed by a trace name so a
    run can carry several (``parallel.serial`` vs ``parallel.pool``).

Added in v2
-----------
``autotune``
    The chunk autotuner's locked-in chunk size keyed by
    ``(engine, n_points, workers)``.  Dropped in v4.
``drift_samples``
    :class:`~repro.service.monitor.DriftSample` rows per serve run,
    the alarms-over-time record behind ``repro db trend --gauge
    planner.drift``.

Added in v3
-----------
``telemetry_samples``
    Periodic metric flushes from a live server
    (:class:`~repro.rundb.recorder.ServeTelemetryRecorder`): one row
    per metric per flush interval.  Histogram rows carry the
    *interval's own* count/sum/percentiles (deltas, not cumulative),
    so latency percentiles are trendable over a server's lifetime;
    gauge and counter rows carry the interval's last/accumulated
    values.  The record behind ``repro db report``'s
    latency-percentile chart.

Changed in v4
-------------
``autotune``
    Dropped with the chunk autotuner: the pool plans chunks from the
    run's shape alone, so no stored size is read any more.
"""

from __future__ import annotations

import sqlite3
from typing import Dict

#: Current schema version (``PRAGMA user_version`` of a fresh DB).
SCHEMA_VERSION = 4


class SchemaError(RuntimeError):
    """The database's schema cannot be used or upgraded."""


_MIGRATION_1 = """
CREATE TABLE runs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    created_unix  REAL    NOT NULL,
    kind          TEXT    NOT NULL,
    label         TEXT,
    source        TEXT    NOT NULL DEFAULT 'live',
    status        TEXT    NOT NULL DEFAULT 'open',
    profile       TEXT,
    bench_version INTEGER,
    engine        TEXT,
    workers       INTEGER,
    wall_s        REAL,
    peak_rss_kb   REAL,
    env           TEXT,
    extra         TEXT
);
CREATE INDEX idx_runs_created ON runs (created_unix);
CREATE INDEX idx_runs_kind ON runs (kind, created_unix);

CREATE TABLE specs (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    cache_key TEXT    NOT NULL UNIQUE,
    capacity  INTEGER NOT NULL,
    n_points  INTEGER NOT NULL,
    trials    INTEGER NOT NULL,
    seed      INTEGER NOT NULL,
    generator TEXT    NOT NULL,
    spec_json TEXT    NOT NULL
);

CREATE TABLE trial_results (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id         INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    spec_id        INTEGER NOT NULL REFERENCES specs (id),
    engine         TEXT    NOT NULL,
    workers        INTEGER NOT NULL,
    cache_hit      INTEGER NOT NULL,
    wall_s         REAL    NOT NULL,
    trials         INTEGER NOT NULL,
    mean_occupancy REAL,
    count_sums     TEXT    NOT NULL
);
CREATE INDEX idx_trials_run ON trial_results (run_id);
CREATE INDEX idx_trials_spec ON trial_results (spec_id);

CREATE TABLE bench_stages (
    id                INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id            INTEGER NOT NULL REFERENCES runs (id)
                      ON DELETE CASCADE,
    stage             TEXT    NOT NULL,
    stage_wall_s      REAL,
    stage_peak_rss_kb REAL,
    payload           TEXT
);
CREATE INDEX idx_stages_run ON bench_stages (run_id, stage);
CREATE INDEX idx_stages_stage ON bench_stages (stage);

CREATE TABLE spans (
    id      INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id  INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    trace   TEXT    NOT NULL DEFAULT '',
    path    TEXT    NOT NULL,
    count   INTEGER NOT NULL,
    total_s REAL    NOT NULL,
    mean_s  REAL    NOT NULL,
    min_s   REAL,
    max_s   REAL
);
CREATE INDEX idx_spans_run ON spans (run_id);
CREATE INDEX idx_spans_path ON spans (path);

CREATE TABLE counters (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    trace  TEXT    NOT NULL DEFAULT '',
    name   TEXT    NOT NULL,
    value  INTEGER NOT NULL
);
CREATE INDEX idx_counters_run ON counters (run_id);

CREATE TABLE gauges (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    trace  TEXT    NOT NULL DEFAULT '',
    name   TEXT    NOT NULL,
    last   REAL    NOT NULL,
    mean   REAL    NOT NULL,
    min    REAL,
    max    REAL,
    count  INTEGER NOT NULL
);
CREATE INDEX idx_gauges_run ON gauges (run_id);
CREATE INDEX idx_gauges_name ON gauges (name);
"""

_MIGRATION_2 = """
CREATE TABLE autotune (
    engine       TEXT    NOT NULL,
    n_points     INTEGER NOT NULL,
    workers      INTEGER NOT NULL,
    chunk_size   INTEGER NOT NULL,
    updated_unix REAL    NOT NULL,
    run_id       INTEGER REFERENCES runs (id) ON DELETE SET NULL,
    PRIMARY KEY (engine, n_points, workers)
);

CREATE TABLE drift_samples (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id           INTEGER NOT NULL REFERENCES runs (id)
                     ON DELETE CASCADE,
    seq              INTEGER NOT NULL,
    sampled_unix     REAL    NOT NULL,
    n_points         INTEGER NOT NULL,
    pages            INTEGER NOT NULL,
    page_error       REAL    NOT NULL,
    occupancy_error  REAL    NOT NULL,
    armed            INTEGER NOT NULL,
    alarm            INTEGER NOT NULL
);
CREATE INDEX idx_drift_run ON drift_samples (run_id, seq);
"""

_MIGRATION_3 = """
CREATE TABLE telemetry_samples (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id       INTEGER NOT NULL REFERENCES runs (id)
                 ON DELETE CASCADE,
    seq          INTEGER NOT NULL,
    sampled_unix REAL    NOT NULL,
    name         TEXT    NOT NULL,
    kind         TEXT    NOT NULL,
    count        INTEGER NOT NULL,
    value        REAL    NOT NULL,
    mean         REAL,
    p50          REAL,
    p90          REAL,
    p99          REAL
);
CREATE INDEX idx_telemetry_run ON telemetry_samples (run_id, seq);
CREATE INDEX idx_telemetry_name ON telemetry_samples (name, run_id)
"""

_MIGRATION_4 = """
DROP TABLE autotune
"""

#: version -> DDL script introducing it; applied in ascending order.
MIGRATIONS: Dict[int, str] = {
    1: _MIGRATION_1,
    2: _MIGRATION_2,
    3: _MIGRATION_3,
    4: _MIGRATION_4,
}


def schema_version(conn: sqlite3.Connection) -> int:
    """The ``user_version`` the file currently carries (0 = empty)."""
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def migrate(conn: sqlite3.Connection) -> int:
    """Bring ``conn`` to :data:`SCHEMA_VERSION`; returns the version.

    Every pending migration runs inside one explicit transaction so a
    crash mid-upgrade leaves the old, consistent version.  A database
    written by newer code raises :class:`SchemaError` instead of being
    misread.
    """
    version = schema_version(conn)
    if version == SCHEMA_VERSION:
        return version
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"run DB is schema v{version}, newer than this code's "
            f"v{SCHEMA_VERSION}; refusing to open"
        )
    # statement-at-a-time, NOT executescript: executescript commits any
    # open transaction first, which would break migration atomicity
    conn.execute("BEGIN IMMEDIATE")
    try:
        # another writer may have migrated while we waited for the lock
        version = schema_version(conn)
        for step in range(version + 1, SCHEMA_VERSION + 1):
            for statement in _statements(MIGRATIONS[step]):
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version = {step}")
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    return SCHEMA_VERSION


def _statements(script: str):
    """Individual DDL statements of a migration script (the schema's
    scripts never contain ``;`` inside a literal)."""
    for chunk in script.split(";"):
        statement = chunk.strip()
        if statement:
            yield statement
