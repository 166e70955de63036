"""`RunDB` — the SQLite-backed run repository.

One class owns all reads and writes against the schema in
:mod:`repro.rundb.schema`.  Connections open in WAL mode with a busy
timeout, so several recorders (two ``runtime_session``\\ s, a bench
process, and a serving process) can append into one file concurrently:
WAL lets readers run against writers, and the short retry loop in
:meth:`_write` absorbs the rare ``database is locked`` that still
escapes the busy handler (stress-tested by
``tests/test_rundb_repository.py``).

Writes are small, explicit transactions — a whole session flush is one
transaction, a drift sample another — so a crashed recorder never
leaves a half-run behind (its ``status`` simply stays ``open``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.diff import flatten_spans
from .schema import SCHEMA_VERSION, SchemaError, migrate

#: Seconds sqlite itself waits on a locked database before erroring.
BUSY_TIMEOUT_S = 30.0

#: Attempts (with linear backoff) the write wrapper makes on top.
WRITE_RETRIES = 5

#: ``gc``'s default retention: newest runs kept per kind.
DEFAULT_KEEP = 100


class RunDBError(RuntimeError):
    """The run database cannot serve the request."""


def _json(value: Any) -> Optional[str]:
    if value is None:
        return None
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _set_wal_mode(conn: sqlite3.Connection) -> None:
    """Put the file in WAL mode, retrying with linear backoff: when a
    second process opens a file the first is still creating, the
    journal-mode switch can fail with ``database is locked`` at once,
    without waiting in sqlite's busy handler."""
    for attempt in range(WRITE_RETRIES):
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or attempt == WRITE_RETRIES - 1:
                raise
            time.sleep(0.05 * (attempt + 1))


class RunDB:
    """The experiment/run database at ``path`` (created on first open).

    Usable as a context manager; all methods open the connection
    lazily, so constructing a ``RunDB`` is free and never touches the
    filesystem.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = Path(path) if path != ":memory:" else path
        self._conn: Optional[sqlite3.Connection] = None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------

    @property
    def path(self) -> Union[str, Path]:
        """Where the database lives (``":memory:"`` for tests)."""
        return self._path

    def connect(self) -> sqlite3.Connection:
        """The live connection (opened, pragma'd, and migrated once)."""
        if self._conn is None:
            if isinstance(self._path, Path):
                self._path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self._path),
                timeout=BUSY_TIMEOUT_S,
                isolation_level=None,  # explicit transactions only
            )
            conn.row_factory = sqlite3.Row
            try:
                _set_wal_mode(conn)
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA foreign_keys=ON")
                migrate(conn)
            except BaseException:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Close the connection (safe when never opened)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunDB":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        """The schema version of the opened file."""
        self.connect()
        return SCHEMA_VERSION

    @contextmanager
    def _write(self) -> Iterator[sqlite3.Connection]:
        """One immediate-mode write transaction, retried on lock."""
        conn = self.connect()
        last: Optional[sqlite3.OperationalError] = None
        for attempt in range(WRITE_RETRIES):
            try:
                conn.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) and "busy" not in str(exc):
                    raise
                last = exc
                time.sleep(0.05 * (attempt + 1))
                continue
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            return
        raise RunDBError(
            f"run DB stayed locked through {WRITE_RETRIES} retries"
        ) from last

    # ------------------------------------------------------------------
    # writing: runs
    # ------------------------------------------------------------------

    def begin_run(
        self,
        kind: str,
        label: Optional[str] = None,
        source: str = "live",
        created_unix: Optional[float] = None,
        profile: Optional[str] = None,
        bench_version: Optional[int] = None,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
        env: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Insert an ``open`` run row; returns its id."""
        if created_unix is None:
            created_unix = time.time()
        with self._write() as conn:
            cursor = conn.execute(
                "INSERT INTO runs (created_unix, kind, label, source, "
                "profile, bench_version, engine, workers, env, extra) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    created_unix, kind, label, source, profile,
                    bench_version, engine, workers, _json(env),
                    _json(extra),
                ),
            )
            return int(cursor.lastrowid)

    def finish_run(
        self,
        run_id: int,
        wall_s: Optional[float] = None,
        peak_rss_kb: Optional[float] = None,
    ) -> None:
        """Mark a run ``done`` and stamp its totals."""
        with self._write() as conn:
            conn.execute(
                "UPDATE runs SET status = 'done', "
                "wall_s = COALESCE(?, wall_s), "
                "peak_rss_kb = COALESCE(?, peak_rss_kb) WHERE id = ?",
                (wall_s, peak_rss_kb, run_id),
            )

    # ------------------------------------------------------------------
    # writing: payloads
    # ------------------------------------------------------------------

    def ensure_spec(self, spec_dict: Dict[str, Any], cache_key: str) -> int:
        """The ``specs`` row id for this frozen spec (insert-or-reuse)."""
        with self._write() as conn:
            return self._ensure_spec(conn, spec_dict, cache_key)

    @staticmethod
    def _ensure_spec(
        conn: sqlite3.Connection, spec_dict: Dict[str, Any], cache_key: str
    ) -> int:
        row = conn.execute(
            "SELECT id FROM specs WHERE cache_key = ?", (cache_key,)
        ).fetchone()
        if row is not None:
            return int(row["id"])
        cursor = conn.execute(
            "INSERT INTO specs (cache_key, capacity, n_points, trials, "
            "seed, generator, spec_json) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                cache_key,
                int(spec_dict["capacity"]),
                int(spec_dict["n_points"]),
                int(spec_dict["trials"]),
                int(spec_dict["seed"]),
                str(spec_dict["generator"]),
                _json(spec_dict),
            ),
        )
        return int(cursor.lastrowid)

    def record_trials(
        self, run_id: int, trials: Sequence[Dict[str, Any]]
    ) -> None:
        """Insert buffered trial records (see ``recorder.py``) in one
        transaction.  Each record carries ``spec`` (dict), ``cache_key``
        and the execution summary."""
        if not trials:
            return
        with self._write() as conn:
            for record in trials:
                spec_id = self._ensure_spec(
                    conn, record["spec"], record["cache_key"]
                )
                conn.execute(
                    "INSERT INTO trial_results (run_id, spec_id, engine, "
                    "workers, cache_hit, wall_s, trials, mean_occupancy, "
                    "count_sums) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id,
                        spec_id,
                        record["engine"],
                        int(record["workers"]),
                        int(bool(record["cache_hit"])),
                        float(record["wall_s"]),
                        int(record["trials"]),
                        record.get("mean_occupancy"),
                        _json(record["count_sums"]),
                    ),
                )

    def record_stage(
        self,
        run_id: int,
        stage: str,
        stage_wall_s: Optional[float],
        stage_peak_rss_kb: Optional[float] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One bench stage's scalar record."""
        with self._write() as conn:
            conn.execute(
                "INSERT INTO bench_stages (run_id, stage, stage_wall_s, "
                "stage_peak_rss_kb, payload) VALUES (?, ?, ?, ?, ?)",
                (run_id, stage, stage_wall_s, stage_peak_rss_kb,
                 _json(payload)),
            )

    def record_trace(
        self, run_id: int, trace: str, snapshot: Dict[str, Any]
    ) -> None:
        """Flatten one ``Tracer.to_dict()`` snapshot into the spans /
        counters / gauges tables under the trace name ``trace``."""
        flat = flatten_spans(snapshot.get("spans", {}))
        with self._write() as conn:
            for path, node in flat.items():
                count = int(node.get("count", 0))
                total = float(node.get("total_s", 0.0))
                mean = float(node.get("mean_s", total / count if count
                                       else 0.0))
                conn.execute(
                    "INSERT INTO spans (run_id, trace, path, count, "
                    "total_s, mean_s, min_s, max_s) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id, trace, path, count, total, mean,
                        node.get("min_s"), node.get("max_s"),
                    ),
                )
            for name, value in snapshot.get("counters", {}).items():
                conn.execute(
                    "INSERT INTO counters (run_id, trace, name, value) "
                    "VALUES (?, ?, ?, ?)",
                    (run_id, trace, name, int(value)),
                )
            for name, stats in snapshot.get("gauges", {}).items():
                conn.execute(
                    "INSERT INTO gauges (run_id, trace, name, last, mean, "
                    "min, max, count) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id, trace, name,
                        float(stats.get("last", 0.0)),
                        float(stats.get("mean", 0.0)),
                        stats.get("min"), stats.get("max"),
                        int(stats.get("count", 0)),
                    ),
                )

    def record_drift(
        self,
        run_id: int,
        seq: int,
        sample: Dict[str, Any],
        sampled_unix: Optional[float] = None,
    ) -> None:
        """One :meth:`DriftSample.to_dict` measurement for a serve run."""
        if sampled_unix is None:
            sampled_unix = time.time()
        with self._write() as conn:
            conn.execute(
                "INSERT INTO drift_samples (run_id, seq, sampled_unix, "
                "n_points, pages, page_error, occupancy_error, armed, "
                "alarm) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id, seq, sampled_unix,
                    int(sample["n_points"]),
                    int(sample.get("actual_pages", sample.get("pages", 0))),
                    float(sample["page_error"]),
                    float(sample["occupancy_error"]),
                    int(bool(sample["armed"])),
                    int(bool(sample["alarm"])),
                ),
            )

    def record_telemetry(
        self,
        run_id: int,
        seq: int,
        samples: Sequence[Dict[str, Any]],
        sampled_unix: Optional[float] = None,
    ) -> None:
        """One flush interval's metric samples (one transaction).

        Each sample dict carries ``name``, ``kind`` (``histogram`` /
        ``gauge`` / ``counter``), ``count``, ``value`` and — for
        histograms — ``mean`` / ``p50`` / ``p90`` / ``p99``.
        """
        if not samples:
            return
        if sampled_unix is None:
            sampled_unix = time.time()
        with self._write() as conn:
            for sample in samples:
                conn.execute(
                    "INSERT INTO telemetry_samples (run_id, seq, "
                    "sampled_unix, name, kind, count, value, mean, p50, "
                    "p90, p99) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id, seq, sampled_unix,
                        str(sample["name"]),
                        str(sample["kind"]),
                        int(sample.get("count", 0)),
                        float(sample.get("value", 0.0)),
                        sample.get("mean"),
                        sample.get("p50"),
                        sample.get("p90"),
                        sample.get("p99"),
                    ),
                )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def runs(
        self,
        kind: Optional[str] = None,
        profile: Optional[str] = None,
        limit: Optional[int] = None,
        newest_first: bool = True,
    ) -> List[Dict[str, Any]]:
        """Run rows (as dicts), filtered and ordered by creation time."""
        query = "SELECT * FROM runs"
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if profile is not None:
            clauses.append("profile = ?")
            params.append(profile)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created_unix {}, id {}".format(
            *("DESC", "DESC") if newest_first else ("ASC", "ASC")
        )
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        rows = self.connect().execute(query, params).fetchall()
        return [dict(row) for row in rows]

    def run(self, run_id: int) -> Dict[str, Any]:
        """One run row plus child-table summaries; raises
        :class:`RunDBError` for an unknown id."""
        conn = self.connect()
        row = conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise RunDBError(f"no run #{run_id} in {self._path}")
        out = dict(row)
        out["stages"] = [
            dict(r) for r in conn.execute(
                "SELECT stage, stage_wall_s, stage_peak_rss_kb, payload "
                "FROM bench_stages WHERE run_id = ? ORDER BY id",
                (run_id,),
            ).fetchall()
        ]
        out["trials"] = [
            dict(r) for r in conn.execute(
                "SELECT t.*, s.capacity, s.n_points, s.seed, s.generator "
                "FROM trial_results t JOIN specs s ON s.id = t.spec_id "
                "WHERE t.run_id = ? ORDER BY t.id",
                (run_id,),
            ).fetchall()
        ]
        out["traces"] = [
            r["trace"] for r in conn.execute(
                "SELECT DISTINCT trace FROM spans WHERE run_id = ? "
                "ORDER BY trace",
                (run_id,),
            ).fetchall()
        ]
        out["drift"] = dict(conn.execute(
            "SELECT COUNT(*) AS samples, "
            "COALESCE(SUM(alarm), 0) AS alarms, "
            "COALESCE(MAX(ABS(page_error)), 0.0) AS max_page_error "
            "FROM drift_samples WHERE run_id = ?",
            (run_id,),
        ).fetchone())
        return out

    def counts(self) -> Dict[str, int]:
        """Row counts per table — the ``db init`` / ``ls`` footer."""
        conn = self.connect()
        out: Dict[str, int] = {}
        for table in (
            "runs", "specs", "trial_results", "bench_stages", "spans",
            "gauges", "counters", "drift_samples", "telemetry_samples",
        ):
            out[table] = int(
                conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            )
        return out

    def stage_history(
        self,
        stage: str,
        metric: str = "stage_wall_s",
        profile: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """``metric`` for ``stage`` across runs, oldest first.

        ``metric`` is one of the dedicated columns (``stage_wall_s``,
        ``stage_peak_rss_kb``) or a scalar key inside the stage's JSON
        payload (``speedup``, ``inserts_per_s``, ...).
        """
        conn = self.connect()
        query = (
            "SELECT b.run_id, r.created_unix, r.label, r.profile, "
            "b.stage_wall_s, b.stage_peak_rss_kb, b.payload "
            "FROM bench_stages b JOIN runs r ON r.id = b.run_id "
            "WHERE b.stage = ?"
        )
        params: List[Any] = [stage]
        if profile is not None:
            query += " AND r.profile = ?"
            params.append(profile)
        query += " ORDER BY r.created_unix DESC, b.run_id DESC"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        points: List[Dict[str, Any]] = []
        for row in conn.execute(query, params).fetchall():
            if metric in ("stage_wall_s", "stage_peak_rss_kb"):
                value = row[metric]
            else:
                payload = json.loads(row["payload"] or "{}")
                value = payload.get(metric)
            if isinstance(value, (int, float)):
                points.append({
                    "run_id": int(row["run_id"]),
                    "created_unix": float(row["created_unix"]),
                    "label": row["label"],
                    "profile": row["profile"],
                    "value": float(value),
                })
        points.reverse()  # oldest first
        return points

    def span_history(
        self,
        path: str,
        trace: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Per-call mean seconds for one span path across runs, oldest
        first.  A run with several traces containing the path reports
        the call-weighted mean."""
        query = (
            "SELECT s.run_id, r.created_unix, r.label, "
            "SUM(s.total_s) AS total_s, SUM(s.count) AS count "
            "FROM spans s JOIN runs r ON r.id = s.run_id "
            "WHERE s.path = ?"
        )
        params: List[Any] = [path]
        if trace is not None:
            query += " AND s.trace = ?"
            params.append(trace)
        query += (
            " GROUP BY s.run_id ORDER BY r.created_unix DESC, s.run_id DESC"
        )
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        points = []
        for row in self.connect().execute(query, params).fetchall():
            count = int(row["count"] or 0)
            if count <= 0:
                continue
            points.append({
                "run_id": int(row["run_id"]),
                "created_unix": float(row["created_unix"]),
                "label": row["label"],
                "value": float(row["total_s"]) / count,
                "count": count,
            })
        points.reverse()
        return points

    def span_paths(self, run_id: int) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """``(trace, path) -> span row`` for one run (diffing input)."""
        out: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for row in self.connect().execute(
            "SELECT * FROM spans WHERE run_id = ?", (run_id,)
        ).fetchall():
            out[(row["trace"], row["path"])] = dict(row)
        return out

    def gauge_history(
        self, name: str, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Mean gauge value per run, oldest first."""
        query = (
            "SELECT g.run_id, r.created_unix, r.label, "
            "AVG(g.mean) AS value, SUM(g.count) AS count "
            "FROM gauges g JOIN runs r ON r.id = g.run_id "
            "WHERE g.name = ? GROUP BY g.run_id "
            "ORDER BY r.created_unix DESC, g.run_id DESC"
        )
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        points = [
            {
                "run_id": int(row["run_id"]),
                "created_unix": float(row["created_unix"]),
                "label": row["label"],
                "value": float(row["value"]),
                "count": int(row["count"] or 0),
            }
            for row in self.connect().execute(query, (name,)).fetchall()
        ]
        points.reverse()
        return points

    def drift_history(
        self, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Per-run drift summaries (serve runs), oldest first — the
        alarms-over-time view."""
        query = (
            "SELECT d.run_id, r.created_unix, r.label, "
            "COUNT(*) AS samples, SUM(d.alarm) AS alarms, "
            "MAX(ABS(d.page_error)) AS max_page_error, "
            "MAX(ABS(d.occupancy_error)) AS max_occupancy_error, "
            "MAX(d.n_points) AS peak_points "
            "FROM drift_samples d JOIN runs r ON r.id = d.run_id "
            "GROUP BY d.run_id ORDER BY r.created_unix DESC, d.run_id DESC"
        )
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        rows = [dict(row) for row in self.connect().execute(query).fetchall()]
        rows.reverse()
        return rows

    def telemetry_history(
        self,
        run_id: Optional[int] = None,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Telemetry sample rows, oldest flush first (``seq`` order).

        ``name`` may end with ``*`` to prefix-match (``service.op.*``
        selects every per-op latency histogram).
        """
        query = (
            "SELECT t.run_id, r.created_unix, r.label, t.seq, "
            "t.sampled_unix, t.name, t.kind, t.count, t.value, t.mean, "
            "t.p50, t.p90, t.p99 "
            "FROM telemetry_samples t JOIN runs r ON r.id = t.run_id"
        )
        clauses, params = [], []
        if run_id is not None:
            clauses.append("t.run_id = ?")
            params.append(int(run_id))
        if name is not None:
            if name.endswith("*"):
                clauses.append("t.name LIKE ?")
                params.append(name[:-1] + "%")
            else:
                clauses.append("t.name = ?")
                params.append(name)
        if kind is not None:
            clauses.append("t.kind = ?")
            params.append(kind)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY t.run_id, t.seq, t.name"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        return [
            dict(row)
            for row in self.connect().execute(query, params).fetchall()
        ]

    def run_shas(self) -> Dict[int, Optional[str]]:
        """``run_id -> git_sha`` for every run (``None`` when the run's
        env JSON carries no sha) — what groups trends by commit."""
        out: Dict[int, Optional[str]] = {}
        for row in self.connect().execute(
            "SELECT id, env FROM runs"
        ).fetchall():
            sha: Optional[str] = None
            if row["env"]:
                try:
                    env = json.loads(row["env"])
                except ValueError:
                    env = None
                if isinstance(env, dict):
                    value = env.get("git_sha")
                    if isinstance(value, str) and value:
                        sha = value
            out[int(row["id"])] = sha
        return out

    def occupancy_vs_n(
        self, engine: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Mean occupancy by (n_points, engine) across every recorded
        trial — the paper's occupancy-vs-n curve over *all* history."""
        query = (
            "SELECT s.n_points, t.engine, "
            "AVG(t.mean_occupancy) AS mean_occupancy, "
            "COUNT(*) AS runs, SUM(t.trials) AS trials "
            "FROM trial_results t JOIN specs s ON s.id = t.spec_id "
            "WHERE t.mean_occupancy IS NOT NULL"
        )
        params: List[Any] = []
        if engine is not None:
            query += " AND t.engine = ?"
            params.append(engine)
        query += " GROUP BY s.n_points, t.engine ORDER BY s.n_points, t.engine"
        return [
            dict(row)
            for row in self.connect().execute(query, params).fetchall()
        ]

    def find_ingested(
        self, kind: str, created_unix: float, label: Optional[str]
    ) -> Optional[int]:
        """An already-ingested run with identical identity, if any —
        what keeps ``db ingest`` idempotent."""
        row = self.connect().execute(
            "SELECT id FROM runs WHERE kind = ? AND source = 'ingest' "
            "AND created_unix = ? AND COALESCE(label, '') = ?",
            (kind, created_unix, label or ""),
        ).fetchone()
        return int(row["id"]) if row is not None else None

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------

    def gc(
        self, keep: int = DEFAULT_KEEP, vacuum: bool = True
    ) -> Dict[str, int]:
        """Delete all but the newest ``keep`` runs *per kind* (children
        cascade), then
        optionally ``VACUUM``.  Returns deletion counts."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        with self._write() as conn:
            doomed = [
                int(row["id"]) for row in conn.execute(
                    "SELECT id FROM runs WHERE id NOT IN ("
                    "  SELECT id FROM runs AS r2 WHERE r2.kind = runs.kind"
                    "  ORDER BY r2.created_unix DESC, r2.id DESC LIMIT ?"
                    ")",
                    (keep,),
                ).fetchall()
            ]
            for run_id in doomed:
                conn.execute("DELETE FROM runs WHERE id = ?", (run_id,))
        if vacuum and doomed:
            self.connect().execute("VACUUM")
        return {"deleted_runs": len(doomed), "kept": keep}
