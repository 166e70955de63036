"""Schema versioning: fresh creation, v1 -> current and v3 -> current
upgrades with data preserved, and refusal to open files written by
newer code."""

import sqlite3

import pytest

from repro.rundb.repository import RunDB
from repro.rundb.schema import (
    MIGRATIONS,
    SCHEMA_VERSION,
    SchemaError,
    _statements,
    migrate,
    schema_version,
)


def _tables(conn) -> set:
    return {
        row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }


def _build_v1(path) -> None:
    """A database exactly as version-1 code would have left it."""
    conn = sqlite3.connect(str(path))
    for statement in _statements(MIGRATIONS[1]):
        conn.execute(statement)
    conn.execute("PRAGMA user_version = 1")
    conn.execute(
        "INSERT INTO runs (created_unix, kind, label, status) "
        "VALUES (100.0, 'bench', 'legacy run', 'done')"
    )
    conn.execute(
        "INSERT INTO specs (cache_key, capacity, n_points, trials, seed, "
        "generator, spec_json) VALUES ('k1', 4, 1000, 10, 7, 'uniform', '{}')"
    )
    conn.execute(
        "INSERT INTO trial_results (run_id, spec_id, engine, workers, "
        "cache_hit, wall_s, trials, mean_occupancy, count_sums) "
        "VALUES (1, 1, 'object', 1, 0, 0.5, 10, 1.93, '[]')"
    )
    conn.execute(
        "INSERT INTO bench_stages (run_id, stage, stage_wall_s) "
        "VALUES (1, 'census', 0.25)"
    )
    conn.commit()
    conn.close()


class TestFreshDatabase:
    def test_created_at_current_version(self, tmp_path):
        with RunDB(tmp_path / "runs.sqlite") as db:
            conn = db.connect()
            assert schema_version(conn) == SCHEMA_VERSION
            assert {"runs", "specs", "trial_results", "bench_stages",
                    "spans", "counters", "gauges",
                    "drift_samples"} <= _tables(conn)
            assert "autotune" not in _tables(conn)

    def test_migrate_idempotent(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunDB(path):
            pass
        conn = sqlite3.connect(str(path))
        assert migrate(conn) == SCHEMA_VERSION
        assert migrate(conn) == SCHEMA_VERSION
        conn.close()


class TestUpgradeFromV1:
    def test_round_trip_preserves_rows(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        _build_v1(path)
        with RunDB(path) as db:
            assert db.schema_version == SCHEMA_VERSION
            run = db.run(1)
            assert run["label"] == "legacy run"
            assert run["stages"][0]["stage"] == "census"
            assert run["stages"][0]["stage_wall_s"] == pytest.approx(0.25)
            assert run["trials"][0]["mean_occupancy"] == pytest.approx(1.93)
            # the v2 tables arrived and are usable
            db.record_drift(1, 0, {
                "n_points": 500, "actual_pages": 40, "page_error": 0.01,
                "occupancy_error": -0.02, "armed": True, "alarm": False,
            })
            assert db.run(1)["drift"]["samples"] == 1

    def test_upgrade_stamps_user_version(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        _build_v1(path)
        with RunDB(path) as db:
            db.connect()
        conn = sqlite3.connect(str(path))
        assert schema_version(conn) == SCHEMA_VERSION
        conn.close()


class TestUpgradeFromV3:
    def test_drops_autotune_and_keeps_runs(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        _build_v1(path)
        conn = sqlite3.connect(str(path))
        for step in (2, 3):
            for statement in _statements(MIGRATIONS[step]):
                conn.execute(statement)
        conn.execute("PRAGMA user_version = 3")
        conn.execute(
            "INSERT INTO autotune (engine, n_points, workers, chunk_size, "
            "updated_unix, run_id) VALUES ('vector', 1000, 2, 8, 1.0, 1)"
        )
        conn.commit()
        conn.close()
        with RunDB(path) as db:
            assert db.schema_version == SCHEMA_VERSION == 4
            assert "autotune" not in _tables(db.connect())
            assert db.counts()["runs"] == 1
            run = db.run(1)
            assert run["label"] == "legacy run"
            assert run["trials"][0]["mean_occupancy"] == pytest.approx(1.93)


class TestFutureVersion:
    def test_refuses_newer_file(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaError, match="newer than this code"):
            RunDB(path).connect()

    def test_refusal_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(SchemaError):
            RunDB(path).connect()
        conn = sqlite3.connect(str(path))
        assert schema_version(conn) == 99
        assert _tables(conn) == set()
        conn.close()


class TestMigrationMechanics:
    def test_statements_split(self):
        statements = list(_statements("CREATE TABLE a (x);\n"
                                      "CREATE INDEX i ON a (x);"))
        assert statements == ["CREATE TABLE a (x)",
                              "CREATE INDEX i ON a (x)"]

    def test_migrations_cover_every_version(self):
        assert sorted(MIGRATIONS) == list(range(1, SCHEMA_VERSION + 1))
