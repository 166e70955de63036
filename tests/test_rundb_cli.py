"""``repro db`` CLI: golden outputs for ls/show/trend, backfill of the
committed bench baselines, diff exit codes, gc, and the REPRO_NO_DB
guard.  Everything runs against a temp database via --db."""

from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.rundb.cli import main as db_main
from repro.rundb.repository import RunDB

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SNAPSHOT = REPO_ROOT / "BENCH_10.json"
BENCH_TRACE = REPO_ROOT / "BENCH_TRACE_10.json"


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "runs.sqlite"


def _seed(db_path, walls, stage="census"):
    with RunDB(db_path) as db:
        for i, wall in enumerate(walls):
            run_id = db.begin_run(
                "bench", label=f"run-{i}", profile="smoke",
                created_unix=1000.0 + i,
            )
            db.record_stage(run_id, stage, wall)
            db.record_trace(run_id, "census", {
                "spans": {"kernel.census": {
                    "count": 2, "total_s": wall, "mean_s": wall / 2,
                    "children": {},
                }},
            })
            db.finish_run(run_id, wall_s=wall)


class TestInitAndGuard:
    def test_init_creates(self, db_path, capsys):
        assert db_main(["--db", str(db_path), "init"]) == 0
        out = capsys.readouterr().out
        assert "run DB ready" in out
        assert "schema v4" in out
        assert db_path.exists()

    def test_no_db_env_refuses(self, db_path):
        # conftest sets REPRO_NO_DB=1; without --db the CLI must refuse
        # rather than touch the user's default database
        with pytest.raises(SystemExit, match="REPRO_NO_DB"):
            db_main(["init"])

    def test_repro_db_env_is_honored(self, db_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_DB", raising=False)
        monkeypatch.setenv("REPRO_DB", str(db_path))
        assert db_main(["init"]) == 0
        assert db_path.exists()

    def test_read_commands_require_existing_file(self, db_path):
        with pytest.raises(SystemExit, match="no database"):
            db_main(["--db", str(db_path), "ls"])


class TestIngest:
    def test_backfills_committed_baselines(self, db_path, capsys):
        assert db_main([
            "--db", str(db_path), "ingest",
            str(BENCH_SNAPSHOT), str(BENCH_TRACE),
        ]) == 0
        out = capsys.readouterr().out
        assert f"{BENCH_SNAPSHOT}: run #1" in out
        # the snapshot embeds its traces, so the bundle is a no-op
        assert f"{BENCH_TRACE}: already ingested" in out
        with RunDB(db_path) as db:
            run = db.run(1)
            assert run["kind"] == "bench"
            assert run["source"] == "ingest"
            assert run["bench_version"] == 10
            assert run["stages"]
            assert run["traces"]

    def test_reingest_is_idempotent(self, db_path, capsys):
        db_main(["--db", str(db_path), "ingest", str(BENCH_SNAPSHOT)])
        capsys.readouterr()
        assert db_main([
            "--db", str(db_path), "ingest", str(BENCH_SNAPSHOT)
        ]) == 0
        assert "already ingested" in capsys.readouterr().out
        with RunDB(db_path) as db:
            assert db.counts()["runs"] == 1

    def test_bad_file_reports_and_fails(self, db_path, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("[1, 2, 3]\n", encoding="utf-8")
        assert db_main(["--db", str(db_path), "ingest", str(bogus)]) == 1
        assert "SKIPPED" in capsys.readouterr().err


class TestListShow:
    def test_ls_golden(self, db_path, capsys):
        _seed(db_path, [0.1, 0.2])
        assert db_main(["--db", str(db_path), "ls"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == [
            "id", "kind", "when", "status", "profile", "label"
        ]
        # newest first
        assert "run-1" in lines[1] and "run-0" in lines[2]
        assert "(2 run(s), 0 trial row(s), 2 span row(s))" in out

    def test_ls_empty(self, db_path, capsys):
        db_main(["--db", str(db_path), "init"])
        capsys.readouterr()
        assert db_main(["--db", str(db_path), "ls"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_golden(self, db_path, capsys):
        _seed(db_path, [0.125])
        assert db_main(["--db", str(db_path), "show", "1"]) == 0
        out = capsys.readouterr().out
        assert "run #1: bench (live, done)" in out
        assert "profile      : smoke" in out
        assert "census       0.1250s" in out
        assert "traces       : census" in out

    def test_show_unknown_run_exits_2(self, db_path, capsys):
        db_main(["--db", str(db_path), "init"])
        assert db_main(["--db", str(db_path), "show", "9"]) == 2
        assert "no run #9" in capsys.readouterr().err


class TestTrend:
    def test_requires_exactly_one_selector(self, db_path):
        _seed(db_path, [0.1])
        with pytest.raises(SystemExit, match="exactly one"):
            db_main(["--db", str(db_path), "trend"])
        with pytest.raises(SystemExit, match="exactly one"):
            db_main(["--db", str(db_path), "trend",
                     "--stage", "census", "--span", "x"])

    def test_healthy_trend_exits_0(self, db_path, capsys):
        _seed(db_path, [0.1, 0.102, 0.098, 0.101])
        code = db_main([
            "--db", str(db_path), "trend", "--stage", "census",
            "--metric", "stage_wall_s",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trend: census.stage_wall_s (4 run(s))" in out
        assert "verdict: ok" in out

    def test_regression_exits_1(self, db_path, capsys):
        _seed(db_path, [0.1, 0.102, 0.098, 0.3])
        code = db_main([
            "--db", str(db_path), "trend", "--stage", "census",
        ])
        assert code == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

    def test_span_trend(self, db_path, capsys):
        _seed(db_path, [0.1, 0.1, 0.1])
        code = db_main([
            "--db", str(db_path), "trend", "--span", "kernel.census",
        ])
        assert code == 0
        assert "kernel.census" in capsys.readouterr().out

    def test_drift_gauge_prints_alarm_table(self, db_path, capsys):
        with RunDB(db_path) as db:
            for i in range(3):
                run_id = db.begin_run("serve", created_unix=float(i))
                db.record_trace(run_id, "", {
                    "gauges": {"planner.drift": {
                        "last": 0.01, "mean": 0.01, "count": 1,
                    }},
                })
                db.record_drift(run_id, 0, {
                    "n_points": 512, "actual_pages": 40,
                    "page_error": 0.01, "occupancy_error": 0.0,
                    "armed": True, "alarm": i == 2,
                })
        code = db_main([
            "--db", str(db_path), "trend", "--gauge", "planner.drift",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "drift: alarms over time" in out
        assert "total: 1 alarm(s) across 3 run(s)" in out
        assert "trend: gauge:planner.drift" in out


class TestDiff:
    def test_explicit_pair(self, db_path, capsys):
        _seed(db_path, [0.1, 0.1])
        assert db_main(["--db", str(db_path), "diff", "1", "2"]) == 0
        assert "diff: run #1 -> run #2" in capsys.readouterr().out

    def test_default_pair_and_regression_exit(self, db_path, capsys):
        _seed(db_path, [0.1, 0.5])  # span mean 0.05 -> 0.25
        assert db_main(["--db", str(db_path), "diff"]) == 1
        out = capsys.readouterr().out
        assert "diff: run #1 -> run #2" in out
        assert "REGRESSION" in out

    def test_single_run_needs_allow_missing(self, db_path, capsys):
        _seed(db_path, [0.1])
        assert db_main(["--db", str(db_path), "diff"]) == 2
        capsys.readouterr()
        assert db_main([
            "--db", str(db_path), "diff", "--allow-missing"
        ]) == 0
        assert "need two recorded" in capsys.readouterr().out

    def test_one_run_id_rejected(self, db_path):
        _seed(db_path, [0.1])
        with pytest.raises(SystemExit, match="zero or two"):
            db_main(["--db", str(db_path), "diff", "1"])


class TestGcAndOccupancy:
    def test_gc_output(self, db_path, capsys):
        _seed(db_path, [0.1, 0.2, 0.3])
        assert db_main([
            "--db", str(db_path), "gc", "--keep", "1", "--no-vacuum"
        ]) == 0
        assert "deleted 2 run(s)" in capsys.readouterr().out
        with RunDB(db_path) as db:
            assert db.counts()["runs"] == 1

    def test_occupancy(self, db_path, capsys):
        with RunDB(db_path) as db:
            run_id = db.begin_run("session")
            db.record_trials(run_id, [{
                "spec": {"capacity": 4, "n_points": 300, "trials": 2,
                         "seed": 1, "generator": "uniform"},
                "cache_key": "k", "engine": "object", "workers": 1,
                "cache_hit": False, "wall_s": 0.1, "trials": 2,
                "mean_occupancy": 1.5, "count_sums": [],
            }])
        assert db_main(["--db", str(db_path), "occupancy"]) == 0
        assert "occupancy vs n" in capsys.readouterr().out


class TestMainDispatch:
    def test_repro_main_routes_db(self, db_path, capsys):
        assert repro_main(["db", "--db", str(db_path), "init"]) == 0
        assert "run DB ready" in capsys.readouterr().out
