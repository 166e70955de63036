"""RunDB read/write behavior: run lifecycle, spec dedupe, traces,
drift, retention, and — the satellite the schema's
WAL + retry design exists for — concurrent writers sharing one file."""

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.rundb.repository import RunDB, RunDBError

SNAPSHOT = {
    "spans": {
        "runtime.execute": {
            "count": 2, "total_s": 0.4, "mean_s": 0.2,
            "min_s": 0.1, "max_s": 0.3,
            "children": {
                "runtime.build": {
                    "count": 2, "total_s": 0.3, "mean_s": 0.15,
                    "min_s": 0.1, "max_s": 0.2, "children": {},
                },
            },
        },
    },
    "counters": {"cache.hit": 3},
    "gauges": {
        "pool.busy": {"last": 0.9, "mean": 0.8, "min": 0.7, "max": 0.9,
                      "count": 4},
    },
}

SPEC_DICT = {
    "capacity": 4, "n_points": 500, "trials": 5, "seed": 11,
    "generator": "uniform",
}


def _trial(cache_key="key-a", engine="object", occupancy=1.9):
    return {
        "spec": SPEC_DICT, "cache_key": cache_key, "engine": engine,
        "workers": 2, "cache_hit": False, "wall_s": 0.25, "trials": 5,
        "mean_occupancy": occupancy, "count_sums": [1, 2, 3],
    }


class TestRunLifecycle:
    def test_begin_finish_round_trip(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            run_id = db.begin_run(
                "bench", label="suite", profile="smoke", bench_version=7,
                env={"python": "3"}, extra={"note": 1},
            )
            assert db.run(run_id)["status"] == "open"
            db.finish_run(run_id, wall_s=1.5, peak_rss_kb=2048.0)
            run = db.run(run_id)
            assert run["status"] == "done"
            assert run["wall_s"] == pytest.approx(1.5)
            assert run["profile"] == "smoke"

    def test_unknown_run_raises(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            with pytest.raises(RunDBError, match="no run #42"):
                db.run(42)

    def test_runs_filter_and_order(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            db.begin_run("bench", created_unix=100.0, profile="full")
            db.begin_run("bench", created_unix=200.0, profile="smoke")
            db.begin_run("serve", created_unix=300.0)
            bench = db.runs(kind="bench")
            assert [r["created_unix"] for r in bench] == [200.0, 100.0]
            assert len(db.runs(profile="smoke")) == 1
            oldest = db.runs(newest_first=False)[0]
            assert oldest["created_unix"] == 100.0


class TestPayloads:
    def test_spec_dedupe(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            a = db.ensure_spec(SPEC_DICT, "key-a")
            b = db.ensure_spec(SPEC_DICT, "key-a")
            c = db.ensure_spec(SPEC_DICT, "key-b")
            assert a == b
            assert a != c
            assert db.counts()["specs"] == 2

    def test_trials_join_specs(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            run_id = db.begin_run("session")
            db.record_trials(run_id, [_trial(), _trial(cache_key="key-b")])
            trials = db.run(run_id)["trials"]
            assert len(trials) == 2
            assert trials[0]["n_points"] == 500
            assert trials[0]["mean_occupancy"] == pytest.approx(1.9)
            assert db.counts()["specs"] == 2

    def test_trace_flattened(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            run_id = db.begin_run("bench")
            db.record_trace(run_id, "census", SNAPSHOT)
            spans = db.span_paths(run_id)
            assert ("census", "runtime.execute") in spans
            assert ("census", "runtime.execute/runtime.build") in spans
            node = spans[("census", "runtime.execute/runtime.build")]
            assert node["mean_s"] == pytest.approx(0.15)
            assert db.counts()["counters"] == 1
            assert db.counts()["gauges"] == 1

    def test_drift_samples(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            run_id = db.begin_run("serve")
            for seq, alarm in enumerate([False, True, False]):
                db.record_drift(run_id, seq, {
                    "n_points": 1000 + seq, "actual_pages": 80,
                    "page_error": 0.3 if alarm else 0.01,
                    "occupancy_error": 0.0, "armed": True, "alarm": alarm,
                })
            summary = db.run(run_id)["drift"]
            assert summary["samples"] == 3
            assert summary["alarms"] == 1
            history = db.drift_history()
            assert len(history) == 1
            assert history[0]["peak_points"] == 1002
            assert history[0]["max_page_error"] == pytest.approx(0.3)


class TestHistories:
    def test_stage_history_metric_sources(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            for i in range(3):
                run_id = db.begin_run("bench", created_unix=100.0 * (i + 1))
                db.record_stage(run_id, "census", 0.1 * (i + 1),
                                payload={"speedup": 1.0 + i})
            walls = db.stage_history("census")
            assert [p["value"] for p in walls] == pytest.approx(
                [0.1, 0.2, 0.3]
            )
            speedups = db.stage_history("census", metric="speedup")
            assert [p["value"] for p in speedups] == [1.0, 2.0, 3.0]
            assert db.stage_history("census", metric="missing") == []

    def test_span_history_call_weighted(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            run_id = db.begin_run("bench", created_unix=100.0)
            db.record_trace(run_id, "a", SNAPSHOT)
            db.record_trace(run_id, "b", SNAPSHOT)
            points = db.span_history("runtime.execute")
            assert len(points) == 1
            assert points[0]["count"] == 4  # both traces pooled
            assert points[0]["value"] == pytest.approx(0.2)

    def test_occupancy_vs_n(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            run_id = db.begin_run("session")
            db.record_trials(run_id, [
                _trial(occupancy=1.8),
                _trial(cache_key="key-b", engine="vector", occupancy=2.0),
            ])
            rows = db.occupancy_vs_n()
            assert {(r["n_points"], r["engine"]) for r in rows} == {
                (500, "object"), (500, "vector"),
            }
            assert db.occupancy_vs_n(engine="vector")[0][
                "mean_occupancy"] == pytest.approx(2.0)


class TestRetention:
    def test_gc_keeps_newest_per_kind(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            for i in range(5):
                run_id = db.begin_run("bench", created_unix=float(i))
                db.record_stage(run_id, "census", 0.1)
            for i in range(3):
                db.begin_run("serve", created_unix=float(i))
            result = db.gc(keep=2, vacuum=False)
            assert result["deleted_runs"] == 4
            bench = db.runs(kind="bench")
            assert [r["created_unix"] for r in bench] == [4.0, 3.0]
            assert len(db.runs(kind="serve")) == 2
            # children cascaded with their runs
            assert db.counts()["bench_stages"] == 2

    def test_gc_rejects_negative_keep(self, tmp_path):
        with RunDB(tmp_path / "db.sqlite") as db:
            with pytest.raises(ValueError):
                db.gc(keep=-1)


_SESSION_CHILD = """
import sys
from repro.runtime import ExperimentSpec, execute, runtime_session

db_path, seed = sys.argv[1], int(sys.argv[2])
spec = ExperimentSpec(capacity=2, n_points=80, trials=3, seed=seed)
with runtime_session(workers=1, db_path=db_path,
                     db_label=f"child-{seed}") as config:
    execute(spec, config)
"""


class TestConcurrentWriters:
    def test_threaded_write_stress(self, tmp_path):
        """Many threads hammering one file: every write must land."""
        db_path = tmp_path / "db.sqlite"
        RunDB(db_path).connect()
        errors = []

        def writer(worker: int) -> None:
            try:
                with RunDB(db_path) as db:
                    for i in range(10):
                        run_id = db.begin_run(
                            "session", label=f"w{worker}",
                            created_unix=float(worker * 100 + i),
                        )
                        db.record_trials(run_id, [
                            _trial(cache_key=f"key-{worker}-{i}")
                        ])
                        db.finish_run(run_id, wall_s=0.01)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with RunDB(db_path) as db:
            counts = db.counts()
            assert counts["runs"] == 40
            assert counts["trial_results"] == 40
            assert all(r["status"] == "done" for r in db.runs())

    def test_two_runtime_sessions_one_db(self, tmp_path, monkeypatch):
        """Two separate processes, each a full runtime_session recording
        into the same database file (the issue's stress shape)."""
        db_path = tmp_path / "db.sqlite"
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(
            PYTHONPATH=str(src),
            PATH="/usr/bin:/bin",
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SESSION_CHILD,
                 str(db_path), str(seed)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for seed in (1, 2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
            assert b"warning: run DB" not in stderr
        with RunDB(db_path) as db:
            runs = db.runs(kind="session")
            assert len(runs) == 2
            assert {r["label"] for r in runs} == {"child-1", "child-2"}
            assert all(r["status"] == "done" for r in runs)
            assert db.counts()["trial_results"] == 2
