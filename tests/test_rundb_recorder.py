"""Recording hooks: path resolution precedence, automatic session
recording through ``runtime_session``, bench-snapshot recording,
serve drift recording, and the
recording-never-breaks-the-run guarantee."""

from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.runtime import (
    ExperimentSpec,
    RuntimeConfig,
    execute,
    runtime_session,
)
from repro.rundb.recorder import (
    ServeRecorder,
    SessionRecorder,
    default_db_path,
    record_bench_snapshot,
    resolve_db_path,
)
from repro.rundb.repository import RunDB
from repro.service.monitor import DriftSample

SPEC = ExperimentSpec(capacity=2, n_points=80, trials=3, seed=9)


class TestResolveDbPath:
    def test_no_db_beats_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DB", str(tmp_path / "env.sqlite"))
        assert resolve_db_path(tmp_path / "x.sqlite", no_db=True) is None
        monkeypatch.setenv("REPRO_NO_DB", "1")
        assert resolve_db_path(tmp_path / "x.sqlite") is None

    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_DB", raising=False)
        monkeypatch.setenv("REPRO_DB", str(tmp_path / "env.sqlite"))
        assert resolve_db_path(tmp_path / "x.sqlite") == tmp_path / "x.sqlite"
        assert resolve_db_path() == tmp_path / "env.sqlite"

    def test_default_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_DB", raising=False)
        monkeypatch.delenv("REPRO_DB", raising=False)
        assert resolve_db_path(default=False) is None
        assert resolve_db_path() == default_db_path()

    def test_default_path_is_xdg_aware(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_DATA_HOME", str(tmp_path / "data"))
        assert default_db_path() == \
            tmp_path / "data" / "repro" / "runs.sqlite"


class TestSessionRecording:
    def test_runtime_session_records_automatically(self, tmp_path):
        db_path = tmp_path / "runs.sqlite"
        with runtime_session(
            workers=1, use_cache=True, db_path=db_path,
            db_label="unit-session",
        ) as config:
            execute(SPEC, config)
            execute(SPEC, config)  # second hit comes from memory/cache
        with RunDB(db_path) as db:
            runs = db.runs(kind="session")
            assert len(runs) == 1
            run = db.run(runs[0]["id"])
            assert run["label"] == "unit-session"
            assert run["status"] == "done"
            assert len(run["trials"]) == 2
            assert {t["cache_hit"] for t in run["trials"]} == {0, 1}
            occ = run["trials"][0]["mean_occupancy"]
            assert run["trials"][1]["mean_occupancy"] == occ

    def test_no_db_path_records_nothing(self, tmp_path):
        config = RuntimeConfig(workers=1)
        with runtime_session(config):
            execute(SPEC)
        assert config.recorder() is None

    def test_empty_session_writes_no_run(self, tmp_path):
        db_path = tmp_path / "runs.sqlite"
        with runtime_session(workers=1, db_path=db_path):
            pass
        assert not db_path.exists()

    def test_flush_failure_is_non_fatal(self, tmp_path, capsys):
        recorder = SessionRecorder(tmp_path)  # a directory, not a DB
        recorder.note_execution(
            SPEC, _fake_result(), "object", 1, False, 0.1
        )
        assert recorder.flush() is None
        assert "warning: run DB session flush failed" in \
            capsys.readouterr().err

    def test_flush_only_once(self, tmp_path):
        db_path = tmp_path / "runs.sqlite"
        recorder = SessionRecorder(db_path, label="twice")
        recorder.note_execution(
            SPEC, _fake_result(), "object", 1, False, 0.1
        )
        assert recorder.flush() is not None
        assert recorder.flush() is None
        with RunDB(db_path) as db:
            assert db.counts()["runs"] == 1


def _fake_result():
    result = execute(SPEC, RuntimeConfig(workers=1, use_cache=False))
    return result


class TestBenchRecording:
    SNAPSHOT = {
        "created_unix": 1234.5,
        "profile": "smoke",
        "bench_version": 7,
        "total_wall_s": 2.5,
        "env": {"python": "3.x"},
        "stages": {
            "census": {
                "stage_wall_s": 0.25, "stage_peak_rss_kb": 1024,
                "speedup": 2.0, "note": "not-a-scalar",
            },
            "broken": "not-a-dict",
        },
    }

    def test_record_bench_snapshot(self, tmp_path):
        with RunDB(tmp_path / "runs.sqlite") as db:
            run_id = record_bench_snapshot(
                db, self.SNAPSHOT, label="unit", source="ingest"
            )
            run = db.run(run_id)
            assert run["kind"] == "bench"
            assert run["source"] == "ingest"
            assert run["created_unix"] == 1234.5
            assert run["bench_version"] == 7
            assert run["wall_s"] == pytest.approx(2.5)
            [stage] = run["stages"]
            assert stage["stage"] == "census"
            import json
            assert json.loads(stage["payload"]) == {"speedup": 2.0}


class TestServeRecording:
    def _sample(self, alarm=False):
        return DriftSample(
            n_points=1000, capacity=4, predicted_pages=80.0,
            actual_pages=82, predicted_occupancy=1.9,
            observed_occupancy=1.95, alarm=alarm, armed=True,
        )

    def test_eager_run_row_and_drift(self, tmp_path):
        db_path = tmp_path / "runs.sqlite"
        recorder = ServeRecorder(db_path, label="serve unit")
        recorder.start(extra={"port": 0})
        assert recorder.run_id is not None
        recorder.drift(self._sample())
        recorder.drift(self._sample(alarm=True).to_dict())
        # a killed server never calls finish(); the samples are already
        # durable and the run stays 'open'
        with RunDB(db_path) as db:
            run = db.run(recorder.run_id)
            assert run["status"] == "open"
            assert run["drift"]["samples"] == 2
            assert run["drift"]["alarms"] == 1
        recorder.finish(None)
        with RunDB(db_path) as db:
            assert db.run(1)["status"] == "done"

    def test_finish_records_tracer(self, tmp_path):
        db_path = tmp_path / "runs.sqlite"
        tracer = Tracer()
        with tracer.span("service.commit"):
            pass
        recorder = ServeRecorder(db_path)
        recorder.start()
        recorder.finish(tracer)
        with RunDB(db_path) as db:
            assert ("", "service.commit") in db.span_paths(1)

    def test_broken_db_degrades_silently(self, tmp_path, capsys):
        recorder = ServeRecorder(tmp_path)  # a directory, not a DB
        recorder.start()
        assert recorder.run_id is None
        recorder.drift(self._sample())  # must not raise
        recorder.finish(None)
        assert "warning: run DB serve start failed" in \
            capsys.readouterr().err


class TestDriftSinkWiring:
    def test_monitor_sample_flows_through_sink(self, tmp_path):
        """DriftMonitor -> sink -> DB, as the server wires it."""
        pytest.importorskip("repro.storage.paged_tree")
        from repro.storage.paged_tree import PagedPRQuadtree

        tree = PagedPRQuadtree.create(
            tmp_path / "tree.pages", capacity=4, dim=2
        )
        from repro.geometry import Point
        for i in range(64):
            tree.insert(Point((i % 8) / 8.0, (i // 8) / 8.0))
        from repro.service.monitor import DriftMonitor

        db_path = tmp_path / "runs.sqlite"
        recorder = ServeRecorder(db_path, label="sink unit")
        recorder.start()
        monitor = DriftMonitor(tree)
        recorder.drift(monitor.sample())
        recorder.finish(None)
        with RunDB(db_path) as db:
            run = db.run(recorder.run_id)
            assert run["drift"]["samples"] == 1
        tree.close()
