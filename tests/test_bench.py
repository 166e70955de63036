"""The pinned perf suite: snapshot shape, stage sanity, CLI wiring."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_VERSION,
    PROFILES,
    environment,
    main,
    render_traces,
    run_suite,
    summarize,
    trace_bundle_path,
    write_snapshot,
    write_trace_bundle,
)

STAGES = (
    "build", "census", "warm_cache", "storage", "kernels",
    "queries", "serve",
)


@pytest.fixture(scope="module")
def snapshot():
    return run_suite(smoke=True)


class TestSuite:
    def test_snapshot_shape(self, snapshot):
        assert snapshot["bench_version"] == BENCH_VERSION
        assert snapshot["profile"] == "smoke"
        assert set(snapshot["stages"]) == set(STAGES)
        assert snapshot["total_wall_s"] > 0

    def test_env_metadata(self, snapshot):
        env = snapshot["env"]
        assert env["python"]
        assert env["platform"]
        assert env["cpu_count"] >= 1

    def test_build_stage(self, snapshot):
        build = snapshot["stages"]["build"]
        assert build["trees_per_s"] > 0
        assert build["splits"] > 0
        assert build["max_depth"] >= 1
        trace = build["trace"]
        assert "runtime.execute" in trace["spans"]
        assert trace["counters"]["tree.built"] == build["params"]["trials"]

    def test_census_stage(self, snapshot):
        census = snapshot["stages"]["census"]
        assert census["censuses_per_s"] > 0
        assert census["leaves"] > 0
        spans = census["trace"]["spans"]
        assert spans["census.occupancy"]["count"] == \
            census["params"]["repeats"]

    def test_warm_cache_stage(self, snapshot):
        warm = snapshot["stages"]["warm_cache"]
        assert warm["cache_misses"] == 1
        assert warm["cache_hits"] == 1
        assert warm["warm_s"] < warm["cold_s"]
        # the bench cleaned its throwaway cache dir behind itself
        assert warm["files_removed"] >= 1

    def test_storage_stage(self, snapshot):
        storage = snapshot["stages"]["storage"]
        assert storage["inserts_per_s"] > 0
        assert storage["pages"] > 0
        assert storage["file_bytes"] > 0
        # the pool held the whole tree, so the warm pass never misses
        assert storage["warm_hit_rate"] == 1.0
        assert storage["cold_misses"] > 0
        trace = storage["trace"]
        assert "storage.checkpoint" in trace["spans"]
        assert trace["counters"]["storage.page_writes"] > 0

    def test_kernels_stage(self, snapshot):
        kernels = snapshot["stages"]["kernels"]
        sizes = kernels["params"]["sizes"]
        assert set(kernels["runs"]) == {str(size) for size in sizes}
        assert kernels["parity"] is True
        for run in kernels["runs"].values():
            assert run["parity"] is True
            assert run["object_s"] > 0
            assert run["vector_s"] > 0
            assert run["leaves"] > 0
        assert "kernel.census" in kernels["trace"]["spans"]

    def test_storage_stage_bulk_load(self, snapshot):
        storage = snapshot["stages"]["storage"]
        assert storage["bulk_s"] > 0
        assert storage["bulk_speedup"] > 0
        assert storage["bulk_parity"] is True

    def test_queries_stage(self, snapshot):
        queries = snapshot["stages"]["queries"]
        sizes = queries["params"]["sizes"]
        assert set(queries["runs"]) == {str(size) for size in sizes}
        assert queries["parity"] is True
        for run in queries["runs"].values():
            assert run["verified"] is True
            assert run["build_tree_s"] > 0
            assert run["build_kernel_s"] > 0
            for op in ("range", "knn", "partial_match"):
                entry = run["ops"][op]
                assert entry["speedup"] > 0
                assert entry["object"]["wall_s"] > 0
                assert entry["vector"]["wall_s"] > 0
                assert entry["object"]["hits"] == entry["vector"]["hits"]
        assert queries["range_speedup"] > 0
        assert queries["knn_speedup"] > 0
        assert queries["pm_speedup"] > 0
        spans = queries["trace"]["spans"]
        assert "kernel.query.range" in spans
        assert "kernel.query.knn" in spans
        assert "kernel.query.partial_match" in spans

    def test_serve_stage(self, snapshot):
        serve = snapshot["stages"]["serve"]
        assert serve["failures"] == 0
        assert serve["census_verified"] is True
        assert serve["achieved_qps"] > 0
        assert serve["mutations"] == serve["params"]["ops"]
        assert serve["insert_p99_ms"] >= serve["insert_p50_ms"] > 0
        # group commit must actually batch: far fewer fsyncs than ops
        assert serve["wal_syncs"] < serve["mutations"] / 2
        assert serve["mean_commit_batch"] > 1
        assert serve["checkpoints"] >= 1
        trace = serve["trace"]
        assert trace["counters"]["service.wal.append"] == serve["mutations"]
        assert "service.checkpoint" in trace["spans"]

    def test_every_stage_reports_wall_time(self, snapshot):
        for name in STAGES:
            assert snapshot["stages"][name]["stage_wall_s"] > 0

    def test_every_stage_reports_peak_rss(self, snapshot):
        pytest.importorskip("resource")
        for name in STAGES:
            assert snapshot["stages"][name]["stage_peak_rss_kb"] > 0
        # stage tracers carry the same signal as a gauge
        gauges = snapshot["stages"]["build"]["trace"]["gauges"]
        assert gauges["stage_peak_rss_kb"]["last"] > 0

    def test_profiles_are_pinned(self):
        # a profile edit must be a deliberate BENCH_VERSION bump
        assert PROFILES["full"]["build"] == {
            "capacity": 8, "n_points": 2000, "trials": 20
        }
        assert PROFILES["full"]["storage"] == {
            "capacity": 8, "n_points": 5000,
            "pool_pages": 1024, "queries": 200,
        }
        assert PROFILES["full"]["kernels"] == {
            "capacity": 8, "sizes": [2000, 20000]
        }
        assert PROFILES["full"]["queries"] == {
            "capacity": 8, "sizes": [2000, 20000], "queries": 256,
            "k": 8, "side": 0.1,
        }
        assert PROFILES["full"]["serve"] == {
            "capacity": 4, "ops": 1000, "size": 300,
            "checkpoint_every": 400, "query_fraction": 0.2,
        }
        assert set(PROFILES["smoke"]) == set(PROFILES["full"])

    def test_snapshot_is_json_serializable(self, snapshot):
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["bench_version"] == BENCH_VERSION


class TestReporting:
    def test_summary_mentions_every_stage(self, snapshot):
        text = summarize(snapshot)
        assert "trees/s" in text
        assert "census/s" in text
        assert "warmup" in text
        assert "inserts/s" in text
        assert "warm pool" in text
        assert "vector" in text
        assert "censuses identical" in text
        assert "bulk load" in text
        assert "answers identical" in text
        assert "ops/s" in text
        assert "census verified" in text

    def test_write_snapshot_round_trips(self, snapshot, tmp_path):
        path = write_snapshot(snapshot, tmp_path / "BENCH_test.json")
        loaded = json.loads(path.read_text())
        assert loaded["stages"]["build"]["splits"] == \
            snapshot["stages"]["build"]["splits"]

    def test_environment_standalone(self):
        assert environment()["implementation"]


class TestTraceBundle:
    def test_bundle_path_naming(self):
        assert trace_bundle_path(Path("BENCH_6.json")).name == \
            "BENCH_TRACE_6.json"
        assert trace_bundle_path(Path("out/custom.json")) == \
            Path("out/custom_trace.json")

    def test_bundle_holds_every_stage_trace(self, snapshot, tmp_path):
        path = write_trace_bundle(snapshot, tmp_path / "bundle.json")
        bundle = json.loads(path.read_text())
        assert bundle["bench_version"] == BENCH_VERSION
        stages = bundle["stages"]
        for name in ("build", "census", "warm_cache", "storage", "kernels",
                     "serve", "queries"):
            assert "spans" in stages[name], name

    def test_bundle_is_diffable_against_itself(self, snapshot, tmp_path):
        from repro.obs.cli import main as obs_main

        path = write_trace_bundle(snapshot, tmp_path / "bundle.json")
        assert obs_main(["diff", str(path), str(path)]) == 0

    def test_render_traces_shows_every_stage_tree(self, snapshot):
        text = render_traces(snapshot)
        for name in STAGES:
            assert f"=== {name} ===" in text
        assert "kernel.census" in text


class TestCli:
    def test_main_writes_snapshot_and_trace_bundle(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        assert main(["--smoke", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["profile"] == "smoke"
        bundle_path = tmp_path / "BENCH_TRACE_cli.json"
        assert "build" in json.loads(bundle_path.read_text())["stages"]
        printed = capsys.readouterr().out
        assert "repro bench" in printed
        assert str(out) in printed
        assert str(bundle_path) in printed

    def test_main_verbose_prints_stage_trees(self, tmp_path, capsys):
        assert main(["--smoke", "--out", "-", "--verbose"]) == 0
        printed = capsys.readouterr().out
        assert "=== kernels ===" in printed
        assert "kernel.census" in printed

    def test_main_dash_skips_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--smoke", "--out", "-"]) == 0
        assert not list(tmp_path.iterdir())

    def test_repro_cli_dispatches_bench(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        out = tmp_path / "BENCH_dispatch.json"
        code = repro_main(["bench", "--smoke", "--out", str(out)])
        assert code == 0
        assert out.exists()
