"""Load generator: reports, verification, pacing, failure detection."""

import asyncio
import gc

import pytest

from repro.obs import Tracer, tracing
from repro.service import SpatialIndexServer, open_state
from repro.service.loadgen import LoadError, ServiceClient, run_load


def _run(tmp_path, tracer=None, server_kwargs=None, prepopulate=0,
         prepopulate_seed=777, **load_kwargs):
    async def go():
        tree, wal, _ = open_state(
            tmp_path / "state.pf", create=True, capacity=4
        )
        if prepopulate:
            from repro.workloads import UniformPoints

            points = UniformPoints(dim=2, seed=prepopulate_seed)
            for p in points.generate(prepopulate):
                tree.insert(p)
        server = SpatialIndexServer(tree, wal, port=0,
                                    **(server_kwargs or {}))
        await server.start()
        host, port = server.address
        try:
            return await run_load(host, port, **load_kwargs)
        finally:
            await server.stop()

    if tracer is not None:
        with tracing(tracer):
            return asyncio.run(go())
    return asyncio.run(go())


class TestRunLoad:
    def test_clean_run_has_zero_failures_and_verified_census(self, tmp_path):
        report = _run(tmp_path, ops=300, size=80, seed=11)
        assert report.ok
        assert report.failures == 0
        assert report.census_verified is True
        assert report.mutations == 300
        assert report.ops == report.mutations + report.queries
        assert report.achieved_qps > 0
        assert set(report.latencies) >= {"insert"}

    def test_verifies_against_prepopulated_server(self, tmp_path):
        # the local replay seeds itself with the server's existing
        # points, so census verification survives a non-empty start
        report = _run(tmp_path, prepopulate=250, ops=300, size=80, seed=12)
        assert report.failures == 0
        assert report.census_verified is True

    def test_default_load_against_default_preload(self, tmp_path):
        # `serve load` and `serve start --preload` draw uniform points
        # from their seeds: equal defaults would re-insert the preload
        from repro.service.cli import build_parser

        parser = build_parser()
        start = parser.parse_args(["start", "s.pf"])
        load = parser.parse_args(["load"])
        report = _run(tmp_path, prepopulate=300,
                      prepopulate_seed=start.preload_seed,
                      ops=300, size=80, seed=load.seed)
        assert report.failures == 0
        assert report.census_verified is True

    def test_queries_ride_along(self, tmp_path):
        report = _run(tmp_path, ops=200, size=50, seed=2,
                      query_fraction=1.0)
        assert report.queries > 0
        assert {"range", "nearest"} & set(report.latencies)

    def test_no_verify_skips_census(self, tmp_path):
        report = _run(tmp_path, ops=100, size=30, seed=4, verify=False)
        assert report.census_verified is None
        assert report.ok  # None is not a failure

    def test_qps_pacing_slows_the_run(self, tmp_path):
        report = _run(tmp_path, ops=50, size=20, seed=6, qps=200.0,
                      query_fraction=0.0)
        assert report.target_qps == 200.0
        # 50 ops at 200/s needs ~0.25s; unthrottled takes far less
        assert report.wall_s > 0.15
        assert report.achieved_qps <= 300.0

    def test_to_dict_shape(self, tmp_path):
        out = _run(tmp_path, ops=120, size=40, seed=8).to_dict()
        for key in ("ops", "mutations", "queries", "failures", "wall_s",
                    "achieved_qps", "target_qps", "census_verified",
                    "latency_ms"):
            assert key in out
        for stats in out["latency_ms"].values():
            assert set(stats) == {"count", "p50", "p90", "p99"}

    def test_summary_mentions_failures_and_census(self, tmp_path):
        text = _run(tmp_path, ops=100, size=30, seed=9).summary()
        assert "failures : 0" in text
        assert "matches local replay" in text

    def test_sustains_smoke_throughput(self, tmp_path):
        # the CI gate: a single pipelined client over real sockets and
        # real fsyncs must clear 2000 ops/s.  Best-of-3 because this is
        # a wall-clock measurement: on a contended single-core runner a
        # scheduler hiccup can halve one run's qps, and the gate is
        # about capability, not one sample.  The collect keeps a major
        # GC (proportional to everything the suite allocated before
        # this test) from landing inside the measured window.
        best = 0.0
        for attempt in range(3):
            gc.collect()
            workdir = tmp_path / str(attempt)
            workdir.mkdir()
            report = _run(workdir, ops=1000, size=300, seed=1987)
            assert report.ok
            best = max(best, report.achieved_qps)
            if best >= 2000.0:
                break
        assert best >= 2000.0

    def test_group_commit_batches_under_load(self, tmp_path):
        tracer = Tracer()
        report = _run(tmp_path, tracer=tracer, ops=400, size=100, seed=3)
        assert report.ok
        syncs = tracer.counters["service.wal.sync_calls"]
        assert tracer.counters["service.wal.append"] == 400
        assert syncs <= 400 / 4


class TestValidation:
    def test_rejects_bad_arguments(self, tmp_path):
        for kwargs in ({"ops": 0}, {"window": 0}, {"query_fraction": 1.5}):
            with pytest.raises(ValueError):
                asyncio.run(run_load("127.0.0.1", 1, **kwargs))

    def test_connection_refused_is_load_error(self):
        async def go():
            await ServiceClient.connect("127.0.0.1", 1)

        with pytest.raises(LoadError):
            asyncio.run(go())
