"""Serial-vs-parallel-vs-cached parity — the runtime's core guarantee.

The paper's tables are reproduced bit-for-bit from a seed; the engine
must preserve that no matter how it schedules the work.  These tests
pin the guarantee: ``run_trials(..., workers=4)`` (and a warm cache)
produce *bit-identical* statistics to the historical serial loop.
"""

import pytest

from repro.experiments import (
    gaussian_factory,
    occupancy_vs_size,
    run_table1,
    run_trials,
    uniform_factory,
)
from repro.geometry import Point, Rect
from repro.runtime import RuntimeConfig


def _assert_bit_identical(serial, parallel):
    assert parallel.mean_proportions() == serial.mean_proportions()
    assert parallel.mean_occupancy() == serial.mean_occupancy()
    assert parallel.mean_nodes() == serial.mean_nodes()
    assert parallel.trials == serial.trials


class TestWorkerParity:
    @pytest.mark.parametrize("factory", [uniform_factory, gaussian_factory])
    def test_bit_identical_statistics(self, factory):
        kwargs = dict(
            n_points=120, trials=6, seed=42, generator_factory=factory()
        )
        serial = run_trials(3, **kwargs)
        parallel = run_trials(3, workers=4, **kwargs)
        _assert_bit_identical(serial, parallel)

    def test_depth_and_area_collections_match(self):
        kwargs = dict(
            n_points=80, trials=5, seed=7,
            collect_depth=True, collect_area=True, max_depth=6,
        )
        serial = run_trials(1, **kwargs)
        parallel = run_trials(1, workers=4, **kwargs)
        _assert_bit_identical(serial, parallel)
        assert parallel.depth_censuses == serial.depth_censuses
        assert parallel.area_occupancy == serial.area_occupancy

    def test_custom_bounds_parity(self):
        bounds = Rect(Point(-2.0, -2.0), Point(2.0, 2.0))
        serial = run_trials(2, n_points=90, trials=4, seed=3, bounds=bounds)
        parallel = run_trials(
            2, n_points=90, trials=4, seed=3, bounds=bounds, workers=3
        )
        _assert_bit_identical(serial, parallel)

    def test_sweep_parity(self):
        serial = occupancy_vs_size(4, [32, 64], trials=4, seed=11)
        parallel = occupancy_vs_size(4, [32, 64], trials=4, seed=11, workers=4)
        assert parallel == serial

    def test_workers_equal_trials_and_beyond(self):
        serial = run_trials(2, n_points=60, trials=3, seed=5)
        wide = run_trials(2, n_points=60, trials=3, seed=5, workers=8)
        _assert_bit_identical(serial, wide)


class TestCacheParity:
    def test_warm_cache_is_bit_identical(self, tmp_path):
        def config():
            return RuntimeConfig(use_cache=True, cache_dir=str(tmp_path))

        kwargs = dict(n_points=100, trials=4, seed=19, collect_depth=True)
        cold = run_trials(2, runtime=config(), **kwargs)
        warm = run_trials(2, runtime=config(), **kwargs)
        _assert_bit_identical(cold, warm)
        assert warm.depth_censuses == cold.depth_censuses

    def test_parallel_writer_serial_reader(self, tmp_path):
        serial = run_trials(3, n_points=70, trials=5, seed=23)
        writer = RuntimeConfig(
            workers=4, use_cache=True, cache_dir=str(tmp_path)
        )
        run_trials(3, n_points=70, trials=5, seed=23, runtime=writer)
        reader = RuntimeConfig(use_cache=True, cache_dir=str(tmp_path))
        cached = run_trials(3, n_points=70, trials=5, seed=23, runtime=reader)
        assert reader.report().cache_hits == 1
        _assert_bit_identical(serial, cached)


class TestLegacyFactoryPath:
    """Arbitrary generator factories can't be lowered to a spec; they
    must still work (in-process) and match tagged-factory results."""

    def test_untagged_factory_matches_tagged(self):
        from repro.workloads import UniformPoints

        untagged = lambda seed: UniformPoints(seed=seed)  # noqa: E731
        legacy = run_trials(2, n_points=80, trials=3, seed=9,
                            generator_factory=untagged)
        spec_path = run_trials(2, n_points=80, trials=3, seed=9)
        _assert_bit_identical(spec_path, legacy)

    def test_untagged_factory_ignores_workers(self):
        from repro.workloads import UniformPoints

        untagged = lambda seed: UniformPoints(seed=seed)  # noqa: E731
        result = run_trials(2, n_points=80, trials=3, seed=9,
                            generator_factory=untagged, workers=4)
        assert result.trials == 3


class TestWarmCacheTable1:
    """Acceptance criterion: a warm-cache rerun of table1 builds zero
    trees, verified via the cache hit counters."""

    def test_second_table1_run_builds_nothing(self, tmp_path):
        def config():
            return RuntimeConfig(use_cache=True, cache_dir=str(tmp_path))

        cold_config = config()
        cold = run_table1(trials=2, n_points=60, seed=31,
                          runtime=cold_config)
        assert cold_config.report().trees_built > 0
        warm_config = config()
        warm = run_table1(trials=2, n_points=60, seed=31,
                          runtime=warm_config)
        report = warm_config.report()
        assert report.trees_built == 0
        assert report.cache_hits == len(cold)  # one hit per capacity
        assert report.cache_misses == 0
        assert [r.experiment for r in warm] == [r.experiment for r in cold]


class TestSharedPoolMatrix:
    """The rebuilt pool path: a session's persistent shared-memory
    workers must stay bit-identical to serial on both engines — through
    repeat executes on a warm pool, a mid-run worker death, the
    pool-unavailable degraded fallback, and the result cache — and must
    never leak a shared-memory block."""

    # 16 trials on 2 workers plan 8 chunks of 2: workers run the batched
    # census and the coordinator merges multi-trial outcomes
    KW = dict(n_points=90, trials=16, seed=13, collect_depth=True)

    def pooled_config(self, engine, **overrides):
        from repro.runtime import RuntimeConfig

        base = dict(workers=2, engine=engine)
        base.update(overrides)
        return RuntimeConfig(**base)

    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_warm_session_pool_bit_identical(self, engine):
        from repro.runtime import runtime_session

        serial = run_trials(
            3, runtime=RuntimeConfig(engine=engine), **self.KW
        )
        config = self.pooled_config(engine)
        with runtime_session(config):
            first = run_trials(3, **self.KW)
            warm = run_trials(3, **self.KW)  # reuses the live pool
        _assert_bit_identical(serial, first)
        _assert_bit_identical(serial, warm)
        assert warm.depth_censuses == serial.depth_censuses

    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_worker_death_rescued_bit_identical(self, engine, monkeypatch):
        from repro.runtime import runtime_session
        from repro.runtime import executor as executor_module
        from tests.test_runtime_executor import _crashing

        serial = run_trials(
            3, runtime=RuntimeConfig(engine=engine), **self.KW
        )
        monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
        config = self.pooled_config(engine)
        with runtime_session(config):
            rescued = run_trials(3, **self.KW)
        _assert_bit_identical(serial, rescued)
        assert rescued.depth_censuses == serial.depth_censuses

    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_degraded_fallback_bit_identical(self, engine, monkeypatch):
        from repro.runtime import runtime_session
        from repro.runtime import executor as executor_module

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("pools unavailable on this host")

        serial = run_trials(
            3, runtime=RuntimeConfig(engine=engine), **self.KW
        )
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _NoPool
        )
        config = self.pooled_config(engine)
        with runtime_session(config):
            degraded = run_trials(3, **self.KW)
        _assert_bit_identical(serial, degraded)

    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_pooled_writer_feeds_cache(self, engine, tmp_path):
        from repro.runtime import runtime_session

        serial = run_trials(
            3, runtime=RuntimeConfig(engine=engine), **self.KW
        )
        writer = self.pooled_config(
            engine, use_cache=True, cache_dir=str(tmp_path)
        )
        with runtime_session(writer):
            run_trials(3, **self.KW)
        reader = RuntimeConfig(
            engine=engine, use_cache=True, cache_dir=str(tmp_path)
        )
        cached = run_trials(3, runtime=reader, **self.KW)
        assert reader.report().cache_hits == 1
        _assert_bit_identical(serial, cached)
        assert cached.depth_censuses == serial.depth_censuses
