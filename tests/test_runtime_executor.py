"""Unit tests for repro.runtime.executor — scheduling, fault tolerance,
cache integration, and metrics recording."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quadtree import CensusAccumulator, DepthCensus
from repro.runtime import (
    ExperimentSpec,
    ResultCache,
    RuntimeConfig,
    TrialResult,
    active_config,
    build_trials,
    execute,
    plan_chunks,
    runtime_session,
)
from repro.runtime import executor as executor_module
from repro.runtime.executor import CHUNK_POINTS

SPEC = ExperimentSpec(capacity=2, n_points=60, trials=5, seed=3)
SPEC_DEPTH = ExperimentSpec(
    capacity=2, n_points=60, trials=5, seed=3, collect_depth=True
)
# 16 trials on 2 workers plan 8 chunks of 2, so pool workers run the
# batched census and the coordinator merges multi-trial outcomes
POOL_SPEC = ExperimentSpec(capacity=2, n_points=60, trials=16, seed=3)
POOL_SPEC_DEPTH = ExperimentSpec(
    capacity=2, n_points=60, trials=16, seed=3, collect_depth=True
)


def _assert_same_result(got, expected):
    """Bit-identical: every count sum and every per-trial depth census."""
    assert got.trials == expected.trials
    assert got.accumulator.count_sums == expected.accumulator.count_sums
    assert got.depth_censuses == expected.depth_censuses


# ----------------------------------------------------------------------
# fault-injection helpers (module level so they pickle to fork children)
# ----------------------------------------------------------------------

_real_run_chunk = executor_module._run_chunk


def _failing_first_chunk(spec, start, count, engine="object", traced=False):
    """A chunk runner whose chunk 0 raises in the worker.

    Module-level so it pickles to pool workers by reference like the
    real ``_run_chunk``.
    """
    if start == 0:
        raise RuntimeError("injected chunk failure")
    return _real_run_chunk(spec, start, count, engine, traced)


def _always_failing(spec, start, count, engine="object", traced=False):
    raise RuntimeError("injected permanent failure")


def _crashing(spec, start, count, engine="object", traced=False):
    if start == 0:
        os._exit(13)  # simulate a worker segfault / OOM kill
    return _real_run_chunk(spec, start, count, engine, traced)


# ----------------------------------------------------------------------
# chunk planning
# ----------------------------------------------------------------------


class TestPlanChunks:
    def test_covers_every_trial_exactly_once(self):
        for trials in (1, 2, 7, 10, 33):
            for workers in (1, 2, 4):
                for n_points in (60, 1000, 5000):
                    chunks = plan_chunks(trials, workers, n_points)
                    covered = [
                        t for start, count in chunks
                        for t in range(start, start + count)
                    ]
                    assert covered == list(range(trials))

    def test_points_constant_sets_chunk_size(self):
        # CHUNK_POINTS // 1024 = 4 trials a chunk, serial or pooled
        assert CHUNK_POINTS // 1024 == 4
        assert plan_chunks(10, 1, 1024) == [(0, 4), (4, 4), (8, 2)]
        assert plan_chunks(10, 2, 1024) == [(0, 2), (2, 2), (4, 2),
                                             (6, 2), (8, 2)]
        # a row over the constant runs one trial a chunk
        assert plan_chunks(3, 1, CHUNK_POINTS + 1) == [(0, 1), (1, 1),
                                                      (2, 1)]
        # small rows: ~4 chunks per worker
        assert plan_chunks(16, 2, 60) == [(s, 2) for s in range(0, 16, 2)]

    def test_single_worker_single_chunk_for_small_runs(self):
        assert plan_chunks(3, 1, 60) == [(0, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_chunks(0, 1, 60)
        with pytest.raises(ValueError):
            plan_chunks(5, 0, 60)

    def test_runt_tail_merges_into_previous_chunk(self):
        # 4 trials a chunk: a tail of 1 < 4/2 merges, the last grows to 5
        assert plan_chunks(9, 1, 1024) == [(0, 4), (4, 5)]
        # tail of exactly half stays its own chunk
        assert plan_chunks(10, 1, 1024) == [(0, 4), (4, 4), (8, 2)]
        # a single runt chunk has nothing to merge into and survives
        assert plan_chunks(1, 2, 1024) == [(0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(
        trials=st.integers(min_value=1, max_value=500),
        workers=st.integers(min_value=1, max_value=16),
        n_points=st.integers(min_value=0, max_value=3 * CHUNK_POINTS),
    )
    def test_plans_cover_exactly_in_order(self, trials, workers, n_points):
        chunks = plan_chunks(trials, workers, n_points)
        # contiguous, in order, no overlap, exact coverage
        expected_start = 0
        for start, count in chunks:
            assert start == expected_start
            assert count >= 1
            expected_start = start + count
            # bounded memory: at most 1.5x the points constant, unless
            # the chunk is one trial
            assert count == 1 or count * n_points <= 1.5 * CHUNK_POINTS
        assert expected_start == trials
        # no runt tail: the last chunk is either the only one or at
        # least half the nominal (first) chunk's size
        if len(chunks) >= 2:
            assert chunks[-1][1] * 2 >= chunks[0][1]


# ----------------------------------------------------------------------
# the work itself
# ----------------------------------------------------------------------


class TestBuildTrials:
    def test_split_ranges_merge_to_full_range(self):
        full = build_trials(SPEC, 0, SPEC.trials)
        first = build_trials(SPEC, 0, 2)
        rest = build_trials(SPEC, 2, 3)
        first.merge(rest)
        assert first.trials == full.trials
        assert (
            first.accumulator.count_sums == full.accumulator.count_sums
        )

    def test_collections_respect_flags(self):
        spec = ExperimentSpec(
            capacity=1, n_points=40, trials=2, seed=0,
            collect_depth=True, collect_area=True,
        )
        result = build_trials(spec, 0, 2)
        assert len(result.depth_censuses) == 2
        assert result.area_occupancy
        plain = build_trials(SPEC, 0, 2)
        assert plain.depth_censuses == [] and plain.area_occupancy == []


class TestTrialResult:
    def test_payload_roundtrip_is_exact(self):
        spec = ExperimentSpec(
            capacity=2, n_points=50, trials=3, seed=1,
            collect_depth=True, collect_area=True,
        )
        result = build_trials(spec, 0, 3)
        back = TrialResult.from_payload(spec, result.to_payload())
        assert back.accumulator.count_sums == result.accumulator.count_sums
        assert back.trials == result.trials
        assert back.depth_censuses == result.depth_censuses
        assert back.area_occupancy == result.area_occupancy

    def test_json_roundtrip_is_exact(self):
        import json

        spec = ExperimentSpec(
            capacity=2, n_points=50, trials=3, seed=1, collect_area=True
        )
        result = build_trials(spec, 0, 3)
        payload = json.loads(json.dumps(result.to_payload()))
        back = TrialResult.from_payload(spec, payload)
        assert back.area_occupancy == result.area_occupancy
        assert back.accumulator.count_sums == result.accumulator.count_sums

    def test_merge_capacity_mismatch(self):
        with pytest.raises(ValueError):
            TrialResult.empty(2).merge(TrialResult.empty(3))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("count_sums"),
            lambda p: p.__setitem__("count_sums", [1.0]),
            lambda p: p.__setitem__("trials", 99),
            lambda p: p.__setitem__(
                "depth_censuses", [{"capacity": 7, "by_depth": {}}]
            ),
            lambda p: p.__setitem__(
                "depth_censuses",
                [{"capacity": 2, "by_depth": {"0": [1]}}],
            ),
        ],
    )
    def test_from_payload_rejects_malformed(self, mutate):
        result = build_trials(SPEC, 0, SPEC.trials)
        payload = result.to_payload()
        mutate(payload)
        with pytest.raises((KeyError, TypeError, ValueError)):
            TrialResult.from_payload(SPEC, payload)

    def test_depth_censuses_roundtrip_keys_are_ints(self):
        spec = ExperimentSpec(
            capacity=1, n_points=30, trials=1, seed=0, collect_depth=True
        )
        result = build_trials(spec, 0, 1)
        back = TrialResult.from_payload(spec, result.to_payload())
        census = back.depth_censuses[0]
        assert isinstance(census, DepthCensus)
        assert all(isinstance(d, int) for d in census.by_depth)


# ----------------------------------------------------------------------
# execute(): serial, parallel, cached
# ----------------------------------------------------------------------


class TestExecuteSerial:
    def test_matches_build_trials(self):
        config = RuntimeConfig(workers=1)
        result = execute(SPEC, config)
        direct = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == direct.accumulator.count_sums
        report = config.report()
        assert report.trees_built == SPEC.trials
        assert report.cache_misses == 1
        assert all(c.mode == "serial" for c in report.chunks)

    @pytest.mark.parametrize("trials, batches", [(8, 4), (7, 3)])
    def test_vector_chunk_is_one_census_call(self, trials, batches):
        from repro.obs import Tracer

        # 1500 points: two trials a chunk, so 7 trials end in a
        # one-trial chunk, which takes the single-trial kernel
        spec = ExperimentSpec(
            capacity=2, n_points=1500, trials=trials, seed=3
        )
        tracer = Tracer()
        result = execute(spec, RuntimeConfig(engine="vector", tracer=tracer))
        plan = plan_chunks(spec.trials, 1, spec.n_points)
        assert len(plan) == 4
        assert tracer.counters["kernel.batches"] == batches
        spans = tracer.to_dict()["spans"]["runtime.execute"]["children"]
        build = spans["runtime.build"]["children"]["chunk.serial"]
        calls = build["children"]["trial.build"]["children"]
        assert sum(c["count"] for c in calls.values()) == len(plan)
        assert tracer.counters["kernel.census"] == spec.trials
        serial = build_trials(spec, 0, spec.trials, "object")
        _assert_same_result(result, serial)

    def test_default_config_when_none_active(self):
        assert active_config() is None
        result = execute(SPEC)
        assert result.trials == SPEC.trials


class TestExecuteParallel:
    def test_pool_runs_and_matches_serial(self):
        config = RuntimeConfig(workers=2)
        result = execute(POOL_SPEC, config)
        serial = execute(POOL_SPEC, RuntimeConfig(workers=1))
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        report = config.report()
        assert report.workers == 2
        assert sum(c.trials for c in report.chunks) == POOL_SPEC.trials
        assert all(c.mode == "pool" for c in report.chunks)

    def test_failed_chunk_is_rescued_in_process(self, monkeypatch):
        from repro.obs import Tracer

        spec = POOL_SPEC_DEPTH
        monkeypatch.setattr(
            executor_module, "_run_chunk", _failing_first_chunk
        )
        tracer = Tracer()
        config = RuntimeConfig(workers=2, tracer=tracer)
        result = execute(spec, config)
        _assert_same_result(result, build_trials(spec, 0, spec.trials))
        plan = plan_chunks(spec.trials, 2, spec.n_points)
        assert plan == [(s, 2) for s in range(0, 16, 2)]
        modes = [c.mode for c in config.report().chunks]
        assert sorted(modes) == ["degraded"] + ["pool"] * (len(plan) - 1)
        assert tracer.counters["runtime.degraded"] == 1
        # a chunk's own exception leaves the pool usable
        assert "runtime.pool_broken" not in tracer.counters

    def test_permanent_chunk_failure_degrades_in_process(self, monkeypatch):
        spec = POOL_SPEC_DEPTH
        monkeypatch.setattr(executor_module, "_run_chunk", _always_failing)
        config = RuntimeConfig(workers=2)
        result = execute(spec, config)
        _assert_same_result(result, build_trials(spec, 0, spec.trials))
        assert all(c.mode == "degraded" for c in config.report().chunks)

    def test_chunk_failing_in_process_too_raises(self, monkeypatch):
        def broken_build(*args, **kwargs):
            raise RuntimeError("genuine bug")

        monkeypatch.setattr(executor_module, "_run_chunk", _always_failing)
        monkeypatch.setattr(executor_module, "build_trials", broken_build)
        with pytest.raises(RuntimeError, match="genuine bug"):
            execute(POOL_SPEC, RuntimeConfig(workers=2))

    def test_worker_crash_degrades_gracefully(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
        config = RuntimeConfig(workers=2)
        result = execute(POOL_SPEC, config)
        serial = build_trials(POOL_SPEC, 0, POOL_SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        assert any(c.mode == "degraded" for c in config.report().chunks)

    def test_pool_unavailable_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", no_pool
        )
        config = RuntimeConfig(workers=4)
        result = execute(POOL_SPEC, config)
        serial = build_trials(POOL_SPEC, 0, POOL_SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        assert all(c.mode == "degraded" for c in config.report().chunks)


class TestBrokenPoolShortCircuit:
    """A dead pool fails every chunk it still holds: the crashed chunk
    and every surviving future go straight to in-process rescue, and
    the session's pool is recreated on its next use."""

    def test_crash_marks_pool_broken_and_rescues(self, monkeypatch):
        from repro.obs import Tracer

        monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
        tracer = Tracer()
        config = RuntimeConfig(workers=2, tracer=tracer)
        result = execute(POOL_SPEC, config)
        serial = build_trials(POOL_SPEC, 0, POOL_SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums
        modes = [c.mode for c in config.report().chunks]
        assert tracer.counters.get("runtime.pool_broken", 0) == 1
        # a chunk a worker finished before the crash keeps its outcome;
        # the crashed one and every chunk still pending are rescued
        assert "degraded" in modes
        assert tracer.counters["runtime.degraded"] == modes.count("degraded")

    def test_session_pool_recreated_after_break(self, monkeypatch):
        with runtime_session(workers=2) as config:
            monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
            execute(POOL_SPEC)
            assert not config.persistent_pool().is_live
            monkeypatch.setattr(
                executor_module, "_run_chunk", _real_run_chunk
            )
            result = execute(POOL_SPEC)
            assert config.persistent_pool().is_live
        serial = build_trials(POOL_SPEC, 0, POOL_SPEC.trials)
        assert result.accumulator.count_sums == serial.accumulator.count_sums


class TestPersistentPool:
    def test_session_reuses_one_pool_across_executes(self):
        with runtime_session(workers=2) as config:
            execute(POOL_SPEC)
            first = config.persistent_pool()._pool
            assert first is not None
            execute(POOL_SPEC)
            assert config.persistent_pool()._pool is first
        # session exit stops the workers
        assert config.persistent_pool()._pool is None

    def test_adhoc_execute_does_not_leave_workers(self):
        config = RuntimeConfig(workers=2)
        execute(POOL_SPEC, config)
        # a per-call pool was used; nothing persistent was created
        assert config._pool is None

    def test_width_change_recreates(self):
        from repro.runtime import PersistentPool

        holder = PersistentPool()
        pool2 = holder.acquire(2)
        assert holder.acquire(2) is pool2
        pool3 = holder.acquire(3)
        assert pool3 is not pool2
        holder.shutdown()
        assert holder._pool is None

    def test_no_resource_tracker_warnings(self):
        """The interpreter must exit without resource leak warnings,
        both on clean pooled runs and crash rescues."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import os
            from repro.runtime import (
                ExperimentSpec, RuntimeConfig, execute, runtime_session,
            )
            from repro.runtime import executor as executor_module

            spec = ExperimentSpec(capacity=2, n_points=60, trials=16, seed=3)
            with runtime_session(workers=2, engine="vector"):
                execute(spec)

            def crashing(spec, start, count, engine="object", traced=False):
                os._exit(13)

            executor_module._run_chunk = crashing
            execute(spec, RuntimeConfig(workers=2))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestEngineFallbackSignal:
    SPEC_AREA = ExperimentSpec(
        capacity=2, n_points=40, trials=2, seed=1, collect_area=True
    )

    def test_counter_emitted_for_area_specs_on_vector(self):
        from repro.obs import Tracer

        tracer = Tracer()
        config = RuntimeConfig(engine="vector", tracer=tracer)
        execute(self.SPEC_AREA, config)
        assert tracer.counters.get("runtime.engine_fallback") == 1

    def test_no_counter_when_engine_applies(self):
        from repro.obs import Tracer

        tracer = Tracer()
        config = RuntimeConfig(engine="vector", tracer=tracer)
        execute(SPEC, config)
        assert "runtime.engine_fallback" not in tracer.counters

    def test_verbose_note_printed_once(self, capsys):
        config = RuntimeConfig(engine="vector", verbose=True)
        execute(self.SPEC_AREA, config)
        execute(self.SPEC_AREA, config)
        err = capsys.readouterr().err
        assert err.count("cannot collect leaf areas") == 1

    def test_quiet_without_verbose(self, capsys):
        execute(self.SPEC_AREA, RuntimeConfig(engine="vector"))
        assert "leaf areas" not in capsys.readouterr().err


class TestExecuteCache:
    def _config(self, tmp_path, **kwargs):
        return RuntimeConfig(
            use_cache=True, cache_dir=str(tmp_path / "cache"), **kwargs
        )

    def test_second_run_builds_zero_trees(self, tmp_path):
        cold = self._config(tmp_path)
        execute(SPEC, cold)
        assert cold.report().cache_misses == 1
        warm = self._config(tmp_path)
        result = execute(SPEC, warm)
        report = warm.report()
        assert report.cache_hits == 1
        assert report.trees_built == 0
        assert report.chunks == []
        direct = build_trials(SPEC, 0, SPEC.trials)
        assert result.accumulator.count_sums == direct.accumulator.count_sums

    def test_cached_result_is_bit_identical(self, tmp_path):
        spec = ExperimentSpec(
            capacity=3, n_points=80, trials=4, seed=9,
            collect_depth=True, collect_area=True,
        )
        cold = execute(spec, self._config(tmp_path))
        warm = execute(spec, self._config(tmp_path))
        assert warm.accumulator.count_sums == cold.accumulator.count_sums
        assert warm.depth_censuses == cold.depth_censuses
        assert warm.area_occupancy == cold.area_occupancy

    def test_malformed_cached_payload_reexecutes(self, tmp_path):
        config = self._config(tmp_path)
        execute(SPEC, config)
        # corrupt the *payload* while keeping the entry envelope valid
        cache = ResultCache(config.cache_dir)
        entry = cache.load(SPEC)
        entry["count_sums"] = [1.0]  # wrong arity for the capacity
        cache.store(SPEC, entry)
        rerun = self._config(tmp_path)
        result = execute(SPEC, rerun)
        assert rerun.report().cache_misses == 1
        assert result.trials == SPEC.trials

    def test_cache_disabled_never_touches_disk(self, tmp_path):
        config = RuntimeConfig(
            use_cache=False, cache_dir=str(tmp_path / "cache")
        )
        execute(SPEC, config)
        assert not (tmp_path / "cache").exists()

    def test_parallel_run_populates_cache_for_serial_reader(self, tmp_path):
        execute(POOL_SPEC, self._config(tmp_path, workers=2))
        warm = self._config(tmp_path)
        execute(POOL_SPEC, warm)
        assert warm.report().cache_hits == 1


class TestRuntimeSession:
    def test_session_is_ambient_and_restored(self):
        assert active_config() is None
        with runtime_session(workers=1) as config:
            assert active_config() is config
            result = execute(SPEC)
            assert result.trials == SPEC.trials
            assert config.report().cache_misses == 1
        assert active_config() is None

    def test_sessions_nest(self):
        with runtime_session(workers=1) as outer:
            with runtime_session(workers=2) as inner:
                assert active_config() is inner
            assert active_config() is outer

    def test_config_object_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            with runtime_session(RuntimeConfig(), workers=2):
                pass

    def test_session_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with runtime_session(workers=1):
                raise RuntimeError("boom")
        assert active_config() is None


class TestRuntimeConfig:
    def test_result_cache_is_lazy_and_reused(self, tmp_path):
        config = RuntimeConfig(cache_dir=str(tmp_path))
        assert config._cache is None
        cache = config.result_cache()
        assert cache is config.result_cache()
        assert cache.directory == tmp_path

    def test_default_engine_is_the_kernel(self):
        from repro.__main__ import build_parser, runtime_config_from_args

        assert RuntimeConfig().engine == "vector"
        args = build_parser().parse_args(["table2"])
        assert runtime_config_from_args(args).engine == "vector"


class TestUntaggedFactory:
    """A generator factory the spec layer cannot name runs in-process
    through the executor's own trial loop."""

    def test_counts_the_same_tree_counters_as_tagged(self):
        from repro.experiments import run_trials
        from repro.obs import Tracer, tracing
        from repro.workloads import UniformPoints

        def tree_counters(tracer):
            return {
                name: value for name, value in tracer.counters.items()
                if name.startswith("tree.")
            }

        kw = dict(n_points=120, trials=3, seed=9, engine="object")
        tagged = Tracer()
        run_trials(2, runtime=RuntimeConfig(tracer=tagged), **kw)
        untagged = Tracer()
        with tracing(untagged):
            run_trials(
                2, generator_factory=lambda s: UniformPoints(seed=s), **kw
            )
        assert tree_counters(untagged) == tree_counters(tagged)
        assert tree_counters(tagged)["tree.built"] == 3
