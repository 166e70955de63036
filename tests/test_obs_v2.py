"""Telemetry v2: histograms, event rings, tracer merging, exports,
and the span-level regression diff + ``repro obs`` CLI on top."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    EventRecorder,
    GaugeStats,
    Histogram,
    SpanEvent,
    Tracer,
    diff_traces,
    export_chrome_trace,
    export_folded,
    tracing,
)
from repro.obs.diff import extract_traces
from repro.obs.histogram import BUCKETS, bucket_bounds, bucket_index


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------


class TestBucketMapping:
    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_value_falls_inside_its_bucket(self, value):
        index = bucket_index(value)
        low, high = bucket_bounds(index)
        assert low < value <= high or (index == 0 and value <= high)

    def test_boundary_value_closes_its_bucket(self):
        # bucket i covers (bound(i-1), bound(i)]: an exact boundary
        # must land in the bucket it closes, not open the next one
        low, high = bucket_bounds(bucket_index(2.0))
        assert high == 2.0

    def test_extremes_route_to_sentinel_buckets(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-5.0) == 0
        assert bucket_index(1e-300) == 0
        assert bucket_index(1e300) == BUCKETS - 1
        assert bucket_index(float("nan")) == 0


class TestHistogram:
    def test_aggregates_and_quantile_ordering(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004, 0.008, 0.1):
            h.observe(v)
        assert h.count == 5
        assert h.min == 0.001
        assert h.max == 0.1
        assert h.mean == pytest.approx(0.115 / 5)
        assert h.min <= h.p50 <= h.p90 <= h.p99 <= h.max

    def test_quantiles_clamped_to_observed_range(self):
        h = Histogram()
        h.observe(0.005)
        assert h.p50 == 0.005
        assert h.p99 == 0.005

    def test_merge_equals_observing_the_union(self):
        a, b, u = Histogram(), Histogram(), Histogram()
        for v in (1.0, 2.0, 3.0):
            a.observe(v)
            u.observe(v)
        for v in (10.0, 20.0):
            b.observe(v)
            u.observe(v)
        a.merge(b)
        assert a.count == u.count
        assert a.sum == u.sum
        assert a.min == u.min and a.max == u.max
        assert a.p50 == u.p50 and a.p99 == u.p99

    def test_nonfinite_observations_stay_json_safe(self):
        h = Histogram()
        h.observe(float("inf"))
        h.observe(float("-inf"))
        h.observe(float("nan"))
        h.observe(1.5)
        assert h.count == 4
        assert h.min == 1.5 and h.max == 1.5
        json.dumps(h.to_dict(), allow_nan=False)  # must not raise

    def test_dict_round_trip(self):
        h = Histogram()
        for v in (0.001, 0.5, 2.0, 2.0):
            h.observe(v)
        back = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert back.count == h.count
        assert back.sum == h.sum
        assert back.min == h.min and back.max == h.max
        assert back.p50 == h.p50 and back.p99 == h.p99

    def test_empty_histogram(self):
        h = Histogram()
        assert h.is_empty()
        assert h.quantile(0.5) == 0.0
        data = h.to_dict()
        assert "min" not in data and "max" not in data
        json.dumps(data, allow_nan=False)

    def test_quantile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


# ----------------------------------------------------------------------
# event ring
# ----------------------------------------------------------------------


class TestEventRecorder:
    def test_bounded_ring_counts_drops(self):
        r = EventRecorder(3)
        for i in range(5):
            r.record(("a", f"s{i}"), float(i), 0.1)
        assert len(r) == 3
        assert r.total == 5
        assert r.dropped == 2
        assert [e.name for e in r.events] == ["s2", "s3", "s4"]

    def test_dict_round_trip(self):
        r = EventRecorder(4)
        r.record(("root", "leaf"), 1.0, 0.25)
        back = EventRecorder.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back.capacity == 4
        assert back.events == r.events

    def test_tracer_records_span_events(self):
        t = Tracer(events=8)
        with t.span("outer"):
            with t.span("inner"):
                pass
        paths = [e.path for e in t.events]
        assert ("outer", "inner") in paths
        assert ("outer",) in paths
        inner = next(e for e in t.events if e.name == "inner")
        assert inner.depth == 1  # 0 = root span
        assert inner.dur >= 0.0

    def test_events_survive_snapshot_round_trip(self):
        t = Tracer(events=8)
        with t.span("work"):
            t.record("sub", 0.5)
        back = Tracer.from_dict(json.loads(json.dumps(t.to_dict())))
        assert back.events == t.events
        assert back.events_dropped == 0


# ----------------------------------------------------------------------
# gauge JSON regression (never-observed gauges emitted inf/-inf)
# ----------------------------------------------------------------------


class TestGaugeJsonSafety:
    def test_unobserved_gauge_omits_min_max(self):
        data = GaugeStats().to_dict()
        assert "min" not in data and "max" not in data
        json.dumps(data, allow_nan=False)  # must not raise

    def test_tracer_snapshot_with_unobserved_gauge_is_valid_json(self):
        t = Tracer.from_dict({"gauges": {"never": {"count": 0}}})
        json.dumps(t.to_dict(), allow_nan=False)

    def test_observed_gauge_keeps_min_max(self):
        g = GaugeStats()
        g.observe(3.0)
        data = g.to_dict()
        assert data["min"] == 3.0 and data["max"] == 3.0

    def test_gauge_dict_round_trip(self):
        g = GaugeStats()
        for v in (1.0, 4.0, 2.0):
            g.observe(v)
        back = GaugeStats.from_dict(json.loads(json.dumps(g.to_dict())))
        assert back.last == 2.0
        assert back.min == 1.0 and back.max == 4.0
        assert back.count == 3
        assert back.mean == pytest.approx(g.mean)


# ----------------------------------------------------------------------
# merge algebra (property-style, like the census merge tests)
# ----------------------------------------------------------------------

_NAMES = ("alpha", "beta", "gamma")

# integer-valued observations keep float addition exact, so merged
# totals can be compared with == instead of approx
_OPS = st.lists(
    st.tuples(
        st.sampled_from(("record", "count", "gauge")),
        st.sampled_from(_NAMES),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=20,
)


def _tracer_from(ops):
    t = Tracer()
    for kind, name, value in ops:
        if kind == "record":
            t.record(name, float(value))
        elif kind == "count":
            t.count(name, value)
        else:
            t.gauge(name, float(value))
    return t


def _canonical(t):
    """Snapshot minus gauge ``last`` — the one documented
    merge-order-dependent field."""
    data = t.to_dict()
    for stats in data.get("gauges", {}).values():
        stats.pop("last", None)
    return data


def _combined(x, y):
    t = Tracer()
    t.merge(x)
    t.merge(y)
    return t


class TestMergeAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(_OPS, _OPS)
    def test_merge_is_commutative(self, ops_a, ops_b):
        a, b = _tracer_from(ops_a), _tracer_from(ops_b)
        ab = _combined(a, b)
        ba = _combined(b, a)
        assert _canonical(ab) == _canonical(ba)

    @settings(max_examples=50, deadline=None)
    @given(_OPS, _OPS, _OPS)
    def test_merge_is_associative(self, ops_a, ops_b, ops_c):
        a, b, c = map(_tracer_from, (ops_a, ops_b, ops_c))
        left = _combined(_combined(a, b), c)
        right = _combined(a, _combined(b, c))
        assert _canonical(left) == _canonical(right)

    @settings(max_examples=25, deadline=None)
    @given(_OPS)
    def test_empty_tracer_is_the_identity(self, ops):
        t = _tracer_from(ops)
        merged = _combined(t, Tracer())
        assert _canonical(merged) == _canonical(t)

    def test_merge_nests_trees_by_position(self):
        a, b = Tracer(), Tracer()
        with a.span("run"):
            a.record("chunk", 1.0)
        with b.span("run"):
            b.record("chunk", 3.0)
        a.merge(b)
        run = a.roots["run"]
        assert run.count == 2
        assert run.children["chunk"].count == 2
        assert run.children["chunk"].total == pytest.approx(4.0)

    def test_graft_mounts_a_subtree_under_the_open_span(self):
        worker = Tracer()
        with worker.span("trial.build"):
            pass
        worker.count("tree.built", 3)
        t = Tracer()
        with t.span("runtime.build"):
            t.graft("worker.0", worker, count=2, total=1.5)
        mount = t.roots["runtime.build"].children["worker.0"]
        assert mount.count == 2
        assert mount.total == pytest.approx(1.5)
        assert "trial.build" in mount.children
        assert t.counters["tree.built"] == 3


# ----------------------------------------------------------------------
# exception safety
# ----------------------------------------------------------------------


class TestExceptionSafety:
    def test_raising_span_still_closes_and_records_event(self):
        t = Tracer(events=4)
        with pytest.raises(RuntimeError):
            with t.span("risky"):
                raise RuntimeError("boom")
        assert t.open_depth == 0
        assert t.roots["risky"].count == 1
        assert [e.name for e in t.events] == ["risky"]
        assert t.span_histograms["risky"].count == 1

    def test_raising_nested_span_unwinds_cleanly(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError
        assert t.open_depth == 0
        # the tracer still works afterwards
        with t.span("outer"):
            pass
        assert t.roots["outer"].count == 2

    def test_ambient_tracer_uninstalls_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError
        assert obs.active_tracer() is None


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def _worker_tracer():
    t = Tracer()
    with t.span("runtime.build"):
        t.record("chunk.pool", 0.05)
        worker = Tracer()
        with worker.span("trial.build"):
            pass
        t.graft("worker.1", worker, count=1, total=0.04)
    t.count("tree.built", 4)
    t.gauge("tree.max_depth", 5.0)
    return t


class TestChromeExport:
    def test_span_events_have_ph_ts_dur(self):
        doc = export_chrome_trace(_worker_tracer())
        json.dumps(doc, allow_nan=False)  # valid JSON throughout
        spans = [e for e in doc["traceEvents"] if e.get("cat") == "span"]
        assert spans
        for event in spans:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0

    def test_worker_subtree_gets_its_own_thread_row(self):
        doc = export_chrome_trace(_worker_tracer())
        worker_events = [
            e for e in doc["traceEvents"] if e.get("name") == "worker.1"
        ]
        assert worker_events and worker_events[0]["tid"] == 2
        names = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M"
        ]
        assert "main" in names and "worker.1" in names

    def test_counters_export_as_counter_track(self):
        doc = export_chrome_trace(_worker_tracer())
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert {e["name"] for e in counters} == {"tree.built"}
        assert counters[0]["args"]["value"] == 4

    def test_recorded_events_export_as_real_timeline(self):
        t = Tracer(events=16)
        with t.span("a"):
            with t.span("b"):
                pass
        doc = export_chrome_trace(t)
        spans = [e for e in doc["traceEvents"] if e.get("cat") == "span"]
        assert len(spans) == 2
        assert min(e["ts"] for e in spans) == 0.0
        b = next(e for e in spans if e["name"] == "b")
        assert b["args"]["path"] == "a/b"

    def test_round_trips_through_snapshot(self):
        # exporting a saved snapshot must equal exporting the live tracer
        t = _worker_tracer()
        snapshot = json.loads(json.dumps(t.to_dict()))
        assert export_chrome_trace(snapshot) == export_chrome_trace(t)


class TestFoldedExport:
    def test_lines_are_path_and_integer_self_time(self):
        text = export_folded(_worker_tracer())
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path
            assert int(value) >= 0

    def test_self_time_subtracts_children(self):
        t = Tracer()
        with t.span("parent"):
            t.record("child", 0.25)
        t.roots["parent"].total = 1.0  # pin for determinism
        text = export_folded(t)
        stacks = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        assert int(stacks["parent"]) == 750000
        assert int(stacks["parent;child"]) == 250000


# ----------------------------------------------------------------------
# regression diffing
# ----------------------------------------------------------------------


def _snapshot_with_mean(mean_s, count=10, name="stage"):
    return {
        "spans": {
            name: {"count": count, "total_s": mean_s * count}
        },
        "counters": {},
        "gauges": {},
    }


class TestDiff:
    def test_regression_detected_past_threshold(self):
        diff = diff_traces(
            _snapshot_with_mean(0.010), _snapshot_with_mean(0.030),
            threshold=1.5,
        )
        assert not diff.ok
        assert [d.path for d in diff.regressions] == ["stage"]
        assert diff.regressions[0].ratio == pytest.approx(3.0)

    def test_improvement_does_not_fail(self):
        diff = diff_traces(
            _snapshot_with_mean(0.030), _snapshot_with_mean(0.010),
            threshold=1.5,
        )
        assert diff.ok
        assert [d.path for d in diff.improvements] == ["stage"]

    def test_within_threshold_is_quiet(self):
        diff = diff_traces(
            _snapshot_with_mean(0.010), _snapshot_with_mean(0.012),
            threshold=1.5,
        )
        assert diff.ok and not diff.improvements
        assert diff.compared == 1

    def test_min_mean_floor_suppresses_micro_spans(self):
        diff = diff_traces(
            _snapshot_with_mean(1e-6), _snapshot_with_mean(10e-6),
            threshold=1.5,
        )
        assert diff.ok  # 10x slower, but both sides are noise-scale

    def test_structural_changes_reported_but_not_failing(self):
        old = _snapshot_with_mean(0.010, name="kept")
        new = _snapshot_with_mean(0.010, name="kept")
        new["spans"]["added"] = {"count": 1, "total_s": 0.5}
        old["spans"]["removed"] = {"count": 1, "total_s": 0.5}
        diff = diff_traces(old, new)
        assert diff.ok
        assert diff.added == ["added"]
        assert diff.removed == ["removed"]

    def test_nested_paths_compare_by_position(self):
        old = {"spans": {"a": {
            "count": 1, "total_s": 0.01,
            "children": {"b": {"count": 5, "total_s": 0.005}},
        }}}
        new = {"spans": {"a": {
            "count": 1, "total_s": 0.01,
            "children": {"b": {"count": 5, "total_s": 0.5}},
        }}}
        diff = diff_traces(old, new)
        assert [d.path for d in diff.regressions] == ["a/b"]

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            diff_traces(_snapshot_with_mean(1.0), _snapshot_with_mean(1.0),
                        threshold=1.0)

    def test_render_mentions_verdict(self):
        diff = diff_traces(
            _snapshot_with_mean(0.010), _snapshot_with_mean(0.030),
        )
        assert "REGRESSION" in diff.render()
        assert "1 regression(s)" in diff.render()


class TestExtractTraces:
    def test_raw_snapshot(self):
        t = _worker_tracer()
        assert extract_traces(t.to_dict()) == {"": t.to_dict()}

    def test_bench_snapshot_with_stage_traces(self):
        trace = _snapshot_with_mean(0.01)
        data = {"stages": {
            "build": {"wall_s": 1.0, "trace": trace},
            "parallel": {
                "serial_trace": trace,
                "pool_trace": trace,
            },
        }}
        names = set(extract_traces(data))
        assert names == {"build", "parallel.serial", "parallel.pool"}

    def test_trace_bundle(self):
        trace = _snapshot_with_mean(0.01)
        data = {"bench_version": 5, "stages": {"census": trace}}
        assert extract_traces(data) == {"census": trace}


# ----------------------------------------------------------------------
# repro obs CLI
# ----------------------------------------------------------------------


def _write_trace(path, snapshot):
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    return str(path)


class TestObsCli:
    def _main(self, argv):
        from repro.obs.cli import main
        return main(argv)

    def test_report_renders_span_tree(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "t.json", _worker_tracer().to_dict())
        assert self._main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "runtime.build" in out
        assert "worker.1" in out

    def test_diff_exits_nonzero_on_regression(self, tmp_path, capsys):
        old = _write_trace(tmp_path / "old.json", _snapshot_with_mean(0.010))
        new = _write_trace(tmp_path / "new.json", _snapshot_with_mean(0.050))
        assert self._main(["diff", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_exits_zero_on_improvement(self, tmp_path, capsys):
        old = _write_trace(tmp_path / "old.json", _snapshot_with_mean(0.050))
        new = _write_trace(tmp_path / "new.json", _snapshot_with_mean(0.010))
        assert self._main(["diff", old, new]) == 0
        assert "improved" in capsys.readouterr().out

    def test_diff_respects_threshold_flag(self, tmp_path, capsys):
        old = _write_trace(tmp_path / "old.json", _snapshot_with_mean(0.010))
        new = _write_trace(tmp_path / "new.json", _snapshot_with_mean(0.020))
        assert self._main(["diff", old, new, "--threshold", "3.0"]) == 0
        assert self._main(["diff", old, new, "--threshold", "1.5"]) == 1

    def test_diff_works_on_bench_shaped_files(self, tmp_path, capsys):
        def bench_file(mean):
            return {"bench_version": 5, "stages": {
                "build": {"trace": _snapshot_with_mean(mean)},
            }}
        old = _write_trace(tmp_path / "old.json", bench_file(0.010))
        new = _write_trace(tmp_path / "new.json", bench_file(0.050))
        assert self._main(["diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "build/stage" in out

    def test_diff_rejects_threshold_at_or_below_one(self, tmp_path):
        old = _write_trace(tmp_path / "old.json", _snapshot_with_mean(0.01))
        with pytest.raises(SystemExit):
            self._main(["diff", old, old, "--threshold", "1.0"])

    def test_export_chrome_is_valid_json(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "t.json", _worker_tracer().to_dict())
        out_path = tmp_path / "trace.chrome.json"
        argv = ["export", path, "--format", "chrome", "--out", str(out_path)]
        assert self._main(argv) == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_export_folded_to_stdout(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "t.json", _worker_tracer().to_dict())
        assert self._main(["export", path, "--format", "folded"]) == 0
        out = capsys.readouterr().out
        assert "runtime.build;worker.1" in out

    def test_rejects_non_trace_files(self, tmp_path):
        path = _write_trace(tmp_path / "junk.json", {"not": "a trace"})
        with pytest.raises(SystemExit):
            self._main(["report", path])

    def test_repro_cli_dispatches_obs(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main
        path = _write_trace(tmp_path / "t.json", _worker_tracer().to_dict())
        assert repro_main(["obs", "report", path]) == 0
        assert "runtime.build" in capsys.readouterr().out


# ----------------------------------------------------------------------
# pool rescue accounting
# ----------------------------------------------------------------------


class TestPoolRescueFraction:
    """Pinned semantics of ``pool.rescue_fraction``: rescue seconds over
    total (pool + rescue) seconds, gauged on every traced pool run —
    exactly 0.0 when no chunk needed in-process rescue, strictly
    positive when rescued/degraded chunk time would otherwise vanish
    from the utilization signal the chunk autotuner reads."""

    def _run(self, monkeypatch=None, crash=False):
        from repro.runtime import ExperimentSpec, RuntimeConfig, execute
        from repro.runtime import executor as executor_module
        from tests.test_runtime_executor import _crashing

        spec = ExperimentSpec(capacity=2, n_points=50, trials=5, seed=3)
        if crash:
            monkeypatch.setattr(executor_module, "_run_chunk", _crashing)
        tracer = Tracer()
        config = RuntimeConfig(workers=2, tracer=tracer)
        execute(spec, config)
        return tracer

    def test_clean_pool_run_gauges_zero(self):
        tracer = self._run()
        gauge = tracer.gauges["pool.rescue_fraction"]
        assert gauge.count == 1
        assert gauge.last == 0.0

    def test_crash_rescue_is_accounted(self, monkeypatch):
        tracer = self._run(monkeypatch, crash=True)
        gauge = tracer.gauges["pool.rescue_fraction"]
        assert 0.0 < gauge.last <= 1.0

    def test_serial_runs_do_not_gauge(self):
        from repro.runtime import ExperimentSpec, RuntimeConfig, execute

        spec = ExperimentSpec(capacity=2, n_points=50, trials=5, seed=3)
        tracer = Tracer()
        execute(spec, RuntimeConfig(workers=1, tracer=tracer))
        assert "pool.rescue_fraction" not in tracer.gauges
