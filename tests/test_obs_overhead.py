"""The obs overhead contract: instrumentation left threaded through the
hot paths must cost <5% when no tracer is installed.

Two guards: a macro one (the pinned build+census microbenchmark from
the ISSUE, instrumented loop vs. a hand-inlined uninstrumented replica)
and a micro one (per-call cost of the disabled helpers), which is the
stable canary when wall-clock noise would drown a 5% macro signal.
"""

import time

from repro import obs
from repro.geometry import Point
from repro.quadtree import PRQuadtree
from repro.runtime import ExperimentSpec, TrialResult, build_trials
from repro.service.telemetry import ServiceTelemetry

#: The pinned microbenchmark: a few mid-sized uniform trees, censused.
SPEC = ExperimentSpec(capacity=4, n_points=600, trials=4, seed=11)

#: Allowed slowdown of the instrumented-but-disabled path.
BUDGET = 1.05
#: Absolute slack (seconds) so scheduler jitter on a loaded CI box
#: cannot fail a run that is within the contract.
JITTER = 0.010


def _uninstrumented() -> TrialResult:
    """``build_trials`` with every obs call deleted, kept in lockstep
    with the real implementation."""
    result = TrialResult.empty(SPEC.capacity)
    bounds = SPEC.bounds_rect()
    for trial in range(SPEC.trials):
        rows = SPEC.make_generator(trial).generate_array(SPEC.n_points)
        tree = PRQuadtree(
            capacity=SPEC.capacity, bounds=bounds, max_depth=SPEC.max_depth
        )
        tree.insert_many([Point._trusted(tuple(c)) for c in rows.tolist()])
        result.accumulator.add(tree.occupancy_census())
    return result


def _instrumented() -> TrialResult:
    return build_trials(SPEC, 0, SPEC.trials)


def _best_of_interleaved(base, other, repeats: int = 5):
    """Best-of-``repeats`` wall times of ``base`` and ``other``, run
    alternately (ABAB...) so that a slow stretch of a shared host
    slows both sides, not just the one that happened to be running."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((base, other)):
            began = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - began)
    return best


class TestDisabledOverhead:
    def test_same_answer(self):
        assert (
            _instrumented().to_payload() == _uninstrumented().to_payload()
        )

    def test_macro_overhead_under_budget(self):
        assert obs.active_tracer() is None
        _uninstrumented(), _instrumented()  # warm caches/allocator
        base, instrumented = _best_of_interleaved(
            _uninstrumented, _instrumented
        )
        assert instrumented <= base * BUDGET + JITTER, (
            f"disabled instrumentation cost "
            f"{instrumented / base - 1.0:.1%} (budget 5%)"
        )

    def test_micro_per_call_cost(self):
        """Each disabled helper call must stay in the sub-microsecond
        range — the per-call form of the same 5% contract."""
        assert obs.active_tracer() is None
        calls = 20_000
        began = time.perf_counter()
        for _ in range(calls):
            with obs.span("x"):
                pass
            obs.count("x")
            obs.gauge("x", 1.0)
        per_call = (time.perf_counter() - began) / (3 * calls)
        assert per_call < 2e-6, f"{per_call * 1e9:.0f}ns per disabled call"

    def test_enabled_tracer_still_cheap_on_the_macro_bench(self):
        """Tracing ON should not distort what it measures: the pinned
        bench stays within a loose 25% of the uninstrumented loop."""
        tracer = obs.Tracer()

        def traced_run():
            with obs.tracing(tracer):
                _instrumented()

        base, traced = _best_of_interleaved(_uninstrumented, traced_run)
        assert traced <= base * 1.25 + JITTER


class TestServePathOverhead:
    """The serve path's telemetry (default-on in ``serve start``) must
    stay far below the cost of the request it decorates: request ID +
    slow-op ring offer per request (the args digest is lazy — paid
    only by requests slow enough to be retained)."""

    REQUEST = {"op": "insert", "point": [0.4375, 0.8125], "id": 12345}

    def test_per_request_telemetry_cost(self):
        telemetry = ServiceTelemetry()
        # warm the ring to steady state (full, floor > 0) — the hot
        # path is a server that has already seen its slowest requests
        for i in range(64):
            telemetry.observe(
                telemetry.next_request_id(), "insert", "deadbeef",
                1.0 + i,
            )
        requests = 5_000
        began = time.perf_counter()
        for _ in range(requests):
            rid = telemetry.next_request_id()
            # the serve path hands the raw request over; the digest is
            # only computed for requests slow enough to be retained
            telemetry.observe(rid, "insert", self.REQUEST, 1e-6)
        per_request = (time.perf_counter() - began) / requests
        # a durable insert costs >= one group-commit interval (~2ms);
        # 20µs of telemetry is two orders of magnitude below that and
        # generous enough for a loaded CI runner
        assert per_request < 20e-6, (
            f"{per_request * 1e6:.1f}µs of telemetry per request"
        )

    def test_below_floor_requests_allocate_nothing_in_the_ring(self):
        telemetry = ServiceTelemetry(slow_k=4)
        for i in range(4):
            telemetry.observe(i + 1, "insert", "d", 1.0)
        before = len(telemetry.ring)
        evicted = telemetry.ring.evicted
        for i in range(1_000):
            telemetry.observe(i + 5, "insert", "d", 1e-9)
        assert len(telemetry.ring) == before
        assert telemetry.ring.evicted == evicted
