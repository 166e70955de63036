"""The serve workloads: a durable spatial-index server under open-loop load.

The server is ``repro serve start`` in a subprocess, created with
``--preload`` (a seeded uniform bulk load).  This process is the load
generator: one pipelined connection sends a seeded schedule at fixed
rates (an untimed warm-up, then one rung per rate, draining between
rungs), checks every response, and after the last rung compares the
server's census with the census of the point set it should hold.

An untraced run starts the server three times, so ``setup_s`` is a
median, and gives each server a warm-up and a third of the reference
rung; the end-to-end latencies are lower quartiles over the one-second
windows of all three.  A traced run loads one untraced server the same
way, as the base of ``trace.overhead``, then a traced server with the
whole ladder of rungs.  ``run.py`` starts this in a fresh process;
README.md defines the metrics.
"""

from __future__ import annotations

import asyncio
import gc
import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    LAYER_UNITS,
    ROOT,
    SETUPS,
    child_env,
    child_parser,
    environment,
    median,
    percentile_ms,
    proc_cpu_s,
    proc_peak_rss_mb,
    ratio,
    tail_ms,
    write_result,
)
from loadgen import (
    MUTATIONS,
    READS,
    LiveSet,
    Request,
    Rung,
    build_schedule,
    run_rung,
)
from spans import self_times

from repro.kernels import vector_census
from repro.service.loadgen import ServiceClient
from repro.workloads import UniformPoints

HERE = Path(__file__).resolve().parent
CAPACITY = 4
PAGE_SIZE = 512
#: Bytes of user data in one mutated point (two float64 coordinates).
POINT_BYTES = 16
#: A rung is met when its p99 over all ops stays within this...
P99_LIMIT_S = 0.050
#: ...with no errors and at most this share of a second's requests
#: still unanswered when its schedule ends.
BACKLOG_LIMIT = 0.05
#: A run whose generator sent late by more than this at p99 measured
#: itself, not the server.
SEND_LAG_LIMIT_S = 0.005


@dataclass(frozen=True)
class Workload:
    preload: int
    pool_pages: int
    #: ``--checkpoint-every``; None keeps the server's default
    checkpoint_every: Optional[int]
    write_share: float
    #: the rungs' rates, in the order they run; the last is the
    #: reference rung, where the end-to-end metrics are measured
    rates: Tuple[float, ...]
    #: shares of ``--seconds`` for the traced ladder's warm-up (at the
    #: reference rate) and each rung
    shares: Tuple[float, ...]

    def ladder(self, seconds: float) -> List[Tuple[float, float]]:
        """``(rate, seconds)`` of the warm-up, then of each rung."""
        rates = self.rates[-1:] + self.rates
        return [(r, share * seconds) for r, share in zip(rates, self.shares)]

    def reference(self, seconds: float) -> List[Tuple[float, float]]:
        """``(rate, seconds)`` of a warm-up and the reference rung."""
        rate = self.rates[-1]
        return [(rate, WARM_SHARE * seconds),
                (rate, (1.0 - WARM_SHARE) * seconds)]


#: Share of one server's load seconds spent warming up, untimed.
WARM_SHARE = 0.3

WORKLOADS = {
    # ~26k leaf pages against 256 frames: reads and writes miss the
    # pool.  (10^5 points would double the pages but take 10-15 s per
    # set-up, three per run, which the run's time budget cannot carry.)
    # The server walks every page for a drift sample each 2000
    # mutations, and checkpoints every 2000 share that commit.  Each
    # untraced server takes 1500 mutations at 20 s, so no walk falls in
    # its windows: a half-second stall would set the tail of every
    # window it touches.  The traced ladder's warm-up and rungs carry
    # 1350, 150, 525 and 1912, so its walk lands near the end of the
    # 200 ops/s rung and its reference rung runs between walks.
    "serve_write_large": Workload(
        50_000, 256, 2000, 0.75, (100, 200, 300),
        (0.3, 0.1, 0.175, 0.425),
    ),
    # ~11.1k pages fit the 16384 frames; writes are rare and neither a
    # checkpoint nor a drift sample fires under load.  The reference
    # rate is 600, not the ladder's top: at 900 ops/s the server is
    # about half busy, so a stretch of slow host pushes it towards
    # saturation and its tail doubles; at 600 the tail is the writes'
    # group-commit wait.
    "serve_read_small": Workload(
        20_000, 16384, None, 0.10, (300, 900, 600), (0.15, 0.1, 0.15, 0.6)
    ),
}


@dataclass
class Plan:
    #: ``(rate, requests)`` of the warm-up, then of each rung
    phases: List[Tuple[float, List[Request]]]
    live: LiveSet


def make_plan(
    rng: np.random.Generator,
    preload: np.ndarray,
    write_share: float,
    schedule: Sequence[Tuple[float, float]],
) -> Plan:
    """Requests for each ``(rate, seconds)`` phase of ``schedule``."""
    live = LiveSet(preload)
    return Plan([
        (rate, build_schedule(rng, live, round(rate * seconds), write_share))
        for rate, seconds in schedule
    ], live)


class Server:
    """One ``repro serve start`` subprocess."""

    def __init__(self, cmd: List[str], state: Path, env: Dict[str, str]):
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        self.state = state
        log = open(state / "server.log", "w", encoding="utf-8")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env,
            cwd=ROOT,
        )
        log.close()
        for line in self.proc.stdout:
            match = re.match(r"serving .* on ([\d.]+):(\d+) ", line)
            if match:
                self.setup_s = time.perf_counter() - began
                self.host, self.port = match.group(1), int(match.group(2))
                return
        self.proc.wait()
        raise RuntimeError(
            f"server exited ({self.proc.returncode}) before serving; "
            f"see {state / 'server.log'}"
        )

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait(self, timeout: float = 60.0) -> None:
        """Wait for a requested shutdown; kill a server that hangs."""
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def server_cmd(
    spec: Workload, args, state: Path, spans_out: Optional[Path]
) -> List[str]:
    head = (
        [sys.executable, str(HERE / "traced_server.py"), str(spans_out)]
        if spans_out is not None
        else [sys.executable, "-m", "repro", "serve"]
    )
    cmd = head + [
        "start", str(state / "index.pf"), "--port", "0",
        "--preload", str(preload_size(spec, args)),
        "--preload-seed", str(args.seed),
        "--capacity", str(CAPACITY), "--page-size", str(PAGE_SIZE),
        "--pool-pages", str(spec.pool_pages), "--no-db",
    ]
    if spec.checkpoint_every is not None:
        every = max(1, round(spec.checkpoint_every * args.scale))
        cmd += ["--checkpoint-every", str(every)]
    return cmd


def preload_size(spec: Workload, args) -> int:
    return max(64, round(spec.preload * args.scale))


async def send_load(
    server: Server, plan: Plan, shutdown: bool = False
) -> Dict[str, Any]:
    """Warm up, run every rung, take the census and (``shutdown``) the
    server's ``stat`` before stopping it.  The server's CPU is read
    around the last rung and at each of its windows."""
    client = await ServiceClient.connect(server.host, server.port)
    out: Dict[str, Any] = {}
    # A full collection over the plan and the live set (~10^5 objects)
    # pauses this process for tens of ms, which would be charged to
    # the server: keep them out of the collector, and collect only
    # between rungs.
    gc.freeze()
    try:
        (warm_rate, warmup), *phases = plan.phases
        out["warmup"] = await run_rung(client, warmup, warm_rate)
        rungs: List[Rung] = []
        for rate, requests in phases:
            gc.collect()
            gc.disable()
            cpu = proc_cpu_s(server.pid)
            try:
                rungs.append(await run_rung(
                    client, requests, rate, lambda: proc_cpu_s(server.pid)
                ))
            finally:
                gc.enable()
        out["ref_cpu_s"] = proc_cpu_s(server.pid) - cpu
        out["rungs"] = rungs
        out["peak_rss_mb"] = proc_peak_rss_mb(server.pid)
        out["census"] = await client.call("census")
        if shutdown:
            out["stat"] = await client.call("stat")
            await client.call("shutdown")
    finally:
        await client.close()
    return out


def census_failures(
    response: Dict[str, Any], live: LiveSet, inject: bool
) -> List[str]:
    """Differences between the server's census and the expected one."""
    expected_points = live.array()
    if inject:
        expected_points = expected_points[1:]
    expected = list(
        vector_census(expected_points, CAPACITY).occupancy_census().counts
    )
    if not response.get("ok"):
        return [f"census failed: {response.get('error')}"]
    result = response["result"]
    failures = []
    if result["points"] != len(expected_points):
        failures.append(
            f"server holds {result['points']} points, "
            f"expected {len(expected_points)}"
        )
    if list(result["counts"]) != expected:
        failures.append(
            f"census {result['counts']} != expected {expected}"
        )
    return failures


def max_ok_rate(rungs: Sequence[Rung]) -> float:
    """The highest rate whose rung met the latency limit with no errors
    and no backlog; 0 if none did."""
    met = [
        rung.rate for rung in rungs
        if np.percentile(rung.latencies(), 99) <= P99_LIMIT_S
        and rung.failed == 0
        and rung.backlog_end <= BACKLOG_LIMIT * rung.rate
    ]
    return float(max(met, default=0.0))


def window_figures(refs: Sequence[Rung]) -> Dict[str, float]:
    """Latency and server CPU per request at the reference rate, each
    the lower quartile over the one-second windows of ``refs``.  The
    windows repeat one rate and mix; a window that reads higher than
    that is one a busy host slowed, and up to three in four may be."""
    windows = [window for rung in refs for window in rung.windows()]

    def lower_quartile(values) -> float:
        return float(np.percentile(list(values), 25))

    return {
        "latency_p50_ms": lower_quartile(
            percentile_ms(lat, 50) for lat, _ in windows
        ),
        "latency_p95_ms": lower_quartile(
            percentile_ms(lat, 95) for lat, _ in windows
        ),
        "cpu_ms_per_op": lower_quartile(cpu * 1e3 for _, cpu in windows),
    }


def client_figures(
    refs: Sequence[Rung], rungs: Sequence[Rung]
) -> Dict[str, float]:
    """Latency by op class over the reference rungs ``refs``, and how
    late the generator sent over every rung."""

    def latencies(ops=None) -> np.ndarray:
        return np.concatenate([rung.latencies(ops) for rung in refs])

    lags = np.concatenate([rung.send_lags() for rung in rungs])
    return {
        "p99_ms": percentile_ms(latencies(), 99),
        "write_p50_ms": percentile_ms(latencies(MUTATIONS), 50),
        "write_tail_ms": tail_ms(latencies(MUTATIONS)),
        "read_p50_ms": percentile_ms(latencies(READS), 50),
        "read_tail_ms": tail_ms(latencies(READS)),
        "send_lag_p99_ms": percentile_ms(lags, 99),
    }


def layer_metrics(
    trace: Dict[str, Any],
    rungs: Sequence[Rung],
    ref_cpu_s: float,
    client_p50_ms: float,
) -> Dict[str, float]:
    """Per-layer figures from the traced server's spans: the reference
    rung's window for per-request costs, the whole ladder for the
    server's periodic stalls."""
    spans = trace["spans"]
    own = self_times(spans)
    ref = rungs[-1]
    window = (ref.start, ref.drained)
    ladder = (rungs[0].start, ref.drained)

    def within(span, bounds) -> bool:
        return bounds[0] <= span[1] < bounds[1]

    def durations(name: str) -> List[float]:
        return [
            s[2] - s[1] for s in spans if s[0] == name and within(s, window)
        ]

    def median_us(*names: str) -> float:
        return median(d for n in names for d in durations(n)) * 1e6

    # page reads made by a drift census walk are the walk's cost, not
    # the requests'
    under_sample = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        under_sample[i] = parent >= 0 and (
            under_sample[parent]
            or spans[parent][0] == "service.monitor.sample"
        )
    page_reads = [
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0] == "storage.page_read" and within(s, window)
        and not under_sample[i]
    ]

    syncs = [
        s for s in spans
        if s[0] == "service.wal.sync" and within(s, window) and s[4]
    ]
    sync_s = [s[2] - s[1] for s in syncs]
    durable = [d - e for e, d in trace["durable"] if window[0] <= e < window[1]]
    samples = [s for s in spans if s[0] == "service.monitor.sample"]
    ladder_samples = [s for s in samples if within(s, ladder)]
    checkpoints = [s for s in spans if s[0] == "storage.checkpoint"]

    # pool counters at the first and last request decoded in the window,
    # less what drift walks fetched in between
    pool = [p for p in trace["samples"] if window[0] <= p[0] < window[1]]
    walk_hits = sum(s[4][4] for s in samples if within(s, window))
    walk_misses = sum(s[4][5] for s in samples if within(s, window))
    hits = pool[-1][1] - pool[0][1] - walk_hits if pool else 0
    misses = pool[-1][2] - pool[0][2] - walk_misses if pool else 0

    # bytes each checkpoint wrote over the bytes of points mutated
    # since the one before it
    appends = sorted(s[1] for s in spans if s[0] == "service.wal.append")
    written = user = 0
    for before, after in zip(checkpoints, checkpoints[1:]):
        if within(after, ladder):
            mutated = sum(before[2] <= t < after[1] for t in appends)
            written += after[4]
            user += mutated * POINT_BYTES
    residence = [
        s[4] for s in spans
        if s[0] == "service.protocol.encode" and within(s, window)
        and s[4] is not None
    ]
    last = samples[-1][4] if samples else [0, 0, 0, 0, 0, 0]
    in_window = [i for i, s in enumerate(spans) if within(s, window)]

    def first_duration(name: str) -> float:
        return next((s[2] - s[1] for s in spans if s[0] == name), 0.0)

    lags = np.concatenate([rung.send_lags() for rung in rungs])
    out = {name: 0.0 for name in LAYER_UNITS}
    out.update({
        "workloads.generate_s": sum(
            own[i] for i, s in enumerate(spans)
            if s[0] == "workloads.generate"
        ),
        "core.solve_s": sum(
            own[i] for i, s in enumerate(spans)
            if s[0] == "core.solve" and within(s, ladder)
        ),
        "service.protocol.decode_us": median_us("service.protocol.decode"),
        "service.protocol.encode_us": median_us("service.protocol.encode"),
        "service.writer.durable_wait_p50_ms": percentile_ms(durable, 50),
        "service.writer.durable_wait_tail_ms": tail_ms(durable),
        "service.wal.append_us": median_us("service.wal.append"),
        "service.wal.sync_p50_ms": percentile_ms(sync_s, 50),
        "service.wal.sync_tail_ms": tail_ms(sync_s),
        "service.wal.syncs": float(len(syncs)),
        "service.group_commit.batch_mean": ratio(
            sum(s[4] for s in syncs), len(syncs)
        ),
        "service.monitor.sample_max_ms": max(
            (s[2] - s[1] for s in ladder_samples), default=0.0
        ) * 1e3,
        "service.monitor.sample_total_ms": sum(
            s[2] - s[1] for s in ladder_samples
        ) * 1e3,
        "service.monitor.samples": float(len(ladder_samples)),
        "service.monitor.pages_measured_over_predicted": ratio(
            last[0], last[1]
        ),
        "service.monitor.occupancy_measured_over_predicted": ratio(
            last[2], last[3]
        ),
        "service.server_share": ratio(
            median(residence) * 1e3, client_p50_ms
        ),
        "storage.checkpoint_max_ms": max(
            (s[2] - s[1] for s in checkpoints if within(s, ladder)),
            default=0.0,
        ) * 1e3,
        "storage.checkpoint_total_ms": sum(
            s[2] - s[1] for s in checkpoints if within(s, ladder)
        ) * 1e3,
        "storage.checkpoints": float(
            sum(within(s, ladder) for s in checkpoints)
        ),
        "storage.checkpoint_write_amp": ratio(written, user),
        "storage.pool.hit_rate": ratio(hits, hits + misses),
        "storage.pool.misses_per_op": ratio(misses, len(ref.outcomes)),
        "storage.page_read_us": median(page_reads) * 1e6,
        "storage.tree.apply_us": median_us(
            "storage.tree.insert", "storage.tree.delete"
        ),
        "storage.tree.range_us": median_us("storage.tree.range"),
        "storage.tree.nearest_us": median_us("storage.tree.nearest"),
        "storage.bulk_load_s": first_duration("storage.bulk_load"),
        "storage.open_s": first_duration("storage.open"),
        "loadgen.send_lag_p99_ms": percentile_ms(lags, 99),
        "loadgen.backlog_max": float(max(r.backlog_max for r in rungs)),
        "loadgen.worst_rung_tail_ms": max(
            tail_ms(rung.latencies()) for rung in rungs
        ),
        "budget.coverage": ratio(sum(own[i] for i in in_window), ref_cpu_s),
    })
    figures = client_figures(rungs[-1:], rungs)
    for name in ("p99_ms", "write_p50_ms", "write_tail_ms", "read_p50_ms",
                 "read_tail_ms"):
        out[f"loadgen.{name}"] = figures[name]
    out["loadgen.max_ok_rate"] = max_ok_rate(rungs)
    return out


def load(
    spec: Workload,
    args,
    env: Dict[str, str],
    launch: int,
    plan: Plan,
    spans_out: Optional[Path] = None,
) -> Tuple[float, Dict[str, Any]]:
    """Start a server, run ``plan`` against it and stop it: its set-up
    seconds and what ``send_load`` returned.  A traced server
    (``spans_out``) is shut down, so that it writes its spans; any
    other is killed."""
    state = args.work / f"state{launch}"
    cmd = server_cmd(spec, args, state, spans_out)
    with Server(cmd, state, env) as server:
        done = asyncio.run(send_load(server, plan, spans_out is not None))
        if spans_out is not None:
            server.wait()
    shutil.rmtree(state)
    return server.setup_s, done


def check(done: Dict[str, Any], plan: Plan, inject: bool) -> Tuple[int, int]:
    """``(attempted, failed)`` over one server's responses and census."""
    outcomes = done["warmup"].outcomes + [
        o for rung in done["rungs"] for o in rung.outcomes
    ]
    census = census_failures(done["census"], plan.live, inject)
    for problem in census:
        print(f"error: {problem}", file=sys.stderr)
    return len(outcomes) + 1, sum(not o.ok for o in outcomes) + bool(census)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = child_parser(__doc__.splitlines()[0]).parse_args(argv)
    spec = WORKLOADS[args.workload]
    env = child_env(args.work)
    preload = UniformPoints(dim=2, seed=args.seed).generate_array(
        preload_size(spec, args)
    )
    # each server's share of the load: a warm-up and a reference rung
    share = spec.reference(args.seconds / SETUPS)

    if args.trace:
        base = make_plan(np.random.default_rng([args.seed, 2]), preload,
                         spec.write_share, share)
        _, done = load(spec, args, env, 0, base)
        untraced_p50_ms = percentile_ms(done["rungs"][-1].latencies(), 50)
        plan = make_plan(np.random.default_rng([args.seed, 1]), preload,
                         spec.write_share, spec.ladder(args.seconds))
        spans_out = args.work / "server-spans.json"
        _, done = load(spec, args, env, 1, plan, spans_out)
        loads, plans = [done], [plan]
    else:
        rng = np.random.default_rng([args.seed, 1])
        setups, loads, plans = [], [], []
        for launch in range(SETUPS):
            plans.append(make_plan(rng, preload, spec.write_share, share))
            setup_s, done = load(spec, args, env, launch, plans[-1])
            setups.append(setup_s)
            loads.append(done)

    attempted = failed = 0
    for done, plan in zip(loads, plans):
        tried, bad = check(done, plan, args.inject_census_mismatch)
        attempted += tried
        failed += bad
    refs = [done["rungs"][-1] for done in loads]
    rungs = [rung for done in loads for rung in done["rungs"]]
    figures = client_figures(refs, rungs)
    if figures["send_lag_p99_ms"] > SEND_LAG_LIMIT_S * 1e3:
        print(f"warning: send lag p99 {figures['send_lag_p99_ms']:.2f} ms "
              f"exceeds {SEND_LAG_LIMIT_S * 1e3:g} ms; the run measured "
              "the load generator", file=sys.stderr)
    windows = window_figures(refs)
    extra: Dict[str, float] = {}
    if args.trace:
        ref = refs[0]
        p50_ms = percentile_ms(ref.latencies(), 50)
        trace = json.loads(spans_out.read_text(encoding="utf-8"))
        metrics = layer_metrics(trace, rungs, loads[0]["ref_cpu_s"], p50_ms)
        metrics["service.cpu_ms_per_op"] = windows["cpu_ms_per_op"]
        metrics["trace.overhead"] = ratio(p50_ms, untraced_p50_ms)
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps({
                "workload": args.workload,
                "windows": {
                    "reference": [ref.start, ref.drained],
                    "ladder": [rungs[0].start, ref.drained],
                },
                "processes": [trace],
            }), encoding="utf-8")
    else:
        metrics = {
            "setup_s": median(setups),
            # requests answered per second, first due time to last answer
            "throughput_per_s": sum(len(r.outcomes) for r in refs)
            / sum(r.drained - r.start for r in refs),
            "latency_p50_ms": windows["latency_p50_ms"],
            "latency_p95_ms": windows["latency_p95_ms"],
            # the three servers do the same work, yet in some runs one
            # or two of them peak 4-6 MiB higher than the rest
            "peak_rss_mb": min(done["peak_rss_mb"] for done in loads),
        }
        extra = dict(figures, cpu_ms_per_op=windows["cpu_ms_per_op"],
                     error_ratio=ratio(failed, attempted))
    write_result(
        args.result,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        extra=extra,
        info={
            "env": environment(),
            "rungs": [
                {"rate": r.rate, "requests": len(r.outcomes),
                 "failed": r.failed, "backlog_end": r.backlog_end,
                 **{f"p{q}_ms": float(np.percentile(r.latencies(), q)) * 1e3
                    for q in (50, 90, 95, 99)}}
                for r in rungs
            ],
            "windows": [
                [[float(np.percentile(lat, 50)) * 1e3,
                  float(np.percentile(lat, 95)) * 1e3, cpu * 1e3]
                 for lat, cpu in r.windows()]
                for r in refs
            ],
            "server_stat": loads[-1].get("stat", {}).get("result"),
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
