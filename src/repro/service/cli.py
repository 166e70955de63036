"""``python -m repro serve`` — run and drive the spatial-index server.

Five subcommands:

- ``start PATH`` — open (or create) the durable state at ``PATH`` and
  serve it; runs until SIGINT/SIGTERM or a client's ``shutdown`` op.
  Tracing is on by default (``--no-trace`` opts out): per-op latency
  histograms, group-commit internals, and the slow-op ring are live
  from the first request, and — when a run database is configured —
  a :class:`~repro.rundb.ServeTelemetryRecorder` flushes interval
  metric samples every ``--telemetry-interval`` seconds.
  ``--trace-out`` writes the server's full tracer snapshot (span tree,
  per-op latency histograms, drift gauges) as JSON on exit — the file
  ``repro obs report|export`` consume;
- ``stat`` — connect and print the server's ``stat`` payload;
- ``top`` — poll the ``metrics`` op on an interval and render a live
  refreshing view: per-op latency percentiles (reconstructed by
  merging every poll's histogram deltas), queue depth, pool hit rate,
  and the slowest requests with their span breakdowns.
  ``--iterations`` bounds the polls (CI mode), ``--assert-ops`` /
  ``--require-p99-ms`` turn the final totals into a gate;
- ``load`` — replay a seeded churn trace at a target QPS
  (:mod:`~repro.service.loadgen`) and report achieved QPS + latency
  percentiles; exits nonzero if any op failed or the census check
  mismatched (CI's smoke gate);
- ``stop`` — send the ``shutdown`` op (a clean remote stop, so the
  server checkpoints and flushes its trace).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs import Histogram, Tracer, tracing
from ..storage.pagefile import StorageError
from .loadgen import LoadError, ServiceClient, run_load
from .server import ServiceError, SpatialIndexServer, open_state
from .telemetry import DEFAULT_SLOW_K
from .wal import WalError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a disk-backed PR quadtree over TCP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser(
        "start", help="serve the page file at PATH (created if missing)"
    )
    start.add_argument("path", help="page file to serve (WAL lives beside)")
    start.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    start.add_argument("--port", type=int, default=7871,
                       help="bind port, 0 = ephemeral (default: %(default)s)")
    start.add_argument("--capacity", type=int, default=4,
                       help="bucket capacity m when creating "
                            "(default: %(default)s)")
    start.add_argument("--dim", type=int, default=2,
                       help="dimension when creating (default: %(default)s)")
    start.add_argument("--page-size", type=int, default=4096,
                       help="bytes per page when creating "
                            "(default: %(default)s)")
    start.add_argument("--pool-pages", type=int, default=256,
                       help="buffer pool frames (default: %(default)s)")
    start.add_argument("--preload", type=int, default=0, metavar="N",
                       help="when creating, bulk-load N seeded uniform "
                            "points into the file first (sorted one-pass "
                            "cold start; default: %(default)s)")
    start.add_argument("--preload-seed", type=int, default=1987,
                       help="RNG seed for --preload (default: %(default)s)")
    start.add_argument("--max-batch", type=int, default=512,
                       help="max mutations per group commit "
                            "(default: %(default)s)")
    start.add_argument("--checkpoint-every", type=int, default=50000,
                       help="mutations between automatic checkpoints "
                            "(default: %(default)s)")
    start.add_argument("--drift-threshold", type=float, default=0.25,
                       help="drift-monitor alarm threshold "
                            "(default: %(default)s)")
    start.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the server's tracer snapshot (JSON) "
                            "here on shutdown")
    start.add_argument("--no-trace", action="store_true",
                       help="disable the ambient tracer (drops per-op "
                            "histograms, metrics deltas, and telemetry "
                            "flushes; the slow-op ring stays live)")
    start.add_argument("--telemetry-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="seconds between gauge samples / run-DB "
                            "telemetry flushes, 0 = off "
                            "(default: %(default)s)")
    start.add_argument("--slow-k", type=int, default=DEFAULT_SLOW_K,
                       help="slow-op ring size — slowest requests "
                            "retained (default: %(default)s)")
    start.add_argument("--verbose", action="store_true",
                       help="print the span tree on shutdown")
    start.add_argument("--db", default=None, metavar="PATH",
                       help="run database recording this serve session "
                            "(default: $REPRO_DB or "
                            "~/.local/share/repro/runs.sqlite)")
    start.add_argument("--no-db", action="store_true",
                       help="do not record this session into the run "
                            "database (also: REPRO_NO_DB=1)")

    stat = sub.add_parser("stat", help="print a running server's stats")
    top = sub.add_parser(
        "top", help="live metrics view (polls the 'metrics' op)"
    )
    load = sub.add_parser(
        "load", help="replay a seeded churn trace against a server"
    )
    stop = sub.add_parser("stop", help="ask a running server to shut down")
    for cmd in (stat, top, load, stop):
        cmd.add_argument("--host", default="127.0.0.1",
                         help="server address (default: %(default)s)")
        cmd.add_argument("--port", type=int, default=7871,
                         help="server port (default: %(default)s)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between polls (default: %(default)s)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N polls (default: run until ^C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append views instead of clearing the screen")
    top.add_argument("--assert-ops", default=None, metavar="OP,OP",
                     help="exit nonzero unless every listed op saw "
                          "requests (CI gate)")
    top.add_argument("--require-p99-ms", action="append", default=[],
                     metavar="OP=MS",
                     help="exit nonzero when the op's aggregate p99 "
                          "exceeds MS (repeatable; bare MS = insert)")
    top.add_argument("--json", default=None, metavar="PATH",
                     help="write the final aggregate totals as JSON here")
    load.add_argument("--ops", type=int, default=1000,
                      help="trace mutations to replay (default: %(default)s)")
    load.add_argument("--qps", type=float, default=None,
                      help="target ops/sec (default: unthrottled)")
    load.add_argument("--size", type=int, default=500,
                      help="churn live-set size (default: %(default)s)")
    load.add_argument("--seed", type=int, default=1987,
                      help="trace seed (default: %(default)s)")
    load.add_argument("--dim", type=int, default=2,
                      help="point dimension (default: %(default)s)")
    load.add_argument("--query-fraction", type=float, default=0.2,
                      help="range/nearest queries per mutation "
                           "(default: %(default)s)")
    load.add_argument("--window", type=int, default=64,
                      help="max pipelined requests (default: %(default)s)")
    load.add_argument("--no-verify", action="store_true",
                      help="skip the final census-vs-local-replay check")
    load.add_argument("--json", default=None, metavar="PATH",
                      help="also write the report as JSON here")
    return parser


def _cmd_start(args: argparse.Namespace) -> int:
    # tracing defaults ON: the metrics op, serve telemetry flushes, and
    # p50/p99 in `serve top` all read the ambient tracer
    tracer = None if args.no_trace else Tracer()
    preload = args.preload > 0 and not Path(args.path).exists()
    try:
        points = None
        if preload:
            from ..workloads import UniformPoints

            points = UniformPoints(
                dim=args.dim, seed=args.preload_seed
            ).generate(args.preload)
        tree, wal, replayed = open_state(
            args.path, create=True, capacity=args.capacity, dim=args.dim,
            page_size=args.page_size, pool_pages=args.pool_pages,
            points=points,
        )
        del points  # this frame lives as long as the server
    except (StorageError, WalError, ServiceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if preload:
        print(f"preloaded {args.path}: {len(tree)} points "
              f"(seed {args.preload_seed}, bulk)")
    if replayed:
        print(f"recovered {replayed} WAL records into {args.path}")

    from ..rundb import ServeTelemetryRecorder, resolve_db_path

    recorder: Optional[ServeTelemetryRecorder] = None
    db_path = resolve_db_path(args.db, no_db=args.no_db)
    if db_path is not None:
        recorder = ServeTelemetryRecorder(db_path, label=f"serve {args.path}")

    async def _serve() -> str:
        server = SpatialIndexServer(
            tree, wal, host=args.host, port=args.port,
            max_batch=args.max_batch,
            checkpoint_every=args.checkpoint_every,
            drift_threshold=args.drift_threshold,
            drift_sink=recorder.drift if recorder is not None else None,
            telemetry_interval=args.telemetry_interval,
            telemetry_sink=(
                recorder.telemetry if recorder is not None else None
            ),
            slow_k=args.slow_k,
        )
        await server.start()
        host, port = server.address
        if recorder is not None:
            recorder.start(extra={"path": str(args.path),
                                  "host": host, "port": port})
        print(
            f"serving {args.path} on {host}:{port} "
            f"({len(tree)} points, generation {server.generation})",
            flush=True,
        )
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # e.g. non-main thread or Windows
        await server.serve_forever()
        return server.writer_state

    if tracer is not None:
        with tracing(tracer):
            writer_state = asyncio.run(_serve())
    else:
        writer_state = asyncio.run(_serve())
    if recorder is not None:
        recorder.finish(tracer)
    print("server stopped")
    if args.trace_out and tracer is not None:
        Path(args.trace_out).write_text(
            json.dumps(tracer.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote trace snapshot to {args.trace_out}")
    if args.verbose and tracer is not None:
        print()
        print(tracer.render())
    if writer_state != "ok":
        print(f"error: {writer_state}; restart to recover from the WAL",
              file=sys.stderr)
        return 1
    return 0


async def _call_once(host: str, port: int, op: str) -> dict:
    client = await ServiceClient.connect(host, port)
    try:
        return await client.call(op)
    finally:
        await client.close()


def _cmd_stat(args: argparse.Namespace) -> int:
    response = asyncio.run(_call_once(args.host, args.port, "stat"))
    if not response.get("ok"):
        print(f"error: {response.get('error')}", file=sys.stderr)
        return 1
    stats = response["result"]
    drift = stats["drift"]
    print(f"server at {args.host}:{args.port}: "
          f"{stats['points']} points in {stats['pages']} pages, "
          f"m={stats['capacity']}, dim={stats['dim']}, "
          f"generation {stats['generation']}, "
          f"up {stats['uptime_s']:.1f}s")
    print(f"  sessions : {stats['sessions']} open / "
          f"{stats['total_sessions']} total; "
          f"wal {stats['wal_records']} records, "
          f"{stats['mutations_since_checkpoint']} since checkpoint")
    print(f"  writer   : {stats['writer_state']}")
    if stats["ops"]:
        ops = ", ".join(
            f"{name}={count}" for name, count in sorted(stats["ops"].items())
        )
        print(f"  ops      : {ops}")
    print(f"  drift    : page {drift['page_error']:+.1%}, "
          f"occupancy {drift['occupancy_error']:+.1%}"
          + (" ALARM" if drift["alarm"] else
             ("" if drift["armed"] else " (disarmed: small population)")))
    for name, lat in sorted(stats.get("latency_ms", {}).items()):
        print(f"  {name:<9}: {lat['count']:>6.0f} ops  "
              f"p50 {lat['p50_ms']:7.3f}ms  p99 {lat['p99_ms']:7.3f}ms")
    return 0


def merge_metrics(
    payload: Dict[str, Any],
    totals: Dict[str, Histogram],
    counters: Dict[str, int],
) -> None:
    """Fold one ``metrics`` payload's deltas into running totals.

    Because server-side deltas are exact bucket-wise subtractions,
    merging every poll reconstructs the server's cumulative histograms
    bucket for bucket — the property the telemetry tests pin.
    """
    for name, data in payload.get("histograms", {}).items():
        delta = Histogram.from_dict(data)
        if name in totals:
            totals[name].merge(delta)
        else:
            totals[name] = delta
    for name, delta in payload.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + int(delta)


def render_top(
    payload: Dict[str, Any],
    totals: Dict[str, Histogram],
    address: str,
    poll: int,
) -> str:
    """One ``serve top`` frame (pure: payload + totals in, text out)."""
    lines = [
        f"repro serve top — {address}  poll #{poll}  "
        f"up {payload.get('uptime_s', 0.0):.1f}s",
        f"  requests {payload.get('requests', 0)}"
        f" (+{payload.get('counters', {}).get('service.ops', 0)})"
        f"   queue depth {payload.get('queue_depth', 0)}"
        f"   pool hit rate {payload.get('pool_hit_rate', 0.0):.1%}",
    ]
    ops = sorted(
        (name[len("service.op."):], hist)
        for name, hist in totals.items()
        if name.startswith("service.op.") and hist.count
    )
    if ops:
        lines.append(
            "  op          count      p50      p90      p99      max"
        )
        for name, hist in ops:
            lines.append(
                f"  {name:<9} {hist.count:>7}  "
                f"{hist.p50 * 1e3:7.3f}  {hist.p90 * 1e3:7.3f}  "
                f"{hist.p99 * 1e3:7.3f}  {hist.max * 1e3:7.3f}  ms"
            )
    slow = payload.get("slow_ops", [])
    if slow:
        lines.append(f"  slowest requests (of {payload.get('requests', 0)}; "
                     f"{payload.get('slow_ops_evicted', 0)} evicted):")
        for entry in slow[:8]:
            spans = "  ".join(
                f"{name.rsplit('_s', 1)[0]} {ms:.2f}ms"
                for name, ms in sorted(entry.get("spans", {}).items())
            )
            lines.append(
                f"    #{entry['request_id']:<6} {entry['op']:<9} "
                f"{entry['latency_ms']:8.3f}ms  "
                f"args {entry['args_digest']}"
                + (f"  [{spans}]" if spans else "")
            )
    return "\n".join(lines)


def parse_p99_specs(specs: List[str]) -> Dict[str, float]:
    """``OP=MS`` gate specs (a bare number gates ``insert``)."""
    out: Dict[str, float] = {}
    for spec in specs:
        op, sep, ms = spec.partition("=")
        try:
            if sep:
                out[op.strip()] = float(ms)
            else:
                out["insert"] = float(spec)
        except ValueError:
            raise SystemExit(
                f"repro serve top: bad --require-p99-ms {spec!r} "
                "(expected OP=MS or a bare number of ms)"
            )
    return out


def check_top_gates(
    totals: Dict[str, Histogram],
    assert_ops: List[str],
    p99_specs: Dict[str, float],
) -> List[str]:
    """Problems with the aggregate totals (empty = gates pass)."""
    problems: List[str] = []
    for op in assert_ops:
        hist = totals.get(f"service.op.{op}")
        if hist is None or not hist.count:
            problems.append(f"op {op!r} saw no requests")
    for op, limit_ms in sorted(p99_specs.items()):
        hist = totals.get(f"service.op.{op}")
        if hist is None or not hist.count:
            problems.append(f"op {op!r} saw no requests (p99 gate)")
            continue
        p99_ms = hist.p99 * 1e3
        if p99_ms > limit_ms:
            problems.append(
                f"op {op!r} p99 {p99_ms:.3f}ms exceeds {limit_ms:g}ms"
            )
    return problems


async def _top_loop(
    args: argparse.Namespace,
) -> Tuple[Dict[str, Histogram], Dict[str, int]]:
    totals: Dict[str, Histogram] = {}
    counters: Dict[str, int] = {}
    client = await ServiceClient.connect(args.host, args.port)
    try:
        poll = 0
        while True:
            response = await client.call("metrics")
            if not response.get("ok"):
                raise LoadError(
                    f"metrics op failed: {response.get('error')}"
                )
            poll += 1
            payload = response["result"]
            merge_metrics(payload, totals, counters)
            frame = render_top(
                payload, totals, f"{args.host}:{args.port}", poll
            )
            if not args.no_clear and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            if args.iterations and poll >= args.iterations:
                break
            await asyncio.sleep(args.interval)
    finally:
        await client.close()
    return totals, counters


def _cmd_top(args: argparse.Namespace) -> int:
    try:
        totals, counters = asyncio.run(_top_loop(args))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "counters": dict(sorted(counters.items())),
                    "histograms": {
                        name: hist.to_dict()
                        for name, hist in sorted(totals.items())
                    },
                },
                indent=2, sort_keys=True,
            ) + "\n",
            encoding="utf-8",
        )
        print(f"wrote totals to {args.json}")
    assert_ops = [
        op.strip() for op in (args.assert_ops or "").split(",") if op.strip()
    ]
    problems = check_top_gates(
        totals, assert_ops, parse_p99_specs(args.require_p99_ms)
    )
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_load(args: argparse.Namespace) -> int:
    report = asyncio.run(run_load(
        args.host, args.port,
        ops=args.ops, qps=args.qps, size=args.size, seed=args.seed,
        dim=args.dim, query_fraction=args.query_fraction,
        window=args.window, verify=not args.no_verify,
    ))
    print(report.summary())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote report to {args.json}")
    return 0 if report.ok else 1


def _cmd_stop(args: argparse.Namespace) -> int:
    response = asyncio.run(_call_once(args.host, args.port, "shutdown"))
    if not response.get("ok"):
        print(f"error: {response.get('error')}", file=sys.stderr)
        return 1
    print(f"server at {args.host}:{args.port} shutting down")
    return 0


_HANDLERS = {
    "start": _cmd_start,
    "stat": _cmd_stat,
    "top": _cmd_top,
    "load": _cmd_load,
    "stop": _cmd_stop,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
