"""Per-connection protocol handling.

A :class:`Session` owns one client connection.  Frames are read in
arrival order; **mutations** are enqueued onto the server's single
writer synchronously at receipt (so one connection's inserts and
deletes apply in the order they were sent) and acknowledged from a
background task once their group commit lands, while **reads** execute
immediately against the last committed batch.  A client may therefore
pipeline many requests — that, not parallel connections, is how a
single client reaches thousands of ops per second through per-batch
fsync durability.  Responses carry the request's ``id`` and may
arrive out of order; a pipelined client that needs read-your-writes
awaits the mutation ack before issuing the read.

Every op is timed onto the ambient tracer as a ``service.op.<name>``
record (duration measured here, folded in with :func:`repro.obs.record`
rather than a ``span`` — spans nest on a stack, and interleaved
sessions on one event loop would corrupt it), so a traced server gets
p50/p99 per op type for free from the obs histograms.  On top of that
every request gets a server-side request ID and an args digest
(:mod:`~repro.service.telemetry`); the completed request is offered to
the server's slow-op ring with its span breakdown, and the ``metrics``
op reports counter/histogram *deltas* through this connection's own
:class:`~repro.service.telemetry.MetricsCursor`.  Frame writes
are safe from concurrent tasks: one frame is one synchronous
``write`` call, so frames never interleave on the wire.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Set

from .. import obs
from ..geometry import Point, Rect
from .protocol import ProtocolError, read_frame, write_frame
from .telemetry import MetricsCursor
from .wal import OP_DELETE, OP_INSERT

#: Ops a request may name; anything else is a client error.
KNOWN_OPS = (
    "insert", "delete", "range", "nearest", "census", "stat",
    "metrics", "ping", "checkpoint", "shutdown",
)

_MUTATIONS = {"insert": OP_INSERT, "delete": OP_DELETE}


class RequestError(ValueError):
    """A malformed or unserviceable request (reported to the client,
    connection stays up)."""


class ServiceError(RuntimeError):
    """The serving layer cannot start or continue safely (a stopping
    server, or a writer that failed and refuses mutations)."""


def _parse_point(value: Any, dim: int, field: str = "point") -> Point:
    if not isinstance(value, (list, tuple)) or not value:
        raise RequestError(f"'{field}' must be a non-empty coordinate list")
    try:
        point = Point(*[float(c) for c in value])
    except (TypeError, ValueError) as exc:
        raise RequestError(f"'{field}' holds a non-numeric coordinate") from exc
    if point.dim != dim:
        raise RequestError(
            f"'{field}' has {point.dim} coordinates; the tree is {dim}-d"
        )
    return point


def _points_payload(points: List[Point]) -> List[List[float]]:
    return [list(p.coords) for p in points]


class Session:
    """One connection's read-dispatch-respond loop."""

    def __init__(
        self,
        server,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self._server = server
        self._reader = reader
        self._writer = writer
        self._ops = 0
        self._acks: Set[asyncio.Task] = set()
        # per-connection delta state for the ``metrics`` op: each
        # polling client sees its own complete counter/histogram stream
        self._metrics_cursor = MetricsCursor()

    async def run(self) -> None:
        server = self._server
        server.sessions += 1
        server.total_sessions += 1
        obs.count("service.connections")
        try:
            while True:
                try:
                    request = await read_frame(self._reader)
                except ProtocolError:
                    # undecodable peer: nothing sane to answer, drop it
                    server.protocol_errors += 1
                    obs.count("service.protocol_errors")
                    break
                if request is None:
                    break
                stop = await self._respond(request)
                if stop:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if self._acks:  # flush pending mutation acks before closing
                await asyncio.gather(*self._acks, return_exceptions=True)
            server.sessions -= 1
            obs.gauge("service.session_ops", float(self._ops))
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: Dict[str, Any]) -> bool:
        """Handle one request; returns True when the connection should
        close (shutdown acked)."""
        request_id = request.get("id")
        op = request.get("op")
        name = op if op in KNOWN_OPS else "invalid"
        began = time.perf_counter()
        # server-side request identity: the id tags the slow-op ring
        # entry (span names must stay bounded, so tags live there).
        # The raw request stands in for its digest — telemetry hashes
        # it lazily, only for requests slow enough to be retained.
        rid = self._server.telemetry.next_request_id()
        digest = request
        if name in _MUTATIONS:
            phases: Dict[str, float] = {}
            try:
                point = _parse_point(request.get("point"), self._server.tree.dim)
                # synchronous enqueue: per-connection mutation order is
                # fixed here, the ack task only waits for durability
                future = self._server.enqueue_mutation(
                    _MUTATIONS[name], point, phases=phases
                )
            except (RequestError, ValueError, ServiceError) as exc:
                await self._send(
                    name, began,
                    {"id": request_id, "ok": False, "error": str(exc)},
                    failed=True, rid=rid, digest=digest,
                )
                return False
            task = asyncio.ensure_future(
                self._ack_mutation(
                    request_id, name, began, future, rid, digest, phases
                )
            )
            self._acks.add(task)
            task.add_done_callback(self._acks.discard)
            return False
        phases = {}
        try:
            if name == "invalid":
                raise RequestError(
                    f"unknown op {op!r} "
                    f"(expected one of {', '.join(KNOWN_OPS)})"
                )
            handler_began = time.perf_counter()
            result = self._dispatch_read(name, request)
            phases["handler_s"] = time.perf_counter() - handler_began
            response = {"id": request_id, "ok": True, "result": result}
            failed = False
        except (RequestError, ValueError, ServiceError) as exc:
            response = {"id": request_id, "ok": False, "error": str(exc)}
            failed = True
        await self._send(
            name, began, response, failed=failed,
            rid=rid, digest=digest, phases=phases,
        )
        return name == "shutdown" and not failed

    async def _ack_mutation(
        self,
        request_id: Any,
        name: str,
        began: float,
        future: "asyncio.Future",
        rid: int,
        digest: Any,
        phases: Dict[str, float],
    ) -> None:
        try:
            result = await future
            response = {"id": request_id, "ok": True, "result": result}
            failed = False
        except (RequestError, ValueError, RuntimeError) as exc:
            response = {"id": request_id, "ok": False, "error": str(exc)}
            failed = True
        try:
            await self._send(
                name, began, response, failed=failed,
                rid=rid, digest=digest, phases=phases,
            )
        except (ConnectionError, OSError):  # peer left before the ack
            obs.count("service.lost_acks")

    async def _send(
        self,
        name: str,
        began: float,
        response: Dict[str, Any],
        failed: bool = False,
        rid: Optional[int] = None,
        digest: Any = "",
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        elapsed = time.perf_counter() - began
        obs.record(f"service.op.{name}", elapsed)
        obs.count("service.ops")
        if failed:
            obs.count("service.op_errors")
        if rid is not None:
            self._server.telemetry.observe(rid, name, digest, elapsed, phases)
        self._server.op_counts[name] = \
            self._server.op_counts.get(name, 0) + 1
        self._ops += 1
        await write_frame(self._writer, response)

    def _dispatch_read(self, name: str, request: Dict[str, Any]) -> Any:
        server = self._server
        tree = server.tree
        if name == "range":
            lo = _parse_point(request.get("lo"), tree.dim, "lo")
            hi = _parse_point(request.get("hi"), tree.dim, "hi")
            return _points_payload(tree.range_search(Rect(lo, hi)))
        if name == "nearest":
            point = _parse_point(request.get("point"), tree.dim)
            k = request.get("k", 1)
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise RequestError(
                    f"'k' must be a positive integer, got {k!r}"
                )
            return _points_payload(tree.nearest(point, k))
        if name == "census":
            census = tree.occupancy_census()
            return {
                "counts": list(census.counts),
                "capacity": tree.capacity,
                "points": len(tree),
                "pages": tree.leaf_count(),
                "mean_occupancy": census.average_occupancy(),
                "generation": server.generation,
            }
        if name == "stat":
            return server.stat()
        if name == "metrics":
            return server.metrics(self._metrics_cursor)
        if name == "ping":
            return "pong"
        if name == "checkpoint":
            # safe to run inline: the writer only commits between
            # awaits, and _commit_batch never yields mid-batch
            return server.checkpoint()
        if name == "shutdown":
            server.request_shutdown()
            return True
        raise RequestError(f"unhandled op {name!r}")  # pragma: no cover
