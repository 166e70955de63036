"""The spatial-index server — one writer task, group commit, snapshots.

:class:`SpatialIndexServer` serves a live
:class:`~repro.storage.paged_tree.PagedPRQuadtree` over asyncio TCP
(:mod:`~repro.service.protocol` frames, one
:class:`~repro.service.session.Session` per connection).

**Write path.**  All mutations funnel through one queue into a single
writer task.  The writer commits at once: it takes the first queued
mutation plus whatever else is already queued (up to ``max_batch``,
never waiting for stragglers), appends every record to the
:class:`~repro.service.wal.WriteAheadLog`, makes the whole batch
durable with **one fsync** (the group commit), then applies it to the
tree and resolves the waiting acks.  The fsync blocks the event loop,
so under load the next batch is whatever sessions queued meanwhile —
leader/follower group commit on one loop, with no added wait when
idle.  Acknowledged means fsynced: a SIGKILL at any instant loses
nothing a client was told succeeded.

**Fail-stop.**  Any error in a commit — a failed WAL fsync, a tree
insert or delete that raises, a failed checkpoint or drift sample —
poisons the writer.  The one exception is an insert into a full leaf
pinned at the depth limit: the tree refuses it unchanged, so only
that request fails (see :func:`apply_logged`) and replay refuses it
again.  Every unacknowledged mutation, queued or in the
failing batch, fails with a :class:`ServiceError` naming the cause;
logged mutations that were never applied are truncated from the WAL;
later mutations are refused with the same error; and the fsync is
never retried.  Reads keep being served, and ``stat`` / ``metrics``
report the ``writer_state``.  :meth:`SpatialIndexServer.stop` then
closes without publishing a checkpoint, so a restart recovers from
the WAL exactly as after a SIGKILL.

**Read path.**  Reads (``range`` / ``nearest`` / ``census`` / ``stat``)
run directly on the event loop.  The tree calls are synchronous and
the writer applies each batch without yielding, so every read observes
a batch boundary — never a half-applied batch.  That is the snapshot
contract: readers pin the current checkpoint ``generation`` (reported
back with ``census`` and ``stat``) while the writer advances it only
at atomic checkpoints.

**Checkpoints.**  Every ``checkpoint_every`` mutations (or on the
``checkpoint`` op) the server publishes a new page-file image via the
storage engine's durable write-temp-then-rename checkpoint, then
durably rotates in a fresh WAL stamped with the new generation.  The ordering
makes every crash window safe — see :func:`open_state`, which walks
the same windows in reverse at startup.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import obs
from ..geometry import Point
from ..kernels.queries import PointInput
from ..storage.page import PageFullError
from ..storage.paged_tree import PagedPRQuadtree
from .monitor import DEFAULT_THRESHOLD, DriftMonitor, DriftSample
from .session import ServiceError, Session
from .telemetry import DEFAULT_SLOW_K, MetricsCursor, ServiceTelemetry
from .wal import OP_DELETE, OP_INSERT, WalError, WriteAheadLog

#: Page-file metadata key naming the checkpoint generation the image
#: captures; the WAL header stores the generation it extends.
GENERATION_KEY = "service_generation"

#: What a client is told when :func:`apply_logged` refuses its insert.
LEAF_FULL = "leaf at depth limit is full"

#: The WAL lives next to the page file it protects.
WAL_SUFFIX = ".wal"

_log = logging.getLogger(__name__)


def wal_path_for(path: Union[str, Path]) -> Path:
    """Where the WAL for the page file at ``path`` lives."""
    path = Path(path)
    return path.with_name(path.name + WAL_SUFFIX)


def apply_logged(
    tree: PagedPRQuadtree, op: int, point: Point
) -> Optional[bool]:
    """Apply one logged mutation to ``tree``: its result, or ``None``
    when the tree refuses it — an insert into a leaf pinned at the
    depth limit whose page is full.  The tree raises that refusal
    before changing anything, and whether it raises depends only on
    the tree, so the live writer and WAL replay refuse the same
    records."""
    try:
        if op == OP_INSERT:
            return tree.insert(point)
        return tree.delete(point)
    except PageFullError:
        obs.count("service.leaf_full")
        return None


def open_state(
    path: Union[str, Path],
    create: bool = False,
    capacity: int = 4,
    dim: int = 2,
    page_size: int = 4096,
    pool_pages: int = 256,
    policy: str = "lru",
    points: Optional[PointInput] = None,
) -> Tuple[PagedPRQuadtree, WriteAheadLog, int]:
    """Open (or create) the durable server state at ``path``.

    A new state file is bulk-loaded with ``points`` (none by default)
    and published, stamped with generation 0, in one atomic write; an
    existing file ignores ``points``.  Returns ``(tree, wal,
    replayed)`` where ``replayed`` counts WAL records applied on top of
    the checkpoint.  Recovery resolves every crash window the write
    path can leave:

    - *crash before checkpoint rename*: the old image plus a WAL of
      the same generation — replay everything (a torn final record was
      never acknowledged and is truncated away by the WAL open);
    - *crash after checkpoint rename, before WAL rotation*: a new
      image plus a **stale** WAL (generation behind the image) — every
      stale record is already inside the checkpoint, so the log is
      discarded, not replayed twice;
    - *crash after WAL rotation*: a new image plus a fresh empty log —
      nothing to do.

    A WAL generation *ahead* of the image cannot arise from this
    ordering and is refused as corruption.
    """
    path = Path(path)
    wal_path = wal_path_for(path)
    if not path.exists():
        if not create:
            raise FileNotFoundError(f"no page file at {path}")
        # looked up per call, so wrappers on the module attribute apply
        from ..storage.bulkload import bulk_load_paged

        tree = bulk_load_paged(
            path, [] if points is None else points, capacity=capacity,
            dim=dim, page_size=page_size, pool_pages=pool_pages,
            policy=policy, meta={GENERATION_KEY: 0},
        )
        try:
            wal = WriteAheadLog.create(wal_path, 0, tree.dim)
        except BaseException:
            tree.close()
            raise
        return tree, wal, 0
    tree = PagedPRQuadtree.open(path, pool_pages=pool_pages, policy=policy)
    try:
        generation = int(tree.pagefile.meta.get(GENERATION_KEY, 0))
        if wal_path.exists():
            wal, records = WriteAheadLog.open(wal_path)
            if wal.dim != tree.dim:
                wal.close()
                raise ServiceError(
                    f"WAL dimension {wal.dim} != tree dimension {tree.dim}"
                )
            if wal.generation > generation:
                wal.close()
                raise ServiceError(
                    f"WAL generation {wal.generation} is ahead of the "
                    f"checkpoint ({generation}) — corrupt state"
                )
            if wal.generation == generation:
                replayed = 0
                with obs.span("service.recovery.replay"):
                    for record in records:
                        apply_logged(tree, record.op, record.point)
                        replayed += 1
                obs.count("service.recovery.replayed", replayed)
                return tree, wal, replayed
            # stale log from a crash between checkpoint and rotation
            wal.close()
            obs.count("service.recovery.stale_wal_discarded")
        wal = WriteAheadLog.create(wal_path, generation, tree.dim)
    except BaseException:
        tree._file.close(checkpoint=False)
        raise
    return tree, wal, 0


class SpatialIndexServer:
    """Serves one paged tree; see the module docstring for semantics.

    Use :meth:`start` / :meth:`stop` (or :meth:`serve_forever`, which
    returns when a ``shutdown`` op or :meth:`request_shutdown`
    arrives).
    """

    def __init__(
        self,
        tree: PagedPRQuadtree,
        wal: WriteAheadLog,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 512,
        checkpoint_every: int = 50_000,
        drift_every: int = 2_000,
        drift_threshold: float = DEFAULT_THRESHOLD,
        drift_sink=None,
        telemetry_interval: float = 1.0,
        telemetry_sink=None,
        slow_k: int = DEFAULT_SLOW_K,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._tree = tree
        self._wal = wal
        self._host = host
        self._port = port
        self._max_batch = max_batch
        self._checkpoint_every = checkpoint_every
        self._drift_every = drift_every
        #: Called with every DriftSample taken (periodic, explicit, or
        #: stat-triggered) — how ``repro serve`` feeds the run
        #: database's alarms-over-time record.  Must not raise; the
        #: rundb ServeRecorder degrades to a warning internally.
        self._drift_sink = drift_sink
        self.monitor = DriftMonitor(tree, threshold=drift_threshold)
        #: Request identity + slow-op ring; sessions read this directly.
        self.telemetry = ServiceTelemetry(slow_k=slow_k)
        #: Seconds between periodic telemetry samples (pool hit rate,
        #: writer queue depth) — 0 disables the sampler task.
        self._telemetry_interval = telemetry_interval
        #: Called with the ambient tracer at every periodic sample —
        #: how ``repro serve`` feeds interval histogram/gauge rows into
        #: the run database.  Same contract as ``drift_sink``: must not
        #: raise (the rundb recorder degrades internally).
        self._telemetry_sink = telemetry_sink
        self._generation = wal.generation
        self._mutations_since_checkpoint = 0
        self._mutations_since_drift = 0
        self._last_drift: Optional[DriftSample] = None
        #: WAL records the tree holds (replayed ones included): on a
        #: writer failure the log is truncated back to these
        self._applied = wal.record_count
        #: "ok", or the error that stopped the writer (fail-stop)
        self._writer_state = "ok"
        # holds (op, point, ack-future, phases) tuples; None is the
        # shutdown sentinel stop() appends after the last accepted
        # mutation.  ``phases`` is an optional per-request breakdown
        # dict _commit_batch fills for the slow-op ring.
        self._queue: "asyncio.Queue[Optional[Tuple[int, Point, asyncio.Future, Optional[Dict[str, float]]]]]" = \
            asyncio.Queue()
        self._server: Optional[asyncio.AbstractServer] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._sampler_task: Optional[asyncio.Task] = None
        self._stop_event = asyncio.Event()
        self._started_at = 0.0
        self._closed = False
        self.sessions = 0
        self.total_sessions = 0
        self.op_counts: Dict[str, int] = {}
        self.protocol_errors = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the writer task."""
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        self._started_at = time.monotonic()
        self._writer_task = asyncio.ensure_future(self._writer_loop())
        if self._telemetry_interval > 0:
            self._sampler_task = asyncio.ensure_future(self._sampler_loop())

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful after binding port 0."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def generation(self) -> int:
        """The current checkpoint generation."""
        return self._generation

    @property
    def tree(self) -> PagedPRQuadtree:
        """The served tree (event-loop use only)."""
        return self._tree

    @property
    def writer_state(self) -> str:
        """``"ok"``, or the error text that stopped the writer."""
        return self._writer_state

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to return (idempotent)."""
        self._stop_event.set()

    async def serve_forever(self) -> None:
        """Serve until a shutdown request, then stop cleanly."""
        if self._server is None:
            await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, drain the write queue, checkpoint, close.

        A poisoned server publishes no checkpoint: it closes the log
        and the page file as they are, and a restart replays the log.
        """
        if self._closed:
            return
        self._closed = True  # enqueue_mutation refuses from here on
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        self.sample_telemetry()  # one last gauge sample before close
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._writer_task is not None:
            # a sentinel is FIFO-last behind every queued mutation, so
            # the writer commits everything pending and exits cleanly
            self._queue.put_nowait(None)
            await self._writer_task
        if self._writer_state == "ok":
            # a failing checkpoint poisons the writer: closed as below
            with contextlib.suppress(ServiceError):
                self.checkpoint()
        if self._writer_state != "ok":
            # fail-stop: publish nothing, never retry an fsync; a
            # restart replays the WAL as it does after SIGKILL
            with contextlib.suppress(OSError):
                self._wal.close(sync=False)
            self._tree.pagefile.close(checkpoint=False)
            return
        self._wal.close()
        self._tree.close()

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------

    def enqueue_mutation(
        self,
        op: int,
        point: Point,
        phases: Optional[Dict[str, float]] = None,
    ) -> "asyncio.Future":
        """Queue one mutation **synchronously**; the returned future
        resolves once it is durable *and* applied.  Enqueueing without
        awaiting is what lets a session fix one connection's mutation
        order at frame-receipt time while still batching many acks into
        one group commit.  Bounds violations surface as ``ValueError``
        here, before anything touches the log; a poisoned writer or a
        stopping server refuses with :class:`ServiceError`.

        ``phases``, when given, is filled by the commit with the
        request's span breakdown (``queue_s`` wait, the batch's shared
        ``wal_sync_s`` fsync, per-op ``apply_s``) — what the slow-op
        ring shows for a retained mutation."""
        if op == OP_INSERT and not self._tree.bounds.contains_point(point):
            raise ValueError(
                f"point {list(point.coords)} outside tree bounds"
            )
        if self._writer_state != "ok":
            raise ServiceError(self._writer_state)
        if self._closed:
            raise ServiceError("server is shutting down")
        if phases is not None:
            phases["_enqueued_at"] = time.perf_counter()
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._queue.put_nowait((op, point, future, phases))
        return future

    async def submit_mutation(self, op: int, point: Point) -> bool:
        """Queue one mutation and await its durable ack."""
        return await self.enqueue_mutation(op, point)

    async def _writer_loop(self) -> None:
        while True:
            # commit at once: the batch is what is queued right now —
            # under load, whatever arrived during the previous fsync
            batch = [await self._queue.get()]
            while (batch[-1] is not None
                   and len(batch) < self._max_batch
                   and not self._queue.empty()):
                batch.append(self._queue.get_nowait())
            stopping = batch[-1] is None  # shutdown sentinel, FIFO-last
            if stopping:
                batch.pop()
            if batch and self._writer_state == "ok":
                try:
                    self._commit_batch(batch)
                except Exception as exc:
                    self._poison(exc)
            if self._writer_state != "ok":
                for _, _, future, _ in batch:
                    if not future.done():
                        future.set_exception(
                            ServiceError(self._writer_state)
                        )
            if stopping:
                return

    def _poison(self, exc: BaseException) -> None:
        """Fail-stop: refuse every later mutation with ``exc`` named,
        and take back what the log holds but the tree never got."""
        self._writer_state = (
            f"writer failed: {str(exc) or type(exc).__name__}"
        )
        obs.count("service.writer.failures")
        _log.error("%s; refusing mutations", self._writer_state, exc_info=exc)
        with contextlib.suppress(OSError, WalError):
            self._wal.truncate(self._applied)

    def _commit_batch(
        self, batch: List[Tuple[int, Point, asyncio.Future, Optional[Dict[str, float]]]]
    ) -> None:
        """WAL-append + one fsync, then apply and ack.  Synchronous on
        purpose: no await between the first apply and the last ack, so
        readers never observe a half-applied batch."""
        began = time.perf_counter()
        obs.gauge("service.writer.queue_depth", float(self._queue.qsize()))
        for op, point, _, _ in batch:
            self._wal.append(op, point)
        appended = time.perf_counter()
        self._wal.sync()  # the group commit — one fsync for the batch
        # the fsync latency histogram proper lives under the
        # ``service.wal.sync`` span; this local measure feeds the
        # per-request phase breakdowns below
        sync_s = time.perf_counter() - appended
        for op, point, future, phases in batch:
            if phases is not None:
                apply_began = time.perf_counter()
            result = apply_logged(self._tree, op, point)
            self._applied += 1
            if phases is not None:
                enqueued = phases.pop("_enqueued_at", began)
                phases["queue_s"] = max(began - enqueued, 0.0)
                # the fsync is shared by the whole batch, but it is the
                # wait every op in it experienced — report it verbatim
                phases["wal_sync_s"] = sync_s
                phases["apply_s"] = time.perf_counter() - apply_began
            if not future.cancelled():
                if result is None:
                    future.set_exception(ServiceError(LEAF_FULL))
                else:
                    future.set_result(result)
        obs.record("service.commit_batch", time.perf_counter() - began)
        obs.count("service.commits")
        obs.gauge("service.commit_batch_size", float(len(batch)))
        self._mutations_since_checkpoint += len(batch)
        self._mutations_since_drift += len(batch)
        if self._mutations_since_drift >= self._drift_every:
            self._mutations_since_drift = 0
            self._sample_drift()
        if self._mutations_since_checkpoint >= self._checkpoint_every:
            self._checkpoint()

    def checkpoint(self) -> int:
        """Publish a checkpoint now (the ``checkpoint`` op); returns the
        new generation.  A failure poisons the writer, like any commit
        failure, and raises :class:`ServiceError`."""
        if self._writer_state != "ok":
            raise ServiceError(self._writer_state)
        try:
            return self._checkpoint()
        except Exception as exc:
            self._poison(exc)
            raise ServiceError(self._writer_state) from exc

    def _checkpoint(self) -> int:
        """Publish a new atomic checkpoint and rotate the WAL.

        Ordering is the whole durability argument: (1) the WAL is
        synced, so nothing uncommitted rides into the image; (2) the
        page file publishes generation g+1 via atomic rename; (3) the
        WAL is atomically replaced by an empty log stamped g+1.  A
        crash between (2) and (3) leaves a stale WAL that
        :func:`open_state` recognizes by its old generation.
        """
        with obs.span("service.checkpoint"):
            self._wal.sync()
            next_generation = self._generation + 1
            self._tree.pagefile.update_meta({
                GENERATION_KEY: next_generation,
                "points": len(self._tree),
            })
            self._tree.pool.flush()
            self._tree.pool.observe_gauges()
            self._tree.pagefile.checkpoint()
            wal_path = self._wal.path
            self._wal.close()
            self._wal = WriteAheadLog.create(
                wal_path, next_generation, self._tree.dim
            )
            self._generation = next_generation
            self._applied = 0
            self._mutations_since_checkpoint = 0
        obs.count("service.checkpoints")
        return self._generation

    # ------------------------------------------------------------------
    # connections and reporting
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await Session(self, reader, writer).run()

    async def _sampler_loop(self) -> None:
        """Periodic telemetry sampling, so gauges like the buffer
        pool's hit rate are a *time series* over the run instead of one
        close-time scalar."""
        while True:
            await asyncio.sleep(self._telemetry_interval)
            self.sample_telemetry()

    def sample_telemetry(self) -> None:
        """Take one telemetry sample now: pool-health gauges, writer
        queue depth, and a flush through the telemetry sink."""
        self._tree.pool.observe_gauges()
        obs.gauge("service.writer.queue_depth", float(self._queue.qsize()))
        if self._telemetry_sink is not None:
            self._telemetry_sink(obs.active_tracer())

    def metrics(self, cursor: MetricsCursor) -> Dict[str, Any]:
        """The ``metrics`` op's payload: everything that changed since
        ``cursor``'s previous poll, plus the slow-op ring.

        Counters and histograms are **deltas** (cursor-relative, so
        each polling connection sees its own complete stream); gauges
        are reported cumulatively — "current value plus lifetime
        envelope" is what a gauge means.  Histogram deltas carry their
        sparse buckets, so a poller can merge successive polls and
        recover the server's cumulative distribution exactly.
        """
        out: Dict[str, Any] = {
            "seq": cursor.advance(),
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at else 0.0
            ),
            "requests": self.telemetry.requests,
            "ops": dict(self.op_counts),
            "queue_depth": self._queue.qsize(),
            "writer_state": self._writer_state,
            "pool_hit_rate": self._tree.pool.hit_rate,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "slow_ops": self.telemetry.ring.to_list(),
            "slow_ops_evicted": self.telemetry.ring.evicted,
        }
        tracer = obs.active_tracer()
        if tracer is not None:
            out["counters"] = cursor.counter_deltas(tracer.counters)
            out["gauges"] = {
                name: stats.to_dict()
                for name, stats in sorted(tracer.gauges.items())
                if name.startswith(("service.", "storage.pool."))
            }
            histograms = dict(tracer.span_histograms)
            histograms.update(tracer.gauge_histograms)
            out["histograms"] = cursor.histogram_deltas(histograms)
        return out

    def _sample_drift(self) -> DriftSample:
        """One monitor sample: cached for ``stat``, forwarded to the
        drift sink.  Every sampling path funnels through here so the
        recorded history matches what the gauges saw."""
        self._last_drift = self.monitor.sample()
        if self._drift_sink is not None:
            self._drift_sink(self._last_drift)
        return self._last_drift

    def drift(self) -> DriftSample:
        """Sample the drift monitor now (also refreshes ``stat``'s
        cached view)."""
        return self._sample_drift()

    def stat(self) -> Dict[str, Any]:
        """The ``stat`` op's payload: tree shape, service counters,
        drift, and per-op latency percentiles when a tracer is on."""
        tree_stats = self._tree.stats()
        drift = self._last_drift or self._sample_drift()
        out: Dict[str, Any] = {
            "points": len(self._tree),
            "pages": tree_stats["leaf_pages"],
            "capacity": self._tree.capacity,
            "dim": self._tree.dim,
            "bounds": [
                list(self._tree.bounds.lo.coords),
                list(self._tree.bounds.hi.coords),
            ],
            "generation": self._generation,
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at else 0.0
            ),
            "sessions": self.sessions,
            "total_sessions": self.total_sessions,
            "ops": dict(self.op_counts),
            "protocol_errors": self.protocol_errors,
            "writer_state": self._writer_state,
            "wal_records": self._wal.record_count,
            "mutations_since_checkpoint": self._mutations_since_checkpoint,
            "pool": tree_stats["pool"],
            "drift": drift.to_dict(),
        }
        tracer = obs.active_tracer()
        if tracer is not None:
            latencies: Dict[str, Dict[str, float]] = {}
            for name, hist in tracer.span_histograms.items():
                if name.startswith("service.op.") and hist.count:
                    latencies[name[len("service.op."):]] = {
                        "count": hist.count,
                        "p50_ms": hist.p50 * 1e3,
                        "p99_ms": hist.p99 * 1e3,
                    }
            if latencies:
                out["latency_ms"] = latencies
        return out
