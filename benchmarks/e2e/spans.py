"""The traced run's span recorder and the wrappers it patches in.

A wrapper replaces a function on the binding its caller looks up at
call time: a package attribute the executor imports lazily
(``repro.kernels.vector_census_batch``), a module global a function
reads (``repro.service.protocol.decode_payload`` inside
``read_frame``), or a class attribute reached through ``self``
(``WriteAheadLog.sync``).  Every call records one span
``[name, start, end, parent, value]``:

- ``start``/``end`` are ``time.perf_counter()`` readings, which on
  Linux come from ``CLOCK_MONOTONIC`` and so compare across the
  benchmark's processes (client spans against server spans);
- ``parent`` indexes the enclosing span (-1 at top level), taken from
  a contextvar so nesting is per thread and per asyncio task;
- ``value`` is whatever a hook derived from the call (a sync's batch
  size, a checkpoint's bytes written), else ``None``.

Spans stay in memory and are written out when the run ends.  A call
made in a forked child (a pool worker inherits the patched functions)
cannot reach the parent's list, so it appends its span to
``<spill_dir>/<pid>.jsonl`` instead.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span_parent", default=-1
)

Span = List[Any]
#: ``before(args)`` runs just before the call; its return value sits in
#: ``span[4]`` until ``after(span, result, args)`` replaces it.
BeforeHook = Callable[[tuple], Any]
AfterHook = Callable[[Span, Any, tuple], Any]


class SpanRecorder:
    """Spans of one process, plus the wrappers that produce them."""

    def __init__(self, spill_dir: Optional[Path] = None):
        self.spans: List[Span] = []
        #: ``[t, pool_hits, pool_misses]`` read at request boundaries
        self.samples: List[List[float]] = []
        #: ``[enqueued, durable]`` per mutation, see install_server
        self.durable: List[List[float]] = []
        #: every wrapper name handed out, fired or not
        self.names: List[str] = []
        #: the served SpatialIndexServer, once constructed
        self.server: Any = None
        self._owner = os.getpid()
        self._spill_dir = spill_dir
        self._patched: List[tuple] = []

    def _open(self, name: str, value: Any = None) -> tuple:
        span = [name, time.perf_counter(), 0.0, _PARENT.get(), value]
        token = _PARENT.set(len(self.spans))
        self.spans.append(span)
        return span, token

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[AfterHook] = None,
        before: Optional[BeforeHook] = None,
    ) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        if name not in self.names:
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = self._open(
                name, before(args) if before is not None else None
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                _PARENT.reset(token)
            if after is not None:
                span[4] = after(span, result, args)
            if os.getpid() != self._owner:
                self._spill(span)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around the benchmark's own call into a layer."""
        if name not in self.names:
            self.names.append(name)
        span, token = self._open(name)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            _PARENT.reset(token)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[AfterHook] = None,
        before: Optional[BeforeHook] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by its
        wrapper; a class is patched on the function it defines itself,
        never on one it inherits."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        setattr(owner, attr, self.wrap(name, original, after, before))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch` (last first)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _spill(self, span: Span) -> None:
        if self._spill_dir is None:
            return
        path = self._spill_dir / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(span[:3]) + "\n")

    def spilled(self) -> List[Span]:
        """Spans forked children appended, as top-level spans."""
        if self._spill_dir is None:
            return []
        out: List[Span] = []
        for path in sorted(self._spill_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                name, start, end = json.loads(line)
                out.append([name, start, end, -1, None])
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pid": self._owner,
            "names": self.names,
            "spans": self.spans,
            "samples": self.samples,
            "durable": self.durable,
        }

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def install_paper(recorder: SpanRecorder) -> None:
    """Wrap the paper pipeline's generator, runtime, kernel and solver
    entry points."""
    import repro.kernels as kernels
    from repro.core.population import PopulationModel
    from repro.experiments import harness
    from repro.workloads.generators import PointGenerator, UniformPoints

    patch = recorder.patch
    patch(PointGenerator, "generate", "workloads.generate")
    patch(PointGenerator, "generate_array", "workloads.generate")
    patch(UniformPoints, "generate_array", "workloads.generate")
    # run_trials calls the name harness imported from repro.runtime
    patch(harness, "execute", "runtime.execute")
    # the executor runs ``from ..kernels import ...`` on every call
    patch(kernels, "vector_census", "kernels.census")
    patch(kernels, "vector_census_batch", "kernels.census_batch")
    patch(PopulationModel, "__init__", "core.solve")
    patch(PopulationModel, "steady_state", "core.solve")


def install_server(recorder: SpanRecorder) -> None:
    """Wrap the serving path, storage engine and drift monitor.

    Besides spans, the hooks keep two side records.  ``samples`` reads
    the buffer pool's hit/miss counters at every decoded request, so a
    window's hit rate is a difference of two samples.  ``durable``
    pairs each mutation's enqueue time with the end of the WAL sync
    that made it durable: the writer queue is FIFO and appends every
    dequeued mutation once, so the k-th enqueue is the k-th append.
    """
    from repro.service import cli, monitor, protocol, server
    from repro.service.wal import WriteAheadLog
    from repro.storage import bulkload
    from repro.storage.pagefile import PageFile
    from repro.storage.paged_tree import PagedPRQuadtree
    from repro.workloads.generators import PointGenerator

    queued: deque = deque()
    unsynced: List[float] = []
    decoded: Dict[Any, float] = {}

    def pool_counters() -> List[int]:
        pool = recorder.server.tree.pool
        return [pool.hits, pool.misses]

    def on_server(span, result, args):
        recorder.server = args[0]

    def on_decode(span, message, args):
        decoded[message.get("id")] = span[2]
        if recorder.server is not None:
            recorder.samples.append([span[2]] + pool_counters())

    def on_encode(span, result, args):
        # time the request spent inside the server before its reply
        received = decoded.pop(args[0].get("id"), None)
        return None if received is None else span[1] - received

    def on_enqueue(span, future, args):
        queued.append(span[1])

    def on_append(span, result, args):
        if queued:
            unsynced.append(queued.popleft())

    def on_sync(span, batch, args):
        if batch:
            recorder.durable.extend([t, span[2]] for t in unsynced)
            unsynced.clear()
        return batch

    def on_checkpoint(span, result, args):
        pagefile = args[0]
        return pagefile.page_size * (1 + pagefile.page_count)

    def before_sample(args):
        return pool_counters() if recorder.server is not None else [0, 0]

    def on_sample(span, sample, args):
        hits, misses = (
            pool_counters() if recorder.server is not None else [0, 0]
        )
        return [
            sample.actual_pages, sample.predicted_pages,
            sample.observed_occupancy, sample.predicted_occupancy,
            hits - span[4][0], misses - span[4][1],
        ]

    patch = recorder.patch
    patch(server.SpatialIndexServer, "__init__", "service.server", on_server)
    patch(protocol, "decode_payload", "service.protocol.decode", on_decode)
    patch(protocol, "encode_frame", "service.protocol.encode", on_encode)
    patch(server.SpatialIndexServer, "enqueue_mutation",
          "service.writer.enqueue", on_enqueue)
    patch(WriteAheadLog, "append", "service.wal.append", on_append)
    patch(WriteAheadLog, "sync", "service.wal.sync", on_sync)
    patch(monitor.DriftMonitor, "sample", "service.monitor.sample",
          on_sample, before_sample)
    # the monitor's model prediction, looked up as a module global
    patch(monitor, "expected_total_leaves", "core.solve")
    patch(PageFile, "checkpoint", "storage.checkpoint", on_checkpoint)
    patch(PageFile, "read_page", "storage.page_read")
    patch(PagedPRQuadtree, "insert", "storage.tree.insert")
    patch(PagedPRQuadtree, "delete", "storage.tree.delete")
    patch(PagedPRQuadtree, "range_search", "storage.tree.range")
    patch(PagedPRQuadtree, "nearest", "storage.tree.nearest")
    patch(bulkload, "bulk_load_paged", "storage.bulk_load")
    patch(cli, "open_state", "storage.open")
    # --preload draws its points through the generator's scalar path
    patch(PointGenerator, "generate", "workloads.generate")
