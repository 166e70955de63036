"""The serving layer — a durable async spatial-index server.

The paper's steady state (``e·T = a·e``) describes a *live* population
under insert/delete traffic; this package serves one.  An asyncio TCP
server (:mod:`~repro.service.server`) exposes ``insert`` / ``delete`` /
``range`` / ``nearest`` / ``census`` / ``stat`` over a
:class:`~repro.storage.paged_tree.PagedPRQuadtree`, made durable by a
write-ahead log with group commit (:mod:`~repro.service.wal`) replayed
on startup against the page file's last atomic checkpoint.  A
:class:`~repro.service.monitor.DriftMonitor` watches observed page
occupancy against the steady-state prediction, and
:mod:`~repro.service.loadgen` replays seeded
:class:`~repro.workloads.ChurnWorkload` traces at a target QPS.

The live telemetry plane rides on top
(:mod:`~repro.service.telemetry`): every request gets a server-side
request ID and args digest, the slowest land in a bounded
:class:`~repro.service.telemetry.SlowOpRing` with their span
breakdowns, and the ``metrics`` wire op returns counter/histogram
*deltas* since each connection's previous poll — what
``repro serve top`` renders live and CI gates on.

``python -m repro serve start|stat|top|load|stop`` drives it all —
see :mod:`~repro.service.cli`.  Names load from their submodules on
first read (:mod:`repro._lazy`), so ``serve start`` loads no load
generator.
"""

from typing import Dict, Tuple

from .._lazy import lazy_namespace

#: Every public name, by the submodule that defines it.
_SUBMODULE_NAMES: Dict[str, Tuple[str, ...]] = {
    "loadgen": ("LoadReport", "run_load"),
    "monitor": ("DriftMonitor", "DriftSample"),
    "protocol": (
        "MAX_FRAME_BYTES",
        "FrameTooLargeError",
        "ProtocolError",
        "encode_frame",
        "read_frame",
        "write_frame",
    ),
    "server": (
        "ServiceError",
        "SpatialIndexServer",
        "open_state",
        "wal_path_for",
    ),
    "telemetry": (
        "DEFAULT_SLOW_K",
        "METRIC_PREFIXES",
        "MetricsCursor",
        "ServiceTelemetry",
        "SlowOp",
        "SlowOpRing",
        "args_digest",
    ),
    "wal": ("WalRecord", "WriteAheadLog"),
}

_HOME, __all__, __getattr__, __dir__ = lazy_namespace(
    __name__, _SUBMODULE_NAMES
)
