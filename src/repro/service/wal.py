"""The write-ahead log — acknowledged mutations survive SIGKILL.

The page file underneath the served tree is *checkpoint-durable*: its
on-disk image only advances when :meth:`PageFile.checkpoint` publishes
a complete new snapshot, so a crash loses everything since the last
checkpoint.  The WAL closes that window.  Every mutation is appended
(and fsynced, in group-commit batches — see
:class:`~repro.service.server.SpatialIndexServer`) *before* it is
applied or acknowledged; on startup the log is replayed on top of the
checkpoint it extends.

On-disk layout::

    header : magic "RPROWL01" | generation u64 | dim u16 | crc32 u32
    record : length u32 | crc32(payload) u32 | payload
    payload: op u8 (1=insert, 2=delete) | dim * f64 coordinates

``generation`` names the checkpoint this log extends — the page file
stores the matching number in its metadata, so recovery can tell a log
that belongs to the current image from a stale one left behind by a
crash between checkpoint publication and log rotation (the stale log's
records are already *in* the checkpoint and must not replay twice).

A torn tail — the final record cut short or failing its checksum,
exactly what a crash mid-``write`` leaves — is normal, not corruption:
:meth:`WriteAheadLog.open` truncates the file back to the last intact
record and replays cleanly.  By the group-commit contract a torn
record was never acknowledged, so dropping it loses nothing the client
was promised.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

from .. import obs
from ..geometry import Point
from ..storage.pagefile import durable_replace

WAL_MAGIC = b"RPROWL01"
_WAL_HEADER = struct.Struct("<8sQH")
_CRC = struct.Struct("<I")
_RECORD_PREFIX = struct.Struct("<II")

OP_INSERT = 1
OP_DELETE = 2
_OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete"}


class WalError(RuntimeError):
    """The log is unusable (bad magic, unreadable header, ...)."""


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation: an insert or delete of a point."""

    op: int
    point: Point

    @property
    def op_name(self) -> str:
        """``"insert"`` or ``"delete"``."""
        return _OP_NAMES[self.op]


class WriteAheadLog:
    """An append-only mutation log with explicit group-commit syncs.

    :meth:`append` buffers a record in the OS file buffer;
    :meth:`sync` makes everything appended so far durable with one
    ``fsync``.  The server batches many appends per sync — that is the
    group commit, and the reason a single fsync's latency amortizes
    over a whole batch of acknowledged writes.
    """

    def __init__(self, path: Path, handle, generation: int, dim: int):
        self._path = path
        self._file = handle
        self._generation = generation
        self._dim = dim
        self._point_struct = struct.Struct(f"<{dim}d")
        self._appended = 0
        self._unsynced = 0
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls, path: Union[str, Path], generation: int, dim: int
    ) -> "WriteAheadLog":
        """Atomically create (or replace) the log at ``path`` holding
        only a header for ``generation``, and open it for appending.

        Replacing is deliberate: checkpoint rotation installs the new
        empty log *over* the old one with
        :func:`~repro.storage.pagefile.durable_replace`, so a crash at
        any instant leaves either the full old log or the fresh new
        one, never a partial hybrid.
        """
        path = Path(path)
        if dim < 1 or dim > 64:
            raise ValueError(f"dim must be in 1..64, got {dim}")
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        fixed = _WAL_HEADER.pack(WAL_MAGIC, generation, dim)
        durable_replace(path, fixed + _CRC.pack(zlib.crc32(fixed)))
        handle = open(path, "r+b")
        handle.seek(0, os.SEEK_END)
        return cls(path, handle, generation, dim)

    @classmethod
    def open(
        cls, path: Union[str, Path]
    ) -> Tuple["WriteAheadLog", List[WalRecord]]:
        """Open an existing log, returning it plus its intact records.

        The scan stops at the first torn or checksum-failing record —
        the unacknowledged tail a crash leaves — and truncates the file
        there so new appends start at a clean boundary.
        """
        path = Path(path)
        handle = open(path, "r+b")
        try:
            fixed = handle.read(_WAL_HEADER.size)
            if len(fixed) < _WAL_HEADER.size:
                raise WalError(f"truncated WAL header in {path}")
            magic, generation, dim = _WAL_HEADER.unpack(fixed)
            if magic != WAL_MAGIC:
                raise WalError(f"{path} is not a repro WAL (bad magic)")
            crc_bytes = handle.read(_CRC.size)
            if len(crc_bytes) < _CRC.size or \
                    _CRC.unpack(crc_bytes)[0] != zlib.crc32(fixed):
                raise WalError(f"WAL header checksum mismatch in {path}")
            if not 1 <= dim <= 64:
                raise WalError(f"WAL header claims dim={dim}")
            point_struct = struct.Struct(f"<{dim}d")
            payload_len = 1 + point_struct.size
            records: List[WalRecord] = []
            valid_end = handle.tell()
            while True:
                prefix = handle.read(_RECORD_PREFIX.size)
                if len(prefix) < _RECORD_PREFIX.size:
                    break
                length, stored_crc = _RECORD_PREFIX.unpack(prefix)
                if length != payload_len:
                    break
                payload = handle.read(length)
                if len(payload) < length:
                    break
                if zlib.crc32(payload) != stored_crc:
                    break
                op = payload[0]
                if op not in _OP_NAMES:
                    break
                records.append(WalRecord(
                    op, Point(*point_struct.unpack_from(payload, 1))
                ))
                valid_end = handle.tell()
            handle.seek(valid_end)
            handle.truncate(valid_end)
        except BaseException:
            handle.close()
            raise
        wal = cls(path, handle, generation, dim)
        wal._appended = len(records)
        return wal, records

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        """Where the log lives."""
        return self._path

    @property
    def generation(self) -> int:
        """The checkpoint generation this log extends."""
        return self._generation

    @property
    def dim(self) -> int:
        """Point dimensionality of the records."""
        return self._dim

    @property
    def record_count(self) -> int:
        """Records appended (including any replayed on open)."""
        return self._appended

    @property
    def unsynced(self) -> int:
        """Appends not yet covered by a :meth:`sync`."""
        return self._unsynced

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(self, op: int, point: Point) -> None:
        """Buffer one mutation record (durable after the next
        :meth:`sync`)."""
        if self._closed:
            raise WalError("write-ahead log is closed")
        if op not in _OP_NAMES:
            raise ValueError(f"unknown WAL op {op}")
        if point.dim != self._dim:
            raise ValueError(
                f"point dimension {point.dim} != WAL dim {self._dim}"
            )
        payload = bytes([op]) + self._point_struct.pack(*point.coords)
        self._file.write(
            _RECORD_PREFIX.pack(len(payload), zlib.crc32(payload)) + payload
        )
        self._appended += 1
        self._unsynced += 1
        obs.count("service.wal.append")
        obs.count(
            "service.wal.appended_bytes", _RECORD_PREFIX.size + len(payload)
        )

    def sync(self) -> int:
        """Flush and ``fsync`` — the group commit.  Returns how many
        appends this call made durable."""
        if self._closed:
            raise WalError("write-ahead log is closed")
        batch = self._unsynced
        if batch:
            with obs.span("service.wal.sync"):
                self._file.flush()
                os.fsync(self._file.fileno())
            self._unsynced = 0
            obs.count("service.wal.sync_calls")
            obs.gauge("service.wal.group_size", float(batch))
        return batch

    def truncate(self, records: int) -> None:
        """Drop every record after the first ``records`` — how a failed
        commit takes back what it logged but never applied, so a
        restart does not replay mutations whose clients were told they
        failed.  Deliberately not synced: after a failed fsync nothing
        more is trusted to the disk, so a power loss may undo the
        truncation."""
        if self._closed:
            raise WalError("write-ahead log is closed")
        dropped = self._appended - records
        if dropped > 0:
            size = _WAL_HEADER.size + _CRC.size + records * (
                _RECORD_PREFIX.size + 1 + self._point_struct.size
            )
            self._file.truncate(size)
            self._file.seek(size)
            self._appended = records
            self._unsynced = max(self._unsynced - dropped, 0)

    def close(self, sync: bool = True) -> None:
        """Sync any buffered records (unless ``sync`` is false: a failed
        writer never retries an fsync) and release the handle."""
        if self._closed:
            return
        if sync and self._unsynced:
            self.sync()
        self._file.close()
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
