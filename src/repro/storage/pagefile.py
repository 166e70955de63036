"""The page file — fixed-size checksummed pages behind one binary file.

On disk the file is a header block followed by ``page_count`` slots of
exactly ``page_size`` bytes.  Every page slot carries its own CRC-32
and a type tag, so a torn or bit-rotted page is detected on read
(:class:`PageCorruptionError`) instead of silently decoded.  Freed
pages form a linked **free list** threaded through their payloads and
are reused by :meth:`PageFile.allocate` before the file grows.

Durability is **checkpoint-shaped**: reads come from the last
checkpointed image; writes accumulate in a pending overlay (the buffer
pool above writes back evicted dirty pages into it) and become durable
only when :meth:`checkpoint` publishes a complete new image via
:func:`durable_replace` (write a temp file, fsync, rename, fsync the
directory).  The on-disk file is therefore always a *consistent*
snapshot — a crash at any instant leaves either the old checkpoint or
the new one, never a half-written hybrid.

The header carries a small JSON metadata blob for the layer above
(:class:`~repro.storage.paged_tree.PagedPRQuadtree` records its
capacity, dimension, bounds, and point count there).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union,
)

from .. import obs

MAGIC = b"RPROPG01"
#: Header: magic, page_size, page_count, free_head, free_count,
#: meta_len, then crc32 over all of the above plus the meta bytes.
_HEADER = struct.Struct("<8sIIIII")
_CRC = struct.Struct("<I")
#: Per-page prefix: crc32 of (type, reserved, payload), type, reserved.
_PAGE_HEADER = struct.Struct("<IHH")
#: The checksummed part of that prefix: type, reserved.
_PAGE_TYPE = struct.Struct("<HH")
PAGE_OVERHEAD = _PAGE_HEADER.size

PAGE_FREE = 0
PAGE_DATA = 1

#: Free-list terminator.
NIL = 0xFFFFFFFF

MIN_PAGE_SIZE = 128
DEFAULT_PAGE_SIZE = 4096


class StorageError(RuntimeError):
    """Base class for storage-engine failures."""


class PageCorruptionError(StorageError):
    """A page or header failed its checksum or structural checks."""


@dataclass(frozen=True)
class PageFileStats:
    """A point-in-time summary of one page file."""

    path: str
    page_size: int
    page_count: int
    free_pages: int
    data_pages: int
    file_bytes: int
    meta: Dict[str, Any]


class PageFile:
    """A file of fixed-size checksummed pages with a free list.

    Use :meth:`create` / :meth:`open` rather than the constructor.
    Instances are context managers; leaving the ``with`` block
    checkpoints and closes.
    """

    def __init__(
        self,
        path: Path,
        handle,
        page_size: int,
        page_count: int,
        free_head: int,
        free_count: int,
        meta: Dict[str, Any],
    ):
        self._path = path
        self._file = handle
        self._page_size = page_size
        self._page_count = page_count
        self._free_head = free_head
        self._free_count = free_count
        self._meta = meta
        #: pages written since the last checkpoint: pid -> (type, payload)
        self._pending: Dict[int, Tuple[int, bytes]] = {}
        #: pages present in the on-disk image
        self._base_count = page_count
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        page_size: int = DEFAULT_PAGE_SIZE,
        meta: Optional[Mapping[str, Any]] = None,
        payloads: Sequence[Any] = (),
    ) -> "PageFile":
        """Create a new page file at ``path`` (atomically) and open it.
        Fails if ``path`` already exists.

        ``payloads`` become data pages ``0..len(payloads)-1`` (each a
        bytes-like object no longer than :attr:`payload_size`), written
        and published with the header in one :func:`durable_replace`:
        the file is never seen without them.
        """
        path = Path(path)
        if path.exists():
            raise FileExistsError(f"page file already exists: {path}")
        if page_size < MIN_PAGE_SIZE:
            raise ValueError(
                f"page_size must be >= {MIN_PAGE_SIZE}, got {page_size}"
            )
        meta_dict = dict(meta or {})
        header = cls._encode_header(
            page_size, len(payloads), NIL, 0, meta_dict
        )
        if len(header) > page_size:
            raise ValueError(
                f"metadata ({len(header)} bytes with header) does not fit "
                f"in one {page_size}-byte page"
            )
        payload_size = page_size - PAGE_OVERHEAD
        chunks = [header.ljust(page_size, b"\0")]
        for payload in payloads:
            chunks.append(
                _encode_page(PAGE_DATA, _padded(payload, payload_size))
            )
        durable_replace(path, b"".join(chunks))
        return cls.open(path)

    @classmethod
    def open(cls, path: Union[str, Path]) -> "PageFile":
        """Open an existing page file, validating its header."""
        path = Path(path)
        handle = open(path, "rb")
        try:
            fixed = handle.read(_HEADER.size)
            if len(fixed) < _HEADER.size:
                raise PageCorruptionError(f"truncated header in {path}")
            magic, page_size, page_count, free_head, free_count, meta_len = \
                _HEADER.unpack(fixed)
            if magic != MAGIC:
                raise PageCorruptionError(
                    f"{path} is not a repro page file (bad magic)"
                )
            rest = handle.read(_CRC.size + meta_len)
            if len(rest) < _CRC.size + meta_len:
                raise PageCorruptionError(f"truncated header in {path}")
            (stored_crc,) = _CRC.unpack_from(rest, 0)
            meta_bytes = rest[_CRC.size:]
            if zlib.crc32(fixed + meta_bytes) != stored_crc:
                raise PageCorruptionError(f"header checksum mismatch in {path}")
            try:
                meta = json.loads(meta_bytes.decode("utf-8")) if meta_len \
                    else {}
            except ValueError as exc:
                raise PageCorruptionError(
                    f"unreadable metadata in {path}"
                ) from exc
            expected = page_size * (1 + page_count)
            if path.stat().st_size < expected:
                raise PageCorruptionError(
                    f"{path} shorter than its header claims "
                    f"({path.stat().st_size} < {expected} bytes)"
                )
        except BaseException:
            handle.close()
            raise
        return cls(
            path, handle, page_size, page_count, free_head, free_count, meta
        )

    @staticmethod
    def _encode_header(
        page_size: int,
        page_count: int,
        free_head: int,
        free_count: int,
        meta: Dict[str, Any],
    ) -> bytes:
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        fixed = _HEADER.pack(
            MAGIC, page_size, page_count, free_head, free_count,
            len(meta_bytes),
        )
        return fixed + _CRC.pack(zlib.crc32(fixed + meta_bytes)) + meta_bytes

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        """Where the file lives."""
        return self._path

    @property
    def page_size(self) -> int:
        """Bytes per on-disk page slot (payload + checksum overhead)."""
        return self._page_size

    @property
    def payload_size(self) -> int:
        """Usable bytes per page (what the slotted layer sees)."""
        return self._page_size - PAGE_OVERHEAD

    @property
    def page_count(self) -> int:
        """Pages ever allocated (free or data)."""
        return self._page_count

    @property
    def free_page_count(self) -> int:
        """Pages on the free list."""
        return self._free_count

    @property
    def data_page_count(self) -> int:
        """Live data pages."""
        return self._page_count - self._free_count

    @property
    def meta(self) -> Dict[str, Any]:
        """The header's JSON metadata blob (a copy)."""
        return dict(self._meta)

    @property
    def dirty(self) -> bool:
        """Whether un-checkpointed writes are pending."""
        return bool(self._pending)

    def update_meta(self, updates: Mapping[str, Any]) -> None:
        """Merge ``updates`` into the metadata (persisted at the next
        checkpoint)."""
        self._meta.update(updates)

    # ------------------------------------------------------------------
    # page I/O
    # ------------------------------------------------------------------

    def read_page(self, pid: int) -> bytes:
        """The payload of data page ``pid`` (checksum-verified)."""
        with obs.span("storage.page_read"):
            page_type, payload = self._read_raw(pid)
        obs.count("storage.page_reads")
        if page_type != PAGE_DATA:
            raise StorageError(f"page {pid} is on the free list, not data")
        return payload

    def _read_raw(self, pid: int) -> Tuple[int, bytes]:
        self._check_pid(pid)
        pending = self._pending.get(pid)
        if pending is not None:
            return pending
        self._file.seek(self._page_size * (1 + pid))
        raw = self._file.read(self._page_size)
        if len(raw) < self._page_size:
            raise PageCorruptionError(f"page {pid} truncated in {self._path}")
        stored_crc, page_type, reserved = _PAGE_HEADER.unpack_from(raw, 0)
        payload = raw[PAGE_OVERHEAD:]
        computed = zlib.crc32(raw[_CRC.size:PAGE_OVERHEAD])
        computed = zlib.crc32(payload, computed)
        if computed != stored_crc:
            raise PageCorruptionError(
                f"checksum mismatch on page {pid} of {self._path}"
            )
        return page_type, payload

    def write_page(self, pid: int, payload: bytes) -> None:
        """Stage ``payload`` as the new content of data page ``pid``
        (durable at the next checkpoint)."""
        self._check_pid(pid)
        with obs.span("storage.page_write"):
            self._pending[pid] = (
                PAGE_DATA, _padded(payload, self.payload_size)
            )
        obs.count("storage.page_writes")

    def allocate(self) -> int:
        """A fresh data page id — recycled from the free list when
        possible, otherwise extending the file."""
        if self._closed:
            raise StorageError("page file is closed")
        if self._free_head != NIL:
            pid = self._free_head
            page_type, payload = self._read_raw(pid)
            if page_type != PAGE_FREE:
                raise PageCorruptionError(
                    f"free-list head {pid} is not marked free"
                )
            (self._free_head,) = _CRC.unpack_from(payload, 0)
            self._free_count -= 1
        else:
            pid = self._page_count
            self._page_count += 1
        self._pending[pid] = (PAGE_DATA, bytes(self.payload_size))
        obs.count("storage.page_allocs")
        return pid

    def free_page(self, pid: int) -> None:
        """Return ``pid`` to the free list for reuse."""
        self._check_pid(pid)
        payload = _CRC.pack(self._free_head).ljust(self.payload_size, b"\0")
        self._pending[pid] = (PAGE_FREE, payload)
        self._free_head = pid
        self._free_count += 1
        obs.count("storage.page_frees")

    def iter_data_pages(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(pid, payload)`` for every live data page."""
        for pid in range(self._page_count):
            page_type, payload = self._read_raw(pid)
            if page_type == PAGE_DATA:
                yield pid, payload

    def _check_pid(self, pid: int) -> None:
        if self._closed:
            raise StorageError("page file is closed")
        if not 0 <= pid < max(self._page_count, self._base_count):
            raise ValueError(
                f"page id {pid} out of range 0..{self._page_count - 1}"
            )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Publish all pending writes as a new on-disk image.

        The image is published with :func:`durable_replace`, so readers
        (and crashes) only ever see complete checkpoints, and a
        published one survives power loss.
        """
        if self._closed:
            raise StorageError("page file is closed")
        with obs.span("storage.checkpoint"):
            header = self._encode_header(
                self._page_size, self._page_count, self._free_head,
                self._free_count, self._meta,
            )
            if len(header) > self._page_size:
                raise ValueError("metadata grew past one page")
            chunks = [header.ljust(self._page_size, b"\0")]
            for pid in range(self._page_count):
                pending = self._pending.get(pid)
                if pending is not None:
                    chunks.append(_encode_page(*pending))
                else:
                    self._file.seek(self._page_size * (1 + pid))
                    chunks.append(self._file.read(self._page_size))
            durable_replace(self._path, b"".join(chunks))
            self._file.close()
            self._file = open(self._path, "rb")
            self._base_count = self._page_count
            self._pending.clear()
        obs.count("storage.checkpoints")

    def close(self, checkpoint: bool = True) -> None:
        """Checkpoint (unless told not to) and release the handle."""
        if self._closed:
            return
        if checkpoint and self._pending:
            self.checkpoint()
        self._file.close()
        self._closed = True

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # keep a consistent file even on error: the last checkpoint
        self.close(checkpoint=exc_type is None)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> PageFileStats:
        """A snapshot of the file's shape and occupancy."""
        return PageFileStats(
            path=str(self._path),
            page_size=self._page_size,
            page_count=self._page_count,
            free_pages=self._free_count,
            data_pages=self.data_page_count,
            file_bytes=self._page_size * (1 + self._page_count),
            meta=self.meta,
        )


def _padded(payload: Any, payload_size: int) -> bytes:
    """``payload`` as bytes, zero-filled to ``payload_size``."""
    payload = bytes(payload)
    if len(payload) > payload_size:
        raise ValueError(
            f"payload of {len(payload)} bytes exceeds page payload "
            f"size {payload_size}"
        )
    return payload.ljust(payload_size, b"\0")


def _encode_page(page_type: int, payload: bytes) -> bytes:
    """One on-disk page slot: the checksummed prefix, then ``payload``
    (already padded to the payload size)."""
    crc = zlib.crc32(payload, zlib.crc32(_PAGE_TYPE.pack(page_type, 0)))
    return _PAGE_HEADER.pack(crc, page_type, 0) + payload


def durable_replace(path: Union[str, Path], data: bytes) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    The bytes go to a temp file beside ``path``, which is fsynced and
    renamed over ``path``; then the directory is fsynced, because the
    rename lives in the directory entry and is not durable until the
    directory is.  A crash at any instant leaves the old file or the
    new one, and a power loss after return keeps the new one.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name, suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
