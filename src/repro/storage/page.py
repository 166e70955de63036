"""The slotted page — the unit of storage, laid out the way a disk
page actually is.

A page's payload is a fixed-size byte region split three ways:

- a 4-byte **header**: the slot count and the heap boundary;
- a **slot directory** growing upward from the header, one 4-byte
  ``(offset, length)`` entry per record;
- a **record heap** growing downward from the end of the payload.

The two regions grow toward each other; the gap between them is the
page's free space.  Deleting a record leaves a *tombstone* in the
directory (so surviving slot ids stay stable — the tree's metadata
record keeps slot 0 forever) and dead bytes in the heap, which a
compaction sweep reclaims the next time an insert would not otherwise
fit.

The layer below (:mod:`repro.storage.pagefile`) owns checksums and
page-type bytes; this class sees only the payload.

:func:`pack_pages` lays out many fresh pages at once — one head
record and a run of fixed-width records each — byte for byte as
inserting those records into :meth:`SlottedPage.empty` pages would.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

import numpy as np

#: Page header: slot_count (u16), heap_start (u16).
_HEADER = struct.Struct("<HH")
#: One slot directory entry: record offset (u16), record length (u16).
_SLOT = struct.Struct("<HH")
#: Directory offset marking a deleted slot.
_TOMBSTONE = 0xFFFF

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


class PageFullError(RuntimeError):
    """Raised when a record cannot fit even after compaction."""


class SlottedPage:
    """Variable-length records behind stable slot ids on one page.

    >>> page = SlottedPage.empty(64)
    >>> page.insert(b"hello")
    0
    >>> page.get(0)
    b'hello'
    """

    __slots__ = ("_buf",)

    def __init__(self, payload: bytearray):
        if len(payload) < HEADER_SIZE + SLOT_SIZE:
            raise ValueError(f"payload too small: {len(payload)} bytes")
        self._buf = payload

    @classmethod
    def empty(cls, size: int) -> "SlottedPage":
        """A fresh page of ``size`` payload bytes with no records."""
        buf = bytearray(size)
        _HEADER.pack_into(buf, 0, 0, size)
        return cls(buf)

    # ------------------------------------------------------------------
    # layout accessors
    # ------------------------------------------------------------------

    @property
    def payload(self) -> bytes:
        """The page's raw bytes (what the page file persists)."""
        return bytes(self._buf)

    @property
    def size(self) -> int:
        """Total payload bytes."""
        return len(self._buf)

    @property
    def slot_count(self) -> int:
        """Directory entries, live and tombstoned."""
        return _HEADER.unpack_from(self._buf, 0)[0]

    @property
    def record_count(self) -> int:
        """Live records on the page."""
        return sum(offset != _TOMBSTONE for offset, _ in self._slots())

    @property
    def free_space(self) -> int:
        """Bytes available to a new record *without* compaction
        (the gap between the directory and the heap)."""
        slots, heap_start = _HEADER.unpack_from(self._buf, 0)
        return heap_start - (HEADER_SIZE + slots * SLOT_SIZE)

    def _slots(self) -> Iterator[Tuple[int, int]]:
        """``(offset, length)`` of every directory entry, slot order."""
        end = HEADER_SIZE + self.slot_count * SLOT_SIZE
        return _SLOT.iter_unpack(self._buf[HEADER_SIZE:end])

    def _slot(self, slot_id: int) -> Tuple[int, int]:
        if not 0 <= slot_id < self.slot_count:
            raise IndexError(f"slot {slot_id} out of range")
        return _SLOT.unpack_from(self._buf, HEADER_SIZE + slot_id * SLOT_SIZE)

    def _set_slot(self, slot_id: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self._buf, HEADER_SIZE + slot_id * SLOT_SIZE, offset, length
        )

    def _set_header(self, slots: int, heap_start: int) -> None:
        _HEADER.pack_into(self._buf, 0, slots, heap_start)

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------

    def get(self, slot_id: int) -> bytes:
        """The record in ``slot_id``; raises ``KeyError`` on a tombstone."""
        offset, length = self._slot(slot_id)
        if offset == _TOMBSTONE:
            raise KeyError(f"slot {slot_id} is deleted")
        return bytes(self._buf[offset:offset + length])

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot_id, record)`` for every live record, slot order."""
        buf = self._buf
        for slot_id, (offset, length) in enumerate(self._slots()):
            if offset != _TOMBSTONE:
                yield slot_id, bytes(buf[offset:offset + length])

    def insert(self, record: bytes) -> int:
        """Store ``record``; returns its slot id (tombstones are reused).

        Raises :class:`PageFullError` when the record cannot fit even
        after compacting dead heap space.
        """
        reuse = self._free_slot()
        need = len(record) + (0 if reuse is not None else SLOT_SIZE)
        if self.free_space < need:
            self._compact()
            if self.free_space < need:
                raise PageFullError(
                    f"record of {len(record)} bytes does not fit "
                    f"({self.free_space} free of {self.size})"
                )
        slots, heap_start = _HEADER.unpack_from(self._buf, 0)
        offset = heap_start - len(record)
        self._buf[offset:heap_start] = record
        if reuse is None:
            slot_id = slots
            slots += 1
        else:
            slot_id = reuse
        self._set_header(slots, offset)
        self._set_slot(slot_id, offset, len(record))
        return slot_id

    def delete(self, slot_id: int) -> None:
        """Tombstone ``slot_id``; its heap bytes die until compaction."""
        offset, _ = self._slot(slot_id)
        if offset == _TOMBSTONE:
            raise KeyError(f"slot {slot_id} already deleted")
        self._set_slot(slot_id, _TOMBSTONE, 0)

    def replace(self, slot_id: int, record: bytes) -> None:
        """Overwrite the record in ``slot_id`` (slot id is preserved)."""
        offset, length = self._slot(slot_id)
        if offset == _TOMBSTONE:
            raise KeyError(f"slot {slot_id} is deleted")
        if len(record) == length:
            self._buf[offset:offset + length] = record
            return
        # a failing insert may still have compacted the heap, so restore
        # the whole payload to leave the page bit-for-bit unchanged
        snapshot = bytes(self._buf)
        self._set_slot(slot_id, _TOMBSTONE, 0)
        try:
            self._insert_at(slot_id, record)
        except PageFullError:
            self._buf[:] = snapshot
            raise

    def _insert_at(self, slot_id: int, record: bytes) -> None:
        if self.free_space < len(record):
            self._compact()
            if self.free_space < len(record):
                raise PageFullError(
                    f"record of {len(record)} bytes does not fit"
                )
        slots, heap_start = _HEADER.unpack_from(self._buf, 0)
        offset = heap_start - len(record)
        self._buf[offset:heap_start] = record
        self._set_header(slots, offset)
        self._set_slot(slot_id, offset, len(record))

    def _free_slot(self) -> Optional[int]:
        for slot_id, (offset, _) in enumerate(self._slots()):
            if offset == _TOMBSTONE:
                return slot_id
        return None

    def _compact(self) -> None:
        """Repack live records against the end of the page, reclaiming
        every dead byte.  Slot ids are preserved."""
        live: List[Tuple[int, bytes]] = list(self.records())
        slots = self.slot_count
        heap_start = self.size
        for slot_id, record in live:
            heap_start -= len(record)
            self._buf[heap_start:heap_start + len(record)] = record
            self._set_slot(slot_id, heap_start, len(record))
        self._set_header(slots, heap_start)


def pack_pages(
    size: int,
    heads: np.ndarray,
    records: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Payloads of fresh pages, one row of ``size`` bytes per page.

    Page ``i`` holds ``heads[i]`` in slot 0, then the rows
    ``records[starts[i]:stops[i]]`` in slots 1.. in order — the bytes
    ``SlottedPage.empty(size)`` yields after inserting those records
    one by one.  ``heads`` is ``(pages, h)`` and ``records`` is
    ``(n, w)``, both ``uint8``.  Raises :class:`PageFullError`, with
    ``SlottedPage.insert``'s message, for the first page whose records
    would not fit.  Pages are laid out in groups of equal occupancy:
    header and slot directory are the same for every page of a group.
    ``out``, when given, is a zeroed ``(pages, size)`` ``uint8`` array
    to lay the pages out in (and return) instead of a new one.
    """
    if size > _TOMBSTONE:
        raise ValueError(f"page payload of {size} bytes exceeds the u16 layout")
    h = heads.shape[1]
    w = records.shape[1]
    counts = stops - starts
    # the head fits iff fit >= 0; k records then fit iff k <= fit
    fit = max((size - HEADER_SIZE - SLOT_SIZE - h) // (SLOT_SIZE + w), -1)
    if (counts > fit).any():
        if fit < 0:
            length, free = h, size - HEADER_SIZE
        else:
            length = w
            free = size - HEADER_SIZE - (1 + fit) * SLOT_SIZE - h - fit * w
        raise PageFullError(
            f"record of {length} bytes does not fit ({free} free of {size})"
        )
    if out is None:
        out = np.zeros((counts.size, size), dtype=np.uint8)
    top = size - h
    out[:, top:] = heads
    for k in np.unique(counts).tolist():
        group = np.flatnonzero(counts == k)
        heap = top - k * w
        # header, then slot 0 (the head) and slots 1..k, heap growing down
        words = [1 + k, heap, top, h]
        for j in range(1, k + 1):
            words += [top - j * w, w]
        directory = np.array(words, dtype="<u2").view(np.uint8)
        out[group, :directory.size] = directory
        if k:
            rows = starts[group][:, None] + np.arange(k - 1, -1, -1)
            out[group, heap:top] = records[rows].reshape(group.size, k * w)
    return out
