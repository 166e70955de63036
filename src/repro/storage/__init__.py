"""Paged storage engine — the paper's "node = disk page" made literal.

Layers, bottom up:

- :mod:`~repro.storage.page` — the slotted page (records behind stable
  slot ids on one fixed-size payload);
- :mod:`~repro.storage.pagefile` — checksummed pages in one binary
  file with a free list and atomic write-temp-then-rename checkpoints;
- :mod:`~repro.storage.pool` — the buffer pool (pin/unpin, dirty
  write-back, LRU or clock eviction);
- :mod:`~repro.storage.paged_tree` — :class:`PagedPRQuadtree`, a PR
  quadtree storing one bucket per page, census-identical to the
  in-memory tree;
- :mod:`~repro.storage.bulkload` — :func:`bulk_load_paged`, the
  sorted bulk-load fast path (Morton partition, one sequential page
  pass, no buffer-pool churn) for fast cold starts;
- :mod:`~repro.storage.cli` — ``repro storage build|stat|validate``.
"""

from .bulkload import bulk_load_paged
from .page import PageFullError, SlottedPage
from .pagefile import (
    DEFAULT_PAGE_SIZE,
    PageCorruptionError,
    PageFile,
    PageFileStats,
    StorageError,
    durable_replace,
)
from .paged_tree import PagedPRQuadtree, required_page_size
from .pool import (
    BufferPool,
    BufferPoolFullError,
    ClockPolicy,
    EvictionPolicy,
    LRUPolicy,
)

__all__ = [
    "BufferPool",
    "BufferPoolFullError",
    "ClockPolicy",
    "DEFAULT_PAGE_SIZE",
    "EvictionPolicy",
    "LRUPolicy",
    "PageCorruptionError",
    "PageFile",
    "PageFileStats",
    "PageFullError",
    "PagedPRQuadtree",
    "SlottedPage",
    "StorageError",
    "bulk_load_paged",
    "durable_replace",
    "required_page_size",
]
