"""``PagedPRQuadtree`` — the PR quadtree with "node = disk page" literal.

The population model the paper builds exists to predict *disk-page*
occupancy; this adapter makes the correspondence physical.  Every leaf
bucket is one slotted page in a :class:`~repro.storage.pagefile.PageFile`,
reached through a :class:`~repro.storage.pool.BufferPool`; the
directory (which the paper's model does not count — it counts buckets)
stays in memory, exactly like a grid file's directory fronting its
bucket pages.

Layout of a leaf page:

- **slot 0** — the bucket's identity: ``(depth, path)`` packed little-
  endian, where ``path`` encodes the quadrant index at each level in
  ``dim`` bits.  The page is therefore self-describing: re-opening a
  file rebuilds the directory by scanning data pages, no separate
  serialization of the tree shape exists to drift out of sync.
- **slots 1..** — one fixed-width record per point (``dim`` doubles).

The directory is a linear quadtree: a dict from each leaf's location
code ``path | 1 << depth * dim`` (Orenstein's trie/z-order equivalence)
to its page id.  A point descends from the root code ``1`` until its
code is present, halving the block's bounds with ``Rect.child``'s
``(lo + hi) / 2.0``; a split replaces one code with ``2^dim``, a merge
the reverse.  The map holds only ints, which the GC never walks.

Doubles round-trip exactly through ``struct``, and the split/merge
rules below mirror :class:`~repro.quadtree.pr.PRQuadtree` decision for
decision, so a paged tree and an in-memory tree fed the same stream
produce **bit-identical occupancy censuses** — the property
``tests/test_storage_validation.py`` pins and the planner's
``validate_against`` relies on.
"""

from __future__ import annotations

import heapq
import math
import struct
from collections import namedtuple
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .. import obs
from ..geometry import Point, Rect
from ..quadtree.census import DepthCensus, OccupancyCensus
from .page import _TOMBSTONE, HEADER_SIZE, SLOT_SIZE, SlottedPage
from .pagefile import (
    _CRC, DEFAULT_PAGE_SIZE, PAGE_DATA, PAGE_OVERHEAD, PageFile,
    StorageError,
)
from .pool import BufferPool

#: Leaf identity record (slot 0): depth (u16), quadrant path (u64).
_LEAF_META = struct.Struct("<HQ")
#: The same record as a packed numpy dtype, for laying out pages in bulk;
#: the import-time check below keeps the two layouts in step.
_LEAF_META_DTYPE = np.dtype([("depth", "<u2"), ("path", "<u8")])
if np.array([(1, 2)], _LEAF_META_DTYPE).tobytes() != _LEAF_META.pack(1, 2):
    raise ImportError("_LEAF_META_DTYPE does not lay out _LEAF_META")


def _leaf_meta_rows(depths: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """The ``_LEAF_META`` records of many leaves, one uint8 row each."""
    rows = np.empty(len(depths), dtype=_LEAF_META_DTYPE)
    rows["depth"] = depths
    rows["path"] = paths
    return rows.view(np.uint8).reshape(len(depths), _LEAF_META.size)

FORMAT_NAME = "pr-paged-quadtree"
FORMAT_VERSION = 1

Coords = Tuple[float, ...]
#: One leaf page's ``(depth, path, page_id, count)``.
LeafRow = Tuple[int, int, int, int]


#: Leaf pages as parallel arrays, one element per page.
_LeafColumns = namedtuple("_LeafColumns", "depths paths page_ids counts")

#: A page slot's type field, as columns of its row in a slab.
_TYPE_FIELD = slice(_CRC.size, _CRC.size + 2)


def _child(
    lo: Sequence[float], hi: Sequence[float], mid: Sequence[float],
    bits: Sequence[int],
) -> Tuple[List[float], List[float]]:
    """The corners of the child of ``[lo, hi)`` split at ``mid`` that
    takes the high half on each axis whose entry of ``bits`` is set."""
    return (
        [m if b else a for a, m, b in zip(lo, mid, bits)],
        [c if b else m for m, c, b in zip(mid, hi, bits)],
    )


def _block(bounds: Rect, depth: int, path: int) -> Rect:
    """The block ``depth`` levels along ``path``, halved level by level
    as ``Rect.child`` halves."""
    lo, hi, dim = bounds.lo.coords, bounds.hi.coords, bounds.dim
    for level in range(depth):
        bits = [path >> level * dim + axis & 1 for axis in range(dim)]
        lo, hi = _child(lo, hi, [(a + b) / 2.0 for a, b in zip(lo, hi)], bits)
    return Rect(Point(*lo), Point(*hi))


def _leaf_map(columns: _LeafColumns, bounds: Rect) -> Dict[int, int]:
    """The directory over the leaf pages in ``columns``: location code
    to page id.  Refuses leaves that do not tile the root block.  A
    path's digits, reversed, give its block's first cell on the finest
    grid: sorted by that and depth, a leaf overlaps its predecessor iff
    it shares or nests in its block, and the leaves tile the root iff
    each Morton interval starts one past the previous one's end."""
    dim = bounds.dim
    levels = 64 // dim  # the u64 path field holds dim bits per level
    depths = np.asarray(columns.depths, dtype=np.int64)
    paths = np.asarray(columns.paths, dtype=np.uint64)
    if depths.size == 0:
        raise StorageError("page file holds no leaf pages")
    if depths.size > 1 and (depths == 0).any():
        raise StorageError("depth-0 leaf alongside other leaves: corrupt file")
    if (depths > levels).any():
        raise StorageError(f"leaf deeper than {levels} levels: corrupt file")
    shifts = (depths * dim).astype(np.uint64)
    wide = shifts >= 64  # a code at the path-encoding limit needs 65 bits
    if np.where(wide, 0, paths >> shifts % np.uint64(64)).any():
        raise StorageError("leaf page path runs past its depth: corrupt file")
    if depths.size > 1 or depths[0]:
        mask = (1 << dim) - 1
        first = np.zeros(depths.size, dtype=np.uint64)
        for level in range(int(depths.max())):
            first |= (paths >> np.uint64(level * dim) & np.uint64(mask)) \
                << np.uint64((levels - 1 - level) * dim)
        spans = np.uint64(1) << ((levels - depths) * dim).astype(np.uint64)
        last = first + (spans - np.uint64(1))
        order = np.lexsort((depths, first))
        first, last, ranked = first[order], last[order], depths[order]
        nested = first[1:] <= last[:-1]
        same = nested & (ranked[1:] == ranked[:-1])
        if same.any():
            raise StorageError(
                "two pages claim the same block at depth "
                f"{int(ranked[1:][same][0])}"
            )
        if nested.any():
            raise StorageError("leaf page shadows a deeper page: corrupt file")
        end = 1 << levels * dim
        gaps = np.flatnonzero(first[1:] != last[:-1] + np.uint64(1))
        if first[0]:
            start, stop = 0, int(first[0])
        elif gaps.size:
            start, stop = int(last[gaps[0]]) + 1, int(first[gaps[0] + 1])
        else:
            start, stop = int(last[-1]) + 1, end
        if start < end:
            raise StorageError(
                f"missing leaf page: cells [{start}, {stop}) of the "
                f"{levels}-level grid are uncovered"
            )
    codes = (paths | np.uint64(1) << shifts % np.uint64(64)).tolist()
    for i in np.flatnonzero(wide):
        codes[i] = int(paths[i]) | 1 << 64
    return dict(zip(codes, np.asarray(columns.page_ids).tolist()))


def required_page_size(capacity: int, dim: int) -> int:
    """The smallest page size able to hold a bucket of ``capacity``
    points (plus the one-point overflow a split consumes)."""
    from .pagefile import PAGE_OVERHEAD

    point_bytes = 8 * dim
    payload = (
        HEADER_SIZE
        + SLOT_SIZE * (capacity + 2)        # meta slot + capacity+1 points
        + _LEAF_META.size
        + point_bytes * (capacity + 1)
    )
    return payload + PAGE_OVERHEAD


def _new_tree_meta(
    capacity: int,
    bounds: Optional[Rect],
    dim: int,
    max_depth: Optional[int],
    page_size: int,
) -> Tuple[Rect, Dict[str, Any]]:
    """Validate the parameters of a new tree file; return its root
    block and the header metadata of the empty tree."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if bounds is None:
        bounds = Rect.unit(dim)
    elif bounds.dim != dim and dim != 2:
        raise ValueError(
            f"bounds dimension {bounds.dim} conflicts with dim={dim}"
        )
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    needed = required_page_size(capacity, bounds.dim)
    if page_size < needed:
        raise ValueError(
            f"page_size {page_size} cannot hold a capacity-{capacity} "
            f"bucket in {bounds.dim}-d; need at least {needed} bytes"
        )
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "capacity": capacity,
        "dim": bounds.dim,
        "bounds": {"lo": list(bounds.lo), "hi": list(bounds.hi)},
        "max_depth": max_depth,
        "points": 0,
    }
    return bounds, meta


class PagedPRQuadtree:
    """A PR quadtree whose buckets live on disk pages.

    Use :meth:`create` to start a new file or :meth:`open` to load an
    existing one; instances are context managers (closing checkpoints).

    >>> # tree = PagedPRQuadtree.create("points.pf", capacity=4)
    >>> # tree.insert(Point(0.5, 0.5)); tree.checkpoint()
    """

    def __init__(
        self,
        pagefile: PageFile,
        pool: BufferPool,
        capacity: int,
        bounds: Rect,
        max_depth: Optional[int],
        leaves: Dict[int, int],
        size: int,
    ):
        self._file = pagefile
        self._pool = pool
        self._capacity = capacity
        self._bounds = bounds
        self._dim = bounds.dim
        self._max_depth = max_depth
        #: location code -> page id, one entry per leaf
        self._leaves = leaves
        self._size = size
        self._point_struct = struct.Struct(f"<{bounds.dim}d")
        #: per quadrant index, its bit on each axis (1: the high half)
        self._quadrants = [[q >> axis & 1 for axis in range(bounds.dim)]
                           for q in range(1 << bounds.dim)]
        self._splits = 0
        self._merges = 0
        self._max_depth_seen = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        capacity: int = 1,
        bounds: Optional[Rect] = None,
        dim: int = 2,
        max_depth: Optional[int] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_pages: int = 64,
        policy: str = "lru",
    ) -> "PagedPRQuadtree":
        """Create a new page file at ``path`` holding an empty tree."""
        bounds, meta = _new_tree_meta(
            capacity, bounds, dim, max_depth, page_size
        )
        pagefile = PageFile.create(path, page_size=page_size, meta=meta)
        pool = BufferPool(pagefile, capacity=pool_pages, policy=policy)
        tree = cls(pagefile, pool, capacity, bounds, max_depth, {}, 0)
        tree._leaves[1] = tree._new_leaf(0, 0)
        return tree

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        pool_pages: int = 64,
        policy: str = "lru",
    ) -> "PagedPRQuadtree":
        """Open an existing paged tree, rebuilding the directory from
        the self-describing leaf pages."""
        pagefile = PageFile.open(path)
        try:
            return cls._assemble(
                pagefile, cls._scan(pagefile), pool_pages, policy
            )
        except BaseException:
            pagefile.close(checkpoint=False)
            raise

    @staticmethod
    def _scan(pagefile: PageFile) -> _LeafColumns:
        """The ``(depths, paths, page_ids, counts)`` of every leaf page,
        read from the pages themselves a slab at a time
        (:meth:`PageFile.slabs`): each data page's slot-0 identity
        record and live-slot count, taken from array views of its
        header and slot directory."""
        size = pagefile.payload_size
        columns: List[Tuple[np.ndarray, ...]] = []
        for start, rows in pagefile.slabs():
            types = rows[:, _TYPE_FIELD].copy().view("<u2").ravel()
            data = np.flatnonzero(types == PAGE_DATA)
            # (fancy indexing copies, so the views below are contiguous)
            # page header (slot count, heap start), then slot 0's entry
            slots, _, offset, length = (
                rows[data, PAGE_OVERHEAD:PAGE_OVERHEAD + 8]
                .view("<u2").T.astype(np.int64)
            )
            no_identity = (
                (slots == 0) | (offset == _TOMBSTONE)
                | (length != _LEAF_META.size)
                | (offset + _LEAF_META.size > size)
            )
            if no_identity.any():
                pid = start + int(data[no_identity][0])
                raise StorageError(f"page {pid} has no leaf identity record")
            overrun = HEADER_SIZE + slots * SLOT_SIZE > size
            if overrun.any():
                pid = start + int(data[overrun][0])
                raise StorageError(
                    f"page {pid} has a slot directory past its end: "
                    "corrupt file"
                )
            width = int(slots.max(initial=0))
            base = PAGE_OVERHEAD + HEADER_SIZE
            offsets = (
                rows[data, base:base + width * SLOT_SIZE].view("<u2")[:, ::2]
            )
            live = (offsets != _TOMBSTONE) & (
                np.arange(width) < slots[:, None]
            )
            identity = rows[
                data[:, None],
                PAGE_OVERHEAD + offset[:, None] + np.arange(_LEAF_META.size),
            ].view(_LEAF_META_DTYPE).ravel()
            columns.append((
                identity["depth"], identity["path"], start + data,
                live.sum(axis=1) - 1,
            ))
        if not columns:
            return _LeafColumns(*[np.empty(0, np.int64)] * 4)
        return _LeafColumns(*map(np.concatenate, zip(*columns)))

    @classmethod
    def _assemble(
        cls,
        pagefile: PageFile,
        entries: Union[_LeafColumns, Iterable[LeafRow]],
        pool_pages: int,
        policy: str,
    ) -> "PagedPRQuadtree":
        """The tree over the published ``pagefile`` whose leaf pages are
        ``entries``: the columns of a page scan or of the bulk loader,
        or ``(depth, path, page_id, count)`` rows.  Checks the header's
        format, then that the leaves tile the root block
        (:func:`_leaf_map`)."""
        meta = pagefile.meta
        if meta.get("format") != FORMAT_NAME:
            raise StorageError(
                f"{pagefile.path} is not a {FORMAT_NAME} file "
                f"(format {meta.get('format')!r})"
            )
        if meta.get("version") != FORMAT_VERSION:
            raise StorageError(
                f"unsupported {FORMAT_NAME} version {meta.get('version')!r}"
            )
        capacity = int(meta["capacity"])
        bounds = Rect(
            Point(*meta["bounds"]["lo"]), Point(*meta["bounds"]["hi"])
        )
        max_depth = meta.get("max_depth")
        max_depth = None if max_depth is None else int(max_depth)
        if not isinstance(entries, _LeafColumns):
            table = np.array(list(entries), dtype=np.uint64).reshape(-1, 4)
            entries = _LeafColumns(*table.T)
        leaves = _leaf_map(entries, bounds)
        size = int(np.asarray(entries.counts).sum())
        pool = BufferPool(pagefile, capacity=pool_pages, policy=policy)
        return cls(pagefile, pool, capacity, bounds, max_depth, leaves, size)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Node capacity m (points per page bucket)."""
        return self._capacity

    @property
    def bounds(self) -> Rect:
        """The root block."""
        return self._bounds

    @property
    def dim(self) -> int:
        """Dimensionality of the space."""
        return self._dim

    @property
    def fanout(self) -> int:
        """Children per split: ``2^dim``."""
        return 1 << self._dim

    @property
    def max_depth(self) -> Optional[int]:
        """Depth truncation limit, or ``None`` if unbounded."""
        return self._max_depth

    @property
    def pagefile(self) -> PageFile:
        """The backing page file."""
        return self._file

    @property
    def pool(self) -> BufferPool:
        """The buffer pool fronting the page file."""
        return self._pool

    @property
    def split_count(self) -> int:
        """Leaf splits performed over this instance's lifetime."""
        return self._splits

    @property
    def merge_count(self) -> int:
        """Collapses performed over this instance's lifetime."""
        return self._merges

    @property
    def max_depth_reached(self) -> int:
        """Deepest level any split has created on this instance."""
        return self._max_depth_seen

    def __len__(self) -> int:
        return self._size

    def __contains__(self, p: Point) -> bool:
        return self.contains(p)

    # ------------------------------------------------------------------
    # directory plumbing
    # ------------------------------------------------------------------

    def _depth_path(self, code: int) -> Tuple[int, int]:
        """The ``(depth, path)`` a location code stands for."""
        sentinel = code.bit_length() - 1
        return sentinel // self._dim, code ^ 1 << sentinel

    def _descend(
        self, coords: Coords, chain: Optional[List[int]] = None
    ) -> Tuple[int, List[float], List[float]]:
        """``(code, lo, hi)`` of the leaf block holding ``coords``, a
        point inside the root block; the code of every internal block
        passed on the way goes onto ``chain``."""
        leaves = self._leaves
        lo, hi = list(self._bounds.lo.coords), list(self._bounds.hi.coords)
        dim = len(lo)
        code = bit = 1
        while code not in leaves:
            if chain is not None:
                chain.append(code)
            quadrant = 0
            for axis, x in enumerate(coords):
                mid = (lo[axis] + hi[axis]) / 2.0
                if x >= mid:
                    quadrant |= 1 << axis
                    lo[axis] = mid
                else:
                    hi[axis] = mid
            # child q of a code with sentinel bit b: code + (q + 2^dim - 1)·b
            code += (quadrant + (1 << dim) - 1) * bit
            bit <<= dim
        return code, lo, hi

    def _children(self, code: int) -> range:
        """The codes of block ``code``'s children, by quadrant index."""
        bit, fanout = 1 << code.bit_length() - 1, 1 << self._dim
        first = code + (fanout - 1) * bit
        return range(first, first + fanout * bit, bit)

    def _subtree_leaves(self, code: int) -> Iterator[Tuple[int, int]]:
        """``(code, page_id)`` of every leaf in the block ``code``,
        depth first, the last child popped first."""
        stack = [code]
        while stack:
            code = stack.pop()
            pid = self._leaves.get(code)
            if pid is not None:
                yield code, pid
            else:
                stack.extend(self._children(code))

    def _at_depth_limit(
        self, code: int, lo: Sequence[float], hi: Sequence[float]
    ) -> bool:
        """Pin block ``code`` ``[lo, hi)`` at the explicit limit, at
        path-encoding exhaustion, or when float precision makes it too
        thin to halve — ``PRQuadtree._at_depth_limit`` plus the encoding
        bound (a block 32+ levels deep in 2-d is that thin anyway)."""
        depth = self._depth_path(code)[0]
        if self._max_depth is not None and depth >= self._max_depth:
            return True
        if depth >= 64 // self._dim:  # the u64 path is full
            return True
        return not all(a < (a + b) / 2.0 < b for a, b in zip(lo, hi))

    # ------------------------------------------------------------------
    # page plumbing
    # ------------------------------------------------------------------

    def _leaf_coords(self, pid: int) -> List[Coords]:
        """Decode every point on a leaf page (unpinned on return)."""
        unpack = self._point_struct.unpack
        with self._pool.pinned_page(pid) as page:
            return [unpack(record) for slot, record in page.records() if slot]

    def _slot_of(self, page: SlottedPage, coords: Coords) -> Optional[int]:
        """The slot holding the point ``coords`` on a leaf page, if any."""
        unpack = self._point_struct.unpack
        return next((
            slot_id for slot_id, record in page.records()
            if slot_id and unpack(record) == coords
        ), None)

    def _leaf_occupancy(self, pid: int) -> int:
        with self._pool.pinned_page(pid) as page:
            return page.record_count - 1

    def _new_leaf(self, depth: int, path: int) -> int:
        pid = self._pool.allocate()
        try:
            self._pool._frames[pid].page.insert(_LEAF_META.pack(depth, path))
        finally:
            self._pool.unpin(pid, dirty=True)
        return pid

    def _write_points(self, pid: int, points: Iterable[Coords]) -> None:
        pack = self._point_struct.pack
        with self._pool.pinned_page(pid, dirty=True) as page:
            for coords in points:
                page.insert(pack(*coords))

    # ------------------------------------------------------------------
    # dynamic operations
    # ------------------------------------------------------------------

    def insert(self, p: Point) -> bool:
        """Insert a point; ``False`` if already stored (PR trees hold
        distinct points).  Raises ``ValueError`` outside the bounds."""
        if not self._bounds.contains_point(p):
            raise ValueError(f"{p!r} outside tree bounds {self._bounds!r}")
        coords = p.coords
        code, lo, hi = self._descend(coords)
        pid = self._leaves[code]
        with self._pool.pinned_page(pid) as page:
            if self._slot_of(page, coords) is not None:
                return False
            page.insert(self._point_struct.pack(*coords))
            self._pool._frames[pid].dirty = True
            overflow = page.record_count - 1 > self._capacity
        self._size += 1
        if overflow and not self._at_depth_limit(code, lo, hi):
            self._split(code, lo, hi)
        return True

    def insert_many(self, points: Iterable[Point]) -> int:
        """Insert points in order; returns how many were new."""
        return sum(1 for p in points if self.insert(p))

    def contains(self, p: Point) -> bool:
        """Exact-match lookup."""
        if not self._bounds.contains_point(p):
            return False
        code, _, _ = self._descend(p.coords)
        return p.coords in self._leaf_coords(self._leaves[code])

    def delete(self, p: Point) -> bool:
        """Remove a point; merges under-full subtrees back into one
        page, exactly like the in-memory tree."""
        if not self._bounds.contains_point(p):
            return False
        coords = p.coords
        chain: List[int] = []
        pid = self._leaves[self._descend(coords, chain)[0]]
        with self._pool.pinned_page(pid) as page:
            slot_id = self._slot_of(page, coords)
            if slot_id is None:
                return False
            page.delete(slot_id)
            self._pool._frames[pid].dirty = True
        self._size -= 1
        self._merge_path(chain)
        return True

    def _split(self, code: int, lo: List[float], hi: List[float]) -> None:
        """Split an over-full bucket page into ``2^dim`` child pages,
        recursing while a child overflows (the paper's ``P_{m+1}``
        recursion).  The parent's page returns to the free list."""
        leaves = self._leaves
        pending = [(code, lo, hi)]
        while pending:
            code, lo, hi = pending.pop()
            pid = leaves.pop(code)
            points = self._leaf_coords(pid)
            self._pool.free(pid)
            mid = [(a + b) / 2.0 for a, b in zip(lo, hi)]
            buckets: List[List[Coords]] = [[] for _ in range(self.fanout)]
            for coords in points:
                buckets[sum(
                    1 << i for i, x in enumerate(coords) if x >= mid[i]
                )].append(coords)
            children = self._children(code)
            for child, bucket in zip(children, buckets):
                leaves[child] = self._new_leaf(*self._depth_path(child))
                if bucket:
                    self._write_points(leaves[child], bucket)
            self._splits += 1
            obs.count("storage.tree.split")
            depth = self._depth_path(children[0])[0]
            self._max_depth_seen = max(self._max_depth_seen, depth)
            for child, bucket, bits in zip(children, buckets, self._quadrants):
                if len(bucket) > self._capacity:
                    child_lo, child_hi = _child(lo, hi, mid, bits)
                    if not self._at_depth_limit(child, child_lo, child_hi):
                        pending.append((child, child_lo, child_hi))

    def _merge_path(self, chain: List[int]) -> None:
        """Collapse mergeable ancestors, deepest first (same rule as
        ``PRQuadtree``: a subtree holding <= capacity points becomes
        one leaf — one page)."""
        for code in reversed(chain):
            under = self._subtree_leaves(code)
            if sum(self._leaf_occupancy(p) for _, p in under) > self._capacity:
                break
            points = self._collect_and_free(code)
            merged = self._new_leaf(*self._depth_path(code))
            if points:
                self._write_points(merged, points)
            self._leaves[code] = merged
            self._merges += 1
            obs.count("storage.tree.merge")

    def _collect_and_free(self, code: int) -> List[Coords]:
        """Gather every point in the block ``code`` and free its leaf
        pages, dropping them from the directory."""
        points: List[Coords] = []
        for leaf, pid in self._subtree_leaves(code):
            points.extend(self._leaf_coords(pid))
            self._pool.free(pid)
            del self._leaves[leaf]
        return points

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_search(self, query: Rect) -> List[Point]:
        """All stored points inside the half-open ``query`` box."""
        if query.dim != self.dim:
            raise ValueError(
                f"query dimension {query.dim} != tree dim {self.dim}"
            )
        q_lo, q_hi = query.lo.coords, query.hi.coords
        lo, hi = list(self._bounds.lo.coords), list(self._bounds.hi.coords)
        out: List[Point] = []
        # stacked blocks meet the query; those without corners lie inside
        meets = all(a < y and x < b for a, b, x, y in zip(lo, hi, q_lo, q_hi))
        stack = [(1, lo, hi)] if meets else []
        while stack:
            code, lo, hi = stack.pop()
            if lo is None:
                for _, pid in self._subtree_leaves(code):
                    out.extend(map(Point._trusted, self._leaf_coords(pid)))
                continue
            pid = self._leaves.get(code)
            if pid is not None:
                out.extend(
                    Point._trusted(c) for c in self._leaf_coords(pid)
                    if all(x <= v < y for x, v, y in zip(q_lo, c, q_hi))
                )
                continue
            mid = [(a + b) / 2.0 for a, b in zip(lo, hi)]
            # per axis, how the half [lo, mid) and the half [mid, hi)
            # lie: 0 apart from the query, 1 meeting it, 2 inside it
            halves = (
                [(x < m) + (x <= a and m <= y)
                 for a, m, x, y in zip(lo, mid, q_lo, q_hi)],
                [(m < y) + (x <= m and b <= y)
                 for m, b, x, y in zip(mid, hi, q_lo, q_hi)],
            )
            for child, bits in zip(self._children(code), self._quadrants):
                part = min([halves[b][axis] for axis, b in enumerate(bits)])
                if part == 2:
                    stack.append((child, None, None))
                elif part:
                    stack.append((child,) + _child(lo, hi, mid, bits))
        return out

    def nearest(self, q: Point, k: int = 1) -> List[Point]:
        """The ``k`` nearest stored points — same best-first search and
        deterministic (distance, point-order) tie-break as
        ``PRQuadtree.nearest``."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if q.dim != self.dim:
            raise ValueError(
                f"query dimension {q.dim} != tree dim {self.dim}"
            )
        qc = q.coords
        # a child's corners are derived from its parent's when popped
        root = (self._bounds.lo.coords, self._bounds.hi.coords, None)
        frontier: List[Tuple[Any, ...]] = [(0.0, 0, 1) + root]
        tie = 0
        best: List[Tuple[float, Coords, Coords]] = []
        while frontier:
            block_dist, _, code, lo, hi, bits = heapq.heappop(frontier)
            if len(best) == k and block_dist > -best[0][0]:
                break
            pid = self._leaves.get(code)
            if pid is not None:
                for c in self._leaf_coords(pid):
                    d = math.sqrt(sum((a - b) ** 2 for a, b in zip(c, qc)))
                    key = (-d, tuple(-v for v in c))
                    if len(best) < k:
                        heapq.heappush(best, key + (c,))
                    elif key > (best[0][0], best[0][1]):
                        heapq.heapreplace(best, key + (c,))
                continue
            if bits is not None:
                lo, hi = _child(
                    lo, hi, [(a + b) / 2.0 for a, b in zip(lo, hi)], bits
                )
            # per axis, q's squared distance to the low and the high half
            near = [
                ((min(max(c, a), m) - c) ** 2, (min(max(c, m), b) - c) ** 2)
                for a, b, c in zip(lo, hi, qc) for m in [(a + b) / 2.0]
            ]
            for child, bits in zip(self._children(code), self._quadrants):
                tie += 1
                distance = math.sqrt(
                    sum([near[axis][b] for axis, b in enumerate(bits)])
                )
                heapq.heappush(frontier, (distance, tie, child, lo, hi, bits))
        best.sort(key=lambda t: (-t[0], t[2]))
        return [Point._trusted(c) for _, _, c in best]

    def points(self) -> Iterator[Point]:
        """Iterate over all stored points (block order)."""
        for _, pid in self._subtree_leaves(1):
            yield from map(Point._trusted, self._leaf_coords(pid))

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def leaves(self) -> Iterator[Tuple[Rect, int, int]]:
        """Yield ``(block, depth, occupancy)`` for every leaf page."""
        for code, pid in self._subtree_leaves(1):
            depth, path = self._depth_path(code)
            yield _block(self._bounds, depth, path), depth, \
                self._leaf_occupancy(pid)

    def leaf_count(self) -> int:
        """Number of leaf pages (= bucket pages in the file)."""
        return len(self._leaves)

    def node_count(self) -> int:
        """Total directory nodes: ``L`` leaves and ``(L - 1) / (2^dim -
        1)`` internal ones, each with ``2^dim`` children."""
        return len(self._leaves) + (len(self._leaves) - 1) // (self.fanout - 1)

    def height(self) -> int:
        """Depth of the deepest leaf (a deeper code is a larger one)."""
        return self._depth_path(max(self._leaves))[0]

    def _census(self, clamp_overflow: bool) -> List[Tuple[int, int]]:
        """``(depth, occupancy)`` per leaf, in directory order."""
        pairs = [
            (self._depth_path(code)[0], self._leaf_occupancy(pid))
            for code, pid in self._leaves.items()
        ]
        fullest = max(occ for _, occ in pairs)
        if fullest > self._capacity and not clamp_overflow:
            raise ValueError(
                f"leaf occupancy {fullest} exceeds capacity {self._capacity}"
            )
        return [(depth, min(occ, self._capacity)) for depth, occ in pairs]

    def occupancy_census(self, clamp_overflow: bool = True) -> OccupancyCensus:
        """Census of bucket pages by occupancy — bit-identical to the
        in-memory tree's census on the same insertion stream."""
        return OccupancyCensus.from_occupancies(
            [occ for _, occ in self._census(clamp_overflow)], self._capacity
        )

    def depth_census(self, clamp_overflow: bool = True) -> DepthCensus:
        """Census of bucket pages by (depth, occupancy)."""
        return DepthCensus.from_leaves(
            self._census(clamp_overflow), self._capacity
        )

    def validate(self) -> None:
        """Structural invariants, including the page-level ones: the
        directory is the one a reopen builds, every leaf's stored
        identity matches its code, and the file's live page count equals
        the leaf count."""
        rows = [self._depth_path(c) + (p, 0) for c, p in self._leaves.items()]
        table = np.array(rows, dtype=np.uint64).reshape(-1, 4)
        assert _leaf_map(_LeafColumns(*table.T), self._bounds) \
            == self._leaves, "directory codes differ from a rebuilt map"
        dim = self._dim
        total = 0
        under: Dict[int, int] = {}  # points per internal block
        for depth, path, pid, _ in rows:
            with self._pool.pinned_page(pid) as page:
                stored = _LEAF_META.unpack(page.get(0))
            assert stored == (depth, path), \
                f"page {pid} stores {stored}, directory says {(depth, path)}"
            points = [Point._trusted(c) for c in self._leaf_coords(pid)]
            block = _block(self._bounds, depth, path)
            assert all(map(block.contains_point, points)), (
                f"a point on page {pid} is outside its block {block!r}"
            )
            assert len(set(points)) == len(points), "duplicate bucket points"
            assert len(points) <= self._capacity or self._at_depth_limit(
                path | 1 << depth * dim, block.lo.coords, block.hi.coords
            ), f"unpinned bucket over capacity: {len(points)}"
            total += len(points)
            for level in range(depth):
                ancestor = path & (1 << level * dim) - 1 | 1 << level * dim
                under[ancestor] = under.get(ancestor, 0) + len(points)
        assert all(count > self._capacity for count in under.values()), (
            "internal node should have merged into one page"
        )
        assert total == self._size, f"size {self._size} != counted {total}"
        assert len(rows) == self._file.data_page_count, (
            f"{len(rows)} leaves but {self._file.data_page_count} data pages"
        )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush dirty pool pages and atomically publish the file."""
        self._file.update_meta({"points": self._size})
        self._pool.flush()
        self._pool.observe_gauges()
        self._file.checkpoint()

    def close(self) -> None:
        """Checkpoint (only if anything changed) and close the file."""
        if self._file._closed:
            return
        self._pool.observe_gauges()
        dirty = bool(self._pool.flush()) or self._file.dirty
        if dirty or self._file.meta.get("points") != self._size:
            self._file.update_meta({"points": self._size})
            self._file.checkpoint()
        self._file.close(checkpoint=False)

    def __enter__(self) -> "PagedPRQuadtree":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._file.close(checkpoint=False)

    def stats(self) -> Dict[str, Any]:
        """Pool + file counters for reporting."""
        file_stats = self._file.stats()
        return {
            "points": self._size,
            "leaf_pages": file_stats.data_pages,
            "free_pages": file_stats.free_pages,
            "page_size": file_stats.page_size,
            "file_bytes": file_stats.file_bytes,
            "splits": self._splits,
            "merges": self._merges,
            "pool": dict(self._pool.counters),
            "pool_policy": self._pool.policy,
            "pool_capacity": self._pool.capacity,
        }
