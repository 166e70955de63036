"""``PagedPRQuadtree`` — the PR quadtree with "node = disk page" literal.

The population model the paper builds exists to predict *disk-page*
occupancy; this adapter makes the correspondence physical.  Every leaf
bucket is one slotted page in a :class:`~repro.storage.pagefile.PageFile`,
reached through a :class:`~repro.storage.pool.BufferPool`; the internal
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

Doubles round-trip exactly through ``struct``, and the split/merge
rules below mirror :class:`~repro.quadtree.pr.PRQuadtree` decision for
decision, so a paged tree and an in-memory tree fed the same stream
produce **bit-identical occupancy censuses** — the property
``tests/test_storage_validation.py`` pins and the planner's
``validate_against`` relies on.
"""

from __future__ import annotations

import heapq
import struct
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..geometry import Point, Rect
from ..quadtree.census import DepthCensus, OccupancyCensus
from .page import HEADER_SIZE, SLOT_SIZE, SlottedPage
from .pagefile import DEFAULT_PAGE_SIZE, PageFile, StorageError
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


class _PLeaf:
    """A leaf stub: geometry in memory, points on its page."""

    __slots__ = ("rect", "depth", "path", "page_id")

    def __init__(self, rect: Rect, depth: int, path: int, page_id: int):
        self.rect = rect
        self.depth = depth
        self.path = path
        self.page_id = page_id


class _PInternal:
    """An internal directory node (never owns a page)."""

    __slots__ = ("rect", "depth", "children")

    def __init__(self, rect: Rect, depth: int, children: List["_PNode"]):
        self.rect = rect
        self.depth = depth
        self.children = children


_PNode = Union[_PLeaf, _PInternal]


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
        root: _PNode,
        size: int,
    ):
        self._file = pagefile
        self._pool = pool
        self._capacity = capacity
        self._bounds = bounds
        self._max_depth = max_depth
        self._root = root
        self._size = size
        self._point_struct = struct.Struct(f"<{bounds.dim}d")
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
        root_pid = pool.allocate()
        tree = cls(
            pagefile, pool, capacity, bounds, max_depth,
            _PLeaf(bounds, 0, 0, root_pid), 0,
        )
        page = tree._pool._frames[root_pid].page  # already pinned by allocate
        page.insert(_LEAF_META.pack(0, 0))
        pool.unpin(root_pid, dirty=True)
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
    def _scan(pagefile: PageFile) -> Iterator[Tuple[int, int, int, int]]:
        """``(depth, path, page_id, count)`` of every leaf page, read
        from the pages themselves."""
        for pid, payload in pagefile.iter_data_pages():
            page = SlottedPage(bytearray(payload))
            try:
                depth, path = _LEAF_META.unpack(page.get(0))
            except (KeyError, struct.error) as exc:
                raise StorageError(
                    f"page {pid} has no leaf identity record"
                ) from exc
            yield depth, path, pid, page.record_count - 1

    @classmethod
    def _assemble(
        cls,
        pagefile: PageFile,
        entries: Iterable[Tuple[int, int, int, int]],
        pool_pages: int,
        policy: str,
    ) -> "PagedPRQuadtree":
        """The tree over the published ``pagefile`` whose leaf pages
        are ``entries`` — ``(depth, path, page_id, count)`` each, from
        a page scan or from the bulk loader that wrote them.  Checks
        the header's format, then that the leaves tile the root block:
        no two on one block, none shadowing a deeper one, none missing.
        Each directory block is derived once, from its parent's, so
        this costs O(nodes)."""
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
        dim = int(meta["dim"])
        bounds = Rect(
            Point(*meta["bounds"]["lo"]), Point(*meta["bounds"]["hi"])
        )
        max_depth = meta.get("max_depth")
        max_depth = None if max_depth is None else int(max_depth)
        pool = BufferPool(pagefile, capacity=pool_pages, policy=policy)
        root, size = cls._directory(list(entries), bounds, dim)
        return cls(pagefile, pool, capacity, bounds, max_depth, root, size)

    @classmethod
    def _directory(
        cls,
        entries: List[Tuple[int, int, int, int]],
        bounds: Rect,
        dim: int,
    ) -> Tuple[_PNode, int]:
        if not entries:
            raise StorageError("page file holds no leaf pages")
        fanout = 1 << dim
        size = sum(count for _, _, _, count in entries)
        if len(entries) == 1 and entries[0][0] == 0:
            _, _, pid, _ = entries[0]
            return _PLeaf(bounds, 0, 0, pid), size
        root = _PInternal(bounds, 0, [None] * fanout)  # type: ignore[list-item]
        mask = fanout - 1
        # shallower pages first, so a leaf is always placed before any
        # page it could shadow; each node's rect is derived once, from
        # its parent's, when the node is created
        for depth, path, pid, _ in sorted(entries):
            if depth == 0:
                raise StorageError(
                    "depth-0 leaf alongside other leaves: corrupt file"
                )
            node = root
            for level in range(depth - 1):
                idx = (path >> (level * dim)) & mask
                child = node.children[idx]
                if child is None:
                    child = _PInternal(
                        node.rect.child(idx), level + 1, [None] * fanout
                    )  # type: ignore[list-item]
                    node.children[idx] = child
                elif isinstance(child, _PLeaf):
                    raise StorageError(
                        "leaf page shadows a deeper page: corrupt file"
                    )
                node = child
            idx = (path >> ((depth - 1) * dim)) & mask
            if node.children[idx] is not None:
                raise StorageError(
                    f"two pages claim the same block at depth {depth}"
                )
            node.children[idx] = _PLeaf(node.rect.child(idx), depth, path, pid)
        cls._check_complete(root)
        return root, size

    @staticmethod
    def _check_complete(root: _PInternal) -> None:
        stack: List[_PNode] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, _PInternal):
                for child in node.children:
                    if child is None:
                        raise StorageError(
                            f"missing leaf page under block {node.rect!r}"
                        )
                    stack.append(child)

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
        return self._bounds.dim

    @property
    def fanout(self) -> int:
        """Children per split: ``2^dim``."""
        return 1 << self._bounds.dim

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
    # page plumbing
    # ------------------------------------------------------------------

    @property
    def _path_depth_limit(self) -> int:
        # the u64 path field stores `dim` bits per level
        return 64 // self._bounds.dim

    def _at_depth_limit(self, leaf: _PLeaf) -> bool:
        """Pin at the explicit limit, at path-encoding exhaustion, or
        when float precision makes the block too thin to halve —
        mirroring ``PRQuadtree._at_depth_limit`` plus the encoding
        bound (a leaf 32+ levels deep in 2-d has a block thinner than
        a double's mantissa anyway)."""
        if self._max_depth is not None and leaf.depth >= self._max_depth:
            return True
        if leaf.depth >= self._path_depth_limit:
            return True
        return not leaf.rect.is_splittable

    def _leaf_points(self, leaf: _PLeaf) -> List[Point]:
        """Decode every point on the leaf's page (unpinned on return)."""
        with self._pool.pinned_page(leaf.page_id) as page:
            return [
                Point(*self._point_struct.unpack(record))
                for slot_id, record in page.records()
                if slot_id != 0
            ]

    def _leaf_slots(self, page: SlottedPage) -> Iterator[Tuple[int, Point]]:
        for slot_id, record in page.records():
            if slot_id != 0:
                yield slot_id, Point(*self._point_struct.unpack(record))

    def _leaf_occupancy(self, leaf: _PLeaf) -> int:
        with self._pool.pinned_page(leaf.page_id) as page:
            return page.record_count - 1

    def _new_leaf(self, rect: Rect, depth: int, path: int) -> _PLeaf:
        pid = self._pool.allocate()
        try:
            page = self._pool._frames[pid].page
            page.insert(_LEAF_META.pack(depth, path))
        finally:
            self._pool.unpin(pid, dirty=True)
        return _PLeaf(rect, depth, path, pid)

    def _write_points(self, leaf: _PLeaf, points: Iterable[Point]) -> None:
        with self._pool.pinned_page(leaf.page_id, dirty=True) as page:
            for p in points:
                page.insert(self._point_struct.pack(*p.coords))

    # ------------------------------------------------------------------
    # dynamic operations
    # ------------------------------------------------------------------

    def insert(self, p: Point) -> bool:
        """Insert a point; ``False`` if already stored (PR trees hold
        distinct points).  Raises ``ValueError`` outside the bounds."""
        if not self._bounds.contains_point(p):
            raise ValueError(f"{p!r} outside tree bounds {self._bounds!r}")
        parent: Optional[_PInternal] = None
        node = self._root
        while isinstance(node, _PInternal):
            parent = node
            node = node.children[node.rect.quadrant_index(p)]
        overflow = False
        with self._pool.pinned_page(node.page_id) as page:
            for _, stored in self._leaf_slots(page):
                if stored == p:
                    return False
            page.insert(self._point_struct.pack(*p.coords))
            self._pool._frames[node.page_id].dirty = True
            overflow = page.record_count - 1 > self._capacity
        self._size += 1
        if overflow and not self._at_depth_limit(node):
            self._split(node, parent)
        return True

    def insert_many(self, points: Iterable[Point]) -> int:
        """Insert points in order; returns how many were new."""
        inserted = 0
        for p in points:
            if self.insert(p):
                inserted += 1
        return inserted

    def contains(self, p: Point) -> bool:
        """Exact-match lookup."""
        if not self._bounds.contains_point(p):
            return False
        node = self._root
        while isinstance(node, _PInternal):
            node = node.children[node.rect.quadrant_index(p)]
        return p in self._leaf_points(node)

    def delete(self, p: Point) -> bool:
        """Remove a point; merges under-full subtrees back into one
        page, exactly like the in-memory tree."""
        if not self._bounds.contains_point(p):
            return False
        path: List[_PInternal] = []
        node = self._root
        while isinstance(node, _PInternal):
            path.append(node)
            node = node.children[node.rect.quadrant_index(p)]
        removed = False
        with self._pool.pinned_page(node.page_id) as page:
            for slot_id, stored in self._leaf_slots(page):
                if stored == p:
                    page.delete(slot_id)
                    self._pool._frames[node.page_id].dirty = True
                    removed = True
                    break
        if not removed:
            return False
        self._size -= 1
        self._merge_path(path)
        return True

    def _split(self, leaf: _PLeaf, parent: Optional[_PInternal]) -> None:
        """Split an over-full bucket page into ``2^dim`` child pages,
        recursing while a child overflows (the paper's ``P_{m+1}``
        recursion).  The parent's page returns to the free list."""
        dim = self._bounds.dim
        pending: List[Tuple[_PLeaf, Optional[_PInternal]]] = [(leaf, parent)]
        while pending:
            cur, cur_parent = pending.pop()
            points = self._leaf_points(cur)
            self._pool.free(cur.page_id)
            buckets: List[List[Point]] = [[] for _ in range(self.fanout)]
            for p in points:
                buckets[cur.rect.quadrant_index(p)].append(p)
            children: List[_PNode] = []
            for i in range(self.fanout):
                child = self._new_leaf(
                    cur.rect.child(i),
                    cur.depth + 1,
                    cur.path | (i << (cur.depth * dim)),
                )
                if buckets[i]:
                    self._write_points(child, buckets[i])
                children.append(child)
            node = _PInternal(cur.rect, cur.depth, children)
            self._replace(cur, node, cur_parent)
            self._splits += 1
            obs.count("storage.tree.split")
            if cur.depth + 1 > self._max_depth_seen:
                self._max_depth_seen = cur.depth + 1
            for i, child in enumerate(children):
                assert isinstance(child, _PLeaf)
                if len(buckets[i]) > self._capacity \
                        and not self._at_depth_limit(child):
                    pending.append((child, node))

    def _merge_path(self, path: List[_PInternal]) -> None:
        """Collapse mergeable ancestors, deepest first (same rule as
        ``PRQuadtree``: a subtree holding <= capacity points becomes
        one leaf — one page)."""
        for i in range(len(path) - 1, -1, -1):
            ancestor = path[i]
            if self._subtree_occupancy(ancestor) > self._capacity:
                break
            points = self._collect_and_free(ancestor)
            merged = self._new_leaf(
                ancestor.rect, ancestor.depth, self._path_of(ancestor, path, i)
            )
            if points:
                self._write_points(merged, points)
            self._replace(ancestor, merged, path[i - 1] if i > 0 else None)
            self._merges += 1
            obs.count("storage.tree.merge")

    def _path_of(
        self, node: _PInternal, chain: List[_PInternal], index: int
    ) -> int:
        """Reconstruct the quadrant path of an internal node from the
        root-to-leaf chain (child index at each ancestor)."""
        dim = self._bounds.dim
        path = 0
        for level in range(index):
            parent = chain[level]
            child = chain[level + 1] if level + 1 <= index - 1 else node
            idx = parent.children.index(child)
            path |= idx << (level * dim)
        return path

    def _collect_and_free(self, node: _PNode) -> List[Point]:
        """Gather every point under ``node`` and free its leaf pages."""
        points: List[Point] = []
        stack: List[_PNode] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, _PLeaf):
                points.extend(self._leaf_points(cur))
                self._pool.free(cur.page_id)
            else:
                stack.extend(cur.children)
        return points

    def _subtree_occupancy(self, node: _PNode) -> int:
        total = 0
        stack: List[_PNode] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, _PLeaf):
                total += self._leaf_occupancy(cur)
            else:
                stack.extend(cur.children)
        return total

    def _replace(
        self, old: _PNode, new: _PNode, parent: Optional[_PInternal]
    ) -> None:
        if parent is None:
            if old is not self._root:  # pragma: no cover - invariant
                raise AssertionError("parentless node is not the root")
            self._root = new
            return
        for i, child in enumerate(parent.children):
            if child is old:
                parent.children[i] = new
                return
        raise AssertionError(
            "parent does not own the node to replace"
        )  # pragma: no cover

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_search(self, query: Rect) -> List[Point]:
        """All stored points inside the half-open ``query`` box."""
        if query.dim != self.dim:
            raise ValueError(
                f"query dimension {query.dim} != tree dim {self.dim}"
            )
        out: List[Point] = []
        stack: List[_PNode] = [self._root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(query):
                continue
            if isinstance(node, _PLeaf):
                out.extend(
                    p for p in self._leaf_points(node)
                    if query.contains_point(p)
                )
            else:
                stack.extend(node.children)
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
        frontier: List[Tuple[float, int, _PNode]] = []
        tie = 0
        heapq.heappush(frontier, (0.0, tie, self._root))
        best: List[Tuple[float, Tuple[float, ...], Point]] = []
        while frontier:
            block_dist, _, node = heapq.heappop(frontier)
            if len(best) == k and block_dist > -best[0][0]:
                break
            if isinstance(node, _PLeaf):
                for p in self._leaf_points(node):
                    key = (-p.distance_to(q), tuple(-c for c in p.coords))
                    if len(best) < k:
                        heapq.heappush(best, key + (p,))
                    elif key > (best[0][0], best[0][1]):
                        heapq.heapreplace(best, key + (p,))
            else:
                for child in node.children:
                    tie += 1
                    heapq.heappush(
                        frontier,
                        (child.rect.distance_to_point(q), tie, child),
                    )
        return [
            p for _, _, p in sorted(best, key=lambda t: (-t[0], t[2].coords))
        ]

    def points(self) -> Iterator[Point]:
        """Iterate over all stored points (block order)."""
        stack: List[_PNode] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _PLeaf):
                yield from self._leaf_points(node)
            else:
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def leaves(self) -> Iterator[Tuple[Rect, int, int]]:
        """Yield ``(block, depth, occupancy)`` for every leaf page."""
        stack: List[_PNode] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _PLeaf):
                yield (node.rect, node.depth, self._leaf_occupancy(node))
            else:
                stack.extend(node.children)

    def leaf_count(self) -> int:
        """Number of leaf pages (= bucket pages in the file)."""
        count = 0
        stack: List[_PNode] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _PLeaf):
                count += 1
            else:
                stack.extend(node.children)
        return count

    def node_count(self) -> int:
        """Total directory nodes, internal and leaf."""
        count = 0
        stack: List[_PNode] = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if isinstance(node, _PInternal):
                stack.extend(node.children)
        return count

    def height(self) -> int:
        """Depth of the deepest leaf."""
        best = 0
        stack: List[_PNode] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _PLeaf):
                best = max(best, node.depth)
            else:
                stack.extend(node.children)
        return best

    def occupancy_census(self, clamp_overflow: bool = True) -> OccupancyCensus:
        """Census of bucket pages by occupancy — bit-identical to the
        in-memory tree's census on the same insertion stream."""
        occupancies = []
        for _, _, occ in self.leaves():
            if occ > self._capacity:
                if not clamp_overflow:
                    raise ValueError(
                        f"leaf occupancy {occ} exceeds capacity "
                        f"{self._capacity}"
                    )
                occ = self._capacity
            occupancies.append(occ)
        return OccupancyCensus.from_occupancies(occupancies, self._capacity)

    def depth_census(self, clamp_overflow: bool = True) -> DepthCensus:
        """Census of bucket pages by (depth, occupancy)."""
        pairs = []
        for _, depth, occ in self.leaves():
            if occ > self._capacity:
                if not clamp_overflow:
                    raise ValueError(
                        f"leaf occupancy {occ} exceeds capacity "
                        f"{self._capacity}"
                    )
                occ = self._capacity
            pairs.append((depth, occ))
        return DepthCensus.from_leaves(pairs, self._capacity)

    def validate(self) -> None:
        """Structural invariants, including the page-level ones:
        every leaf's stored identity matches its directory position,
        and the file's live page count equals the leaf count."""
        total = 0
        leaves = 0
        stack: List[_PNode] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _PLeaf):
                leaves += 1
                with self._pool.pinned_page(node.page_id) as page:
                    depth, path = _LEAF_META.unpack(page.get(0))
                    points = [p for _, p in self._leaf_slots(page)]
                assert depth == node.depth, (
                    f"page {node.page_id} stores depth {depth}, "
                    f"directory says {node.depth}"
                )
                assert path == node.path, (
                    f"page {node.page_id} stores path {path:#x}, "
                    f"directory says {node.path:#x}"
                )
                total += len(points)
                for p in points:
                    assert node.rect.contains_point(p), (
                        f"point {p!r} outside its block {node.rect!r}"
                    )
                assert len(set(points)) == len(points), (
                    "duplicate points in a bucket page"
                )
                if len(points) > self._capacity:
                    assert self._at_depth_limit(node), (
                        f"unpinned bucket over capacity: {len(points)}"
                    )
            else:
                assert node.children[0].depth == node.depth + 1
                expected = node.rect.split()
                got = [c.rect for c in node.children]
                assert got == expected, "children do not tile the parent"
                assert self._subtree_occupancy(node) > self._capacity, (
                    "internal node should have merged into one page"
                )
                stack.extend(node.children)
        assert total == self._size, f"size {self._size} != counted {total}"
        assert leaves == self._file.data_page_count, (
            f"{leaves} leaves but {self._file.data_page_count} data pages"
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
