"""The vectorized Morton-code census engine.

The experiment pipeline spends ~99% of its time *building* Python
object trees it only ever reduces to an occupancy histogram.  But the
PR quadtree's quadrant path is exactly the prefix of a Morton code
(Orenstein's bit-interleaved tries [Oren82] — see
:mod:`repro.geometry.morton`), so the steady-state census can be
computed straight from the point coordinates, with no loop over depths:

1. **codes** — quantize every point to its grid cell at the code's
   full depth (:func:`descend_cells`) and pack the per-axis cells into
   Morton codes with :func:`repro.geometry.interleave_many`;
2. **sort** — one sort puts every depth-``k`` block's points into a
   contiguous run, for every ``k`` simultaneously;
3. **scan** — the PR splitting rule ("split while a block holds more
   than ``capacity`` points") read off neighbouring sorted codes.  With
   ``lcp(i, j)`` the number of leading quadrant choices rows ``i`` and
   ``j`` share, a point's depth-``k`` block is overfull iff some window
   of ``capacity + 1`` consecutive rows around it has
   ``lcp(j, j + capacity) >= k``.  So each point's leaf depth is one
   more than the largest such window lcp (capped by the pins below), a
   leaf starts wherever ``lcp(i - 1, i)`` falls below it, and its
   occupancy is the run length.  Each leaf head also opens the split
   blocks on its path below ``lcp(i - 1, i)``; ±1 histograms of those
   depth ranges count the split and occupied blocks per depth, and
   ``2**dim * split(k) - occupied(k + 1)`` are the empty children —
   leaves of the real tree too.

The census is the occupancy scheme of a dyadic cascade, so the scan is
a handful of whole-array passes however deep the tree.  A batch is the
same scan over trials stacked in ``(trial, code)`` order, with windows
and neighbours cut at trial boundaries.

Exactness.  The engine is *bit-identical* to
``PRQuadtree(...).occupancy_census()`` / ``.depth_census()`` for any
dimension, capacity, depth limit, bounds, and duplicate-containing
input, which the parity suite (``tests/test_kernel_parity.py``)
enforces.  Three details make that work:

- Cells are the tree's own: :func:`descend_cells` either replays its
  float arithmetic — ``mid = (lo + hi) / 2.0`` per axis per level,
  exactly :meth:`Point.midpoint` inside :meth:`Rect.child` — or, for a
  grid-aligned power-of-two root where every such midpoint is exact,
  computes the same cells in one scaling.  An affine
  ``(p - lo) / side * 2**bits`` map rounds differently for non-dyadic
  bounds and would misplace points within one ulp of a block boundary.
- The tree's two overflow floors are reproduced: a block pins (stops
  splitting, keeps its overflow) at ``max_depth`` and wherever float
  precision makes its rect unsplittable (``Rect.is_splittable``), and
  near-coincident points that need more resolution than one 62-bit
  code are handled by re-running the engine inside their block with a
  fresh code budget (the ``deep group`` path).
- ``lcp`` takes exact bit lengths of the 62-bit code differences, so
  no float rounding can move a leaf.

The object tree remains the parity oracle; this engine is the fast
path for census-only workloads (it cannot answer point queries and
does not materialize blocks, so ``collect_area`` experiments still use
the object engine).  The ``kernels`` bench stage puts it at 36–47×
the object tree's build and census at n = 20000, m = 8 (five
full-profile runs on a 2-vCPU host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..geometry import Point, Rect, interleave_many
from ..quadtree import DepthCensus, OccupancyCensus

#: Morton codes must stay exact in int64/uint64 arithmetic.
_CODE_BITS = 62

PointInput = Union[Sequence[Point], np.ndarray]

#: ``_POW2[e]`` is the least integer of bit length ``e`` (0 for ``e = 0``):
#: a float conversion that rounds up to the next power of two is caught
#: by comparing against it.
_POW2 = np.array([0] + [1 << (e - 1) for e in range(1, 64)], dtype=np.uint64)


@dataclass(frozen=True)
class LeafPartition:
    """The leaf census of a PR quadtree, without the tree.

    One entry per leaf block: its depth and its occupancy (which may
    exceed ``capacity`` for blocks pinned by a depth limit or float
    precision, exactly like the object tree's leaves).
    """

    capacity: int
    depths: np.ndarray
    occupancies: np.ndarray

    @property
    def leaf_count(self) -> int:
        """Number of leaf blocks (matches ``PRQuadtree.leaf_count``)."""
        return int(self.depths.size)

    @property
    def size(self) -> int:
        """Number of stored (distinct) points."""
        return int(self.occupancies.sum())

    def height(self) -> int:
        """Depth of the deepest leaf (matches ``PRQuadtree.height``)."""
        return int(self.depths.max())

    def _clamped(self, clamp_overflow: bool) -> np.ndarray:
        if not clamp_overflow:
            over = self.occupancies > self.capacity
            if over.any():
                occ = int(self.occupancies[over][0])
                raise ValueError(
                    f"leaf occupancy {occ} exceeds capacity {self.capacity}"
                )
        return np.minimum(self.occupancies, self.capacity)

    def occupancy_census(self, clamp_overflow: bool = True) -> OccupancyCensus:
        """Census of leaves by occupancy — bit-identical to
        ``PRQuadtree.occupancy_census`` on the same points."""
        return OccupancyCensus.from_occupancies(
            self._clamped(clamp_overflow), self.capacity
        )

    def depth_census(self, clamp_overflow: bool = True) -> DepthCensus:
        """Census of leaves by (depth, occupancy) — bit-identical to
        ``PRQuadtree.depth_census`` on the same points."""
        occ = self._clamped(clamp_overflow)
        by_depth = {}
        for depth in np.unique(self.depths):
            row = np.bincount(
                occ[self.depths == depth], minlength=self.capacity + 1
            )
            by_depth[int(depth)] = tuple(row.tolist())
        return DepthCensus(by_depth, self.capacity)


def _as_coord_array(points: PointInput, dim: int) -> np.ndarray:
    """Lower a point sequence (or a ready array) to ``(n, dim)`` floats."""
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1) if dim == 1 else arr.reshape(1, -1)
    else:
        seq = list(points)
        if not seq:
            return np.empty((0, dim), dtype=np.float64)
        arr = np.array([tuple(p) for p in seq], dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(
            f"points have dimension {arr.shape[1:] or '?'}, expected {dim}"
        )
    return arr


def rows_distinct(arr: np.ndarray) -> bool:
    """True iff the rows of the ``(n, dim)`` array ``arr`` are pairwise
    distinct under float equality (``-0.0 == 0.0``) — the test
    :class:`Point` hashing and the tree's duplicate rejection apply.

    Distinct first coordinates settle it with one 1-d sort, which is
    what continuous draws almost always have; only a shared first
    coordinate pays for the row-wise ``np.unique(axis=0)``, several
    times the cost of sorting a column of the same length.
    """
    n = arr.shape[0]
    # 1-d unique compares by value, so -0.0/0.0 only ever lands in the
    # row check, never in a false "distinct"
    if np.unique(arr[:, 0]).size == n:
        return True
    # +0.0 folds -0.0 into 0.0: the row comparison below is bitwise
    return np.unique(arr + 0.0, axis=0).shape[0] == n


def _splittable(lo: np.ndarray, hi: np.ndarray) -> bool:
    """``Rect.is_splittable`` on raw corner arrays."""
    mid = (lo + hi) / 2.0
    return bool(((lo < mid) & (mid < hi)).all())


def _grid_scale(
    root_lo: np.ndarray, root_hi: np.ndarray, levels: int
) -> Optional[np.ndarray]:
    """Per-axis ``2**levels / side`` when the tree's midpoints down to
    depth ``levels`` are all exact, else ``None``.

    That holds when every side is a power of two no larger than
    ``2**levels``, and both corners scaled by ``2**levels / side`` are
    integers below ``2**52``: every midpoint is then a multiple of
    ``side * 2**-levels`` that a double holds exactly, and scaling a
    coordinate by the power of two never rounds.
    """
    limit = 2.0 ** 52
    scales = []
    for lo, hi in zip(root_lo.tolist(), root_hi.tolist()):
        mant, exp = math.frexp(hi - lo)
        shift = levels + 1 - exp
        if mant != 0.5 or not 0 <= shift < 1024:
            return None
        scale = math.ldexp(1.0, shift)
        origin, top = lo * scale, hi * scale
        if not (
            abs(origin) < limit and abs(top) < limit
            and origin == math.floor(origin) and top == math.floor(top)
            and top - origin == 2.0 ** levels
        ):
            return None
        scales.append(scale)
    return np.array(scales)


def descend_cells(
    arr: np.ndarray,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    levels: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's per-axis grid cell at depth ``levels`` (``uint64``,
    ``(n, dim)``) and the first depth below ``levels`` at which its
    block cannot split (``levels + 1`` when none), exactly as the
    tree's descent from the root ``[root_lo, root_hi)`` assigns them.

    A grid-aligned power-of-two root (see :func:`_grid_scale`) gets the
    cells as ``floor(x * 2**levels / side) - lo * 2**levels / side`` —
    the same bits the tree's exact midpoints give, and no block pins.
    Any other root replays ``mid = (lo + hi) / 2.0`` level by level.
    """
    n, dim = arr.shape
    scale = _grid_scale(root_lo, root_hi, levels)
    if scale is not None:
        cells = np.floor(arr * scale) - root_lo * scale
        return (
            cells.astype(np.uint64),
            np.full(n, levels + 1, dtype=np.int64),
        )
    lo = np.repeat(root_lo[None, :], n, axis=0)
    hi = np.repeat(root_hi[None, :], n, axis=0)
    cells = np.zeros((n, dim), dtype=np.uint64)
    pin = np.full(n, levels + 1, dtype=np.int64)
    one = np.uint64(1)
    for level in range(levels):
        mid = (lo + hi) / 2.0
        stuck = ~((lo < mid) & (mid < hi)).all(axis=1)
        pin = np.where((pin > levels) & stuck, level, pin)
        geq = arr >= mid
        cells = (cells << one) | geq.astype(np.uint64)
        lo = np.where(geq, mid, lo)
        hi = np.where(geq, hi, mid)
    return cells, pin


def vector_census(
    points: PointInput,
    capacity: int,
    bounds: Optional[Rect] = None,
    dim: int = 2,
    max_depth: Optional[int] = None,
) -> LeafPartition:
    """Exact PR-quadtree leaf census of ``points``, without the tree.

    Parameters mirror :class:`~repro.quadtree.PRQuadtree`: ``capacity``
    is the node capacity m, ``bounds`` the root block (default the unit
    box), ``dim`` the dimensionality when ``bounds`` is omitted, and
    ``max_depth`` the optional truncation.  ``points`` may be a
    sequence of :class:`Point` or an ``(n, dim)`` float array; exact
    duplicates are dropped, as the tree's insert rejects them.

    Raises ``ValueError`` for points outside the root block, exactly
    like ``PRQuadtree.insert``.
    """
    bounds = _check_params(capacity, bounds, dim, max_depth)
    dim = bounds.dim
    with obs.span("kernel.census"):
        root_lo, root_hi = _root(bounds)
        arr = _distinct(_checked(
            _as_coord_array(points, dim), root_lo, root_hi, bounds
        ))
        _, depths, occs, deep_groups = _census(
            arr, np.array([arr.shape[0]]), root_lo, root_hi,
            max_depth, capacity,
        )
        if obs.enabled():
            obs.count("kernel.census")
            obs.count("kernel.points", int(arr.shape[0]))
            obs.count("kernel.leaves", int(depths.size))
            if deep_groups:
                obs.count("kernel.deep_groups", deep_groups)
            obs.gauge("kernel.depth", int(depths.max()) if depths.size else 0)
        return LeafPartition(
            capacity=capacity, depths=depths, occupancies=occs
        )


def vector_census_batch(
    points: np.ndarray,
    capacity: int,
    bounds: Optional[Rect] = None,
    dim: int = 2,
    max_depth: Optional[int] = None,
) -> List[LeafPartition]:
    """Exact PR-quadtree leaf censuses of ``B`` trials in one kernel
    pass — the pool workers' amortized fast path.

    ``points`` is a ``(B, n, dim)`` float64 tensor: ``B`` independent
    trials of ``n`` points each over the same ``bounds``.  Each trial
    is deduped as :func:`vector_census` dedupes, then the batch shares
    one quantization, one Morton interleave, one ``(trial, code)``
    sort and one scan.  Element ``t`` of the result equals
    ``vector_census(points[t], capacity, bounds, dim, max_depth)`` for
    any input (property-tested in ``tests/test_kernel_parity.py``).
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(
            f"batch points must be (trials, n, dim), got shape {arr.shape}"
        )
    n_trials = int(arr.shape[0])
    if n_trials == 0:
        return []
    bounds = _check_params(capacity, bounds, dim, max_depth)
    dim = bounds.dim
    if arr.shape[2] != dim:
        raise ValueError(
            f"points have dimension {arr.shape[2]}, expected {dim}"
        )

    with obs.span("kernel.census_batch"):
        root_lo, root_hi = _root(bounds)
        rows = [
            _distinct(trial)
            for trial in _checked(arr, root_lo, root_hi, bounds)
        ]
        sizes = np.array([r.shape[0] for r in rows])
        trials, depths, occs, deep_groups = _census(
            np.concatenate(rows), sizes, root_lo, root_hi,
            max_depth, capacity,
        )
        if obs.enabled():
            obs.count("kernel.census", n_trials)
            obs.count("kernel.batches")
            obs.count("kernel.points", int(sizes.sum()))
            obs.count("kernel.leaves", int(depths.size))
            if deep_groups:
                obs.count("kernel.deep_groups", deep_groups)
        order = np.argsort(trials, kind="stable")
        cuts = np.searchsorted(trials[order], np.arange(n_trials + 1))
        return [
            LeafPartition(
                capacity=capacity,
                depths=depths[order[cuts[t]:cuts[t + 1]]],
                occupancies=occs[order[cuts[t]:cuts[t + 1]]],
            )
            for t in range(n_trials)
        ]


def _check_params(
    capacity: int, bounds: Optional[Rect], dim: int, max_depth: Optional[int]
) -> Rect:
    """Validate the tree parameters; returns the root block."""
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
    if bounds.dim > _CODE_BITS:
        raise ValueError(
            f"vector engine supports dim <= {_CODE_BITS}, got {bounds.dim}"
        )
    return bounds


def _root(bounds: Rect) -> Tuple[np.ndarray, np.ndarray]:
    """The root block's corners as float arrays."""
    return (
        np.asarray(bounds.lo.coords, dtype=np.float64),
        np.asarray(bounds.hi.coords, dtype=np.float64),
    )


def _checked(
    arr: np.ndarray, root_lo: np.ndarray, root_hi: np.ndarray, bounds: Rect
) -> np.ndarray:
    """``arr`` (rows on its last axis) after the tree's bounds check,
    with ``-0.0`` normalized to ``+0.0`` so the bitwise row dedupe
    agrees with the tree's float-equality duplicate rejection."""
    if not ((arr >= root_lo).all() and (arr < root_hi).all()):
        outside = ~((arr >= root_lo) & (arr < root_hi)).all(axis=-1)
        p = Point(*arr[outside][0])
        raise ValueError(f"{p!r} outside tree bounds {bounds!r}")
    return arr + 0.0


def _distinct(arr: np.ndarray) -> np.ndarray:
    """``arr``'s distinct rows; the census does not depend on row
    order, so distinct input skips the sort."""
    return arr if rows_distinct(arr) else np.unique(arr, axis=0)


def _census(
    pts: np.ndarray,
    sizes: np.ndarray,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    max_depth: Optional[int],
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every leaf of the trials stacked in ``pts`` (``sizes[t]`` rows
    for trial ``t``) as ``(trial, depth, occupancy)`` arrays, plus the
    number of deep groups that needed a fresh code budget.

    Deep groups run through the same scan as a worklist rather than by
    recursion: near-coincident points can need dozens of 62-bit code
    rounds before they separate.
    """
    *leaves, pending = _scan(
        pts, sizes, root_lo, root_hi, max_depth, 0, capacity
    )
    parts = [leaves]
    deep_groups = len(pending)
    while pending:
        trial, job = pending.pop()
        _, depths, occs, more = _scan(*job, capacity)
        parts.append((np.full(depths.size, trial), depths, occs))
        pending += [(trial, sub_job) for _, sub_job in more]
        deep_groups += len(more)
    trials, depths, occs = (np.concatenate(c) for c in zip(*parts))
    return trials, depths, occs, deep_groups


def _scan(
    pts: np.ndarray,
    sizes: np.ndarray,
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    max_depth: Optional[int],
    depth_offset: int,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, Tuple]]]:
    """One 62-bit code round over the stacked trials of one root block.

    Returns the ``(trial, depth, occupancy)`` arrays of the leaves it
    resolves and the deep groups — blocks still overfull at the code's
    last level — as ``(trial, job)`` pairs, where ``job`` holds this
    function's leading arguments for the group's own block.
    ``max_depth`` is relative to the block; ``depth_offset`` converts
    local depths back to tree depths.
    """
    n_trials = sizes.size
    n, dim = pts.shape
    if (
        sizes.max() <= capacity
        or (max_depth is not None and max_depth <= 0)
        or not _splittable(root_lo, root_hi)
    ):
        return (
            np.arange(n_trials),
            np.full(n_trials, depth_offset, dtype=np.int64),
            sizes.astype(np.int64),
            [],
        )
    levels = _CODE_BITS // dim
    if max_depth is not None:
        levels = min(levels, max_depth)

    with obs.span("kernel.codes"):
        cells, pin = descend_cells(pts, root_lo, root_hi, levels)
        raw = interleave_many(cells, levels)
        pinned = bool(pin.min() <= levels)

    with obs.span("kernel.sort"):
        codes, order = _sort_trials(raw, sizes, pinned)
        if pinned:
            pin = pin[order]

    with obs.span("kernel.partition"):
        firsts = np.cumsum(sizes)[:-1]
        tid = np.repeat(np.arange(n_trials), sizes)
        # depth lcp from the bit length of a code difference
        lcp_of = levels - (np.arange(64) + dim - 1) // dim
        # nb[i]: depth shared with the previous row; w[capacity + j]:
        # depth shared by rows j .. j + capacity (-1: none, or the rows
        # belong to different trials)
        nb = np.empty(n, dtype=np.int64)
        nb[0] = -1
        nb[1:] = _lcp(codes[:-1], codes[1:], lcp_of)
        nb[firsts] = -1
        w = np.full(n + capacity, -1, dtype=np.int64)
        w[capacity:n] = _lcp(codes[:-capacity], codes[capacity:], lcp_of)
        w[firsts[:, None] + np.arange(capacity)] = -1
        # the deepest overfull block on each row's path, plus one: the
        # leaf depth, unless the block pins or the depth limit stops it
        depth = _window_max(w, capacity + 1, n) + 1
        if pinned:
            depth = np.minimum(depth, pin)
        if max_depth is not None and max_depth <= levels:
            depth = np.minimum(depth, max_depth)
        deep = depth > levels
        depth = np.minimum(depth, levels)
        heads = np.flatnonzero(nb < depth)
        counts = np.diff(np.append(heads, n))
        head_depth = depth[heads]
        head_trial = tid[heads]
        # head rows open the split blocks at depths nb+1 .. depth-1 and
        # the occupied blocks at depths max(nb+1, 1) .. depth; a split
        # at depth k leaves 2**dim - (occupied children) empty leaves
        first = nb[heads] + 1
        width = levels + 2
        base = head_trial * width
        slots = n_trials * width
        fanout = 1 << dim
        diff = (
            fanout * np.bincount(base + first + 1, minlength=slots)
            - np.bincount(base + np.maximum(first, 1), minlength=slots)
            + (1 - fanout)
            * np.bincount(base + head_depth + 1, minlength=slots)
        )
        empties = np.cumsum(diff.reshape(n_trials, width), axis=1)
        e_trial, e_depth = np.nonzero(empties)
        e_count = empties[e_trial, e_depth]

        leaf = ~deep[heads]
        trials = np.concatenate(
            (head_trial[leaf], np.repeat(e_trial, e_count))
        )
        depths = depth_offset + np.concatenate(
            (head_depth[leaf], np.repeat(e_depth, e_count))
        )
        occs = np.concatenate(
            (counts[leaf], np.zeros(int(e_count.sum()), dtype=np.int64))
        )

        jobs = []
        if not leaf.all():
            # overfull beyond this code's resolution: re-run inside the
            # block with a fresh 62-bit budget (rare — only
            # near-coincident point groups land here, and a group is
            # every row of its trial with the group's full code)
            sub_md = None if max_depth is None else max_depth - levels
            for h, t in zip(
                heads[~leaf].tolist(), head_trial[~leaf].tolist()
            ):
                group = pts[(raw == codes[h]) & (tid == t)]
                lo, hi = _block(group[0], root_lo, root_hi, levels)
                jobs.append((t, (
                    group, np.array([group.shape[0]]), lo, hi, sub_md,
                    depth_offset + levels,
                )))
    return trials, depths, occs, jobs


def _sort_trials(
    codes: np.ndarray, sizes: np.ndarray, with_order: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``codes`` sorted within each trial's rows (trials stay in
    order), and the permutation that does it when ``with_order``.

    Trials of unequal size are padded to a common width with a value
    above every code, so one row-wise sort serves any batch.
    """
    n_trials, width = sizes.size, int(sizes.max())
    keep = None
    if (sizes == width).all():
        grid = codes.reshape(n_trials, width)
    else:
        keep = np.arange(width) < sizes[:, None]
        grid = np.full((n_trials, width), np.uint64(1 << 63))
        grid[keep] = codes
    order = None
    if with_order:
        cols = np.argsort(grid, axis=1)
        grid = np.take_along_axis(grid, cols, axis=1)
        order = cols + (np.cumsum(sizes) - sizes)[:, None]
        order = order.ravel() if keep is None else order[keep]
    else:
        grid = np.sort(grid, axis=1)
    return (grid.ravel() if keep is None else grid[keep]), order


def _lcp(a: np.ndarray, b: np.ndarray, lcp_of: np.ndarray) -> np.ndarray:
    """``lcp_of`` at the exact bit length of each ``a ^ b``."""
    x = a ^ b
    exp = np.frexp(x.astype(np.float64))[1]
    # the conversion rounds 2**e - 1 and its neighbours up to 2**e
    return lcp_of[exp - (x < _POW2[exp])]


def _window_max(w: np.ndarray, span: int, n: int) -> np.ndarray:
    """``max(w[i:i + span])`` for ``i < n`` (``w`` holds
    ``n + span - 1`` entries), by doubling."""
    width = 1
    while 2 * width <= span:
        w = np.maximum(w[:-width], w[width:])
        width *= 2
    return np.maximum(w[:n], w[span - width:span - width + n])


def _block(
    p: np.ndarray, root_lo: np.ndarray, root_hi: np.ndarray, levels: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Corners of the depth-``levels`` block holding ``p``, by the
    tree's own descent."""
    lo, hi = root_lo.copy(), root_hi.copy()
    for _ in range(levels):
        mid = (lo + hi) / 2.0
        up = p >= mid
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return lo, hi
