"""Vectorized batch query kernels over one sorted Morton-code array.

:func:`~repro.kernels.census.vector_census` made the *census* fast by
sorting every point's Morton code once and partitioning runs; this
module extends the same sort-once-then-vectorize idea to the query
paths a spatial service actually hammers.  A :class:`QueryKernel` is
built once per point set (dedupe, one descent, one interleave, one
argsort — the census engine's exact encoding) and then answers whole
*batches* of queries with numpy passes over the sorted array:

- **batch range** — each query box is covered by a small box of grid
  cells at a per-query depth (cells ≈ query size), the cells' Morton
  intervals are stabbed into the sorted codes with one
  ``np.searchsorted``, and the gathered candidates pass one exact
  coordinate filter.  The cell indices of the query's corners come
  from the same midpoint descent that encoded the points, so the
  cover is provably exact — no per-node Python dispatch anywhere.
- **batch k-NN** — a code-neighborhood window around each query's
  sorted position yields an upper bound ``r`` on the k-th distance
  (the window holds ≥ k real points), the closed box ``[q−r, q+r]``
  is gathered through the same cell cover, and the final answer is an
  exact vectorized select under the established deterministic
  ``(distance, point-order)`` tie-break.
- **partial match** — fixing a subset of coordinates selects the
  ``2^(dim−s)`` children intersecting the query hyperplane at every
  split, i.e. a *strided union* of code intervals.  The kernel
  refines prefix intervals level by level (child boundaries via
  ``searchsorted``, never touching the points until a leaf), which
  also yields the exact number of tree blocks a real search would
  visit — the cost figure the Curien–Joseph exponent experiment fits.

Exactness.  Range and k-NN results are bit-identical (as point *sets*,
reported in canonical lexicographic order) to
``PRQuadtree.range_search`` / ``nearest`` on the same stored points,
property-tested across structures, dimensions, duplicates, and
degenerate windows in ``tests/test_query_kernels.py``.  Two details
carry over from the census engine: coordinates are encoded by the
shared :func:`~repro.kernels.census.descend_cells`, which gives the
cells of the tree's ``mid = (lo + hi) / 2.0`` descent (replayed, or
in one exact power-of-two scaling where every midpoint is exact —
never a rounding affine map), and k-NN distances accumulate per-axis
squared terms in axis order before one ``sqrt`` — the same float operation sequence as
``Point.distance_to``, so distance ties break identically.

One census-engine caveat does *not* apply here: near-coincident
points that outrun the 62-bit code budget need no recursive re-coding,
because every candidate gathered from a code interval passes an exact
coordinate (or distance) filter anyway.  Only the partial-match *cost*
accounting treats such beyond-budget blocks as leaves (the matches
stay exact); uniform workloads never get close to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..geometry import Point, Rect, interleave_many
from .census import PointInput, _CODE_BITS, _as_coord_array, descend_cells

#: Per-query cap on covering grid cells.  The cover depth is the
#: deepest level whose cell-box stays under this; finer covers trade
#: fewer candidates for more searchsorted stabs, and the exact filter
#: makes any choice correct.
DEFAULT_CELL_BUDGET = 128


@dataclass(frozen=True)
class PartialMatchResult:
    """One batch of partial-match answers plus their exact tree cost.

    ``matches[i]`` is an ``(k_i, dim)`` float array of the stored
    points whose fixed coordinates equal query ``i``'s values, in
    canonical (lexicographic) order.  ``nodes_visited[i]`` counts the
    PR-quadtree blocks a real tree search would touch for query ``i``
    (internal nodes and leaves, empty leaves included) — the cost the
    partial-match scaling laws are fitted on; ``leaves_visited`` and
    ``points_scanned`` break that down.
    """

    matches: List[np.ndarray]
    nodes_visited: np.ndarray
    leaves_visited: np.ndarray
    points_scanned: np.ndarray


class QueryKernel:
    """Sort-once batch query engine over one stored point set.

    Build with :meth:`build`; parameters mirror
    :class:`~repro.quadtree.PRQuadtree` (``capacity`` only matters for
    partial-match cost accounting — range and k-NN answers are
    capacity-independent).  Exact duplicate points are dropped, as the
    tree's insert rejects them, so the kernel answers queries about
    the same stored *set* an object tree holds.
    """

    def __init__(
        self,
        coords: np.ndarray,
        codes: np.ndarray,
        pin: np.ndarray,
        levels: int,
        root_lo: np.ndarray,
        root_hi: np.ndarray,
        capacity: int,
        max_depth: Optional[int],
        bounds: Rect,
    ):
        self._coords = coords
        self._codes = codes
        self._pin = pin
        self._levels = levels
        self._root_lo = root_lo
        self._root_hi = root_hi
        self._capacity = capacity
        self._max_depth = max_depth
        self._bounds = bounds

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: PointInput,
        capacity: int = 1,
        bounds: Optional[Rect] = None,
        dim: int = 2,
        max_depth: Optional[int] = None,
    ) -> "QueryKernel":
        """Encode, sort, and index ``points`` for batch queries."""
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
        dim = bounds.dim
        if dim > _CODE_BITS:
            raise ValueError(
                f"query kernel supports dim <= {_CODE_BITS}, got {dim}"
            )
        with obs.span("kernel.query.build"):
            arr = _as_coord_array(points, dim)
            root_lo = np.asarray(bounds.lo.coords, dtype=np.float64)
            root_hi = np.asarray(bounds.hi.coords, dtype=np.float64)
            if arr.size:
                outside = ~((arr >= root_lo) & (arr < root_hi)).all(axis=1)
                if outside.any():
                    p = Point(*arr[outside][0])
                    raise ValueError(f"{p!r} outside bounds {bounds!r}")
            # normalize -0.0 and drop duplicates, like the tree's insert
            arr = np.unique(arr + 0.0, axis=0)
            levels = _CODE_BITS // dim
            cells, pin = descend_cells(arr, root_lo, root_hi, levels)
            codes = (
                interleave_many(cells, levels)
                if arr.shape[0]
                else np.empty(0, dtype=np.uint64)
            )
            order = np.argsort(codes, kind="stable")
            kernel = cls(
                coords=arr[order],
                codes=codes[order],
                pin=pin[order],
                levels=levels,
                root_lo=root_lo,
                root_hi=root_hi,
                capacity=capacity,
                max_depth=max_depth,
                bounds=bounds,
            )
        if obs.enabled():
            obs.count("kernel.query.build")
            obs.count("kernel.query.indexed_points", int(arr.shape[0]))
        return kernel

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of stored (distinct) points."""
        return int(self._coords.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality of the space."""
        return int(self._root_lo.shape[0])

    @property
    def capacity(self) -> int:
        """Node capacity m used for partial-match cost accounting."""
        return self._capacity

    @property
    def bounds(self) -> Rect:
        """The root block."""
        return self._bounds

    def points(self) -> np.ndarray:
        """The stored points in Morton order (a read-only view)."""
        view = self._coords.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # batch range queries
    # ------------------------------------------------------------------

    def batch_range(
        self,
        rects: Sequence[Rect],
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> List[np.ndarray]:
        """All stored points inside each half-open query box.

        Returns one ``(k_i, dim)`` float array per query, rows in
        canonical (lexicographic) order — the same point set, after
        the same canonical sort, as ``PRQuadtree.range_search``.
        """
        queries = list(rects)
        dim = self.dim
        for rect in queries:
            if rect.dim != dim:
                raise ValueError(
                    f"query dimension {rect.dim} != kernel dim {dim}"
                )
        with obs.span("kernel.query.range"):
            n_queries = len(queries)
            if n_queries == 0 or self.size == 0:
                results = [
                    np.empty((0, dim), dtype=np.float64)
                    for _ in range(n_queries)
                ]
                self._count_range(n_queries, 0, 0, results)
                return results
            qlo = np.array([q.lo.coords for q in queries], dtype=np.float64)
            qhi = np.array([q.hi.coords for q in queries], dtype=np.float64)
            # a half-open box intersects the root iff, on every axis,
            # qlo < root_hi and qhi > root_lo
            live = (
                (qlo < self._root_hi) & (qhi > self._root_lo)
            ).all(axis=1)
            inner_hi = np.nextafter(self._root_hi, -np.inf)
            lo_corner = np.clip(qlo, self._root_lo, inner_hi)
            hi_corner = np.clip(
                np.nextafter(qhi, -np.inf), self._root_lo, inner_hi
            )
            iv_qid, iv_lo, iv_hi = self._box_cover(
                lo_corner[live], hi_corner[live], cell_budget
            )
            rows, cand_qid = self._gather(iv_qid, iv_lo, iv_hi)
            live_ids = np.flatnonzero(live)
            cand_qid = live_ids[cand_qid]
            pts = self._coords[rows]
            inside = (
                (pts >= qlo[cand_qid]) & (pts < qhi[cand_qid])
            ).all(axis=1)
            results = _split_rows(
                pts[inside], cand_qid[inside], n_queries, dim
            )
            self._count_range(
                n_queries, int(iv_qid.size), int(rows.size), results
            )
            return results

    def _count_range(
        self,
        n_queries: int,
        intervals: int,
        candidates: int,
        results: List[np.ndarray],
    ) -> None:
        if obs.enabled():
            obs.count("kernel.query.range", n_queries)
            obs.count("kernel.query.intervals", intervals)
            obs.count("kernel.query.candidates", candidates)
            obs.count(
                "kernel.query.hits",
                int(sum(r.shape[0] for r in results)),
            )

    # ------------------------------------------------------------------
    # batch k nearest neighbors
    # ------------------------------------------------------------------

    def batch_knn(
        self,
        queries: Union[Sequence[Point], np.ndarray],
        k: int = 1,
        cell_budget: int = DEFAULT_CELL_BUDGET,
    ) -> List[np.ndarray]:
        """The ``k`` stored points nearest each query point.

        Each result is a ``(min(k, size), dim)`` float array ordered by
        increasing distance with exact ties broken by lexicographic
        coordinates — bit-identical to ``PRQuadtree.nearest``.  Query
        points may lie outside the root block, exactly like the tree's.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        dim = self.dim
        qarr = _as_coord_array(queries, dim)
        with obs.span("kernel.query.knn"):
            n_queries = int(qarr.shape[0])
            n = self.size
            if n_queries == 0 or n == 0:
                if obs.enabled():
                    obs.count("kernel.query.knn", n_queries)
                return [
                    np.empty((0, dim), dtype=np.float64)
                    for _ in range(n_queries)
                ]
            k_eff = min(k, n)

            # -- phase 1: seed windows around each query's code position
            inner_hi = np.nextafter(self._root_hi, -np.inf)
            clamped = np.clip(qarr, self._root_lo, inner_hi)
            qcells, _ = descend_cells(
                clamped, self._root_lo, self._root_hi, self._levels
            )
            qcodes = interleave_many(qcells, self._levels)
            pos = np.searchsorted(self._codes, qcodes, side="left")
            width = min(n, 2 * max(k_eff, 16))
            starts = np.clip(pos - width // 2, 0, n - width)
            window = self._coords[
                starts[:, None] + np.arange(width)[None, :]
            ]
            dists = _exact_distances(window, qarr[:, None, :])
            radii = np.partition(dists, k_eff - 1, axis=1)[:, k_eff - 1]

            # -- phase 2: gather the closed box [q-r, q+r] exactly.
            # The box always meets the root (it holds >= k_eff stored
            # points), so every query stays live.
            lo_corner = np.clip(
                qarr - radii[:, None], self._root_lo, inner_hi
            )
            hi_corner = np.clip(
                qarr + radii[:, None], self._root_lo, inner_hi
            )
            iv_qid, iv_lo, iv_hi = self._box_cover(
                lo_corner, hi_corner, cell_budget
            )
            rows, cand_qid = self._gather(iv_qid, iv_lo, iv_hi)
            pts = self._coords[rows]
            dists = _exact_distances(pts, qarr[cand_qid])
            keep = dists <= radii[cand_qid]
            pts, dists, cand_qid = pts[keep], dists[keep], cand_qid[keep]

            # -- exact select: per query, the k smallest under the
            # deterministic (distance, coords) tie-break
            order = np.lexsort(
                tuple(pts[:, a] for a in range(dim - 1, -1, -1))
                + (dists, cand_qid)
            )
            pts, cand_qid = pts[order], cand_qid[order]
            bounds_idx = np.searchsorted(
                cand_qid, np.arange(n_queries + 1)
            )
            take = _multi_arange_safe(
                bounds_idx[:-1],
                np.minimum(bounds_idx[:-1] + k_eff, bounds_idx[1:]),
            )
            taken = pts[take]
            counts = np.minimum(bounds_idx[1:] - bounds_idx[:-1], k_eff)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            results = [
                taken[offsets[q]:offsets[q + 1]]
                for q in range(n_queries)
            ]
            if obs.enabled():
                obs.count("kernel.query.knn", n_queries)
                obs.count("kernel.query.intervals", int(iv_qid.size))
                obs.count("kernel.query.candidates", int(rows.size))
            return results

    # ------------------------------------------------------------------
    # batch partial match
    # ------------------------------------------------------------------

    def batch_partial_match(
        self,
        axes: Sequence[int],
        values: Union[Sequence[Sequence[float]], np.ndarray],
    ) -> PartialMatchResult:
        """Stored points whose ``axes`` coordinates equal each query's
        ``values`` — plus the exact number of tree blocks a real
        partial-match search visits.

        ``axes`` is the set of fixed axes (shared by the batch);
        ``values`` is ``(n_queries, len(axes))``.  The kernel refines
        code-prefix intervals level by level, descending only into the
        ``2^(dim-s)`` children per node that intersect the query
        hyperplane — the "strided interval union" reading of a partial
        match on a z-order.  Visit counts include empty sibling
        leaves, exactly as a tree walk would touch them.
        """
        dim = self.dim
        fixed = list(axes)
        if len(set(fixed)) != len(fixed):
            raise ValueError(f"duplicate fixed axes in {axes!r}")
        for a in fixed:
            if not 0 <= a < dim:
                raise ValueError(f"axis {a} out of range for dim {dim}")
        if not fixed:
            raise ValueError("partial match needs at least one fixed axis")
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals.reshape(1, -1)
        if vals.ndim != 2 or vals.shape[1] != len(fixed):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(fixed)} fixed axes"
            )
        with obs.span("kernel.query.partial_match"):
            result = self._partial_match(fixed, vals)
        if obs.enabled():
            obs.count("kernel.query.partial_match", int(vals.shape[0]))
            obs.count(
                "kernel.query.pm_nodes", int(result.nodes_visited.sum())
            )
            obs.count(
                "kernel.query.candidates",
                int(result.points_scanned.sum()),
            )
        return result

    def _partial_match(
        self, fixed: List[int], vals: np.ndarray
    ) -> PartialMatchResult:
        dim = self.dim
        n_queries = int(vals.shape[0])
        n = self.size
        s = len(fixed)
        free_axes = [a for a in range(dim) if a not in fixed]
        free_fanout = 1 << (dim - s)
        # bit of axis a sits at position (dim-1-a) within a Morton
        # digit; enumerate the free-axis bit patterns once
        free_patterns = np.zeros(free_fanout, dtype=np.uint64)
        for combo in range(free_fanout):
            bits = 0
            for j, a in enumerate(free_axes):
                if (combo >> j) & 1:
                    bits |= 1 << (dim - 1 - a)
            free_patterns[combo] = bits

        nodes = np.zeros(n_queries, dtype=np.int64)
        leaves = np.zeros(n_queries, dtype=np.int64)
        scanned = np.zeros(n_queries, dtype=np.int64)
        hit_rows: List[np.ndarray] = []
        hit_qids: List[np.ndarray] = []
        empty = np.empty((0, dim), dtype=np.float64)

        # the root is visited iff it contains the query hyperplane
        in_root = np.ones(n_queries, dtype=bool)
        for j, a in enumerate(fixed):
            in_root &= (vals[:, j] >= self._root_lo[a]) & (
                vals[:, j] < self._root_hi[a]
            )
        qid = np.flatnonzero(in_root)
        nodes[qid] += 1
        if n == 0:
            leaves[qid] += 1
            return PartialMatchResult(
                [empty] * n_queries, nodes, leaves, scanned
            )
        starts = np.zeros(qid.size, dtype=np.int64)
        stops = np.full(qid.size, n, dtype=np.int64)
        prefix = np.zeros(qid.size, dtype=np.uint64)
        # per-run bounds along the fixed axes only (midpoint replay)
        flo = np.repeat(self._root_lo[fixed][None, :], qid.size, axis=0)
        fhi = np.repeat(self._root_hi[fixed][None, :], qid.size, axis=0)
        depth = 0
        while starts.size:
            counts = stops - starts
            is_leaf = (counts <= self._capacity) | (
                self._pin[starts] <= depth
            )
            if self._max_depth is not None and depth >= self._max_depth:
                is_leaf[:] = True
            if depth == self._levels:
                # beyond the code budget: account the block as one leaf
                # (matches stay exact; see the module docstring)
                is_leaf[:] = True
            if is_leaf.any():
                leaf_qid = qid[is_leaf]
                np.add.at(leaves, leaf_qid, 1)
                np.add.at(scanned, leaf_qid, counts[is_leaf])
                rows = _multi_arange_safe(starts[is_leaf], stops[is_leaf])
                row_qid = np.repeat(leaf_qid, counts[is_leaf])
                pts = self._coords[rows]
                match = np.ones(rows.size, dtype=bool)
                for j, a in enumerate(fixed):
                    match &= pts[:, a] == vals[row_qid, j]
                if match.any():
                    hit_rows.append(pts[match])
                    hit_qids.append(row_qid[match])
                keep = ~is_leaf
                starts, stops = starts[keep], stops[keep]
                qid, prefix = qid[keep], prefix[keep]
                flo, fhi = flo[keep], fhi[keep]
                if not starts.size:
                    break
            # split every remaining run: child code boundaries via
            # searchsorted on the 2^(dim-s) hyperplane-side children
            mid = (flo + fhi) / 2.0
            geq = vals[qid] >= mid
            fval = np.zeros(qid.size, dtype=np.uint64)
            for j, a in enumerate(fixed):
                fval |= geq[:, j].astype(np.uint64) << np.uint64(
                    dim - 1 - a
                )
            child_digits = fval[:, None] | free_patterns[None, :]
            child_prefix = (
                prefix[:, None] << np.uint64(dim)
            ) | child_digits
            step = np.uint64((self._levels - 1 - depth) * dim)
            child_lo = child_prefix << step
            child_hi = (child_prefix + np.uint64(1)) << step
            c_starts = np.searchsorted(
                self._codes, child_lo.ravel(), side="left"
            )
            c_stops = np.searchsorted(
                self._codes, child_hi.ravel(), side="left"
            )
            occupied = c_stops > c_starts
            # every split node owns 2^(dim-s) intersecting children;
            # the ones without points are empty leaves the walk visits
            np.add.at(nodes, qid, free_fanout)
            empties = free_fanout - occupied.reshape(
                -1, free_fanout
            ).sum(axis=1)
            if empties.any():
                np.add.at(leaves, qid, empties)
            # descend into the occupied children
            run_of = np.repeat(np.arange(qid.size), free_fanout)[occupied]
            starts = c_starts[occupied]
            stops = c_stops[occupied]
            prefix = child_prefix.ravel()[occupied]
            child_geq = geq[run_of]
            flo = np.where(child_geq, mid[run_of], flo[run_of])
            fhi = np.where(child_geq, fhi[run_of], mid[run_of])
            qid = qid[run_of]
            depth += 1

        if hit_rows:
            pts = np.concatenate(hit_rows, axis=0)
            pt_qid = np.concatenate(hit_qids)
            matches = _split_rows(pts, pt_qid, n_queries, dim)
        else:
            matches = [empty] * n_queries
        return PartialMatchResult(matches, nodes, leaves, scanned)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _box_cover(
        self,
        lo_corner: np.ndarray,
        hi_corner: np.ndarray,
        cell_budget: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged code intervals covering every stored point inside
        each closed corner box (corners already clamped into the root).

        Per query, the corners are run through the same midpoint
        descent that encoded the points, giving their grid-cell
        indices at every depth; the chosen depth is the deepest whose
        index box holds at most ``cell_budget`` cells.  Because the
        per-axis descent index is monotone in the coordinate, every
        stored point between the corners lands inside that index box
        — the cover is exact by construction, with zero float slop.

        Returns ``(qid, lo_code, hi_code)`` arrays, qid-major with
        ascending, disjoint, adjacency-merged intervals.
        """
        if cell_budget < 1:
            raise ValueError(
                f"cell_budget must be >= 1, got {cell_budget}"
            )
        n_queries, dim = lo_corner.shape
        e_int = np.empty(0, dtype=np.int64)
        e_code = np.empty(0, dtype=np.uint64)
        if n_queries == 0:
            return e_int, e_code, e_code
        levels = self._levels
        lo_cells, _ = descend_cells(
            lo_corner, self._root_lo, self._root_hi, levels
        )
        hi_cells, _ = descend_cells(
            hi_corner, self._root_lo, self._root_hi, levels
        )
        # cell-box sizes at every depth L: index >> (levels - L)
        shifts = np.arange(levels, -1, -1, dtype=np.uint64)[None, None, :]
        spans = (
            (hi_cells[:, :, None] >> shifts)
            - (lo_cells[:, :, None] >> shifts)
            + np.uint64(1)
        )
        totals = spans.astype(np.float64).prod(axis=1)
        depth_pick = (totals <= float(cell_budget)).sum(axis=1) - 1
        sh = (levels - depth_pick).astype(np.uint64)
        lo_idx = lo_cells >> sh[:, None]
        sizes = (hi_cells >> sh[:, None]) - lo_idx + np.uint64(1)

        # ragged row-major enumeration of every query's cell box
        per_query = sizes.prod(axis=1).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(per_query)])
        total = int(offsets[-1])
        row_qid = np.repeat(np.arange(n_queries), per_query)
        local = (np.arange(total) - offsets[row_qid]).astype(np.uint64)
        stride = np.ones_like(sizes)
        for a in range(dim - 2, -1, -1):
            stride[:, a] = stride[:, a + 1] * sizes[:, a + 1]
        cells = (
            lo_idx[row_qid]
            + (local[:, None] // stride[row_qid]) % sizes[row_qid]
        )
        # shifting every axis index left by sh shifts the interleaved
        # code left by sh*dim: cell code intervals at full resolution
        cells <<= sh[row_qid][:, None]
        code_lo = interleave_many(cells, levels)
        step = np.uint64(1) << (sh[row_qid] * np.uint64(dim))
        code_hi = code_lo + step

        order = np.lexsort((code_lo, row_qid))
        row_qid, code_lo, code_hi = (
            row_qid[order], code_lo[order], code_hi[order]
        )
        head = np.empty(total, dtype=bool)
        head[0] = True
        head[1:] = (row_qid[1:] != row_qid[:-1]) | (
            code_lo[1:] != code_hi[:-1]
        )
        heads = np.flatnonzero(head)
        tails = np.append(heads[1:], total) - 1
        return row_qid[heads], code_lo[heads], code_hi[tails]

    def _gather(
        self, qids: np.ndarray, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stab every code interval into the sorted array; returns
        candidate row indices and their (local) query ids, grouped by
        query with ascending rows within each."""
        if qids.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e
        starts = np.searchsorted(self._codes, los, side="left")
        stops = np.searchsorted(self._codes, his, side="left")
        lengths = stops - starts
        nonempty = lengths > 0
        if not nonempty.any():
            e = np.empty(0, dtype=np.int64)
            return e, e
        starts, stops, qids = (
            starts[nonempty], stops[nonempty], qids[nonempty]
        )
        rows = _multi_arange(starts, stops)
        return rows, np.repeat(qids, stops - starts)


# ----------------------------------------------------------------------
# module helpers
# ----------------------------------------------------------------------


def _multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, e)`` for each pair, vectorized."""
    lengths = stops - starts
    total = int(lengths.sum())
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    heads = np.cumsum(lengths)[:-1]
    steps[heads] = starts[1:] - (stops[:-1] - 1)
    return np.cumsum(steps)


def _exact_distances(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances with ``Point.distance_to``'s exact float
    operation order: squared axis terms accumulated left to right,
    then one sqrt — so distance ties break bit-identically."""
    acc = np.zeros(np.broadcast_shapes(pts.shape, q.shape)[:-1], dtype=np.float64)
    for a in range(pts.shape[-1]):
        d = pts[..., a] - q[..., a]
        acc = acc + d * d
    return np.sqrt(acc)


def _multi_arange_safe(
    starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """:func:`_multi_arange` tolerating empty runs and empty input."""
    lengths = stops - starts
    keep = lengths > 0
    if not keep.any():
        return np.empty(0, dtype=np.int64)
    return _multi_arange(starts[keep], stops[keep])


def _split_rows(
    pts: np.ndarray, qid: np.ndarray, n_queries: int, dim: int
) -> List[np.ndarray]:
    """Group rows by query id and put each query's rows in canonical
    (lexicographic) order, in one global lexsort."""
    empty = np.empty((0, dim), dtype=np.float64)
    if pts.shape[0] == 0:
        return [empty for _ in range(n_queries)]
    order = np.lexsort(
        tuple(pts[:, a] for a in range(dim - 1, -1, -1)) + (qid,)
    )
    pts, qid = pts[order], qid[order]
    bounds_idx = np.searchsorted(qid, np.arange(n_queries + 1))
    return [
        pts[bounds_idx[q]:bounds_idx[q + 1]] for q in range(n_queries)
    ]
