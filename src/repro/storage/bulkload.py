"""Sorted bulk-load: write a paged PR quadtree in one sequential pass.

``PagedPRQuadtree.create`` + ``insert_many`` builds a file the honest
way — every insert descends the directory, pins a page, and every
split reads a bucket back just to deal it onto ``2^dim`` fresh pages.
That is the right *dynamic* path, but a terrible *cold-start* path:
loading n points costs O(n) pool round-trips and rewrites each page
many times as its region keeps splitting.

This module reuses the query kernel's Morton partition instead.  One
quantization encodes every point (the census engine's shared
``descend_cells``, exact to the tree's float arithmetic), one argsort
puts them in z-order, and one level-by-level refinement over the
sorted code array yields exactly the leaf set the incremental build
would reach — the PR tree's shape is a function of the point *set*,
never of insertion order.  Every leaf run is then laid out as a
slotted page in one array pass (:func:`~repro.storage.page.pack_pages`)
and the pages are published with the header in one atomic
:meth:`PageFile.create <repro.storage.pagefile.PageFile.create>`, with
no buffer pool involved.  The leaf runs *are* the directory, so the
returned tree is assembled from them by the constructor
``PagedPRQuadtree.open`` uses, and no page is read back.  Bulk-loaded
and incrementally-built files are interchangeable —
``tests/test_bulkload.py`` pins census, query, and ``validate()``
parity, and ``tests/test_bulkload_directory.py`` that the loaded tree
is the one a reopen builds.

Near-coincident clusters that outrun the 62-bit Morton budget (the
code cannot discriminate points the tree would still split apart)
fall back to the incremental path wholesale — correctness first, the
fast path covers every sane workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Optional, Union

import numpy as np

from .. import obs
from ..geometry import Point, Rect, interleave_many
from ..kernels.census import _CODE_BITS, _as_coord_array, descend_cells
from ..kernels.queries import PointInput
from .page import pack_pages
from .pagefile import DEFAULT_PAGE_SIZE, PAGE_OVERHEAD, PageFile
from .paged_tree import PagedPRQuadtree, _leaf_meta_rows, _new_tree_meta


class _NeedsIncremental(Exception):
    """Raised when the Morton partition cannot resolve the leaf set
    (points deeper than the code budget): take the slow path."""


def bulk_load_paged(
    path: Union[str, Path],
    points: PointInput,
    capacity: int = 1,
    bounds: Optional[Rect] = None,
    dim: int = 2,
    max_depth: Optional[int] = None,
    page_size: int = DEFAULT_PAGE_SIZE,
    pool_pages: int = 64,
    policy: str = "lru",
    meta: Optional[Mapping[str, Any]] = None,
) -> PagedPRQuadtree:
    """Create the page file at ``path`` holding ``points`` in one
    sequential pass and open it.

    Parameters mirror :meth:`PagedPRQuadtree.create`; the resulting
    file is indistinguishable from an incremental build of the same
    point set (identical leaf pages, identical censuses).  Duplicate
    points are dropped, as the tree's insert rejects them.  ``meta``
    is merged into the header that publishes the file.  A load that
    fails leaves no file behind.
    """
    bounds, header = _new_tree_meta(
        capacity, bounds, dim, max_depth, page_size
    )
    dim = bounds.dim
    with obs.span("storage.bulk_load"):
        arr = _as_coord_array(points, dim)
        root_lo = np.asarray(bounds.lo.coords, dtype=np.float64)
        root_hi = np.asarray(bounds.hi.coords, dtype=np.float64)
        if arr.size:
            outside = ~((arr >= root_lo) & (arr < root_hi)).all(axis=1)
            if outside.any():
                p = Point(*arr[outside][0])
                raise ValueError(f"{p!r} outside bounds {bounds!r}")
        arr = np.unique(arr + 0.0, axis=0)
        levels = _CODE_BITS // dim
        cells, pin = descend_cells(arr, root_lo, root_hi, levels)
        codes = (
            interleave_many(cells, levels)
            if arr.shape[0]
            else np.empty(0, dtype=np.uint64)
        )
        order = np.argsort(codes, kind="stable")
        arr, codes, pin = arr[order], codes[order], pin[order]
        try:
            starts, stops, depths, paths = _leaf_runs(
                codes, pin, capacity, dim, levels, max_depth,
                64 // dim,
            )
        except _NeedsIncremental:
            obs.count("storage.bulk.fallback")
            tree = PagedPRQuadtree.create(
                path, capacity=capacity, bounds=bounds, dim=dim,
                max_depth=max_depth, page_size=page_size,
                pool_pages=pool_pages, policy=policy,
            )
            try:
                tree.insert_many(Point(*row) for row in arr)
                tree.pagefile.update_meta(meta or {})
                tree.checkpoint()
            except BaseException:
                tree.pagefile.close(checkpoint=False)
                Path(path).unlink(missing_ok=True)
                raise
            return tree
        header.update(meta or {}, points=int(arr.shape[0]))
        payloads = pack_pages(
            page_size - PAGE_OVERHEAD,
            _leaf_meta_rows(depths, paths),
            arr.astype("<f8").view(np.uint8).reshape(arr.shape[0], 8 * dim),
            starts, stops,
        )
        pagefile = PageFile.create(
            path, page_size=page_size, meta=header, payloads=payloads
        )
        del payloads
        try:
            tree = PagedPRQuadtree._assemble(
                pagefile,
                zip(
                    depths.tolist(), paths.tolist(), range(starts.size),
                    (stops - starts).tolist(),
                ),
                pool_pages, policy,
            )
        except BaseException:
            pagefile.close(checkpoint=False)
            Path(path).unlink(missing_ok=True)
            raise
        obs.count("storage.bulk.pages", int(starts.size))
        obs.count("storage.bulk.points", int(arr.shape[0]))
    return tree


def _leaf_runs(
    codes: np.ndarray,
    pin: np.ndarray,
    capacity: int,
    dim: int,
    levels: int,
    max_depth: Optional[int],
    path_limit: int,
):
    """Partition the sorted code array into the tree's leaf set,
    tracking each leaf's quadrant path.

    Returns ``(starts, stops, depths, paths)`` in Morton order.  The
    split rule is the paged tree's own: split while a block holds more
    than ``capacity`` points, is splittable, and sits above both the
    explicit and the path-encoding depth limits.  Empty sibling blocks
    become (empty) leaf pages, exactly as ``_split`` materializes them.
    """
    n = int(codes.size)
    fanout = 1 << dim
    # Morton digit bit for axis a is (dim-1-a); quadrant-path bit is a
    brev = np.array(
        [
            sum(((d >> (dim - 1 - a)) & 1) << a for a in range(dim))
            for d in range(fanout)
        ],
        dtype=np.uint64,
    )
    depth_cap = path_limit if max_depth is None else min(max_depth, path_limit)

    out_starts = []
    out_stops = []
    out_depths = []
    out_paths = []
    starts = np.zeros(1, dtype=np.int64)
    stops = np.full(1, n, dtype=np.int64)
    prefix = np.zeros(1, dtype=np.uint64)
    paths = np.zeros(1, dtype=np.uint64)
    depth = 0
    while starts.size:
        counts = stops - starts
        is_leaf = counts <= capacity
        if n:
            is_leaf |= pin[np.minimum(starts, n - 1)] <= depth
        if depth >= depth_cap:
            is_leaf[:] = True
        if depth == levels and not is_leaf.all():
            raise _NeedsIncremental
        if is_leaf.any():
            out_starts.append(starts[is_leaf])
            out_stops.append(stops[is_leaf])
            out_depths.append(np.full(int(is_leaf.sum()), depth))
            out_paths.append(paths[is_leaf])
            keep = ~is_leaf
            starts, stops = starts[keep], stops[keep]
            prefix, paths = prefix[keep], paths[keep]
            if not starts.size:
                break
        digits = np.arange(fanout, dtype=np.uint64)
        child_prefix = (prefix[:, None] << np.uint64(dim)) | digits
        step = np.uint64((levels - 1 - depth) * dim)
        child_lo = child_prefix << step
        child_hi = (child_prefix + np.uint64(1)) << step
        c_starts = np.searchsorted(codes, child_lo.ravel(), side="left")
        c_stops = np.searchsorted(codes, child_hi.ravel(), side="left")
        child_paths = (
            paths[:, None] | (brev[digits] << np.uint64(depth * dim))
        )
        starts = c_starts.astype(np.int64)
        stops = c_stops.astype(np.int64)
        prefix = child_prefix.ravel()
        paths = child_paths.ravel()
        depth += 1

    starts = np.concatenate(out_starts)
    stops = np.concatenate(out_stops)
    depths = np.concatenate(out_depths)
    paths = np.concatenate(out_paths)
    order = np.lexsort((depths, starts))
    return starts[order], stops[order], depths[order], paths[order]
