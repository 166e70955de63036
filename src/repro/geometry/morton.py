"""Morton (Z-order) codes — the linearization behind the PR quadtree.

Orenstein's "multidimensional tries" [Oren82], the paper's citation for
the PR quadtree, are exactly tries over bit-interleaved coordinates:
the PR quadtree's quadrant path for a point *is* the prefix of its
Morton code.  This module provides the codes; the batch kernels in
:mod:`repro.kernels` sort and scan arrays of them.

Coordinates are quantized to ``bits`` binary digits per axis within a
bounding box; two points share a depth-k PR quadtree block iff their
Morton codes share their first ``k*dim`` bits (a property the tests
verify against the real tree).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .point import Point
from .rect import Rect


def interleave(coords: Sequence[int], bits: int) -> int:
    """Bit-interleave nonnegative integers into one Morton code.

    Axis 0 contributes the most significant bit of each group, so the
    code orders blocks in the same SW, SE, NW, NE sequence as
    ``Rect.split`` (bit of axis i at group position i).
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    dim = len(coords)
    if dim < 1:
        raise ValueError("need at least one coordinate")
    # Validate once per coordinate, not once per (level, axis) pair; the
    # range check is level-independent, so hoisting it preserves which
    # coordinate a mixed-validity input is reported for (the lowest
    # offending axis, exactly as the first loop iteration used to find).
    limit = 1 << bits
    for value in coords:
        if not 0 <= value < limit:
            raise ValueError(
                f"coordinate {value} outside 0..{limit - 1}"
            )
    code = 0
    for level in range(bits - 1, -1, -1):
        for axis in range(dim):
            code = (code << 1) | ((coords[axis] >> level) & 1)
    return code


#: ``dim -> (max bits, ((shift, mask), ...))``: the magic-mask bit
#: spreads that put bit ``l`` of a coordinate at bit ``l * dim``.
_SPREAD = {
    1: (62, ()),
    2: (31, (
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )),
    3: (20, (
        (32, 0x001F00000000FFFF),
        (16, 0x001F0000FF0000FF),
        (8, 0x100F00F00F00F00F),
        (4, 0x10C30C30C30C30C3),
        (2, 0x1249249249249249),
    )),
}


def interleave_many(coords: "np.ndarray", bits: int) -> "np.ndarray":
    """Vectorized :func:`interleave` over an ``(n, dim)`` integer array.

    Returns a ``uint64`` array of ``n`` Morton codes with exactly the
    scalar function's bit layout (axis 0 most significant within each
    ``dim``-bit group).  ``bits * dim`` must stay within 62 so the codes
    remain exact in both ``uint64`` and ``int64`` arithmetic.  Dims 1–3
    within that budget spread bits with magic masks; other dims
    interleave level by level.
    """
    import numpy as np

    arr = np.asarray(coords)
    if arr.ndim != 2:
        raise ValueError(f"coords must be 2-d (n, dim), got shape {arr.shape}")
    dim = arr.shape[1]
    if dim < 1:
        raise ValueError("need at least one coordinate per point")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if bits * dim > 62:
        raise ValueError(
            f"bits*dim = {bits * dim} exceeds the 62-bit code budget"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"coords must be an integer array, got {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << bits)):
        bad = arr[(arr < 0) | (arr >= (1 << bits))].flat[0]
        raise ValueError(f"coordinate {bad} outside 0..{(1 << bits) - 1}")
    arr = arr.astype(np.uint64)
    one = np.uint64(1)
    spread = _SPREAD.get(dim)
    if spread is not None and bits <= spread[0]:
        # spread each axis's bits ``dim`` apart in a few mask steps
        for shift, mask in spread[1]:
            arr = (arr | (arr << np.uint64(shift))) & np.uint64(mask)
        codes = arr[:, 0]
        for axis in range(1, dim):
            codes = (codes << one) | arr[:, axis]
        return codes
    codes = np.zeros(arr.shape[0], dtype=np.uint64)
    for level in range(bits - 1, -1, -1):
        for axis in range(dim):
            codes = (codes << one) | ((arr[:, axis] >> np.uint64(level)) & one)
    return codes


def deinterleave(code: int, dim: int, bits: int) -> Tuple[int, ...]:
    """Inverse of :func:`interleave`."""
    if code < 0 or code >= 1 << (dim * bits):
        raise ValueError(f"code {code} outside range for dim={dim} bits={bits}")
    coords = [0] * dim
    for level in range(bits - 1, -1, -1):
        for axis in range(dim):
            bit = (code >> (level * dim + (dim - 1 - axis))) & 1
            coords[axis] |= bit << level
    return tuple(coords)


def quantize(p: Point, bounds: Rect, bits: int) -> Tuple[int, ...]:
    """Map a point to integer grid coordinates inside ``bounds``."""
    if not bounds.contains_point(p):
        raise ValueError(f"{p!r} outside {bounds!r}")
    scale = 1 << bits
    return tuple(
        min(int((p[i] - bounds.lo[i]) / bounds.side(i) * scale), scale - 1)
        for i in range(bounds.dim)
    )


def morton_key(p: Point, bounds: Optional[Rect] = None, bits: int = 16) -> int:
    """The Morton code of a point at ``bits`` bits per axis."""
    if bounds is None:
        bounds = Rect.unit(p.dim)
    return interleave(quantize(p, bounds, bits), bits)


def prefix_at_depth(code: int, depth: int, dim: int, bits: int) -> int:
    """The leading ``depth`` quadrant choices of a Morton code.

    Equals the PR quadtree's root-to-depth path for the point: two
    points land in the same depth-k block iff their prefixes match.
    """
    if not 0 <= depth <= bits:
        raise ValueError(f"depth must be in 0..{bits}, got {depth}")
    return code >> ((bits - depth) * dim)
