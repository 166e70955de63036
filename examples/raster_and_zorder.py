"""Raster maps and z-order — the rest of the quadtree family tree.

Two short studies rounding out the taxonomy the paper's Section II
sketches:

1. **Region quadtree** (Klinger 1971): a synthetic land/water raster,
   its block decomposition and census, and map algebra (union /
   intersection) computed directly on the trees.
2. **Morton codes** (Orenstein 1982): the PR quadtree *is* a trie over
   bit-interleaved coordinates — demonstrated by checking that quadrant
   paths equal code prefixes, then racing the sorted-Morton-code query
   kernel against the tree on range queries.

Run:  python examples/raster_and_zorder.py
"""

import time

import numpy as np

from repro import Point, PRQuadtree, Rect, UniformPoints
from repro.geometry import morton_key, prefix_at_depth
from repro.kernels import QueryKernel
from repro.quadtree import RegionQuadtree


def synthetic_island(size=32, seed=5):
    """A blobby island raster: land where a few Gaussian bumps sum high."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size] / size
    field = np.zeros((size, size))
    for _ in range(4):
        cx, cy = rng.random(2) * 0.6 + 0.2
        field += np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / 0.02))
    return field > 0.8


def region_quadtree_study():
    print("=== region quadtree: land/water raster ===")
    land = RegionQuadtree.from_array(synthetic_island(seed=5))
    print(land.render())
    print(f"\n{land.black_area()} land pixels in {land.leaf_count()} blocks")
    print("black blocks by side length:", dict(sorted(
        land.block_size_census().items(), reverse=True)))

    from repro.quadtree import component_areas, component_count

    islands = component_count(land)
    print(
        f"component labeling (the [Same84c] operation): {islands} "
        f"island(s), areas {component_areas(land)}"
    )

    flood = RegionQuadtree.from_array(synthetic_island(seed=9))
    flooded_land = land.intersection(flood.complement())
    print(
        f"\nafter flooding with a second mask: "
        f"{flooded_land.black_area()} land pixels remain "
        f"({land.black_area() - flooded_land.black_area()} submerged), "
        f"now {component_count(flooded_land)} component(s)\n"
    )


def morton_study():
    print("=== z-order: the PR quadtree as a trie ===")
    pts = UniformPoints(seed=6).generate(5000)

    # the equivalence: same depth-k block <=> same k-quadrant prefix
    a, b = pts[0], pts[1]
    bits = 16
    code_a, code_b = morton_key(a, bits=bits), morton_key(b, bits=bits)
    depth = 0
    while prefix_at_depth(code_a, depth + 1, 2, bits) == prefix_at_depth(
        code_b, depth + 1, 2, bits
    ):
        depth += 1
    print(
        f"points {a.coords} and {b.coords} share Morton prefix to depth "
        f"{depth} -> a capacity-1 PR quadtree separates them at depth "
        f"{depth + 1}"
    )

    tree = PRQuadtree(capacity=8)
    tree.insert_many(pts)
    kernel = QueryKernel.build(pts, capacity=8)

    query = Rect(Point(0.41, 0.37), Point(0.52, 0.49))
    t0 = time.perf_counter()
    from_tree = sorted(p.coords for p in tree.range_search(query))
    tree_ms = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    (rows,) = kernel.batch_range([query])
    kernel_ms = (time.perf_counter() - t0) * 1000
    assert from_tree == [tuple(row) for row in rows.tolist()]
    print(
        f"range query agreement: {len(from_tree)} points; "
        f"PR quadtree {tree_ms:.2f} ms, Morton query kernel "
        f"{kernel_ms:.2f} ms"
    )


def main():
    region_quadtree_study()
    morton_study()


if __name__ == "__main__":
    main()
