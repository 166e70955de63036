"""Performance: query throughput across the structure family.

Range and nearest-neighbor queries over the same 5000-point dataset,
answered by the PR quadtree, the point quadtree, the grid file and
EXCELL.  All answers are cross-checked against brute
force once before timing.
"""

import pytest

from repro.excell import Excell
from repro.geometry import Point, Rect
from repro.gridfile import GridFile
from repro.quadtree import PointQuadtree, PRQuadtree
from repro.workloads import UniformPoints

N = 5000
POINTS = UniformPoints(seed=202).generate(N)
WINDOW = Rect(Point(0.42, 0.31), Point(0.58, 0.47))
QUERY_POINT = Point(0.71, 0.29)
EXPECTED_RANGE = sorted(
    p.coords for p in POINTS if WINDOW.contains_point(p)
)
EXPECTED_NEAREST = min(POINTS, key=lambda p: p.distance_to(QUERY_POINT))


def _pr_tree():
    tree = PRQuadtree(capacity=8)
    tree.insert_many(POINTS)
    return tree


def _point_tree():
    tree = PointQuadtree()
    tree.insert_many(POINTS)
    return tree


def _grid():
    grid = GridFile(bucket_capacity=8)
    grid.insert_many(POINTS)
    return grid


def _excell():
    cells = Excell(bucket_capacity=8)
    cells.insert_many(POINTS)
    return cells


@pytest.mark.parametrize(
    "name,factory",
    [
        ("pr_quadtree", _pr_tree),
        ("point_quadtree", _point_tree),
        ("grid_file", _grid),
        ("excell", _excell),
    ],
)
def test_range_query(benchmark, name, factory):
    structure = factory()
    got = sorted(p.coords for p in structure.range_search(WINDOW))
    assert got == EXPECTED_RANGE
    benchmark(structure.range_search, WINDOW)


@pytest.mark.parametrize(
    "name,factory",
    [
        ("pr_quadtree", _pr_tree),
        ("point_quadtree", _point_tree),
        ("grid_file", _grid),
        ("excell", _excell),
    ],
)
def test_nearest_query(benchmark, name, factory):
    structure = factory()
    assert structure.nearest(QUERY_POINT) == [EXPECTED_NEAREST]
    benchmark(structure.nearest, QUERY_POINT)
