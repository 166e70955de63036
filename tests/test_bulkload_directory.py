"""The bulk loader builds its tree from the leaf runs it wrote: that
tree must be the one a reopen of the same file builds from the pages,
and building it must read no page back."""

import pytest

from repro.geometry import Point, Rect
from repro.storage import PagedPRQuadtree, PageFile, bulk_load_paged
from repro.storage.pagefile import StorageError
from repro.workloads import GaussianPoints, UniformPoints

SKEW = Rect(Point(-3.3, 0.7), Point(11.1, 2.9))
SKEW_3D = Rect(Point(0.1, -7.0, 1e-3), Point(0.35, 5.5, 2.0))

CASES = {
    "1d-m1": dict(dim=1, capacity=1, n=300),
    "2d-m4": dict(dim=2, capacity=4, n=2000),
    "3d-m8": dict(dim=3, capacity=8, n=1500),
    "2d-m1-pinned": dict(dim=2, capacity=1, n=400, max_depth=4),
    "3d-m4-pinned": dict(dim=3, capacity=4, n=700, max_depth=2),
    "2d-m4-skew": dict(dim=2, capacity=4, n=1000, bounds=SKEW),
    "3d-m2-skew-pinned": dict(
        dim=3, capacity=2, n=900, bounds=SKEW_3D, max_depth=2
    ),
    "2d-m8-gaussian": dict(dim=2, capacity=8, n=1200, gaussian=True),
}


def _nodes(tree):
    """The directory — ``(location code, page_id)`` per leaf, by code —
    and every leaf's ``(lo, hi, depth)`` block, depth first."""
    return sorted(tree._leaves.items()), [
        (rect.lo.coords, rect.hi.coords, depth)
        for rect, depth, _ in tree.leaves()
    ]


def _points(case):
    case = dict(case)
    n = case.pop("n")
    gaussian = case.pop("gaussian", False)
    generator = GaussianPoints if gaussian else UniformPoints
    gen_kwargs = {"seed": 29, "dim": case["dim"]}
    if "bounds" in case:
        gen_kwargs["bounds"] = case["bounds"]
    return generator(**gen_kwargs).generate_array(n), case


def _count_reads(monkeypatch):
    """Record the page ids read from disk, one at a time or a slab of
    rows at a time."""
    reads = []
    read_raw = PageFile._read_raw
    read_rows = PageFile._read_rows

    def counted(self, pid):
        reads.append(pid)
        return read_raw(self, pid)

    def counted_rows(self, rows, start):
        reads.extend(range(start, start + len(rows)))
        return read_rows(self, rows, start)

    monkeypatch.setattr(PageFile, "_read_raw", counted)
    monkeypatch.setattr(PageFile, "_read_rows", counted_rows)
    return reads


@pytest.mark.parametrize("name", sorted(CASES))
def test_bulk_tree_is_the_reopened_tree(tmp_path, monkeypatch, name):
    points, kwargs = _points(CASES[name])
    path = tmp_path / "t.pf"
    reads = _count_reads(monkeypatch)
    with bulk_load_paged(path, points, **kwargs) as bulk:
        assert reads == []  # the loader wrote every page: none read back
        built = _nodes(bulk)
        census = bulk.occupancy_census()
        depths = bulk.depth_census()
        size = len(bulk)
        fullest = max(occupancy for _, _, occupancy in bulk.leaves())
        bulk.validate()
    del reads[:]
    with PagedPRQuadtree.open(path) as reopened:
        # a reopen has only the pages to go on: it reads every one
        assert reads == list(range(reopened.pagefile.page_count))
        assert _nodes(reopened) == built
        assert reopened.occupancy_census() == census
        assert reopened.depth_census() == depths
        assert len(reopened) == size == len(points)
        reopened.validate()
    if "max_depth" in kwargs:
        # the pinned cases really hold over-full leaves
        assert fullest > kwargs["capacity"]


def test_empty_load_is_one_root_leaf(tmp_path, monkeypatch):
    reads = _count_reads(monkeypatch)
    with bulk_load_paged(tmp_path / "e.pf", [], capacity=4) as tree:
        assert reads == []
        assert _nodes(tree) == (
            [(1, 0)], [((0.0, 0.0), (1.0, 1.0), 0)]
        )
        assert len(tree) == 0


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 2, 0), (1, 2, 3, 0),
          (1, 3, 4, 0)], "depth-0 leaf"),
        ([(1, 0, 0, 0), (1, 1, 1, 0), (1, 2, 2, 0), (1, 3, 3, 0),
          (1, 2, 4, 0)], "same block"),
        ([(1, 0, 0, 0), (1, 1, 1, 0), (1, 2, 2, 0), (1, 3, 3, 0),
          (2, 1, 4, 0)], "shadows"),
        ([(1, 0, 0, 0), (1, 1, 1, 0), (1, 2, 2, 0)], "missing leaf page"),
        ([], "no leaf pages"),
    ],
)
def test_array_entries_get_every_directory_check(
    tmp_path, entries, message
):
    # the constructor the loader feeds refuses a broken directory
    # exactly as a reopen of a corrupt file does
    bulk_load_paged(tmp_path / "t.pf", [], capacity=4).close()
    pagefile = PageFile.open(tmp_path / "t.pf")
    try:
        with pytest.raises(StorageError, match=message):
            PagedPRQuadtree._assemble(pagefile, iter(entries), 8, "lru")
    finally:
        pagefile.close(checkpoint=False)
