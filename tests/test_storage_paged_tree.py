"""PagedPRQuadtree: bit-identical censuses, durability, queries."""

import pytest

from repro.geometry import Point, Rect
from repro.quadtree import PRQuadtree
from repro.storage import (
    PagedPRQuadtree,
    StorageError,
    required_page_size,
)
from repro.workloads import GaussianPoints, UniformPoints


def _coords(points):
    return sorted(p.coords for p in points)


def _build_pair(tmp_path, capacity, points, **kwargs):
    mem = PRQuadtree(capacity=capacity)
    mem.insert_many(points)
    paged = PagedPRQuadtree.create(
        tmp_path / f"m{capacity}.pf", capacity=capacity, **kwargs
    )
    paged.insert_many(points)
    return mem, paged


class TestParity:
    @pytest.mark.parametrize("capacity", [1, 4, 8])
    def test_census_bit_identical(self, tmp_path, capacity):
        points = UniformPoints(seed=1987).generate(1000)
        mem, paged = _build_pair(tmp_path, capacity, points, pool_pages=16)
        try:
            assert paged.occupancy_census() == mem.occupancy_census()
            assert paged.depth_census() == mem.depth_census()
            assert len(paged) == len(mem)
            assert paged.leaf_count() == mem.leaf_count()
            assert paged.node_count() == mem.node_count()
            assert paged.height() == mem.height()
        finally:
            paged.close()

    def test_census_bit_identical_gaussian(self, tmp_path):
        points = GaussianPoints(seed=7).generate(500)
        mem, paged = _build_pair(tmp_path, 4, points, pool_pages=8)
        try:
            assert paged.occupancy_census() == mem.occupancy_census()
            assert paged.depth_census() == mem.depth_census()
        finally:
            paged.close()

    def test_query_parity(self, tmp_path):
        points = UniformPoints(seed=11).generate(300)
        mem, paged = _build_pair(tmp_path, 4, points, pool_pages=8)
        try:
            q = Point(0.31, 0.62)
            assert paged.nearest(q, 5) == mem.nearest(q, 5)
            box = Rect(Point(0.2, 0.1), Point(0.7, 0.5))
            assert _coords(paged.range_search(box)) == _coords(
                mem.range_search(box)
            )
            for p in points[:20]:
                assert paged.contains(p)
            assert not paged.contains(Point(0.123456, 0.654321))
            assert _coords(paged.points()) == _coords(mem.points())
        finally:
            paged.close()

    def test_duplicates_rejected(self, tmp_path):
        paged = PagedPRQuadtree.create(tmp_path / "d.pf", capacity=2)
        try:
            p = Point(0.5, 0.5)
            assert paged.insert(p)
            assert not paged.insert(p)
            assert len(paged) == 1
        finally:
            paged.close()

    def test_out_of_bounds_rejected(self, tmp_path):
        paged = PagedPRQuadtree.create(tmp_path / "b.pf", capacity=2)
        try:
            with pytest.raises(ValueError):
                paged.insert(Point(1.5, 0.5))
            assert not paged.delete(Point(1.5, 0.5))
            assert not paged.contains(Point(-0.1, 0.5))
        finally:
            paged.close()


class TestDeleteAndMerge:
    def test_delete_merges_like_memory_tree(self, tmp_path):
        points = UniformPoints(seed=3).generate(400)
        mem, paged = _build_pair(tmp_path, 4, points, pool_pages=8)
        try:
            for p in points[:250]:
                assert paged.delete(p) == mem.delete(p)
            paged.validate()
            mem.validate()
            assert paged.occupancy_census() == mem.occupancy_census()
            assert paged.merge_count > 0
        finally:
            paged.close()

    def test_delete_everything_frees_pages(self, tmp_path):
        points = UniformPoints(seed=5).generate(100)
        paged = PagedPRQuadtree.create(tmp_path / "e.pf", capacity=2)
        try:
            paged.insert_many(points)
            for p in points:
                assert paged.delete(p)
            assert len(paged) == 0
            paged.validate()
            # one (empty) root leaf page remains
            assert paged.pagefile.data_page_count == 1
        finally:
            paged.close()

    def test_delete_absent_returns_false(self, tmp_path):
        paged = PagedPRQuadtree.create(tmp_path / "a.pf", capacity=2)
        try:
            paged.insert(Point(0.25, 0.25))
            assert not paged.delete(Point(0.75, 0.75))
            assert len(paged) == 1
        finally:
            paged.close()


class TestDurability:
    def test_reopen_round_trip(self, tmp_path):
        points = UniformPoints(seed=1987).generate(500)
        mem, paged = _build_pair(tmp_path, 4, points, pool_pages=16)
        path = paged.pagefile.path
        paged.close()
        with PagedPRQuadtree.open(path, pool_pages=8) as reopened:
            reopened.validate()
            assert reopened.capacity == 4
            assert len(reopened) == len(mem)
            assert reopened.occupancy_census() == mem.occupancy_census()
            assert reopened.depth_census() == mem.depth_census()
            assert _coords(reopened.points()) == _coords(mem.points())

    def test_mutations_survive_reopen(self, tmp_path):
        points = UniformPoints(seed=2).generate(200)
        paged = PagedPRQuadtree.create(tmp_path / "m.pf", capacity=4)
        paged.insert_many(points[:150])
        paged.close()
        with PagedPRQuadtree.open(tmp_path / "m.pf") as t:
            t.insert_many(points[150:])
            for p in points[:30]:
                t.delete(p)
        mem = PRQuadtree(capacity=4)
        mem.insert_many(points)
        for p in points[:30]:
            mem.delete(p)
        with PagedPRQuadtree.open(tmp_path / "m.pf") as t:
            assert t.occupancy_census() == mem.occupancy_census()

    def test_crash_before_checkpoint_loses_nothing_durable(self, tmp_path):
        points = UniformPoints(seed=4).generate(120)
        paged = PagedPRQuadtree.create(tmp_path / "c.pf", capacity=4)
        paged.insert_many(points[:100])
        paged.checkpoint()
        paged.insert_many(points[100:])  # never checkpointed
        # simulate a crash: drop the handles without checkpointing
        paged.pagefile.close(checkpoint=False)
        with PagedPRQuadtree.open(tmp_path / "c.pf") as t:
            t.validate()
            assert len(t) == 100

    def test_open_rejects_foreign_file(self, tmp_path):
        from repro.storage import PageFile

        PageFile.create(tmp_path / "f.pf", meta={"format": "other"}).close()
        with pytest.raises(StorageError):
            PagedPRQuadtree.open(tmp_path / "f.pf")

    def test_empty_tree_round_trips(self, tmp_path):
        PagedPRQuadtree.create(tmp_path / "z.pf", capacity=4).close()
        with PagedPRQuadtree.open(tmp_path / "z.pf") as t:
            assert len(t) == 0
            assert t.leaf_count() == 1
            t.validate()


def _write_leaf_pages(path, leaves, dim=2):
    """A page file whose leaf pages claim the given (depth, path)s."""
    from repro.storage import PageFile, SlottedPage
    from repro.storage.paged_tree import (
        _LEAF_META, FORMAT_NAME, FORMAT_VERSION,
    )

    meta = {
        "format": FORMAT_NAME, "version": FORMAT_VERSION, "capacity": 4,
        "dim": dim, "bounds": {"lo": [0.0] * dim, "hi": [1.0] * dim},
        "max_depth": None, "points": 0,
    }
    with PageFile.create(path, meta=meta) as pagefile:
        for depth, quad_path in leaves:
            page = SlottedPage.empty(pagefile.payload_size)
            page.insert(_LEAF_META.pack(depth, quad_path))
            pagefile.write_page(pagefile.allocate(), page.payload)


class TestOpen:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_rect_per_node(self, tmp_path, monkeypatch, dim):
        from repro.storage import bulk_load_paged

        points = UniformPoints(dim=dim, seed=11).generate(3000)
        path = tmp_path / "o.pf"
        with bulk_load_paged(path, points, capacity=4, dim=dim) as tree:
            census = tree.occupancy_census()
        calls = []
        child = Rect.child

        def counted(self, index):
            calls.append(index)
            return child(self, index)

        monkeypatch.setattr(Rect, "child", counted)
        with PagedPRQuadtree.open(path) as reopened:
            leaves = reopened.leaf_count()
            internal, rest = divmod(leaves - 1, (1 << dim) - 1)
            assert rest == 0
            # one Rect.child per non-root node, none per leaf path step
            assert len(calls) == leaves + internal - 1
            assert reopened.node_count() == leaves + internal
            monkeypatch.undo()
            reopened.validate()
            assert reopened.occupancy_census() == census

    @pytest.mark.parametrize(
        "leaves, message",
        [
            ([(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)], "depth-0 leaf"),
            ([(1, 0), (1, 1), (1, 2), (1, 3), (1, 2)], "same block"),
            ([(1, 0), (1, 1), (1, 2), (1, 3), (2, 1)], "shadows"),
            ([(1, 0), (1, 1), (1, 2)], "missing leaf page"),
        ],
    )
    def test_corrupt_directory_refused(self, tmp_path, leaves, message):
        path = tmp_path / "bad.pf"
        _write_leaf_pages(path, leaves)
        with pytest.raises(StorageError, match=message):
            PagedPRQuadtree.open(path)


class TestConfiguration:
    def test_page_size_must_fit_bucket(self, tmp_path):
        with pytest.raises(ValueError):
            PagedPRQuadtree.create(
                tmp_path / "s.pf", capacity=64, page_size=256
            )
        # the advertised floor is sufficient
        size = max(128, required_page_size(64, 2))
        PagedPRQuadtree.create(
            tmp_path / "s2.pf", capacity=64, page_size=size
        ).close()

    def test_capacity_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PagedPRQuadtree.create(tmp_path / "v.pf", capacity=0)

    def test_max_depth_pins_like_memory_tree(self, tmp_path):
        points = UniformPoints(seed=9).generate(300)
        mem = PRQuadtree(capacity=1, max_depth=3)
        mem.insert_many(points)
        paged = PagedPRQuadtree.create(
            tmp_path / "p.pf", capacity=1, max_depth=3,
        )
        try:
            paged.insert_many(points)
            assert paged.occupancy_census() == mem.occupancy_census()
            assert paged.height() <= 3
            paged.validate()
        finally:
            paged.close()

    def test_stats_shape(self, tmp_path):
        paged = PagedPRQuadtree.create(tmp_path / "st.pf", capacity=4)
        try:
            paged.insert_many(UniformPoints(seed=1).generate(50))
            s = paged.stats()
            assert s["points"] == 50
            assert s["leaf_pages"] == paged.leaf_count()
            assert s["splits"] == paged.split_count
            assert set(s["pool"]) == {
                "hits", "misses", "evictions", "writebacks",
            }
        finally:
            paged.close()

    def test_small_pool_still_correct(self, tmp_path):
        points = UniformPoints(seed=12).generate(400)
        mem, paged = _build_pair(tmp_path, 1, points, pool_pages=4)
        try:
            assert paged.occupancy_census() == mem.occupancy_census()
            assert paged.pool.evictions > 0
        finally:
            paged.close()
