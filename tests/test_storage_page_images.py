"""Page images built as arrays: ``pack_pages`` against the slotted
page's own insert, and the bulk loader's file against the per-page
write path it replaced."""

import struct

import numpy as np
import pytest

from repro.geometry import Point
from repro.storage import PageFile, bulk_load_paged
from repro.storage import bulkload
from repro.storage.page import PageFullError, SlottedPage, pack_pages
from repro.storage.pagefile import PAGE_OVERHEAD
from repro.storage.paged_tree import _LEAF_META
from repro.workloads import UniformPoints


def reference_pages(size, heads, records, starts, stops):
    """One ``SlottedPage.insert`` per record, as the loader once did."""
    out = []
    for i in range(len(starts)):
        page = SlottedPage.empty(size)
        page.insert(heads[i].tobytes())
        for row in records[starts[i]:stops[i]]:
            page.insert(row.tobytes())
        out.append(page.payload)
    return out


def _layout(rng, dim, counts):
    """Heads and point records for leaves of the given occupancies."""
    counts = np.asarray(counts, dtype=np.int64)
    stops = np.cumsum(counts)
    starts = stops - counts
    heads = np.array(
        [
            np.frombuffer(
                _LEAF_META.pack(int(d), int(p)), dtype=np.uint8
            )
            for d, p in zip(
                rng.integers(0, 64, counts.size),
                rng.integers(0, 2 ** 63, counts.size),
            )
        ],
        dtype=np.uint8,
    ).reshape(counts.size, _LEAF_META.size)
    points = rng.random((int(counts.sum()), dim))
    records = points.astype("<f8").view(np.uint8).reshape(-1, 8 * dim)
    return heads, records, starts, stops


@pytest.mark.parametrize("page_size", [128, 4096])
@pytest.mark.parametrize("dim", [1, 3])
def test_pages_match_slotted_inserts(page_size, dim):
    size = page_size - PAGE_OVERHEAD
    fit = (size - 8 - _LEAF_META.size) // (4 + 8 * dim)
    rng = np.random.default_rng([page_size, dim])
    # empty leaves, every occupancy up to a full page, in mixed order
    counts = [0, fit, 1, 0, 0, fit] + list(rng.integers(0, fit + 1, 40))
    heads, records, starts, stops = _layout(rng, dim, counts)
    built = pack_pages(size, heads, records, starts, stops)
    assert built.shape == (len(counts), size)
    assert [row.tobytes() for row in built] == reference_pages(
        size, heads, records, starts, stops
    )


@pytest.mark.parametrize("page_size", [128, 4096])
@pytest.mark.parametrize("dim", [1, 3])
def test_overfull_leaf_raises_like_insert(page_size, dim):
    size = page_size - PAGE_OVERHEAD
    fit = (size - 8 - _LEAF_META.size) // (4 + 8 * dim)
    rng = np.random.default_rng(dim)
    heads, records, starts, stops = _layout(rng, dim, [2, fit + 1, 0])
    with pytest.raises(PageFullError) as expected:
        reference_pages(size, heads, records, starts, stops)
    with pytest.raises(PageFullError) as got:
        pack_pages(size, heads, records, starts, stops)
    assert str(got.value) == str(expected.value)


def test_head_too_big_raises_like_insert():
    heads = np.zeros((1, 200), dtype=np.uint8)
    records = np.zeros((0, 8), dtype=np.uint8)
    starts = stops = np.zeros(1, dtype=np.int64)
    with pytest.raises(PageFullError) as expected:
        reference_pages(120, heads, records, starts, stops)
    with pytest.raises(PageFullError) as got:
        pack_pages(120, heads, records, starts, stops)
    assert str(got.value) == str(expected.value)


def _write_leaves_reference(path, arr, starts, stops, depths, paths,
                            meta, page_size):
    """The loader's former write path: one slotted page per leaf, one
    ``struct.pack`` and insert per point, staged page by page and
    published by a checkpoint."""
    point_struct = struct.Struct(f"<{arr.shape[1]}d")
    with PageFile.create(path, page_size=page_size, meta=meta) as pagefile:
        for i in range(int(starts.size)):
            page = SlottedPage.empty(pagefile.payload_size)
            page.insert(_LEAF_META.pack(int(depths[i]), int(paths[i])))
            for row in arr[starts[i]:stops[i]]:
                page.insert(point_struct.pack(*row))
            pagefile.write_page(pagefile.allocate(), page.payload)


@pytest.mark.parametrize("dim, capacity, max_depth, page_size", [
    (1, 1, None, 512),
    (2, 4, None, 512),
    (3, 2, 2, 4096),    # over-full leaves pinned by max_depth
    (2, 1, 3, 4096),
])
def test_file_matches_the_per_point_write_path(
    tmp_path, monkeypatch, dim, capacity, max_depth, page_size
):
    runs = {}
    real_pack = bulkload.pack_pages
    real_runs = bulkload._leaf_runs

    def spy_runs(codes, *args):
        runs["leaves"] = real_runs(codes, *args)
        return runs["leaves"]

    def spy_pack(size, heads, records, starts, stops):
        runs["arr"] = records.view("<f8")
        return real_pack(size, heads, records, starts, stops)

    monkeypatch.setattr(bulkload, "_leaf_runs", spy_runs)
    monkeypatch.setattr(bulkload, "pack_pages", spy_pack)
    points = UniformPoints(dim=dim, seed=41).generate_array(1500)
    path = tmp_path / "bulk.pf"
    with bulk_load_paged(
        path, points, capacity=capacity, dim=dim, max_depth=max_depth,
        page_size=page_size,
    ) as tree:
        meta = tree.pagefile.meta
    ref = tmp_path / "ref.pf"
    _write_leaves_reference(
        ref, runs["arr"], *runs["leaves"], meta, page_size
    )
    assert path.read_bytes() == ref.read_bytes()


class TestRefusals:
    def test_existing_path_untouched(self, tmp_path):
        path = tmp_path / "dup.pf"
        bulk_load_paged(path, [Point(0.5, 0.5)], capacity=4).close()
        before = path.read_bytes()
        with pytest.raises(FileExistsError):
            bulk_load_paged(path, [Point(0.25, 0.5)], capacity=4)
        with pytest.raises(FileExistsError):
            PageFile.create(path, payloads=[b"x"])
        assert path.read_bytes() == before

    def test_page_size_below_minimum(self, tmp_path):
        path = tmp_path / "small.pf"
        with pytest.raises(ValueError, match="page_size must be >= 128"):
            PageFile.create(path, page_size=127, payloads=[b"x"])
        # a 1-d, capacity-1 bucket fits in 100 bytes; the file does not
        with pytest.raises(ValueError, match="page_size must be >= 128"):
            bulk_load_paged(
                path, [Point(0.5)], capacity=1, dim=1, page_size=100
            )
        assert not path.exists()

    def test_oversized_meta(self, tmp_path):
        path = tmp_path / "meta.pf"
        with pytest.raises(ValueError, match="does not fit"):
            bulk_load_paged(
                path, [Point(0.5, 0.5)], capacity=4, page_size=512,
                meta={"note": "x" * 600},
            )
        assert not path.exists()

    def test_payload_too_long(self, tmp_path):
        path = tmp_path / "long.pf"
        with pytest.raises(ValueError, match="exceeds page payload"):
            PageFile.create(path, page_size=128, payloads=[bytes(121)])
        assert not path.exists()

    def test_leaf_too_full_for_its_page(self, tmp_path):
        path = tmp_path / "full.pf"
        points = UniformPoints(seed=5).generate_array(200)
        with pytest.raises(PageFullError):
            bulk_load_paged(
                path, points, capacity=1, max_depth=1, page_size=512
            )
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp file either


def test_create_publishes_payloads(tmp_path):
    path = tmp_path / "p.pf"
    with PageFile.create(
        path, page_size=128, meta={"k": 1}, payloads=[b"abc", bytes(120)]
    ) as pagefile:
        assert pagefile.page_count == 2
        assert pagefile.meta == {"k": 1}
        assert pagefile.read_page(0) == b"abc".ljust(120, b"\0")
        assert pagefile.read_page(1) == bytes(120)
