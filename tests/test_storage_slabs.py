"""The page file's slab passes: ``create`` and ``checkpoint`` stream the
image through one reused slab, and ``slabs()`` reads it back the same
way.  The files must be byte for byte those of the whole-image encoder
they replaced (kept here as the reference), at every slab boundary, and
no pass may hold a copy of the file."""

import os
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.storage import PagedPRQuadtree, bulk_load_paged
from repro.storage.page import SlottedPage
from repro.storage.pagefile import (
    NIL,
    PAGE_DATA,
    PageCorruptionError,
    PageFile,
    StorageError,
    _PAGE_HEADER,
    _PAGE_TYPE,
    durable_replace,
    slab_pages,
)
from repro.storage.paged_tree import _LEAF_META, _new_tree_meta
from repro.workloads import UniformPoints


def reference_page(page_type, payload):
    """One page slot as the whole-image encoder wrote it."""
    crc = zlib.crc32(payload, zlib.crc32(_PAGE_TYPE.pack(page_type, 0)))
    return _PAGE_HEADER.pack(crc, page_type, 0) + payload


def reference_create(page_size, meta, payloads):
    header = PageFile._encode_header(
        page_size, len(payloads), NIL, 0, dict(meta)
    )
    size = page_size - _PAGE_HEADER.size
    return header.ljust(page_size, b"\0") + b"".join(
        reference_page(PAGE_DATA, bytes(p).ljust(size, b"\0"))
        for p in payloads
    )


def reference_checkpoint(pagefile):
    """The image ``pagefile.checkpoint()`` must publish: pending pages
    encoded, every other page copied from the file."""
    page_size = pagefile.page_size
    header = PageFile._encode_header(
        page_size, pagefile.page_count, pagefile._free_head,
        pagefile.free_page_count, pagefile._meta,
    )
    old = pagefile.path.read_bytes()
    chunks = [header.ljust(page_size, b"\0")]
    for pid in range(pagefile.page_count):
        pending = pagefile._pending.get(pid)
        if pending is not None:
            chunks.append(reference_page(*pending))
        else:
            chunks.append(old[page_size * (1 + pid):page_size * (2 + pid)])
    return b"".join(chunks)


def _payloads(count, size, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, size + 1, count)
    return [rng.bytes(int(n)) for n in lengths]


def _sizes(page_size):
    slab = slab_pages(page_size)
    return [0, 1, slab - 1, slab, slab + 1]


@pytest.mark.parametrize("page_size", [4096, 1001])
@pytest.mark.parametrize("index", range(5), ids=[
    "empty", "one", "slab-1", "slab", "slab+1",
])
def test_create_matches_the_whole_image_encoder(tmp_path, page_size, index):
    count = _sizes(page_size)[index]
    payloads = _payloads(count, page_size - _PAGE_HEADER.size, count)
    path = tmp_path / "c.pf"
    meta = {"k": count}
    with PageFile.create(
        path, page_size=page_size, meta=meta, payloads=payloads
    ) as pagefile:
        assert pagefile.page_count == count
    assert path.read_bytes() == reference_create(page_size, meta, payloads)


@pytest.mark.parametrize("index", range(5), ids=[
    "empty", "one", "slab-1", "slab", "slab+1",
])
def test_checkpoint_matches_the_whole_image_encoder(tmp_path, index):
    page_size = 4096
    base = _sizes(page_size)[index]
    size = page_size - _PAGE_HEADER.size
    path = tmp_path / "k.pf"
    pagefile = PageFile.create(
        path, page_size=page_size, payloads=_payloads(base, size, 7)
    )
    rng = np.random.default_rng(base)
    live = list(range(base))  # data page ids
    try:
        for _ in range(3):  # churn across several checkpoints
            for i in rng.permutation(len(live))[:3].tolist():
                pagefile.write_page(live[i], rng.bytes(40))
            if len(live) > 2:
                pagefile.free_page(live.pop(int(rng.integers(len(live)))))
            # the free page is reused, then the file grows past its
            # base count, across the next slab boundary
            for _ in range(3):
                live.append(pagefile.allocate())
                pagefile.write_page(live[-1], rng.bytes(99))
            pagefile.free_page(live.pop())
            expected = reference_checkpoint(pagefile)
            pagefile.checkpoint()
            assert path.read_bytes() == expected
    finally:
        pagefile.close(checkpoint=False)
    with PageFile.open(path) as reopened:
        assert reopened.free_page_count >= 1
        scanned = sum(len(rows) for _, rows in reopened.slabs())
        assert scanned == reopened.page_count
        assert [pid for pid, _ in reopened.iter_data_pages()] == sorted(live)


def test_slabs_reuse_one_array(tmp_path):
    page_size = 4096
    count = 2 * slab_pages(page_size) + 3
    path = tmp_path / "s.pf"
    payloads = _payloads(count, page_size - _PAGE_HEADER.size, 3)
    PageFile.create(path, page_size=page_size, payloads=payloads).close()
    raw = path.read_bytes()
    with PageFile.open(path) as pagefile:
        bases = set()
        for start, rows in pagefile.slabs():
            bases.add(rows.__array_interface__["data"][0])
            assert rows.tobytes() == raw[
                page_size * (1 + start):page_size * (1 + start + len(rows))
            ]
    assert len(bases) == 1


def test_bulk_load_peak_memory_below_the_file(tmp_path):
    points = UniformPoints(seed=1987).generate_array(50_000)
    path = tmp_path / "big.pf"
    tracemalloc.start()
    try:
        tree = bulk_load_paged(path, points, capacity=4, page_size=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    try:
        assert tree.leaf_count() > 25_000
        assert peak < path.stat().st_size, (peak, path.stat().st_size)
    finally:
        tree.close()


def test_checkpoint_peak_memory_below_the_file(tmp_path):
    page_size, count = 512, 26_000
    path = tmp_path / "ck.pf"
    with PageFile.create(
        path, page_size=page_size, pages=count,
        fill=lambda out, start: out.fill(start % 251),
    ) as pagefile:
        rng = np.random.default_rng(5)
        for pid in rng.choice(count, 3000, replace=False).tolist():
            pagefile.write_page(pid, rng.bytes(200))
        expected = reference_checkpoint(pagefile)
        tracemalloc.start()
        try:
            pagefile.checkpoint()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert path.read_bytes() == expected
    del expected
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


class TestScanRefusals:
    """A reopen reads slab by slab, and every refusal still names the
    page it found at fault."""

    @pytest.fixture
    def built(self, tmp_path):
        # a 4096-byte-page tree spanning more than one slab
        path = tmp_path / "t.pf"
        points = UniformPoints(seed=8).generate_array(600)
        with bulk_load_paged(path, points, capacity=1) as tree:
            assert tree.pagefile.page_count > slab_pages(4096)
        return path

    @pytest.mark.parametrize("pid", [0, 300])
    def test_bad_checksum_names_the_page(self, built, pid):
        raw = bytearray(built.read_bytes())
        raw[4096 * (1 + pid) + 100] ^= 0xFF
        built.write_bytes(bytes(raw))
        with pytest.raises(
            PageCorruptionError, match=f"checksum mismatch on page {pid} "
        ):
            PagedPRQuadtree.open(built)

    def test_truncation_names_the_page(self, built):
        pagefile = PageFile.open(built)
        try:
            os.truncate(built, 4096 * (1 + 300) + 17)
            with pytest.raises(
                PageCorruptionError, match="page 300 truncated"
            ):
                list(pagefile.slabs())
        finally:
            pagefile.close(checkpoint=False)

    @pytest.mark.parametrize("damage", ["no slots", "tombstone"])
    def test_data_page_without_slot_0(self, tmp_path, damage):
        path = tmp_path / "bad.pf"
        _, meta = _new_tree_meta(4, None, 2, None, 256)
        with PageFile.create(path, page_size=256, meta=meta) as pagefile:
            for quadrant in range(4):
                page = SlottedPage.empty(pagefile.payload_size)
                page.insert(_LEAF_META.pack(1, quadrant))
                pagefile.write_page(pagefile.allocate(), page.payload)
            page = SlottedPage.empty(pagefile.payload_size)
            if damage == "tombstone":
                page.insert(_LEAF_META.pack(1, 0))
                page.delete(0)
            pagefile.write_page(pagefile.allocate(), page.payload)
        with pytest.raises(
            StorageError, match="page 4 has no leaf identity record"
        ):
            PagedPRQuadtree.open(path)

    def test_free_pages_are_skipped(self, built):
        with PagedPRQuadtree.open(built) as tree:
            leaves = tree.leaf_count()
            for point in UniformPoints(seed=8).generate(600)[:300]:
                tree.delete(point)
            assert tree.pagefile.free_page_count
            census = tree.occupancy_census()
        with PagedPRQuadtree.open(built) as tree:
            assert tree.leaf_count() < leaves
            assert tree.occupancy_census() == census
            tree.validate()


class TestDurableReplaceBuffers:
    def test_writes_buffers_in_order(self, tmp_path):
        path = tmp_path / "target"
        durable_replace(
            path, iter([b"ab", memoryview(b"cd"), np.array([101], np.uint8)])
        )
        assert path.read_bytes() == b"abcde"

    def test_failing_source_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "target"
        path.write_bytes(b"old")

        def chunks():
            yield b"new"
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            durable_replace(path, chunks())
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["target"]
