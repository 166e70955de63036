"""Page file: creation, checksums, free list, atomic checkpoints,
durable renames."""

import os
import stat

import pytest

from repro.storage.pagefile import (
    MIN_PAGE_SIZE,
    PageCorruptionError,
    PageFile,
    StorageError,
    durable_replace,
)


def _record_fsyncs(monkeypatch, path):
    """Record, per ``os.fsync`` call, whether the descriptor is a
    directory and what ``path`` held at that moment."""
    real = os.fsync
    calls = []

    def fsync(fd):
        calls.append((
            stat.S_ISDIR(os.fstat(fd).st_mode),
            path.read_bytes() if path.exists() else None,
        ))
        return real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


@pytest.fixture
def pf(tmp_path):
    f = PageFile.create(tmp_path / "t.pf", page_size=256)
    yield f
    f.close(checkpoint=False)


class TestCreateOpen:
    def test_create_then_open(self, tmp_path):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=512, meta={"k": 1})
        f.close()
        g = PageFile.open(path)
        assert g.page_size == 512
        assert g.page_count == 0
        assert g.meta == {"k": 1}
        g.close()

    def test_create_refuses_existing(self, tmp_path):
        path = tmp_path / "a.pf"
        PageFile.create(path).close()
        with pytest.raises(FileExistsError):
            PageFile.create(path)

    def test_page_size_floor(self, tmp_path):
        with pytest.raises(ValueError):
            PageFile.create(tmp_path / "a.pf", page_size=MIN_PAGE_SIZE - 1)

    def test_open_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.pf"
        path.write_bytes(b"not a page file at all" * 10)
        with pytest.raises(PageCorruptionError):
            PageFile.open(path)

    def test_open_rejects_header_bitrot(self, tmp_path):
        path = tmp_path / "a.pf"
        PageFile.create(path, meta={"x": 2}).close()
        raw = bytearray(path.read_bytes())
        raw[33] ^= 0xFF  # flip a byte inside the checksummed meta JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(PageCorruptionError):
            PageFile.open(path)


class TestPageIO:
    def test_write_read_round_trip(self, pf):
        pid = pf.allocate()
        pf.write_page(pid, b"hello world")
        payload = pf.read_page(pid)
        assert payload.startswith(b"hello world")
        assert len(payload) == pf.payload_size

    def test_reads_come_from_overlay_before_checkpoint(self, pf):
        pid = pf.allocate()
        pf.write_page(pid, b"v1")
        pf.write_page(pid, b"v2")
        assert pf.read_page(pid).startswith(b"v2")

    def test_payload_too_big_rejected(self, pf):
        pid = pf.allocate()
        with pytest.raises(ValueError):
            pf.write_page(pid, b"x" * (pf.payload_size + 1))

    def test_bad_pid_rejected(self, pf):
        with pytest.raises(ValueError):
            pf.read_page(0)
        with pytest.raises(ValueError):
            pf.write_page(7, b"x")

    def test_page_bitrot_detected(self, tmp_path):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=256)
        pid = f.allocate()
        f.write_page(pid, b"precious")
        f.close()  # checkpoints
        raw = bytearray(path.read_bytes())
        raw[256 + 20] ^= 0xFF  # flip a byte inside page 0's slot
        path.write_bytes(bytes(raw))
        g = PageFile.open(path)
        with pytest.raises(PageCorruptionError):
            g.read_page(pid)
        g.close(checkpoint=False)


class TestFreeList:
    def test_allocate_extends(self, pf):
        assert [pf.allocate() for _ in range(3)] == [0, 1, 2]
        assert pf.page_count == 3
        assert pf.data_page_count == 3

    def test_free_then_reuse_lifo(self, pf):
        pids = [pf.allocate() for _ in range(3)]
        pf.free_page(pids[0])
        pf.free_page(pids[2])
        assert pf.free_page_count == 2
        assert pf.allocate() == pids[2]  # LIFO
        assert pf.allocate() == pids[0]
        assert pf.allocate() == 3  # then extend
        assert pf.free_page_count == 0

    def test_read_freed_page_rejected(self, pf):
        pid = pf.allocate()
        pf.write_page(pid, b"x")
        pf.free_page(pid)
        with pytest.raises(StorageError):
            pf.read_page(pid)

    def test_free_list_survives_checkpoint(self, tmp_path):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=256)
        pids = [f.allocate() for _ in range(4)]
        f.free_page(pids[1])
        f.close()
        g = PageFile.open(path)
        assert g.free_page_count == 1
        assert g.allocate() == pids[1]
        g.close(checkpoint=False)

    def test_iter_data_pages_skips_free(self, pf):
        a = pf.allocate()
        b = pf.allocate()
        pf.write_page(a, b"A")
        pf.write_page(b, b"B")
        pf.free_page(a)
        assert [pid for pid, _ in pf.iter_data_pages()] == [b]


class TestCheckpoint:
    def test_unchecked_writes_are_invisible_on_disk(self, tmp_path):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=256)
        pid = f.allocate()
        f.write_page(pid, b"staged")
        assert f.dirty
        # a second reader sees only the empty checkpoint
        g = PageFile.open(path)
        assert g.page_count == 0
        g.close(checkpoint=False)
        f.close(checkpoint=False)
        h = PageFile.open(path)
        assert h.page_count == 0
        h.close(checkpoint=False)

    def test_checkpoint_publishes(self, tmp_path):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=256)
        pid = f.allocate()
        f.write_page(pid, b"durable")
        f.checkpoint()
        assert not f.dirty
        g = PageFile.open(path)
        assert g.read_page(pid).startswith(b"durable")
        g.close(checkpoint=False)
        f.close(checkpoint=False)

    def test_checkpoint_fsyncs_the_directory_after_the_rename(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=256)
        f.write_page(f.allocate(), b"durable")
        calls = _record_fsyncs(monkeypatch, path)
        f.checkpoint()
        f.close()
        assert [is_dir for is_dir, _ in calls] == [False, True]
        assert calls[-1][1] == path.read_bytes()  # renamed before

    def test_no_temp_litter_after_checkpoint(self, tmp_path):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=256)
        pid = f.allocate()
        f.write_page(pid, b"x")
        f.checkpoint()
        f.close()
        assert os.listdir(tmp_path) == ["a.pf"]

    def test_context_manager_checkpoints_on_clean_exit(self, tmp_path):
        path = tmp_path / "a.pf"
        with PageFile.create(path, page_size=256) as f:
            pid = f.allocate()
            f.write_page(pid, b"ctx")
        g = PageFile.open(path)
        assert g.read_page(pid).startswith(b"ctx")
        g.close(checkpoint=False)

    def test_context_manager_discards_on_error(self, tmp_path):
        path = tmp_path / "a.pf"
        with pytest.raises(RuntimeError):
            with PageFile.create(path, page_size=256) as f:
                pid = f.allocate()
                f.write_page(pid, b"doomed")
                raise RuntimeError("boom")
        g = PageFile.open(path)
        assert g.page_count == 0  # the crash never published
        g.close(checkpoint=False)

    def test_meta_updates_persist(self, tmp_path):
        path = tmp_path / "a.pf"
        f = PageFile.create(path, page_size=256, meta={"points": 0})
        f.update_meta({"points": 42})
        f.checkpoint()
        f.close()
        g = PageFile.open(path)
        assert g.meta["points"] == 42
        g.close(checkpoint=False)

    def test_closed_file_rejects_io(self, tmp_path):
        f = PageFile.create(tmp_path / "a.pf", page_size=256)
        f.close()
        with pytest.raises(StorageError):
            f.allocate()
        with pytest.raises(StorageError):
            f.checkpoint()

    def test_stats_snapshot(self, pf):
        a = pf.allocate()
        pf.allocate()
        pf.free_page(a)
        s = pf.stats()
        assert s.page_count == 2
        assert s.free_pages == 1
        assert s.data_pages == 1
        assert s.page_size == 256


class TestDurableReplace:
    def test_fsyncs_file_then_parent_directory(self, tmp_path, monkeypatch):
        path = tmp_path / "target"
        path.write_bytes(b"old")
        calls = _record_fsyncs(monkeypatch, path)
        durable_replace(path, b"new")
        # the temp file is synced while the old bytes are still in
        # place; the directory after the rename published the new ones
        assert calls == [(False, b"old"), (True, b"new")]
        assert os.listdir(tmp_path) == ["target"]

    def test_failed_rename_keeps_old_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "target"
        path.write_bytes(b"old")

        def replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            durable_replace(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["target"]
