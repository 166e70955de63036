"""Write-ahead log: roundtrip, torn tails, generations, rotation."""

import os
import stat
import struct

import pytest

from repro.geometry import Point
from repro.service.wal import (
    OP_DELETE,
    OP_INSERT,
    WalError,
    WalRecord,
    WriteAheadLog,
)

_POINTS = [Point(0.1, 0.2), Point(0.3, 0.4), Point(0.5, 0.6)]


def _populate(path, generation=0, points=_POINTS):
    wal = WriteAheadLog.create(path, generation, 2)
    for i, p in enumerate(points):
        wal.append(OP_INSERT if i % 2 == 0 else OP_DELETE, p)
    wal.sync()
    wal.close()
    return path


class TestRoundtrip:
    def test_append_sync_reopen_replays(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        wal, records = WriteAheadLog.open(path)
        try:
            assert [r.point for r in records] == _POINTS
            assert [r.op for r in records] == [OP_INSERT, OP_DELETE, OP_INSERT]
            assert [r.op_name for r in records] == \
                ["insert", "delete", "insert"]
            assert wal.record_count == 3
            assert wal.generation == 0
            assert wal.dim == 2
        finally:
            wal.close()

    def test_append_after_reopen_extends(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        wal, _ = WriteAheadLog.open(path)
        wal.append(OP_INSERT, Point(0.9, 0.9))
        wal.close()  # close syncs
        _, records = WriteAheadLog.open(path)
        assert len(records) == 4
        assert records[-1].point == Point(0.9, 0.9)

    def test_unsynced_counter(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "log.wal", 0, 2)
        try:
            wal.append(OP_INSERT, Point(0.1, 0.1))
            wal.append(OP_INSERT, Point(0.2, 0.2))
            assert wal.unsynced == 2
            assert wal.sync() == 2
            assert wal.unsynced == 0
            assert wal.sync() == 0  # nothing new: no-op
        finally:
            wal.close()

    def test_higher_dim_points(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "log.wal", 0, 3)
        wal.append(OP_INSERT, Point(0.1, 0.2, 0.3))
        wal.close()
        _, records = WriteAheadLog.open(tmp_path / "log.wal")
        assert records == [WalRecord(OP_INSERT, Point(0.1, 0.2, 0.3))]


class TestTornTail:
    """A crash mid-write leaves a torn final record — recovery drops
    exactly that record and keeps everything before it."""

    @pytest.mark.parametrize("chop", [1, 5, 16])
    def test_truncated_final_record_is_dropped(self, tmp_path, chop):
        path = _populate(tmp_path / "log.wal")
        full = path.read_bytes()
        path.write_bytes(full[:-chop])
        wal, records = WriteAheadLog.open(path)
        try:
            assert len(records) == 2  # third record torn away
            assert [r.point for r in records] == _POINTS[:2]
        finally:
            wal.close()

    def test_truncation_resets_to_clean_boundary(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        full_len = len(path.read_bytes())
        path.write_bytes(path.read_bytes()[:-1])
        wal, _ = WriteAheadLog.open(path)
        wal.append(OP_INSERT, Point(0.7, 0.7))
        wal.close()
        # the file holds exactly 3 intact records again, no junk between
        assert len(path.read_bytes()) == full_len
        _, records = WriteAheadLog.open(path)
        assert len(records) == 3
        assert records[-1].point == Point(0.7, 0.7)

    def test_corrupt_crc_drops_tail(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a bit in the last record's payload
        path.write_bytes(bytes(raw))
        _, records = WriteAheadLog.open(path)
        assert len(records) == 2

    def test_corrupt_mid_record_drops_everything_after(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        raw = bytearray(path.read_bytes())
        # header is 8+8+2+4 = 22 bytes; corrupt the first record's payload
        raw[22 + 8 + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        _, records = WriteAheadLog.open(path)
        assert records == []


class TestHeader:
    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(b"NOTAWAL0" + b"\x00" * 20)
        with pytest.raises(WalError):
            WriteAheadLog.open(path)

    def test_truncated_header_refused(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(b"RPRO")
        with pytest.raises(WalError):
            WriteAheadLog.open(path)

    def test_header_crc_mismatch_refused(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0xFF  # corrupt the generation field
        path.write_bytes(bytes(raw))
        with pytest.raises(WalError):
            WriteAheadLog.open(path)

    def test_generation_survives_roundtrip(self, tmp_path):
        path = _populate(tmp_path / "log.wal", generation=41)
        wal, _ = WriteAheadLog.open(path)
        try:
            assert wal.generation == 41
        finally:
            wal.close()


class TestRotation:
    def test_create_over_existing_resets(self, tmp_path):
        path = _populate(tmp_path / "log.wal", generation=3)
        wal = WriteAheadLog.create(path, 4, 2)  # rotation: replace in place
        wal.close()
        wal, records = WriteAheadLog.open(path)
        try:
            assert records == []
            assert wal.generation == 4
        finally:
            wal.close()

    def test_rotation_fsyncs_the_directory(self, tmp_path, monkeypatch):
        path = _populate(tmp_path / "log.wal", generation=3)
        real = os.fsync
        dirs = []

        def fsync(fd):
            dirs.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        WriteAheadLog.create(path, 4, 2).close()
        assert dirs == [False, True]  # the new log, then its rename

    def test_no_tmp_litter_on_create(self, tmp_path):
        _populate(tmp_path / "log.wal")
        assert [p.name for p in tmp_path.iterdir()] == ["log.wal"]


class TestTruncate:
    """How a failed commit takes back records it never applied."""

    def test_truncate_drops_the_tail_and_appends_continue(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        wal, _ = WriteAheadLog.open(path)
        wal.append(OP_INSERT, Point(0.9, 0.9))  # logged, never synced
        wal.truncate(1)
        assert (wal.record_count, wal.unsynced) == (1, 0)
        wal.append(OP_DELETE, Point(0.8, 0.8))
        wal.close()
        wal, records = WriteAheadLog.open(path)
        wal.close()
        assert records == [
            WalRecord(OP_INSERT, _POINTS[0]),
            WalRecord(OP_DELETE, Point(0.8, 0.8)),
        ]

    def test_truncate_past_the_end_is_a_no_op(self, tmp_path):
        path = _populate(tmp_path / "log.wal")
        size = path.stat().st_size
        wal, _ = WriteAheadLog.open(path)
        wal.truncate(3)
        wal.close()
        assert path.stat().st_size == size

    def test_close_without_sync_skips_the_fsync(self, tmp_path, monkeypatch):
        wal = WriteAheadLog.create(tmp_path / "log.wal", 0, 2)
        wal.append(OP_INSERT, Point(0.1, 0.1))

        def fsync(fd):
            raise AssertionError("close(sync=False) must not fsync")

        monkeypatch.setattr(os, "fsync", fsync)
        wal.close(sync=False)


class TestValidation:
    def test_bad_op_refused(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "log.wal", 0, 2)
        try:
            with pytest.raises(ValueError):
                wal.append(9, Point(0.1, 0.1))
        finally:
            wal.close()

    def test_dim_mismatch_refused(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "log.wal", 0, 2)
        try:
            with pytest.raises(ValueError):
                wal.append(OP_INSERT, Point(0.1, 0.2, 0.3))
        finally:
            wal.close()

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "log.wal", 0, 2)
        wal.close()
        with pytest.raises(WalError):
            wal.append(OP_INSERT, Point(0.1, 0.1))

    def test_create_validates_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog.create(tmp_path / "a.wal", -1, 2)
        with pytest.raises(ValueError):
            WriteAheadLog.create(tmp_path / "b.wal", 0, 0)
