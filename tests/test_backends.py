"""Tests for the heartbeat storage backends (memory, file, shared memory)."""

from __future__ import annotations

import pytest

from repro.core.backends import (
    BackendSnapshot,
    FileBackend,
    MemoryBackend,
    SharedMemoryBackend,
)
from repro.core.backends.file import read_heartbeat_log, tail_heartbeat_log
from repro.core.backends.arena import Arena
from repro.core.backends.shared_memory import SharedMemoryReader
from repro.endpoints import open_arena
from repro.core.errors import BackendError, BackendFormatError
from repro.core.heartbeat import Heartbeat
from repro.core.record import RECORD_DTYPE


def write_beats(backend, count: int, *, dt: float = 0.5) -> None:
    for i in range(count):
        backend.append(i, i * dt, i % 3, 42)


class TestMemoryBackend:
    def test_snapshot_contents(self):
        backend = MemoryBackend(capacity=16)
        write_beats(backend, 5)
        backend.set_targets(1.0, 2.0)
        backend.set_default_window(7)
        snap = backend.snapshot()
        assert isinstance(snap, BackendSnapshot)
        assert snap.total_beats == 5
        assert snap.retained == 5
        assert snap.target_min == 1.0 and snap.target_max == 2.0
        assert snap.default_window == 7
        assert list(snap.records["beat"]) == [0, 1, 2, 3, 4]

    def test_snapshot_last_n(self):
        backend = MemoryBackend(capacity=16)
        write_beats(backend, 10)
        snap = backend.snapshot(3)
        assert list(snap.records["beat"]) == [7, 8, 9]
        assert snap.total_beats == 10

    def test_eviction_beyond_capacity(self):
        backend = MemoryBackend(capacity=4)
        write_beats(backend, 9)
        snap = backend.snapshot()
        assert snap.retained == 4
        assert list(snap.records["beat"]) == [5, 6, 7, 8]

    def test_as_records(self):
        backend = MemoryBackend(capacity=8)
        write_beats(backend, 2)
        records = backend.snapshot().as_records()
        assert records[0].thread_id == 42
        assert records[1].timestamp == pytest.approx(0.5)


class TestFileBackend:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "hb.log"
        backend = FileBackend(path)
        write_beats(backend, 6)
        backend.set_default_window(9)
        backend.set_targets(3.0, 4.5)
        window, tmin, tmax, records = read_heartbeat_log(path)
        assert window == 9
        assert (tmin, tmax) == (3.0, 4.5)
        assert records.dtype == RECORD_DTYPE
        assert list(records["beat"]) == list(range(6))
        assert list(records["thread_id"]) == [42] * 6
        backend.close()

    def test_snapshot_clips_to_requested_n(self, tmp_path):
        backend = FileBackend(tmp_path / "hb.log")
        write_beats(backend, 10)
        assert list(backend.snapshot(4).records["beat"]) == [6, 7, 8, 9]

    def test_header_rewrite_preserves_records(self, tmp_path):
        path = tmp_path / "hb.log"
        backend = FileBackend(path)
        write_beats(backend, 3)
        backend.set_targets(1.0, 2.0)
        write_beats_after = [(10, 99.0, 0, 1)]
        for rec in write_beats_after:
            backend.append(*rec)
        backend.flush()  # appends are buffered; drain before the direct read
        _, tmin, _, records = read_heartbeat_log(path)
        assert tmin == 1.0
        assert len(records) == 4

    def test_closed_backend_rejects_appends(self, tmp_path):
        backend = FileBackend(tmp_path / "hb.log")
        backend.close()
        with pytest.raises(BackendError):
            backend.append(0, 0.0, 0, 0)

    def test_timestamps_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "hb.log"
        backend = FileBackend(path)
        ts = [0.1, 0.30000000000000004, 1e-9, 123456.789012345]
        for i, t in enumerate(ts):
            backend.append(i, t, 0, 0)
        backend.flush()
        _, _, _, records = read_heartbeat_log(path)
        assert list(records["timestamp"]) == ts

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("this is not a heartbeat log\n")
        with pytest.raises(BackendFormatError):
            read_heartbeat_log(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BackendError):
            read_heartbeat_log(tmp_path / "absent.log")

    @pytest.mark.parametrize("record", [(1, 2.0, 1 << 70, 1), (1, 2.0, 0, -(1 << 64))], ids=["tag", "thread_id"])
    def test_a_value_no_record_holds_is_never_written(self, tmp_path, record):
        path = tmp_path / "hb.log"
        backend = FileBackend(path, buffered=False)
        backend.append(0, 1.0, 5, 1)
        with pytest.raises(OverflowError):
            backend.append(*record)
        backend.append(1, 2.0, 6, 1)
        _, _, _, records = read_heartbeat_log(path)
        assert list(records["tag"]) == [5, 6]
        assert backend.version()[0] == 2
        backend.close()

    def test_an_out_of_range_line_is_a_format_error(self, tmp_path):
        """A log already holding such a line (a writer without the check)
        fails as malformed, not with a bare ``OverflowError``."""
        path = tmp_path / "poisoned.log"
        backend = FileBackend(path, buffered=False)
        backend.append(0, 1.0, 0, 1)
        backend.close()
        with open(path, "ab") as fh:
            fh.write(b"1 2.0 %d 1\n" % (1 << 70))
        with pytest.raises(BackendFormatError):
            read_heartbeat_log(path)
        with pytest.raises(BackendFormatError):
            tail_heartbeat_log(path)


class TestSharedMemoryBackend:
    def test_writer_reader_roundtrip(self):
        backend = SharedMemoryBackend(capacity=32)
        try:
            write_beats(backend, 12)
            backend.set_targets(5.0, 6.0)
            backend.set_default_window(8)
            reader = SharedMemoryReader(backend.name)
            snap = reader.snapshot()
            assert snap.total_beats == 12
            assert list(snap.records["beat"]) == list(range(12))
            assert snap.target_min == 5.0 and snap.target_max == 6.0
            assert snap.default_window == 8
            reader.close()
        finally:
            backend.close()

    def test_wraparound_visible_to_reader(self):
        backend = SharedMemoryBackend(capacity=8)
        try:
            write_beats(backend, 20)
            with SharedMemoryReader(backend.name) as reader:
                snap = reader.snapshot()
                assert snap.total_beats == 20
                assert list(snap.records["beat"]) == list(range(12, 20))
        finally:
            backend.close()

    def test_reader_rejects_non_heartbeat_segment(self):
        from multiprocessing import shared_memory

        foreign = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with pytest.raises(BackendFormatError):
                SharedMemoryReader(foreign.name)
        finally:
            foreign.close()
            foreign.unlink()

    def test_reader_rejects_missing_segment(self):
        with pytest.raises(BackendFormatError):
            SharedMemoryReader("definitely-not-a-real-segment-name")

    def test_closed_backend_rejects_use(self):
        backend = SharedMemoryBackend(capacity=8)
        backend.close()
        with pytest.raises(BackendError):
            backend.append(0, 0.0, 0, 0)
        with pytest.raises(BackendError):
            backend.snapshot()

    @pytest.mark.parametrize("side", ["writer", "reader"])
    def test_close_in_a_finally_surfaces_the_read_error(self, side):
        """A failed read's traceback still holds the ring's views: close()
        must release them, not raise ``BufferError`` in place of the read's
        own error."""
        backend = SharedMemoryBackend(capacity=8)
        reader = SharedMemoryReader(backend.name)
        backend.words[backend.sequence_at] = backend.sequence + 1  # a writer died mid-write
        target, other = (backend, reader) if side == "writer" else (reader, backend)
        try:
            with pytest.raises(BackendError, match="mid-write"):
                try:
                    target.snapshot()
                finally:
                    target.close()
        finally:
            other.close()

    def test_an_arena_observer_reads_the_segment_as_a_one_row_fleet(self):
        """One format: ``shm://NAME`` is the ``shm-arena://NAME`` slab with one row."""
        backend = SharedMemoryBackend(capacity=8)
        try:
            write_beats(backend, 11)
            backend.set_targets(2.0, 3.0)
            backend.set_default_window(4)
            arena = open_arena(f"shm-arena://{backend.name}")
            try:
                assert (arena.streams, arena.depth, arena.row_names()) == (1, 8, [""])
                fleet = arena.snapshot_since_all()
                assert fleet.rows == 1
                delta, cursor = fleet.delta_for(0)
                assert (delta.total_beats, delta.retained, cursor.total) == (11, 8, 11)
                assert list(delta.records["beat"]) == list(range(3, 11))
                assert (delta.target_min, delta.target_max, delta.default_window) == (2.0, 3.0, 4)
                write_beats(backend, 2)
                assert arena.snapshot_since_all(fleet.cursors).new.tolist() == [2]
            finally:
                arena.close()
        finally:
            backend.close()

    def test_reader_refuses_a_fleet_slab(self):
        arena = Arena.create(streams=2, depth=8)
        try:
            arena.allocate("a")
            with pytest.raises(BackendFormatError, match="2 rows"):
                SharedMemoryReader(arena.name)
        finally:
            arena.close()

    def test_writer_pid_recorded(self):
        import os

        backend = SharedMemoryBackend(capacity=8)
        try:
            with SharedMemoryReader(backend.name) as reader:
                assert reader.writer_pid() == os.getpid()
        finally:
            backend.close()


class TestSharedMemoryCleanup:
    """Segment lifetime regressions: repeated cycles must not leak or warn."""

    def test_repeated_open_close_cycles_reuse_name(self):
        for _ in range(20):
            backend = SharedMemoryBackend(name="hb-cycle-test", capacity=8)
            write_beats(backend, 4)
            with SharedMemoryReader(backend.name) as reader:
                assert reader.snapshot().total_beats == 4
            backend.close()
        # The final close unlinked the segment; a fresh attach must fail.
        with pytest.raises(BackendFormatError):
            SharedMemoryReader("hb-cycle-test")

    def test_close_survives_external_unlink(self):
        from multiprocessing import shared_memory

        backend = SharedMemoryBackend(capacity=8)
        # Simulate another process (or a crash handler) unlinking first.
        foreign = shared_memory.SharedMemory(name=backend.name, create=False)
        foreign.unlink()
        foreign.close()
        backend.close()  # must not raise despite the missing segment
        assert backend._closed

    def test_no_resource_tracker_leak_warnings(self):
        """Open/close cycles in a subprocess emit no tracker complaints.

        Python's resource tracker prints "leaked shared_memory objects"
        warnings at interpreter exit for segments that were registered but
        never unlinked — which is exactly what mis-ordered unregister/close
        logic produces.  Run the cycles in a clean interpreter and assert a
        silent exit.
        """
        import subprocess
        import sys

        script = (
            "from repro.core.backends.shared_memory import SharedMemoryBackend, SharedMemoryReader\n"
            "for i in range(10):\n"
            "    w = SharedMemoryBackend(capacity=8)\n"
            "    w.append(0, 0.0, 0, 0)\n"
            "    r = SharedMemoryReader(w.name)\n"
            "    r.snapshot()\n"
            "    r.close()\n"
            "    w.close()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked" not in result.stderr
        assert "resource_tracker" not in result.stderr
        assert "Traceback" not in result.stderr

    def test_no_tracker_errors_with_cross_process_reader(self):
        """A reader in another process must not disturb the writer's tracker.

        Parent and child share one resource-tracker process; a reader that
        registers its attachment and then deregisters it would clobber the
        writer's entry in the shared tracker cache and turn the writer's
        unlink into a tracker KeyError (printed on the shared stderr).
        """
        import subprocess
        import sys

        script = (
            "import multiprocessing as mp\n"
            "from repro.core.backends.shared_memory import SharedMemoryBackend, SharedMemoryReader\n"
            "def worker(name_q, done_q):\n"
            "    w = SharedMemoryBackend(capacity=8)\n"
            "    w.append(0, 0.0, 0, 0)\n"
            "    name_q.put(w.name)\n"
            "    done_q.get()\n"
            "    w.close()\n"
            "if __name__ == '__main__':\n"
            "    name_q, done_q = mp.Queue(), mp.Queue()\n"
            "    proc = mp.Process(target=worker, args=(name_q, done_q))\n"
            "    proc.start()\n"
            "    reader = SharedMemoryReader(name_q.get())\n"
            "    assert reader.snapshot().total_beats == 1\n"
            "    reader.close()\n"
            "    done_q.put(True)\n"
            "    proc.join()\n"
            "    assert proc.exitcode == 0\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "KeyError" not in result.stderr
        assert "Traceback" not in result.stderr
        assert "leaked" not in result.stderr

    def test_reader_close_keeps_writer_segment_alive(self):
        backend = SharedMemoryBackend(capacity=8)
        try:
            write_beats(backend, 3)
            reader = SharedMemoryReader(backend.name)
            reader.close()
            # A second attachment still works: the reader's close did not
            # unlink (or deregister-and-destroy) the writer's segment.
            with SharedMemoryReader(backend.name) as again:
                assert again.snapshot().total_beats == 3
        finally:
            backend.close()


class TestBackendsBehindHeartbeat:
    @pytest.mark.parametrize("backend_kind", ["memory", "file", "shared_memory"])
    def test_rate_identical_across_backends(self, backend_kind, tmp_path):
        from repro.clock import ManualClock

        clock = ManualClock()
        if backend_kind == "memory":
            backend = MemoryBackend(256)
        elif backend_kind == "file":
            backend = FileBackend(tmp_path / "hb.log")
        else:
            backend = SharedMemoryBackend(capacity=256)
        hb = Heartbeat(window=10, clock=clock, backend=backend)
        try:
            for i in range(30):
                clock.time = i * 0.1
                hb.heartbeat(tag=i)
            assert hb.current_rate() == pytest.approx(10.0)
            snap = hb.backend.snapshot(5)
            assert list(snap.records["tag"]) == [25, 26, 27, 28, 29]
        finally:
            hb.finalize()
