"""Delta-snapshot (``snapshot_since``) contract and edge-case tests.

The contract, shared by every backend: replaying a stream of deltas —
replace on ``resync``, append otherwise, trim to ``retained`` — always
reconstructs exactly what ``snapshot()`` would return at that instant, and
``version()`` equality always implies an empty delta.  One parametrized
test enforces it over the memory, file, shared-memory, arena-row,
network-exporter and network-collector backends; the rest of the module
covers the backend-specific edges (ring wraparound, a writer lapping a slow
reader, file truncation and rotation, cross-process shared-memory cursors)
and the incremental observers built on top.
"""

from __future__ import annotations

import dataclasses
import os
import time
from functools import partial

import numpy as np
import pytest
import waiting
from model import StreamModel

from repro.clock import ManualClock
from repro.core.aggregator import HeartbeatAggregator, classify_codes
from repro.core.backends import (
    FileBackend,
    MemoryBackend,
    SharedMemoryBackend,
    SnapshotCursor,
)
from repro.core.backends.base import delta_from_snapshot
from repro.core.backends.file import FileReader, tail_heartbeat_log
from repro.core.backends.shared_memory import SharedMemoryReader
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus, HeartbeatMonitor
from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, NetworkBackend


wait_until = partial(waiting.wait_until, timeout=10.0)


class _Replay:
    """A delta consumer implementing the documented replay rule."""

    def __init__(self) -> None:
        self.records = np.empty(0, dtype=RECORD_DTYPE)
        self.cursor: SnapshotCursor | None = None

    def consume(self, delta) -> None:
        if delta.resync:
            self.records = delta.records
        else:
            self.records = np.concatenate((self.records, delta.records))
        keep = min(len(self.records), delta.retained)
        self.records = self.records[len(self.records) - keep :]


class _CollectorHarness:
    """A collector-backed stream driven through a real TCP producer."""

    def __init__(self) -> None:
        self.collector = HeartbeatCollector(default_capacity=16)
        self.exporter = NetworkBackend(
            self.collector.endpoint, stream="contract", capacity=16
        )
        self.sent = 0
        self.targets = (0.0, 0.0)
        # Stands in for the stream until its first record registers it: the
        # producer connects lazily, so an untouched stream is simply "no
        # beats yet" to an observer.
        self._empty = MemoryBackend(16)

    def append(self, beat, timestamp, tag, thread_id) -> None:
        # A closed-loop producer, as the ledger's wire-tree one: the
        # exporter's ring is its send backlog, so a burst longer than it
        # waits for the sender instead of dropping beats the collector's
        # row is meant to lap.
        assert wait_until(
            lambda: self.exporter.stats()["pending_records"] < self.exporter.capacity, interval=0.0005
        ), "the exporter's sender never caught up"
        self.exporter.append(beat, timestamp, tag, thread_id)
        self.sent += 1

    def set_targets(self, tmin, tmax) -> None:
        self.exporter.set_targets(tmin, tmax)
        self.targets = (float(tmin), float(tmax))
        self._empty.set_targets(tmin, tmax)

    def _registered(self) -> bool:
        return "contract" in self.collector.stream_ids()

    def _settle(self) -> None:
        """Wait until everything sent (records and targets) has landed."""
        if self.sent == 0 and not self._registered():
            return

        def landed() -> bool:
            if not self._registered():
                return False
            snap = self.collector.snapshot("contract")
            return snap.total_beats == self.sent and (
                (snap.target_min, snap.target_max) == self.targets
            )

        assert wait_until(landed), "collector did not ingest the producer's frames in time"

    def snapshot(self):
        self._settle()
        if not self._registered():
            return self._empty.snapshot()
        return self.collector.snapshot("contract")

    def snapshot_since(self, cursor=None):
        self._settle()
        if not self._registered():
            return self._empty.snapshot_since(cursor)
        return self.collector.source("contract").snapshot_since(cursor)

    def close(self) -> None:
        self.exporter.close()
        self.collector.close()


def full_snapshot_reading(source, *, now, window=0, liveness_timeout=None):
    """The full-snapshot oracle: one stream's whole retained history, read
    and classified by ``tests/model.py`` — what every observer must equal."""
    return StreamModel.of(source.snapshot()).reading(
        now, requested=window, liveness=liveness_timeout
    )


class _CountingSource:
    """A source that counts the delta reads an observer makes through it."""

    def __init__(self, inner, counts) -> None:
        self._inner = inner
        self._counts = counts
        self.snapshot = inner.snapshot
        self.version = inner.version

    def snapshot_since(self, cursor=None):
        self._counts["delta"] += 1
        return self._inner.snapshot_since(cursor)


class _ArenaRowHarness:
    """One arena row under the contract, with the slab's lifetime attached.

    ``ArenaRowView.close`` releases only the row (the slab outlives any one
    stream), so the contract's ``backend.close()`` teardown needs this thin
    owner that closes the whole arena.
    """

    def __init__(self) -> None:
        from repro.core.backends import Arena

        self.arena = Arena(streams=4, depth=16)
        self.row = self.arena.allocate("contract")

    def __getattr__(self, name):
        return getattr(self.row, name)

    def close(self) -> None:
        self.arena.close()


def _unreachable_exporter(capacity):
    """A ``tcp://`` producer with nobody listening: only its local mirror acts."""
    import socket

    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return NetworkBackend(
        f"127.0.0.1:{port}", stream="contract", capacity=capacity, close_deadline=0.2
    )


def _read_overlapped_by(monkeypatch, backend, cursor, produce):
    """``backend.snapshot_since(cursor)`` with ``produce()`` run between the
    read's one copy and its settle step, plus how many copies it made."""
    from repro.core.backends.ring import Ring

    real = Ring._copy_last
    copies = []

    def copy_then_write(ring, total, wanted):
        copied = real(ring, total, wanted)
        copies.append(wanted)
        produce()
        return copied

    with monkeypatch.context() as patched:
        patched.setattr(Ring, "_copy_last", copy_then_write)
        delta, cursor = backend.snapshot_since(cursor)
    return delta, cursor, len(copies)


def _make_backend(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend(16)
    if kind == "exporter":
        return _unreachable_exporter(16)
    if kind == "file":
        return FileBackend(tmp_path / "contract.log", capacity=16)
    if kind == "shared_memory":
        return SharedMemoryBackend(capacity=16)
    if kind == "arena":
        return _ArenaRowHarness()
    return _CollectorHarness()


class TestDeltaContract:
    """The shared contract, parametrized over all six backend kinds."""

    @pytest.mark.parametrize(
        "kind", ["memory", "file", "shared_memory", "arena", "exporter", "collector"]
    )
    def test_replay_reconstructs_every_snapshot(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path)
        replay = _Replay()
        beat = 0
        try:
            # Deterministic schedule that exercises: empty deltas, small
            # increments, exact-capacity batches, lapping (> capacity
            # between polls) and mid-stream target updates.
            for step, burst in enumerate([0, 3, 0, 5, 8, 16, 40, 1, 0, 2, 33]):
                for _ in range(burst):
                    backend.append(beat, beat * 0.25, beat % 3, 9)
                    beat += 1
                if step == 4:
                    backend.set_targets(1.0, 8.0)
                delta, replay.cursor = backend.snapshot_since(replay.cursor)
                replay.consume(delta)
                snap = backend.snapshot()
                assert np.array_equal(replay.records, snap.records), f"step {step}"
                assert delta.total_beats == snap.total_beats
                assert delta.retained == snap.retained
                assert delta.target_min == snap.target_min
                assert delta.target_max == snap.target_max
                if burst == 0 and step > 0:  # step 0 is the cursorless resync
                    assert delta.new == 0 and not delta.resync
                if burst > 16 and kind != "file":
                    # Lapped the 16-slot ring: full resync.  The file backend
                    # keeps the whole history in the log, so a tail read never
                    # laps — the replay's retained-trim does the eviction.
                    assert delta.resync
        finally:
            backend.close()

    @pytest.mark.parametrize("kind", ["memory", "shared_memory", "arena", "exporter"])
    def test_replay_holds_when_a_write_overlaps_the_read(self, kind, tmp_path, monkeypatch):
        """Every ring copies once and then drops what a concurrent write can
        have reached: ``retained`` comes back shortened (and lost records as
        ``gap`` + ``resync``), and the replay rule still yields exactly the
        records the ring held intact — then converges again."""
        backend = _make_backend(kind, tmp_path)
        replay = _Replay()
        beat = 0

        def produce(count):
            nonlocal beat
            for _ in range(count):
                backend.append(beat, beat * 0.25, beat % 3, 9)
                beat += 1

        def read_overlapped_by(count):
            delta, replay.cursor, copies = _read_overlapped_by(
                monkeypatch, backend, replay.cursor, lambda: produce(count)
            )
            assert copies == 1
            replay.consume(delta)
            return delta

        try:
            produce(20)
            read_overlapped_by(0)
            produce(3)
            # 5 beats land mid-read: beats 7..11 are rewritten, none of the
            # 3 new ones — an increment, with retained shortened to 11.
            delta = read_overlapped_by(5)
            assert (delta.new, delta.gap, delta.resync, delta.retained) == (3, 0, False, 11)
            assert list(replay.records["beat"]) == list(range(12, 23))
            # 15 beats land mid-read: only the newest 1 of the 5 unseen
            # beats (23..27) is still intact.
            delta = read_overlapped_by(15)
            assert (delta.new, delta.gap, delta.resync, delta.retained) == (1, 4, True, 1)
            assert list(replay.records["beat"]) == [27]
            # A quiet read appends the 15 beats since and converges again.
            delta = read_overlapped_by(0)
            assert (delta.new, delta.gap, delta.resync, delta.retained) == (15, 0, False, 16)
            assert np.array_equal(replay.records, backend.snapshot().records)
        finally:
            backend.close()

    @pytest.mark.parametrize("kind", ["memory", "file", "shared_memory", "arena", "exporter"])
    def test_version_equality_means_no_news(self, kind, tmp_path):
        backend = _make_backend(kind, tmp_path)
        try:
            backend.append(0, 0.0, 0, 1)
            delta, cursor = backend.snapshot_since(None)
            before = backend.version()
            assert backend.version() == before  # stable while quiet
            delta, cursor = backend.snapshot_since(cursor)
            assert delta.new == 0
            backend.append(1, 1.0, 0, 1)
            assert backend.version() != before
            backend.set_targets(2.0, 3.0)
            assert backend.version() != before
        finally:
            backend.close()

    def test_generic_fallback_derives_deltas_from_snapshots(self):
        backend = MemoryBackend(8)
        for i in range(5):
            backend.append(i, float(i), 0, 1)
        delta, cursor = delta_from_snapshot(backend.snapshot(), None)
        assert delta.resync and delta.new == 5
        backend.append(5, 5.0, 0, 1)
        delta, cursor = delta_from_snapshot(backend.snapshot(), cursor)
        assert not delta.resync and list(delta.records["beat"]) == [5]
        # 20 appends against an 8-slot ring: lapped, so gap + resync.
        for i in range(6, 26):
            backend.append(i, float(i), 0, 1)
        delta, cursor = delta_from_snapshot(backend.snapshot(), cursor)
        assert delta.resync and delta.gap == 12 and delta.new == 8


class TestRingEdges:
    def test_wraparound_delta_is_contiguous(self):
        backend = MemoryBackend(8)
        for i in range(6):
            backend.append(i, float(i), 0, 1)
        _, cursor = backend.snapshot_since(None)
        # Next four records straddle the ring boundary (slots 6,7,0,1).
        for i in range(6, 10):
            backend.append(i, float(i), 0, 1)
        delta, cursor = backend.snapshot_since(cursor)
        assert not delta.resync
        assert list(delta.records["beat"]) == [6, 7, 8, 9]

    def test_writer_lapping_reports_gap_and_resync(self):
        backend = MemoryBackend(8)
        backend.append(0, 0.0, 0, 1)
        _, cursor = backend.snapshot_since(None)
        for i in range(1, 21):  # 20 new beats into an 8-slot ring
            backend.append(i, float(i), 0, 1)
        delta, cursor = backend.snapshot_since(cursor)
        assert delta.resync
        assert delta.gap == 12  # 20 new, only 8 retained
        assert list(delta.records["beat"]) == list(range(13, 21))

    def test_concurrent_appends_during_delta_read_never_lose_beats(self, monkeypatch):
        """A producer racing the lock-free delta read must never cause
        silent loss: bounds and slice are derived from one capture of the
        header, and a writer wrapping into the copied region turns the delta
        into a declared gap + resync (replace), never a bogus increment.

        Reproduces the interleaving deterministically by injecting appends
        between the read's copy and its settle step.
        """
        backend = MemoryBackend(4)
        for i in range(10):
            backend.append(i, float(i), 0, 1)
        delta, cursor = backend.snapshot_since(None)
        assert list(delta.records["beat"]) == [6, 7, 8, 9]
        for i in range(10, 12):  # two unseen beats for the racing read to copy
            backend.append(i, float(i), 0, 1)

        def lap_the_ring():  # 6 appends lap the 4-slot ring mid-read
            for i in range(12, 18):
                backend.append(i, float(i), 0, 1)

        delta, cursor, copies = _read_overlapped_by(monkeypatch, backend, cursor, lap_the_ring)
        # Both copied beats were overwritten under the read: it copied once,
        # kept nothing torn, and said so — a gap, a resync and nothing retained
        # as of its own total, not a silently-holey "increment".
        assert copies == 1
        assert (delta.total_beats, delta.new, delta.gap, delta.resync) == (12, 0, 2, True)
        assert delta.retained == 0
        # The next read declares what the lap cost and converges on the ring.
        delta, cursor = backend.snapshot_since(cursor)
        assert delta.resync and delta.gap == 2  # beats 12-13 overwritten as well
        assert list(delta.records["beat"]) == [14, 15, 16, 17]
        assert np.array_equal(delta.records, backend.snapshot().records)

    def test_exact_capacity_delta_is_single_copy_resync(self, monkeypatch):
        """``new == capacity`` costs one ring copy, never a retry: no read
        copies twice.  Undisturbed it is a plain increment — a consumer's
        replay trims to ``retained`` either way — and a resync only when a
        write overlapped the copy."""
        backend = MemoryBackend(8)
        for i in range(8):
            backend.append(i, float(i), 0, 1)
        _, cursor = backend.snapshot_since(None)
        for i in range(8, 16):  # exactly capacity new beats
            backend.append(i, float(i), 0, 1)
        delta, cursor, copies = _read_overlapped_by(monkeypatch, backend, cursor, lambda: None)
        assert copies == 1
        assert (delta.gap, delta.resync, delta.retained) == (0, False, 8)
        assert list(delta.records["beat"]) == list(range(8, 16))
        for i in range(16, 24):
            backend.append(i, float(i), 0, 1)
        delta, cursor, copies = _read_overlapped_by(
            monkeypatch, backend, cursor, lambda: backend.append(24, 24.0, 0, 1)
        )
        assert copies == 1
        assert (delta.gap, delta.resync, delta.retained) == (1, True, 7)
        assert list(delta.records["beat"]) == list(range(17, 24))

    def test_restarted_stream_resyncs(self):
        """A cursor ahead of the backend's counter (restart) forces resync."""
        backend = MemoryBackend(8)
        backend.append(0, 0.0, 0, 1)
        stale = SnapshotCursor(total=1000)
        delta, cursor = backend.snapshot_since(stale)
        assert delta.resync and delta.total_beats == 1
        assert cursor.total == 1


class TestFileCursorEdges:
    def _filled(self, tmp_path, n=10):
        backend = FileBackend(tmp_path / "edge.log", capacity=64)
        for i in range(n):
            backend.append(i, float(i), 0, 1)
        backend.flush()
        return backend

    def test_tail_reads_only_appended_lines(self, tmp_path):
        backend = self._filled(tmp_path)
        try:
            delta, cursor = tail_heartbeat_log(backend.path, None)
            assert delta.resync and delta.new == 10
            backend.append(10, 10.0, 0, 1)
            backend.flush()
            delta, cursor = tail_heartbeat_log(backend.path, cursor)
            assert not delta.resync
            assert list(delta.records["beat"]) == [10]
            # Quiet log: the cursor answers without re-reading anything.
            delta, cursor = tail_heartbeat_log(backend.path, cursor)
            assert delta.new == 0 and not delta.resync
        finally:
            backend.close()

    def test_truncation_mid_cursor_resyncs(self, tmp_path):
        backend = self._filled(tmp_path)
        try:
            delta, cursor = tail_heartbeat_log(backend.path, None)
            assert delta.total_beats == 10
        finally:
            backend.close()
        # Simulate log truncation: rewrite with a shorter body.
        replacement = FileBackend(tmp_path / "edge.log", capacity=64)
        try:
            for i in range(3):
                replacement.append(i, float(i), 0, 1)
            replacement.flush()
            delta, cursor = tail_heartbeat_log(replacement.path, cursor)
            assert delta.resync
            assert delta.total_beats == 3
            assert list(delta.records["beat"]) == [0, 1, 2]
        finally:
            replacement.close()

    def test_rotation_new_inode_resyncs(self, tmp_path):
        backend = self._filled(tmp_path)
        try:
            delta, cursor = tail_heartbeat_log(backend.path, None)
        finally:
            backend.close()
        # Rotate: move the old log away, create a fresh one at the same path
        # with the *same byte size* so only the inode gives it away.
        os.rename(tmp_path / "edge.log", tmp_path / "edge.log.1")
        rotated = FileBackend(tmp_path / "edge.log", capacity=64)
        try:
            for i in range(10):
                rotated.append(i, float(i), 0, 1)
            rotated.flush()
            delta, cursor = tail_heartbeat_log(rotated.path, cursor)
            assert delta.resync
            assert delta.total_beats == 10
        finally:
            rotated.close()

    def test_same_inode_truncate_and_regrow_resyncs(self, tmp_path):
        """A producer restarting on the same path truncates in place (same
        inode); if its new log regrows past a stale cursor the tail read
        must resync, never parse from the dead offset."""
        backend = self._filled(tmp_path, n=100)
        try:
            delta, cursor = tail_heartbeat_log(backend.path, None)
            assert delta.total_beats == 100
        finally:
            backend.close()
        restarted = FileBackend(tmp_path / "edge.log", capacity=512)
        try:
            for i in range(200):  # regrow past the old cursor's offset
                restarted.append(i, i * 2.0, 0, 1)
            restarted.flush()
            delta, cursor = tail_heartbeat_log(restarted.path, cursor)
            assert delta.resync
            assert delta.total_beats == 200
            assert list(delta.records["beat"][:3]) == [0, 1, 2]
        finally:
            restarted.close()

    def test_slow_producer_beats_become_visible_without_explicit_flush(self, tmp_path):
        """Bounded staleness: every buffered beat becomes observable within
        the flush interval (inline drain or timer), so a slow producer
        cannot look STALLED to file observers."""
        backend = FileBackend(tmp_path / "slow.log", capacity=64, flush_interval=0.05)
        try:
            backend.append(0, 0.0, 0, 1)
            backend.flush()
            delta, cursor = tail_heartbeat_log(backend.path, None)
            assert delta.total_beats == 1
            time.sleep(0.06)  # longer than the flush interval
            backend.append(1, 1.0, 0, 1)  # no explicit flush follows
            assert wait_until(
                lambda: tail_heartbeat_log(backend.path, None)[0].total_beats == 2,
                timeout=5.0,
            ), "beat stayed buffered past the staleness bound"
        finally:
            backend.close()

    def test_burst_tail_flushed_by_timer(self, tmp_path):
        """A burst followed by silence must still become visible within the
        flush interval: the one-shot timer drains the tail even though no
        further append arrives to trigger an inline flush."""
        backend = FileBackend(tmp_path / "burst.log", capacity=64, flush_interval=0.05)
        try:
            for i in range(20):  # whole burst lands inside one interval
                backend.append(i, float(i), 0, 1)
            assert wait_until(
                lambda: tail_heartbeat_log(backend.path, None)[0].total_beats == 20,
                timeout=5.0,
            ), "burst tail never drained without an explicit flush"
        finally:
            backend.close()

    def test_header_only_target_rewrite_changes_probe(self, tmp_path):
        """set_targets rewrites the fixed-width header in place (size and
        inode unchanged); the observer probe must still see it so skip-idle
        polling never classifies against stale targets."""
        backend = self._filled(tmp_path)
        try:
            reader = FileReader(backend.path)
            before = reader.version()
            backend.set_targets(3.0, 9.0)
            assert reader.version() != before
        finally:
            backend.close()

    def test_partial_trailing_line_left_for_next_poll(self, tmp_path):
        backend = self._filled(tmp_path, n=2)
        try:
            delta, cursor = tail_heartbeat_log(backend.path, None)
            assert delta.total_beats == 2
            # A producer's buffered write can land mid-line: append raw bytes
            # without the trailing newline.
            with open(backend.path, "ab") as fh:
                fh.write(b"2 2.0 0")
            delta, cursor = tail_heartbeat_log(backend.path, cursor)
            assert delta.new == 0  # incomplete line not consumed
            with open(backend.path, "ab") as fh:
                fh.write(b" 1\n")
            delta, cursor = tail_heartbeat_log(backend.path, cursor)
            assert list(delta.records["beat"]) == [2]
        finally:
            backend.close()

    def test_producer_side_delta_clips_to_capacity(self, tmp_path):
        backend = FileBackend(tmp_path / "clip.log", capacity=4)
        try:
            for i in range(10):
                backend.append(i, float(i), 0, 1)
            delta, cursor = backend.snapshot_since(None)
            assert delta.retained == 4
            assert list(delta.records["beat"]) == [6, 7, 8, 9]
            assert np.array_equal(delta.records, backend.snapshot().records)
        finally:
            backend.close()


class TestSharedMemoryCursorEdges:
    def test_reader_cursor_across_wraparound(self):
        backend = SharedMemoryBackend(capacity=8)
        try:
            for i in range(5):
                backend.append(i, float(i), 0, 1)
            with SharedMemoryReader(backend.name) as reader:
                delta, cursor = reader.snapshot_since(None)
                assert delta.resync and delta.new == 5
                for i in range(5, 11):  # wraps the 8-slot ring
                    backend.append(i, float(i), 0, 1)
                delta, cursor = reader.snapshot_since(cursor)
                assert not delta.resync
                assert list(delta.records["beat"]) == list(range(5, 11))
                # Lap the reader completely.
                for i in range(11, 31):
                    backend.append(i, float(i), 0, 1)
                delta, cursor = reader.snapshot_since(cursor)
                assert delta.resync and delta.gap == 12
                assert list(delta.records["beat"]) == list(range(23, 31))
        finally:
            backend.close()

    def test_cross_process_cursor_reads(self):
        """A reader in another process consumes deltas written here.

        Runs the reader in a clean interpreter (same idiom as the tracker
        tests in test_backends.py) so the cursor maths crosses a real
        process boundary, not just a thread.
        """
        import subprocess
        import sys

        backend = SharedMemoryBackend(capacity=32)
        try:
            for i in range(10):
                backend.append(i, float(i), 0, 1)
            script = (
                "import sys\n"
                "from repro.core.backends.shared_memory import SharedMemoryReader\n"
                "reader = SharedMemoryReader(sys.argv[1])\n"
                "delta, cursor = reader.snapshot_since(None)\n"
                "assert delta.resync and delta.new == 10, delta.new\n"
                "print('first', delta.new, flush=True)\n"
                "input()\n"  # parent writes 5 more, then pokes stdin
                "delta, cursor = reader.snapshot_since(cursor)\n"
                "assert not delta.resync, 'expected incremental delta'\n"
                "assert list(delta.records['beat']) == [10, 11, 12, 13, 14]\n"
                "print('second', delta.new, flush=True)\n"
                "reader.close()\n"
            )
            env = dict(os.environ)
            src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
            env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.Popen(
                [sys.executable, "-c", script, backend.name],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            try:
                assert proc.stdout.readline().strip() == "first 10"
                for i in range(10, 15):
                    backend.append(i, float(i), 0, 1)
                proc.stdin.write("\n")
                proc.stdin.flush()
                out, err = proc.communicate(timeout=60)
                assert proc.returncode == 0, err
                assert "second 5" in out
            finally:
                if proc.poll() is None:
                    proc.kill()
        finally:
            backend.close()


class TestIncrementalMonitor:
    def test_incremental_read_matches_full_read(self):
        clock = ManualClock()
        hb = Heartbeat(window=10, clock=clock)
        hb.set_target_rate(5.0, 15.0)
        incremental = HeartbeatMonitor.attach(hb, liveness_timeout=3.0)

        def full():
            return full_snapshot_reading(hb.backend, now=clock.now(), liveness_timeout=3.0)

        for i in range(40):
            clock.time = i * 0.1
            hb.heartbeat(tag=i)
            if i % 7 == 0:
                a, b = incremental.read(), full()
                assert a == b, (i, a, b)
        clock.time = 30.0  # stalled now
        assert incremental.read() == full()
        assert incremental.read().status is HealthStatus.STALLED

    def test_idle_monitor_skips_delta_reads(self):
        """A mirrored source (here one that forwards a heartbeat's backend
        but is no slab row) is read once per change: the version probe
        answers every idle read."""
        clock = ManualClock()
        hb = Heartbeat(window=10, clock=clock)
        for i in range(10):
            clock.time = float(i)
            hb.heartbeat()
        calls = {"delta": 0}
        monitor = HeartbeatMonitor(_CountingSource(hb.backend, calls), clock=clock)
        first = monitor.read()
        assert calls["delta"] == 1
        for _ in range(5):
            assert monitor.read() == first
        assert calls["delta"] == 1  # version probe answered every idle read
        hb.heartbeat()
        assert monitor.read().total_beats == 11
        assert calls["delta"] == 2

    def test_default_window_growth_matches_full_read(self):
        """Growing the producer's default window mid-stream must not leave
        the rolling ring short: the consumer refills from the retained
        history, keeping incremental == full."""
        clock = ManualClock()
        hb = Heartbeat(window=10, history=256, clock=clock)
        monitor = HeartbeatMonitor.attach(hb)
        for i in range(95):  # slow beats
            clock.time = float(i)
            hb.heartbeat()
        for i in range(5):  # fast beats
            clock.time = 94.0 + (i + 1) * 0.1
            hb.heartbeat()
        assert monitor.read().rate > 0  # warm the incremental state at window 10
        hb.backend.set_default_window(50)
        hb._window = 50  # what a re-initialising producer would publish
        clock.time = 95.0
        hb.heartbeat()
        assert monitor.read() == full_snapshot_reading(hb.backend, now=clock.now())

    def test_explicit_window_override_still_works(self):
        clock = ManualClock()
        hb = Heartbeat(window=20, clock=clock)
        for i in range(20):
            clock.time = float(i)
            hb.heartbeat()
        for i in range(5):
            clock.time = 19.0 + (i + 1) * 0.1
            hb.heartbeat()
        monitor = HeartbeatMonitor.attach(hb)
        assert monitor.current_rate(5) > monitor.current_rate(20)


class TestIncrementalAggregator:
    def _fleet(self, clock, agg, n=6):
        streams = []
        for i in range(n):
            hb = Heartbeat(window=10, clock=clock, name=f"s{i}")
            hb.set_target_rate(4.0, 50.0)
            agg.attach_stream(f"s{i}", hb)
            streams.append(hb)
        for tick in range(60):
            clock.advance(0.1)
            for i, hb in enumerate(streams):
                if tick % (i + 1) == 0:
                    hb.heartbeat()
        return streams

    def test_incremental_matches_full_snapshot_poll(self, sim_clock):
        incremental = HeartbeatAggregator(clock=sim_clock, liveness_timeout=5.0)
        streams = self._fleet(sim_clock, incremental)
        for _ in range(4):
            sample = incremental.poll()
            full = [
                full_snapshot_reading(hb.backend, now=sim_clock.now(), liveness_timeout=5.0)
                for hb in streams
            ]
            assert sample.names == tuple(f"s{i}" for i in range(len(streams)))
            assert list(sample.readings) == full
            rates = sorted(
                (r.rate, name) for name, r in zip(sample.names, full)
                if r.status in (HealthStatus.SLOW, HealthStatus.STALLED)
            )
            assert sample.lagging() == [name for _, name in rates]
            summary = sample.summary()
            measurable = [r.rate for r in full if r.total_beats >= 2]
            assert summary.measurable == len(measurable)
            assert summary.mean == pytest.approx(np.mean(measurable))
            assert summary.lagging == sum(r.status is HealthStatus.SLOW for r in full)
            assert summary.stalled == sum(r.status is HealthStatus.STALLED for r in full)
            sim_clock.advance(0.1)
            for hb in streams[::2]:
                hb.heartbeat()
        incremental.close()

    def test_all_idle_fleet_skips_every_delta_read(self, sim_clock):
        """Satellite regression: an idle fleet must not re-read any stream.

        "Near-constant time" asserted structurally: after the warm-up poll,
        further polls of a quiet fleet perform zero delta reads (only the
        O(1)-per-stream version probes), independent of history depth.
        """
        agg = HeartbeatAggregator(clock=sim_clock)
        counts = {"delta": 0}
        for i in range(50):
            hb = Heartbeat(window=10, clock=sim_clock, name=f"s{i}")
            backend = hb.backend
            sim_clock.advance(0.01)
            for _ in range(20):
                hb.heartbeat()

            agg.attach_stream(f"s{i}", _CountingSource(backend, counts))
        first = agg.poll()
        assert counts["delta"] == 50
        assert len(first) == 50
        for _ in range(10):
            sample = agg.poll()
            assert len(sample) == 50
        assert counts["delta"] == 50  # ten idle polls: zero further reads
        assert [r.rate for r in sample.readings] == [r.rate for r in first.readings]
        agg.close()

    def test_idle_streams_still_transition_to_stalled(self, sim_clock):
        """Skipped reads must not freeze liveness: age grows with the clock."""
        agg = HeartbeatAggregator(clock=sim_clock, liveness_timeout=2.0)
        hb = Heartbeat(window=5, clock=sim_clock)
        agg.attach_stream("s", hb)
        for _ in range(10):
            sim_clock.advance(0.5)
            hb.heartbeat()
        assert agg.poll().reading("s").status is HealthStatus.HEALTHY
        sim_clock.advance(10.0)  # no beats, no version change
        assert agg.poll().reading("s").status is HealthStatus.STALLED
        agg.close()

    def test_target_change_without_beats_is_observed(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        hb = Heartbeat(window=5, clock=sim_clock)
        agg.attach_stream("s", hb)
        for _ in range(10):
            sim_clock.advance(0.1)
            hb.heartbeat()
        assert agg.poll().reading("s").status is HealthStatus.HEALTHY
        hb.set_target_rate(100.0, 200.0)  # version bump, no new beats
        assert agg.poll().reading("s").status is HealthStatus.SLOW
        agg.close()

    def test_concurrent_polls_are_serialised(self, sim_clock):
        """poll() from several threads must stay safe (cursors and columns
        are aggregator state; polls take turns internally)."""
        import threading

        agg = HeartbeatAggregator(clock=sim_clock)
        streams = self._fleet(sim_clock, agg, n=12)
        failures: list[str] = []

        def hammer():
            for _ in range(25):
                sample = agg.poll()
                if len(sample) != 12 or sample.errors:
                    failures.append(f"{len(sample)} streams, errors={sample.errors}")

        writers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in writers:
            t.start()
        for _ in range(50):  # keep the fleet beating while polls race
            sim_clock.advance(0.01)
            for hb in streams[::3]:
                hb.heartbeat()
        for t in writers:
            t.join(timeout=30)
        assert failures == []
        agg.close()

    def test_detach_attach_churn_keeps_columns_straight(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        self._fleet(sim_clock, agg, n=4)
        before = agg.poll()
        agg.detach("s1")
        hb = Heartbeat(window=10, clock=sim_clock, name="s9")
        for _ in range(5):
            sim_clock.advance(0.1)
            hb.heartbeat()
        agg.attach_stream("s9", hb)
        after = agg.poll()
        assert after.names == ("s0", "s2", "s3", "s9")
        assert after.reading("s0").rate == before.reading("s0").rate
        assert after.reading("s9").total_beats == 5
        agg.close()


SOURCE_KINDS = [
    "memory", "shm_reader", "file_reader", "arena_row", "exporter",
    "collector", "heartbeat", "monitor", "callable",
]


def _open_source_kind(kind, tmp_path, clock, cleanup):
    """``(writer, source)`` for one kind of object an observer can be handed.

    ``writer`` is the backend the test appends through; ``source`` is what
    goes through ``attach_stream`` / ``HeartbeatMonitor(...)``.  Teardown
    callables are pushed onto ``cleanup`` (run last-in first-out).
    """
    if kind == "shm_reader":
        writer = SharedMemoryBackend(capacity=256)
        cleanup.append(writer.close)
        source = SharedMemoryReader(writer.name)
        cleanup.append(source.close)
        return writer, source
    if kind == "file_reader":
        writer = FileBackend(tmp_path / "door.log", capacity=256, buffered=False)
        cleanup.append(writer.close)
        return writer, FileReader(writer.path)
    if kind == "arena_row":
        from repro.core.backends import Arena

        arena = Arena(streams=2, depth=256)
        cleanup.append(arena.close)
        return arena.allocate("door"), arena.row(0)
    if kind == "collector":
        collector = HeartbeatCollector(default_capacity=256)
        cleanup.append(collector.close)
        producer = NetworkBackend(collector.endpoint, stream="door", capacity=256)
        producer.append(0, 0.0, 0, 1)  # registers the stream (HELLO + one beat)
        producer.close()
        assert wait_until(
            lambda: "door" in collector.stream_ids()
            and collector.snapshot("door").total_beats == 1
        )
        row = collector.source("door")
        # The producer is gone, so the test is the row's only writer.
        return row, row
    if kind == "exporter":
        writer = _unreachable_exporter(256)
        cleanup.append(writer.close)
        return writer, writer
    writer = MemoryBackend(256)
    if kind == "memory":
        return writer, writer
    if kind == "heartbeat":
        return writer, Heartbeat(window=10, backend=writer, clock=clock)
    if kind == "monitor":
        return writer, HeartbeatMonitor(writer, clock=clock)
    assert kind == "callable"
    return writer, lambda: writer.snapshot()


#: The kinds that are no slab row, so both observers mirror them; every
#: other kind of :data:`SOURCE_KINDS` is a row and is read in place.
MIRRORED_KINDS = {"file_reader", "callable"}


class TestOneDoor:
    """Every source kind attaches as one object and reads the one way."""

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_every_source_kind_matches_the_full_snapshot_oracle(
        self, kind, tmp_path, monkeypatch
    ):
        from repro.core.monitor import _Mirror

        clock = ManualClock()
        cleanup: list = []
        try:
            writer, source = _open_source_kind(kind, tmp_path, clock, cleanup)
            agg = HeartbeatAggregator(clock=clock, liveness_timeout=5.0)
            cleanup.append(agg.close)
            agg.attach_stream("door", source)
            monitor = HeartbeatMonitor(source, clock=clock, liveness_timeout=5.0)

            # The oracle reads the source's own snapshot(); a Heartbeat and a
            # bare callable have none, so theirs is the backend's.
            reference = source if hasattr(source, "snapshot") else writer

            # Delta reads made through a mirror's sync, and syncs made at all.
            reads = {"n": 0, "syncs": 0}
            sync = _Mirror.sync

            def counting(mirror, pool, requested):
                caps = mirror.caps

                def counted(cursor):
                    reads["n"] += 1
                    return caps.delta(cursor)

                reads["syncs"] += 1
                mirror.caps = dataclasses.replace(caps, delta=counted)
                try:
                    return sync(mirror, pool, requested)
                finally:
                    mirror.caps = caps

            monkeypatch.setattr(_Mirror, "sync", counting)

            def check():
                expected = full_snapshot_reading(
                    reference, now=clock.now(), liveness_timeout=5.0
                )
                sample = agg.poll()
                assert sample.errors == {}
                assert sample.reading("door") == expected
                assert monitor.read() == expected
                return expected

            writer.set_default_window(10)
            writer.set_targets(5.0, 15.0)
            beat = reference.snapshot().total_beats
            # Empty stream (or one beat), small deltas, more than a window,
            # nothing new, more than the ring the window-10 state keeps.
            for burst in (0, 3, 1, 40, 0, 70):
                for _ in range(burst):
                    clock.time = beat * 0.1
                    writer.append(beat, clock.time, 0, 1)
                    beat += 1
                check()
            assert check().status is HealthStatus.HEALTHY

            # Idle: two equal version tokens skip the delta read entirely; a
            # source without a token (the bare callable) must be re-read.
            reads["n"] = 0
            check()
            assert reads["n"] == (2 if kind == "callable" else 0)
            # A row is read where it lies: neither observer ever syncs a mirror.
            assert (reads["syncs"] > 0) == (kind in MIRRORED_KINDS)

            # The producer grows its default window past the observer's row:
            # the stream moves to a deeper row with a fresh cursor.
            writer.set_default_window(50)
            clock.time += 0.1
            writer.append(beat, clock.time, 0, 1)
            check()

            clock.time += 30.0
            assert check().status is HealthStatus.STALLED
            assert (reads["syncs"] > 0) == (kind in MIRRORED_KINDS)
        finally:
            for fn in reversed(cleanup):
                fn()

    @pytest.mark.parametrize(
        "kind",
        ["memory", "heartbeat", "mem_url", "shm_reader", "shm_writer", "arena_row", "exporter", "collector", "monitor"],
    )
    def test_no_row_source_is_mirrored(self, kind, monkeypatch):
        """Every source that is a slab row is read where it lies, by both
        observers, under the name it was attached with: no mirror sync runs
        on a poll or on a monitor read, and ``detach`` still drops the one
        row."""
        from repro.core.backends.arena import Arena, ArenaRowView
        from repro.core.monitor import _Mirror

        calls: list = []
        real = _Mirror.sync
        monkeypatch.setattr(_Mirror, "sync", lambda *args: calls.append(1) or real(*args))
        clock = ManualClock()
        cleanup: list = []
        try:
            if kind in ("shm_reader", "shm_writer"):
                writer = SharedMemoryBackend(capacity=64)
                cleanup.append(writer.close)
                source = writer
                if kind == "shm_reader":
                    source = SharedMemoryReader(writer.name)
                    cleanup.append(source.close)
            elif kind == "arena_row":
                arena = Arena(streams=4, depth=64)
                cleanup.append(arena.close)
                arena.allocate("other")
                writer = source = arena.allocate("")  # an empty header name
                assert isinstance(source, ArenaRowView)
            elif kind == "exporter":
                writer = source = _unreachable_exporter(64)
                cleanup.append(writer.close)
            elif kind == "collector":
                writer, source = _open_source_kind(kind, None, clock, cleanup)
            elif kind == "mem_url":
                source = Heartbeat(window=10, clock=clock, backend="mem://")
                writer = source.backend
            else:
                writer = MemoryBackend(64)
                source = {
                    "memory": writer,
                    "heartbeat": Heartbeat(window=10, backend=writer, clock=clock),
                    "monitor": HeartbeatMonitor(writer, clock=clock),
                }[kind]
            writer.set_default_window(10)
            with HeartbeatAggregator(clock=clock) as agg:
                agg.attach_stream("local", source)
                agg.attach_stream("twin", HeartbeatMonitor(source, clock=clock))
                monitor = HeartbeatMonitor(source, clock=clock)
                for beat in range(30):
                    clock.time = beat * 0.1
                    writer.append(beat, clock.time, 0, 1)
                    if beat % 7 == 0:
                        sample = agg.poll()
                        assert sample.names == ("local", "twin") and sample.errors == {}
                        expected = full_snapshot_reading(writer, now=clock.now())
                        assert sample.reading("local") == sample.reading("twin") == expected
                        assert monitor.read() == expected
                agg.detach("twin")
                assert agg.poll().names == ("local",)
            assert calls == []
        finally:
            for fn in reversed(cleanup):
                fn()


class TestVectorizedClassification:
    def test_matches_scalar_rule_everywhere(self):
        """``classify_codes`` equals the model's health rule, case by case."""
        cases = []
        for retained in (0, 1, 5):
            for rate in (0.0, 1.0, 5.0, 20.0):
                for tmin, tmax in ((0.0, 0.0), (2.0, 10.0), (0.0, 3.0), (4.0, 0.0)):
                    for age in (None, 0.5, 9.0):
                        cases.append((rate, retained, tmin, tmax, age))
        for timeout in (None, 2.0):
            expected = [
                StreamModel(None, [0.0] * retained, 0, tmin, tmax).status(rate, age, timeout)
                for rate, retained, tmin, tmax, age in cases
            ]
            codes = classify_codes(
                np.array([c[0] for c in cases]),
                np.array([c[1] for c in cases]),
                np.array([c[2] for c in cases]),
                np.array([c[3] for c in cases]),
                np.array([np.nan if c[4] is None else c[4] for c in cases]),
                timeout,
            )
            from repro.core.monitor import _STATUS_BY_CODE

            got = [_STATUS_BY_CODE[code] for code in codes]
            assert got == expected

    def test_reading_from_snapshot_agrees_with_delta_state(self):
        """End-to-end: the monitor's read == the model of a full snapshot."""
        clock = ManualClock()
        hb = Heartbeat(window=8, clock=clock)
        hb.set_target_rate(3.0, 12.0)
        monitor = HeartbeatMonitor.attach(hb, liveness_timeout=4.0)
        for i in range(30):
            clock.time = i * 0.2
            hb.heartbeat()
            expected = full_snapshot_reading(hb.backend, now=clock.now(), liveness_timeout=4.0)
            assert monitor.read() == expected
