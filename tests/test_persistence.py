"""Journal format and collector failover recovery (repro.net.persistence).

Unit tests cover the file format (replay fidelity, torn tails, compaction);
the integration tests kill and restart real collectors over a shared
journal directory and assert that nothing acknowledged is lost.
"""

from __future__ import annotations

import os
import shutil
import socket

import numpy as np
import pytest
from waiting import wait_until

from repro.core.backends import MemoryBackend
from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, NetworkBackend, protocol
from repro.net import persistence
from repro.net.persistence import StreamJournal


def make_hello(name: str = "svc", nonce: int = 7) -> protocol.Hello:
    return protocol.Hello(
        name=name,
        pid=41,
        default_window=8,
        capacity=64,
        target_min=2.0,
        target_max=9.0,
        nonce=nonce,
    )


def make_records(beats: range) -> np.ndarray:
    out = np.empty(len(beats), dtype=RECORD_DTYPE)
    for i, beat in enumerate(beats):
        out[i] = (beat, beat * 0.01, 0, 1)
    return out


def batch_frame(beats: range) -> bytes:
    return protocol.encode_frame(protocol.FRAME_BATCH, protocol.batch_payload(make_records(beats)))


class TestJournalRoundTrip:
    def test_records_targets_close_replay(self, tmp_path):
        journal = StreamJournal(tmp_path)
        writer = journal.writer("svc", make_hello())
        writer.append_records(make_records(range(10)))
        writer.append_targets(3.0, 12.0)
        writer.append_close(10)
        journal.close()

        [replayed] = StreamJournal(tmp_path).replay()
        assert replayed.stream_id == "svc"
        assert replayed.hello.nonce == 7
        assert replayed.records.shape[0] == 10
        assert replayed.last_beat == 9
        assert replayed.closed
        assert replayed.reported_total == 10
        # TARGETS frames fold into the replayed hello metadata.
        assert replayed.hello.target_min == 3.0
        assert replayed.hello.target_max == 12.0

    def test_close_with_unknown_total_replays_none(self, tmp_path):
        journal = StreamJournal(tmp_path)
        writer = journal.writer("svc", make_hello())
        writer.append_close(-1)
        journal.close()
        [replayed] = StreamJournal(tmp_path).replay()
        assert replayed.closed
        assert replayed.reported_total is None

    def test_later_hello_wins(self, tmp_path):
        journal = StreamJournal(tmp_path)
        writer = journal.writer("svc", make_hello(nonce=1))
        writer.append_hello(make_hello(nonce=2))
        journal.close()
        [replayed] = StreamJournal(tmp_path).replay()
        assert replayed.hello.nonce == 2

    def test_stream_ids_are_quoted_into_filenames(self, tmp_path):
        journal = StreamJournal(tmp_path)
        journal.writer("svc/with?odd chars", make_hello(name="odd"))
        journal.close()
        [replayed] = StreamJournal(tmp_path).replay()
        assert replayed.stream_id == "svc/with?odd chars"

    def test_empty_directory_replays_nothing(self, tmp_path):
        assert StreamJournal(tmp_path).replay() == []


class TestTornTails:
    def test_truncated_tail_is_discarded(self, tmp_path):
        journal = StreamJournal(tmp_path)
        writer = journal.writer("svc", make_hello())
        writer.append_records(make_records(range(5)))
        journal.close()
        path = writer.path
        # Simulate a kill mid-append: chop the last frame in half.
        data = path.read_bytes()
        path.write_bytes(data[:-7])

        [replayed] = StreamJournal(tmp_path).replay()
        assert replayed.records.shape[0] == 0  # the only batch was torn
        assert replayed.valid_bytes < len(data)

    def test_resume_truncates_torn_tail_before_appending(self, tmp_path):
        journal = StreamJournal(tmp_path)
        writer = journal.writer("svc", make_hello())
        writer.append_records(make_records(range(5)))
        journal.close()
        path = writer.path
        path.write_bytes(path.read_bytes()[:-3])

        journal = StreamJournal(tmp_path)
        [replayed] = journal.replay()
        resumed = journal.resume(replayed)
        resumed.append_records(make_records(range(5, 8)))
        journal.close()

        [again] = StreamJournal(tmp_path).replay()
        assert list(again.records["beat"]) == [5, 6, 7]

    def test_garbage_file_is_skipped(self, tmp_path):
        (tmp_path / "junk.hbj").write_bytes(b"not a journal at all")
        journal = StreamJournal(tmp_path)
        writer = journal.writer("good", make_hello(name="good"))
        writer.append_records(make_records(range(2)))
        journal.close()
        replayed = StreamJournal(tmp_path).replay()
        assert [r.stream_id for r in replayed] == ["good"]

    def test_corrupt_crc_stops_replay_at_last_good_frame(self, tmp_path):
        journal = StreamJournal(tmp_path)
        writer = journal.writer("svc", make_hello())
        writer.append_records(make_records(range(3)))
        writer.append_records(make_records(range(3, 6)))
        journal.close()
        path = writer.path
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte in the final batch
        path.write_bytes(bytes(data))
        [replayed] = StreamJournal(tmp_path).replay()
        assert list(replayed.records["beat"]) == [0, 1, 2]


class TestCompaction:
    def test_oversized_journal_rewrites_to_retained_window(self, tmp_path):
        journal = StreamJournal(tmp_path, max_bytes=2048)
        writer = journal.writer("svc", make_hello())
        for start in range(0, 200, 10):
            writer.append_records(make_records(range(start, start + 10)))
        assert writer.oversized
        size_before = writer.path.stat().st_size
        writer.rewrite(make_hello(), make_records(range(150, 200)), closed=False)
        assert writer.path.stat().st_size < size_before
        journal.close()
        [replayed] = StreamJournal(tmp_path).replay()
        assert list(replayed.records["beat"]) == list(range(150, 200))

    def test_rewrite_preserves_close_state(self, tmp_path):
        journal = StreamJournal(tmp_path, max_bytes=128)
        writer = journal.writer("svc", make_hello())
        writer.rewrite(
            make_hello(), make_records(range(4)), closed=True, reported_total=4
        )
        journal.close()
        [replayed] = StreamJournal(tmp_path).replay()
        assert replayed.closed
        assert replayed.reported_total == 4
        assert replayed.records.shape[0] == 4

    def test_rewrite_keeps_an_unknown_close_total_unknown(self, tmp_path):
        journal = StreamJournal(tmp_path, max_bytes=128)
        writer = journal.writer("svc", make_hello())
        writer.rewrite(make_hello(), make_records(range(4)), closed=True, reported_total=None)
        journal.close()
        [replayed] = StreamJournal(tmp_path).replay()
        assert (replayed.closed, replayed.reported_total) == (True, None)

    def test_retained_window_over_max_bytes_does_not_compact_every_append(self, tmp_path):
        """A 4096-record (128 KiB) window into a 64 KiB journal: each rewrite is
        already over ``max_bytes``, so the threshold follows the rewrite."""
        journal = StreamJournal(tmp_path, max_bytes=64 * 1024)
        hello = make_hello()
        ring = MemoryBackend(4096)
        writer = journal.writer("svc", hello)
        for start in range(0, 400 * 64, 64):  # what the collector does per ingest
            records = make_records(range(start, start + 64))
            ring.append_many(records)
            writer.append_records(records)
            if writer.oversized:
                writer.rewrite(hello, ring.snapshot().records)
        assert journal._compactions.value <= 10
        journal.close()
        [replayed] = StreamJournal(tmp_path).replay()
        beats = replayed.records["beat"]
        assert beats[-1] == 25_599 and beats.shape[0] >= 4096
        assert (np.diff(beats) == 1).all()

    @pytest.mark.network
    def test_collector_compacts_a_large_window_at_a_bounded_cadence(self, tmp_path):
        journal = StreamJournal(tmp_path, max_bytes=64 * 1024)
        collector = HeartbeatCollector("127.0.0.1", 0, journal=journal)
        sock = socket.create_connection(collector.address, timeout=5.0)
        try:
            sock.sendall(protocol.encode_hello("svc", pid=1, nonce=1, default_window=8, capacity=4096))
            for start in range(0, 400 * 64, 64):
                payload = protocol.batch_payload(make_records(range(start, start + 64)))
                sock.sendall(protocol.encode_frame(protocol.FRAME_BATCH, payload))
            # Loopback buffers can take every frame before the loop reads the HELLO.
            assert collector.wait_for_streams(1, timeout=5.0)
            assert wait_until(lambda: collector.snapshot("svc").total_beats == 400 * 64)
        finally:
            sock.close()
            collector.close()
        assert journal._compactions.value <= 10
        restarted = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        try:
            beats = restarted.snapshot("svc").records["beat"]
            assert beats[-1] == 25_599 and (np.diff(beats) == 1).all()
        finally:
            restarted.close()


@pytest.mark.network
class TestCollectorFailover:
    def test_restart_restores_streams_from_journal(self, tmp_path):
        collector = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        backend = NetworkBackend(collector.address, stream="durable", flush_interval=0.01)
        for beat in range(30):
            backend.append(beat, beat * 0.01, 0, 1)
        backend.close()
        assert wait_until(
            lambda: any(
                i.stream_id == "durable" and i.closed and i.total_beats == 30
                for i in collector.streams()
            )
        )
        collector.close()

        # A brand-new collector over the same directory starts warm.
        restarted = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        try:
            [info] = [i for i in restarted.streams() if i.stream_id == "durable"]
            assert info.total_beats == 30
            assert info.closed
            assert info.reported_total == 30
            assert not info.connected
            snap = restarted.snapshot("durable")
            assert snap.total_beats == 30
        finally:
            restarted.close()

    def test_relayed_window_change_survives_a_restart(self, tmp_path):
        collector = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        sock = socket.create_connection(collector.address, timeout=5.0)
        try:
            for window in (4, 16):
                entry = protocol.RelayEntry(stream_id="svc", pid=7, nonce=3, default_window=window)
                sock.sendall(protocol.encode_relay([entry]))
            assert wait_until(lambda: "svc" in collector.stream_ids()
                              and collector.snapshot("svc").default_window == 16)
        finally:
            sock.close()
            collector.close()
        restarted = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        try:
            assert restarted.snapshot("svc").default_window == 16
        finally:
            restarted.close()

    def test_journal_url_param_round_trips_through_open_collector(self, tmp_path):
        from repro.endpoints import open_collector

        collector = open_collector(f"tcp://127.0.0.1:0?journal={tmp_path}")
        try:
            backend = NetworkBackend(collector.address, stream="via-url", flush_interval=0.01)
            backend.append(0, 0.0, 0, 1)
            assert wait_until(
                lambda: any(i.total_beats == 1 for i in collector.streams())
            )
            backend.close()
        finally:
            collector.close()
        assert any(p.suffix == ".hbj" for p in tmp_path.iterdir())

    def test_restarted_collector_accepts_producer_resumption(self, tmp_path):
        collector = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        backend = NetworkBackend(collector.address, stream="resume", flush_interval=0.01)
        for beat in range(10):
            backend.append(beat, beat * 0.01, 0, 1)
        assert wait_until(
            lambda: any(i.total_beats == 10 for i in collector.streams())
        )
        collector.close()

        restarted = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        try:
            fresh = NetworkBackend(
                restarted.address, stream="resume", flush_interval=0.01
            )
            fresh.append(0, 1.0, 0, 1)
            # A different (pid, nonce) is a new registration; the journaled
            # history stays under the original id and the newcomer gets a
            # disambiguated one — no silent merge of two producers.
            assert wait_until(lambda: len(restarted.streams()) == 2)
            fresh.close()
        finally:
            restarted.close()

    def test_close_then_resume_restarts_as_the_live_stream(self, tmp_path):
        """A HELLO re-registers, so replay clears an earlier CLOSE as live ingest does."""
        collector = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        hello = protocol.encode_hello("svc", pid=41, nonce=7, default_window=8, capacity=64)
        try:
            with socket.create_connection(collector.address, timeout=5.0) as sock:
                sock.sendall(hello + batch_frame(range(5)) + protocol.encode_close(5))
                assert wait_until(lambda: [(i.closed, i.reported_total) for i in collector.streams()] == [(True, 5)])
            with socket.create_connection(collector.address, timeout=5.0) as sock:
                sock.sendall(hello + batch_frame(range(5, 8)))
                assert wait_until(lambda: collector.snapshot("svc").total_beats == 8)
        finally:
            collector.close()
        [live] = collector.streams()
        assert (live.closed, live.reported_total, live.connected) == (False, None, False)
        restarted = HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path))
        try:
            assert restarted.streams() == [live]
        finally:
            restarted.close()


def collector_state(collector: HeartbeatCollector) -> tuple | None:
    """What a restart must restore: records, goals, window and CLOSE state."""
    if "svc" not in collector.stream_ids():
        return None
    snap = collector.snapshot("svc")
    [info] = collector.streams()
    beats = snap.records["beat"].tolist()
    goals = (snap.target_min, snap.target_max, snap.default_window)
    return beats, snap.total_beats, goals, info.closed, info.reported_total


@pytest.mark.network
def test_a_journal_cut_anywhere_restores_the_last_whole_frame(tmp_path):
    """Kill points: the journal cut at every frame boundary and one byte
    inside every frame.  A restart holds what live ingest of the whole
    frames before the cut holds: a contiguous record tail, the goals, the
    window and the CLOSE state."""
    steps = [  # one RELAY entry each; the comment names what it journals
        dict(default_window=4, target_min=2.0, target_max=9.0, records=make_records(range(6))),  # HELLO, BATCH
        dict(default_window=4, target_min=2.0, target_max=9.0, records=make_records(range(6, 10))),  # BATCH
        dict(default_window=4, target_min=3.0, target_max=12.0),  # TARGETS
        dict(default_window=16, target_min=3.0, target_max=12.0),  # HELLO (the relayed window)
        dict(default_window=16, target_min=3.0, target_max=12.0, connected=False, closed=True,
             reported_total=10),  # CLOSE
        dict(default_window=32, target_min=3.0, target_max=12.0, connected=False, closed=True,
             reported_total=10),  # HELLO, CLOSE (a window change while closed)
        dict(default_window=32, target_min=3.0, target_max=12.0),  # HELLO (the resume)
        dict(default_window=32, target_min=3.0, target_max=12.0, records=make_records(range(10, 13))),  # BATCH
    ]
    with HeartbeatCollector("127.0.0.1", 0, journal=str(tmp_path / "source")) as source:
        with socket.create_connection(source.address, timeout=5.0) as sock:
            for sent, fields in enumerate(steps, 1):
                entry = protocol.RelayEntry(stream_id="svc", pid=41, nonce=7, **fields)
                sock.sendall(protocol.encode_relay([entry]))
                assert wait_until(lambda: source.stats()["relay_frames"] == sent)
    data = (tmp_path / "source" / "svc.hbj").read_bytes()
    frames, end, error = protocol.scan_frames(data, 12, runs=False)
    assert (end, error) == (len(data), None)
    assert [f.type for f in frames] == [
        protocol.FRAME_HELLO, protocol.FRAME_BATCH, protocol.FRAME_BATCH, protocol.FRAME_TARGETS,
        protocol.FRAME_HELLO, protocol.FRAME_CLOSE, protocol.FRAME_HELLO, protocol.FRAME_CLOSE,
        protocol.FRAME_HELLO, protocol.FRAME_BATCH,
    ]

    # Live ingest of each whole-frame prefix: a HELLO is a (re)dial.
    expected = [None]
    bounds = [12]
    with HeartbeatCollector() as live:
        socks: list[socket.socket] = []
        try:
            for sent, frame in enumerate(frames, 1):
                encoded = protocol.encode_frame(frame.type, frame.payload)
                if frame.type == protocol.FRAME_HELLO:
                    socks.append(socket.create_connection(live.address, timeout=5.0))
                socks[-1].sendall(encoded)
                assert wait_until(lambda: live.stats()["frames"] == sent)
                expected.append(collector_state(live))
                bounds.append(bounds[-1] + len(encoded))
        finally:
            for sock in socks:
                sock.close()
    assert expected[6][2:] == ((3.0, 12.0, 16), True, 10)
    assert expected[7][2:] == ((3.0, 12.0, 32), False, None)  # cut between a HELLO and its CLOSE
    assert expected[8][2:] == ((3.0, 12.0, 32), True, 10)
    assert expected[-1] == (list(range(13)), 13, (3.0, 12.0, 32), False, None)

    cuts = [(bound, whole) for whole, bound in enumerate(bounds)]
    cuts += [(bound + 1, whole) for whole, bound in enumerate(bounds[:-1])]
    for cut, whole in cuts:
        directory = tmp_path / f"cut-{cut}"
        directory.mkdir()
        (directory / "svc.hbj").write_bytes(data[:cut])
        with HeartbeatCollector("127.0.0.1", 0, journal=str(directory)) as restarted:
            state = collector_state(restarted)
        assert state == expected[whole], (cut, whole)
        assert state is None or state[0] == list(range(state[1]))  # a contiguous tail



class _CrashPoints:
    """The journal module's ``open`` and ``os``, calling ``step(name)`` at each
    step of a compaction: temp file written, flushed, fsynced, before and
    after the rename."""

    def __init__(self, step) -> None:
        self.step = step
        self.tmp_fd: int | None = None

    def open(self, file, mode="r", *args, **kwargs):
        opened = open(file, mode, *args, **kwargs)
        return _TmpFile(opened, self) if str(file).endswith(".tmp") else opened

    def __getattr__(self, name: str):
        return getattr(os, name)

    def fsync(self, fd: int) -> None:
        os.fsync(fd)
        if fd == self.tmp_fd:  # not an append's own fsync
            self.tmp_fd = None
            self.step("fsynced")

    def replace(self, src, dst) -> None:
        self.step("before-replace")
        os.replace(src, dst)
        self.step("after-replace")


class _TmpFile:
    """A compaction's temp file: every write and flush is a crash point."""

    def __init__(self, file, points: _CrashPoints) -> None:
        self._file = file
        self._points = points

    def __enter__(self) -> "_TmpFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._file.close()

    def write(self, data) -> int:
        written = self._file.write(data)
        self._points.step("written")
        return written

    def writelines(self, lines) -> None:
        self._file.writelines(lines)
        self._points.step("written")

    def flush(self) -> None:
        self._file.flush()
        self._points.step("flushed")

    def fileno(self) -> int:
        self._points.tmp_fd = self._file.fileno()
        return self._points.tmp_fd


def relay_entry(first: int, count: int, **fields) -> bytes:
    records = make_records(range(first, first + count))
    return protocol.encode_relay([protocol.RelayEntry(stream_id="svc", pid=41, nonce=7, records=records, **fields)])


@pytest.mark.network
@pytest.mark.parametrize("sync", [False, True], ids=["nosync", "sync"])
def test_a_kill_at_any_step_of_a_compaction_replays_the_whole_stream(tmp_path, monkeypatch, sync):
    """The journal directory, copied at every step of ``JournalWriter.rewrite``,
    replays the stream as it stood: a contiguous tail ending at the last
    journaled beat, the latest goals and the CLOSE state.  The temp file a
    kill leaves behind is not a stream, and the next compaction goes ahead."""
    live, per = tmp_path / "live", 16
    crashes: list[tuple[str, object, tuple]] = []

    def step(name: str) -> None:
        # Runs inside the event loop's compaction: the loop, the row's one
        # writer, is here, so the stream reads as it stands.
        snap = collector.snapshot("svc")
        [info] = collector.streams()
        expected = (
            int(snap.records["beat"][-1]),
            (snap.target_min, snap.target_max, snap.default_window),
            info.closed,
            info.reported_total,
        )
        directory = tmp_path / f"crash-{len(crashes):03d}-{name}"
        shutil.copytree(live, directory)
        crashes.append((name, directory, expected))

    points = _CrashPoints(step)
    monkeypatch.setattr(persistence, "open", points.open, raising=False)
    monkeypatch.setattr(persistence, "os", points)

    steps = [dict(default_window=4, target_min=2.0, target_max=9.0)] * 4
    steps += [dict(default_window=4, target_min=3.0, target_max=12.0)] * 4  # TARGETS
    steps += [dict(default_window=16, target_min=3.0, target_max=12.0)] * 2  # HELLO (a window)
    steps += [  # CLOSE, then window changes while closed: HELLO, CLOSE
        dict(default_window=window, target_min=3.0, target_max=12.0, connected=False, closed=True,
             reported_total=per * (11 + i))
        for i, window in enumerate((16, 32, 32, 8))
    ]
    journal = StreamJournal(live, max_bytes=1024, sync=sync)
    with HeartbeatCollector("127.0.0.1", 0, journal=journal, default_capacity=per) as collector:
        with socket.create_connection(collector.address, timeout=5.0) as sock:
            for sent, fields in enumerate(steps, 1):
                sock.sendall(relay_entry(per * (sent - 1), per, **fields))
                assert wait_until(lambda: collector.stats()["relay_frames"] == sent)
    monkeypatch.undo()

    names = {"written", "flushed", "before-replace", "after-replace"} | ({"fsynced"} if sync else set())
    assert {name for name, _, _ in crashes} == names
    assert {expected[2] for _, _, expected in crashes} == {False, True}  # open and closed rewrites
    for name, directory, (last_beat, goals, closed, reported) in crashes:
        [replayed] = StreamJournal(directory).replay()
        beats = replayed.records["beat"]
        assert beats[-1] == last_beat and (np.diff(beats) == 1).all(), directory.name
        hello = replayed.hello
        assert (hello.target_min, hello.target_max, hello.default_window) == goals, directory.name
        assert (replayed.closed, replayed.reported_total) == (closed, reported), directory.name

    # A restart over each kind of kill that left the temp file compacts again.
    leftovers = {name: directory for name, directory, _ in reversed(crashes) if any(directory.glob("*.tmp"))}
    assert set(leftovers) == names - {"after-replace"}
    for directory in leftovers.values():
        journal = StreamJournal(directory, max_bytes=1024)
        with HeartbeatCollector("127.0.0.1", 0, journal=journal, default_capacity=per) as restarted:
            last_beat = int(restarted.snapshot("svc").records["beat"][-1])
            with socket.create_connection(restarted.address, timeout=5.0) as sock:
                for sent in range(1, 5):
                    sock.sendall(relay_entry(last_beat + 1 + per * (sent - 1), per, default_window=4))
                    assert wait_until(lambda: restarted.stats()["relay_frames"] == sent)
        assert journal._compactions.value >= 1
        assert list(directory.glob("*.tmp")) == []
        [replayed] = StreamJournal(directory).replay()
        beats = replayed.records["beat"]
        assert beats[-1] == last_beat + 4 * per and (np.diff(beats) == 1).all()
