"""Collector ingest is per *read*: one scan, one ``append_many`` per BATCH run.

The per-frame path the collector used before — one ``Frame`` and ``bytes``
copy per wire frame, then one ``decode_batch`` + lock + ``append_many`` +
journal frame each — survives here only as the oracle: ``ReferenceDecoder``,
``PerFrameCollector`` and ``reference_replay`` are that code, and the tests
hold the run path to it record for record, counter for counter and journal
for journal, however the byte stream is cut into reads.
"""

from __future__ import annotations

import socket
import sys
import threading
import zlib
from functools import partial

import numpy as np
import pytest
import waiting
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError
from repro.core.record import RECORD_DTYPE
from repro.net import protocol
from repro.net.async_collector import AsyncHeartbeatCollector, _Connection
from repro.net.persistence import StreamJournal

CAPACITY = 16  # the smallest ring a HELLO can ask for: runs outgrow it easily


# ---------------------------------------------------------------------- #
# The oracle: the parent commit's per-frame decode, ingest and replay
# ---------------------------------------------------------------------- #
class ReferenceDecoder:
    """``FrameDecoder`` as it was: one header check and one copy per frame."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> list[protocol.Frame]:
        if self._poisoned:
            raise ProtocolError("decoder already failed; the connection must be dropped")
        self._buffer.extend(data)
        frames: list[protocol.Frame] = []
        try:
            while True:
                frame, size = reference_next_frame(self._buffer, 0)
                if frame is None:
                    return frames
                del self._buffer[:size]
                frames.append(frame)
        except ProtocolError:
            self._poisoned = True
            raise


def reference_next_frame(data: bytes | bytearray, offset: int) -> tuple[protocol.Frame | None, int]:
    """One frame at ``offset`` and where it ends; ``(None, offset)`` if partial."""
    if len(data) - offset < protocol.HEADER_SIZE:
        return None, offset
    magic, version, ftype, flags, length, crc = protocol.HEADER.unpack_from(data, offset)
    if magic != protocol.MAGIC:
        raise ProtocolError(f"bad frame magic {bytes(magic)!r}")
    if version != protocol.PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if ftype not in (1, 2, 3, 4, 5):
        raise ProtocolError(f"unknown frame type {ftype}")
    if flags != 0:
        raise ProtocolError(f"reserved frame flags set ({flags:#x})")
    if length > protocol.MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {length} bytes exceeds the limit")
    body = offset + protocol.HEADER_SIZE
    if len(data) - body < length:
        return None, offset
    payload = bytes(data[body : body + length])
    if zlib.crc32(payload) != crc:
        raise ProtocolError("frame payload failed its CRC check")
    return protocol.Frame(type=ftype, payload=payload), body + length


class PerFrameCollector(AsyncHeartbeatCollector):
    """The parent's ingest: every BATCH frame decoded, appended and journaled alone."""

    def _ingest(self, conn: _Connection, data: bytes) -> None:
        for frame in conn.decoder.feed(data):
            if frame.type != protocol.FRAME_BATCH:
                self._handle_frame(conn, frame)
                continue
            self._frames.inc()
            if conn.is_relay:
                raise ProtocolError("producer frame on a relay connection")
            stream = conn.stream
            if stream is None:
                raise ProtocolError("first frame of a connection must be HELLO")
            records = protocol.decode_batch(frame.payload)
            stream.ring.append_many(records)
            if stream.journal is not None:
                stream.journal.append_frame(protocol.FRAME_BATCH, frame.payload)
            self._records.inc(int(records.shape[0]))
            self._maybe_compact(stream)


def reference_replay(path) -> tuple[np.ndarray, int, bool, int | None, int]:
    """The parent's journal walk: ``(records, last_beat, closed, reported, valid)``."""
    data = path.read_bytes()
    offset = valid = 12  # the HBJ file header
    batches, last_beat, closed, reported = [], -1, False, None
    while True:
        try:
            frame, end = reference_next_frame(data, offset)
        except ProtocolError:
            break
        if frame is None:
            break
        offset = valid = end
        if frame.type == protocol.FRAME_BATCH:
            records = np.array(protocol.decode_batch(frame.payload))
            batches.append(records)
            last_beat = max(last_beat, int(records["beat"].max()))
        elif frame.type == protocol.FRAME_CLOSE:
            closed = True
            value = protocol.decode_close(frame.payload)
            reported = None if value < 0 else value
    records = np.concatenate(batches) if batches else np.empty(0, dtype=RECORD_DTYPE)
    return records, last_beat, closed, reported, valid


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
wait_until = partial(waiting.wait_until, interval=0.005)


def make_records(first_beat: int, count: int) -> np.ndarray:
    out = np.zeros(count, dtype=RECORD_DTYPE)
    out["beat"] = np.arange(first_beat, first_beat + count)
    out["timestamp"] = out["beat"] * 0.001
    out["tag"] = out["beat"] % 7
    return out


def batch_frame(records: np.ndarray) -> bytes:
    return protocol.encode_frame(protocol.FRAME_BATCH, protocol.batch_payload(records))


def hello_frame(name: str = "svc", nonce: int = 1) -> bytes:
    return protocol.encode_hello(name, pid=9, nonce=nonce, capacity=CAPACITY, default_window=4)


def wire_for(ops: list[tuple]) -> tuple[bytes, int]:
    """HELLO, then one frame per op; beat numbers run on across batches."""
    parts, beat = [hello_frame()], 0
    for op in ops:
        if op[0] == "batch":
            parts.append(batch_frame(make_records(beat, op[1])))
            beat += op[1]
        elif op[0] == "targets":
            parts.append(protocol.encode_targets(op[1], op[1] + op[2]))
        else:
            parts.append(protocol.encode_close(beat))
    return b"".join(parts), beat


def cut(wire: bytes, cuts: list[int]) -> list[bytes]:
    edges = [0, *sorted({c for c in cuts if 0 < c < len(wire)}), len(wire)]
    return [wire[a:b] for a, b in zip(edges, edges[1:])]


def drive(collector: AsyncHeartbeatCollector, chunks: list[bytes], decoder=None) -> _Connection:
    """Hand ``chunks`` to the collector's ingest as consecutive reads of one link."""
    ours, theirs = socket.socketpair()
    theirs.close()
    conn = _Connection(ours, "test")
    if decoder is not None:
        conn.decoder = decoder
    for chunk in chunks:
        try:  # what _service does with one recv()
            collector._ingest(conn, chunk)
        except ProtocolError:
            collector._protocol_errors.inc()
            collector._drop_connection(conn)
            break
    return conn


def observable_state(collector: AsyncHeartbeatCollector) -> dict:
    """What a reader sees; ``batch_runs`` aside, as it counts appends, not the wire."""
    stats = collector.stats()
    del stats["batch_runs"]
    state: dict = {"stats": stats, "streams": collector.streams()}
    for stream_id in collector.stream_ids():
        snap = collector.snapshot(stream_id)
        state[stream_id] = (
            snap.records.tobytes(),
            snap.total_beats,
            (snap.target_min, snap.target_max, snap.default_window),
            collector.source(stream_id).version()[0],
        )
    return state


def replayed_state(directory) -> list[tuple]:
    return [
        (r.stream_id, r.hello, r.via_relay, r.records.tobytes(), r.closed, r.reported_total, r.last_beat)
        for r in StreamJournal(directory).replay()
    ]


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("batch"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("targets"), st.floats(0.5, 50.0), st.floats(0.0, 50.0)),
        st.tuples(st.just("close")),
    ),
    min_size=1,
    max_size=24,
)


# ---------------------------------------------------------------------- #
# Run path ≡ per-frame path
# ---------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(ops=OPS, cuts=st.lists(st.integers(min_value=1, max_value=4000), max_size=12))
@example(ops=[("batch", 4)] * 12, cuts=[])  # one read, one run three rings long
@example(ops=[("batch", 4), ("batch", 4), ("close",), ("batch", 40)], cuts=[70, 75, 300])
@example(ops=[("batch", 3), ("targets", 2.0, 1.0), ("batch", 5), ("batch", 1)], cuts=[8, 120])
def test_run_ingest_equals_per_frame_ingest(tmp_path_factory, ops, cuts):
    wire, beats = wire_for(ops)
    chunks = cut(wire, cuts)
    root = tmp_path_factory.mktemp("runs")
    with AsyncHeartbeatCollector(journal=str(root / "run")) as run, PerFrameCollector(
        journal=str(root / "frame")
    ) as frame:
        drive(run, chunks)
        drive(frame, chunks, ReferenceDecoder())
        assert observable_state(run) == observable_state(frame)
        assert run.stats()["records"] == beats
        assert run.stats()["frames"] == len(ops) + 1
        # One run per stretch of BATCH frames at least, per BATCH frame at most.
        stretches = sum(
            op[0] == "batch" and (i == 0 or ops[i - 1][0] != "batch") for i, op in enumerate(ops)
        )
        batches = sum(op[0] == "batch" for op in ops)
        assert stretches <= run.stats()["batch_runs"] <= batches
        beat_numbers = run.snapshot("svc").records["beat"]
        assert list(beat_numbers) == list(range(beats))[-CAPACITY:]
    assert replayed_state(root / "run") == replayed_state(root / "frame")
    # And a restart from either journal brings back the same streams.
    with AsyncHeartbeatCollector(journal=str(root / "run")) as a, AsyncHeartbeatCollector(
        journal=str(root / "frame")
    ) as b:
        assert observable_state(a) == observable_state(b)


@pytest.mark.parametrize("chunk", [1, 15, 16, 17, 143, 144, 145, 1000, 1 << 16])
def test_every_split_point_class_gives_the_same_stream(chunk):
    """Cuts inside headers, inside payloads, on frame edges, several runs a read."""
    ops = [("batch", 4)] * 9 + [("targets", 3.0, 2.0)] + [("batch", 4)] * 7 + [("close",)]
    wire, beats = wire_for(ops)
    with AsyncHeartbeatCollector() as run, PerFrameCollector() as frame:
        drive(run, [wire[i : i + chunk] for i in range(0, len(wire), chunk)])
        drive(frame, [wire], ReferenceDecoder())
        assert observable_state(run) == observable_state(frame)
        assert run.streams()[0].reported_total == beats


@settings(max_examples=60, deadline=None)
@given(
    ops=OPS,
    cuts=st.lists(st.integers(min_value=1, max_value=4000), max_size=8),
    damage=st.one_of(st.none(), st.tuples(st.integers(0, 4000), st.integers(1, 255))),
)
def test_feed_is_still_the_per_frame_decoder(ops, cuts, damage):
    """``feed`` returns the frames — or raises at the read — the old decoder did."""
    wire, _ = wire_for(ops)
    if damage is not None:
        wire = bytearray(wire)
        wire[damage[0] % len(wire)] ^= damage[1]
        wire = bytes(wire)
    new, old = protocol.FrameDecoder(), ReferenceDecoder()
    for chunk in cut(wire, cuts):
        try:
            expected = old.feed(chunk)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                new.feed(chunk)
            with pytest.raises(ProtocolError, match="dropped"):
                new.feed(b"")
            return
        frames = new.feed(chunk)
        assert frames == expected
        assert all(type(f) is protocol.Frame and type(f.payload) is bytes for f in frames)
    assert new.pending == len(old._buffer)


# ---------------------------------------------------------------------- #
# Counters count the wire
# ---------------------------------------------------------------------- #
def test_counters_count_wire_frames_and_records_over_a_real_socket():
    sizes = [1, 2, 3, 4, 64]
    wire, beats = wire_for(
        [("batch", n) for n in sizes] + [("targets", 1.0, 1.0), ("batch", 5), ("batch", 5), ("close",)]
    )
    with AsyncHeartbeatCollector() as collector:
        with socket.create_connection(collector.address, timeout=5.0) as sock:
            sock.sendall(wire)
            assert wait_until(lambda: any(s.closed for s in collector.streams()))
        with socket.create_connection(collector.address, timeout=5.0) as vandal:
            vandal.sendall(b"GET / HTTP/1.1\r\n\r\n")
            assert wait_until(lambda: collector.stats()["protocol_errors"] == 1)
        stats = collector.stats()
        assert stats["frames"] == 1 + len(sizes) + 1 + 2 + 1  # HELLO, BATCHes, TARGETS, CLOSE
        assert stats["records"] == beats == sum(sizes) + 10
        assert stats["protocol_errors"] == 1
        assert stats["connections_accepted"] == 2
        assert 2 <= stats["batch_runs"] <= len(sizes) + 2  # the TARGETS splits the BATCH frames
        scraped = collector.metrics.as_dict()
        assert scraped["collector_frames_total"] == stats["frames"]
        assert scraped["collector_batch_runs_total"] == stats["batch_runs"]


def test_valid_frames_before_a_corrupt_one_in_the_same_read_are_ingested():
    """The pinned rule: the valid prefix lands, then the connection drops."""
    good = [batch_frame(make_records(4 * i, 4)) for i in range(4)]
    torn = bytearray(good[3])
    torn[-1] ^= 0xFF
    wire = hello_frame() + b"".join(good[:3]) + bytes(torn) + batch_frame(make_records(16, 4))
    with AsyncHeartbeatCollector() as collector:
        with socket.create_connection(collector.address, timeout=5.0) as sock:
            sock.sendall(wire)  # one write; however TCP cuts it, the result is the same
            assert wait_until(lambda: collector.stats()["protocol_errors"] == 1)
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # dropped
        assert list(collector.snapshot("svc").records["beat"]) == list(range(12))
        assert collector.stats()["frames"] == 4
        assert collector.stats()["records"] == 12
        assert not collector.streams()[0].connected


def test_feed_runs_returns_the_prefix_beside_the_error_and_poisons():
    decoder = protocol.FrameDecoder()
    wire = hello_frame() + batch_frame(make_records(0, 2)) + batch_frame(make_records(2, 3))
    items, error = decoder.feed_runs(wire + b"NOPE" + bytes(12))
    assert [type(item) for item in items] == [protocol.Frame, protocol.BatchRun]
    assert items[1].frames == 2 and list(items[1].records["beat"]) == [0, 1, 2, 3, 4]
    assert isinstance(error, ProtocolError) and "magic" in str(error)
    with pytest.raises(ProtocolError, match="dropped"):
        decoder.feed_runs(b"")
    with pytest.raises(ProtocolError, match="dropped"):
        decoder.feed(b"")


def test_runs_never_view_the_receive_buffer():
    decoder = protocol.FrameDecoder()
    half = batch_frame(make_records(2, 2))
    items, _ = decoder.feed_runs(batch_frame(make_records(0, 2)) + half[:20])
    records = items[0].records
    decoder.feed_runs(half[20:] + batch_frame(make_records(4, 2)))  # buffer resized, reused
    assert list(records["beat"]) == [0, 1] and decoder.pending == 0


# ---------------------------------------------------------------------- #
# Corruption: one link dies, alone
# ---------------------------------------------------------------------- #
def _flipped_crc() -> bytes:
    frame = bytearray(batch_frame(make_records(8, 4)))
    frame[12] ^= 0x01  # a byte of the CRC field itself
    return bytes(frame)


def _raw_batch(payload: bytes) -> bytes:
    return protocol.encode_frame(protocol.FRAME_BATCH, payload)


_RELAY = protocol.encode_relay([protocol.RelayEntry(stream_id="up", pid=1, nonce=1)])
_TWO = batch_frame(make_records(0, 4)) + batch_frame(make_records(4, 4))
CORRUPTIONS = {
    "flipped-crc": (hello_frame("bad") + _TWO + _flipped_crc(), 8),
    "bad-magic": (hello_frame("bad") + _TWO + b"HBTX" + bytes(12), 8),
    "zero-length-batch": (hello_frame("bad") + _TWO + _raw_batch(b""), 8),
    "33-byte-batch": (hello_frame("bad") + _TWO + _raw_batch(bytes(33)), 8),
    "batch-before-hello": (_TWO, None),
    "batch-on-relay-link": (_RELAY + _TWO, None),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corruption_mid_run_drops_only_that_connection(name):
    wire, survivors = CORRUPTIONS[name]
    with AsyncHeartbeatCollector() as collector:
        sibling = socket.create_connection(collector.address, timeout=5.0)
        sibling.sendall(hello_frame("good", nonce=2) + batch_frame(make_records(0, 4)))
        assert wait_until(lambda: "good" in collector.stream_ids())
        with socket.create_connection(collector.address, timeout=5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(wire + batch_frame(make_records(100, 4)))
            assert wait_until(lambda: collector.stats()["protocol_errors"] == 1)
            assert sock.recv(1) == b""
        if survivors is None:
            assert "bad" not in collector.stream_ids()
        else:  # history before the bad frame stays; nothing after it landed
            assert list(collector.snapshot("bad").records["beat"]) == list(range(survivors))
        sibling.sendall(batch_frame(make_records(4, 4)))
        assert wait_until(lambda: collector.snapshot("good").total_beats == 8)
        assert collector.stats()["protocol_errors"] == 1
        assert collector.stats()["open_connections"] == 1
        sibling.close()


@pytest.mark.parametrize("name", ["flipped-crc", "bad-magic", "zero-length-batch", "33-byte-batch"])
def test_malformed_bytes_leave_the_decoder_poisoned(name):
    wire, survivors = CORRUPTIONS[name]
    with AsyncHeartbeatCollector() as collector:
        conn = drive(collector, [wire])
        assert conn.sock.fileno() == -1
        with pytest.raises(ProtocolError, match="dropped"):
            conn.decoder.feed_runs(batch_frame(make_records(8, 4)))
        assert collector.stats()["protocol_errors"] == 1
        assert collector.snapshot("bad").total_beats == survivors


# ---------------------------------------------------------------------- #
# A reader against runs longer than the ring
# ---------------------------------------------------------------------- #
def test_reader_polling_while_runs_outgrow_the_ring_sees_contiguous_tails():
    sends, per_send = 200, 40  # 160 records a write into a 16-slot ring
    failures: list[str] = []
    done = threading.Event()

    def read(collector: AsyncHeartbeatCollector) -> None:
        source, cursor, polls = collector.source("svc"), None, 0
        while not done.is_set() or polls == 0:
            delta, cursor = source.snapshot_since(cursor)
            beats = delta.records["beat"]
            if beats.size and (np.any(np.diff(beats) != 1) or beats[-1] != delta.total_beats - 1):
                failures.append(f"delta {beats.tolist()} at total {delta.total_beats}")
            snap = collector.snapshot("svc")
            tail = snap.records["beat"]
            if tail.size and (np.any(np.diff(tail) != 1) or tail[-1] != snap.total_beats - 1):
                failures.append(f"snapshot {tail.tolist()} at total {snap.total_beats}")
            polls += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with AsyncHeartbeatCollector() as collector:
            with socket.create_connection(collector.address, timeout=5.0) as sock:
                sock.sendall(hello_frame())
                assert collector.wait_for_streams(1)
                reader = threading.Thread(target=read, args=(collector,), daemon=True)
                reader.start()
                beat = 0
                for _ in range(sends):
                    frames = [batch_frame(make_records(beat + 4 * i, 4)) for i in range(per_send)]
                    sock.sendall(b"".join(frames))
                    beat += 4 * per_send
                total = sends * per_send * 4
                assert wait_until(lambda: collector.stats()["records"] == total, timeout=20.0)
                done.set()
                reader.join(timeout=10.0)
                assert not reader.is_alive()
            assert failures == []
            assert collector.stats()["frames"] == 1 + sends * per_send
            assert list(collector.snapshot("svc").records["beat"]) == list(range(total - CAPACITY, total))
    finally:
        done.set()
        sys.setswitchinterval(interval)


def test_listings_and_delta_reads_racing_close_and_redial_see_only_written_states():
    """The event loop is each stream's one writer and stores its liveness as
    one value, after the records a CLOSE counts: a reader polling flat out
    never sees a half-written transition or a CLOSE ahead of its records."""
    cycles, per = 60, 24  # 24 records a cycle into a 16-slot ring
    counts = {per * (cycle + 1) for cycle in range(cycles)}
    failures: list[str] = []
    closed_seen: list[int] = []
    done = threading.Event()

    def read(collector: AsyncHeartbeatCollector) -> None:
        source, cursor, polls = collector.source("svc"), None, 0
        while not done.is_set() or polls == 0:
            for info in collector.streams():
                if info.closed:
                    closed_seen.append(info.reported_total)
                    if info.connected or info.reported_total not in counts:
                        failures.append(f"a closed state no transition writes: {info}")
                    elif info.total_beats < info.reported_total:
                        failures.append(f"CLOSE ahead of its records: {info}")
                elif info.reported_total is not None:
                    failures.append(f"open state with a CLOSE count: {info}")
            delta, cursor = source.snapshot_since(cursor)
            beats = delta.records["beat"]
            if beats.size and (np.any(np.diff(beats) != 1) or beats[-1] != delta.total_beats - 1):
                failures.append(f"delta {beats.tolist()} at total {delta.total_beats}")
            polls += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with AsyncHeartbeatCollector() as collector:
            reader = threading.Thread(target=read, args=(collector,), daemon=True)
            for cycle in range(cycles):
                sent = per * (cycle + 1)
                with socket.create_connection(collector.address, timeout=5.0) as sock:
                    sock.sendall(hello_frame() + batch_frame(make_records(sent - per, per)))
                    if cycle == 0:
                        assert collector.wait_for_streams(1)
                        reader.start()
                    sock.sendall(protocol.encode_close(sent))
                    assert wait_until(
                        lambda: [(s.closed, s.reported_total) for s in collector.streams()] == [(True, sent)]
                    )
            done.set()
            reader.join(timeout=10.0)
            assert not reader.is_alive()
            [info] = collector.streams()
            assert (info.total_beats, info.reported_total, info.connected) == (cycles * per, cycles * per, False)
        assert failures == []
        assert closed_seen  # the reader raced the transitions, not an idle stream
    finally:
        done.set()
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------- #
# Journals: parent ⇄ change
# ---------------------------------------------------------------------- #
def test_journals_replay_across_the_parent_and_this_commit(tmp_path):
    """HBJ v1 both ways: wire-framed files read here, run-framed files read there."""
    wire, beats = wire_for([("batch", 4)] * 10 + [("targets", 2.0, 3.0), ("batch", 7), ("close",)])
    with PerFrameCollector(journal=str(tmp_path / "parent")) as parent:
        drive(parent, [wire], ReferenceDecoder())
    with AsyncHeartbeatCollector(journal=str(tmp_path / "change")) as change:
        drive(change, [wire])
    parent_file, change_file = tmp_path / "parent" / "svc.hbj", tmp_path / "change" / "svc.hbj"
    assert change_file.stat().st_size < parent_file.stat().st_size  # 2 BATCH headers, not 11

    [theirs] = StreamJournal(tmp_path / "parent").replay()  # parent's file, this reader
    assert list(theirs.records["beat"]) == list(range(beats))
    assert (theirs.closed, theirs.reported_total, theirs.last_beat) == (True, beats, beats - 1)
    assert theirs.valid_bytes == parent_file.stat().st_size
    assert (theirs.hello.target_min, theirs.hello.target_max) == (2.0, 5.0)

    records, last_beat, closed, reported, valid = reference_replay(change_file)  # and back
    assert list(records["beat"]) == list(range(beats))
    assert (closed, reported, last_beat, valid) == (True, beats, beats - 1, change_file.stat().st_size)


def test_replay_stops_before_a_well_framed_frame_it_cannot_decode(tmp_path):
    journal = StreamJournal(tmp_path)
    writer = journal.writer("svc", protocol.decode_hello(protocol.strip_header(hello_frame())))
    writer.append_records(make_records(0, 3))
    good = writer.path.stat().st_size
    writer.append_frame(protocol.FRAME_TARGETS, b"short")  # CRC-valid, not a TARGETS payload
    writer.append_records(make_records(3, 3))
    journal.close()
    [replayed] = StreamJournal(tmp_path).replay()
    assert list(replayed.records["beat"]) == [0, 1, 2]
    assert replayed.valid_bytes == good
