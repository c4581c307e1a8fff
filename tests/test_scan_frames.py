"""``scan_frames`` validates a run of same-shape frames per step, as the per-frame walk did.

``reference_scan_frames`` below is the frame-by-frame walk ``scan_frames``
had before it learned runs: one header unpack, five checks, one payload
slice, one ``crc32`` and one append per frame.  It survives here only as the
oracle.  The hypothesis test builds frame sequences shaped like real traffic
(long runs of same-length BATCH frames, alternating lengths, HELLO / TARGETS
/ CLOSE / RELAY frames between them, zero-length and partial-record BATCH
frames), damages them in one structure-aware way, and holds the run walk to
the oracle item for item, offset for offset and error text for error text.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError
from repro.core.record import RECORD_DTYPE
from repro.net import protocol
from repro.net.persistence import StreamJournal

_RECORD = protocol.WIRE_RECORD_DTYPE.itemsize


# ---------------------------------------------------------------------- #
# The oracle: the frame-by-frame walk
# ---------------------------------------------------------------------- #
def reference_scan_frames(buffer, offset=0, *, runs):
    items = []
    parts = []  # payloads of the BATCH run being gathered
    error = None
    size = len(buffer)
    while size - offset >= protocol.HEADER_SIZE:
        magic, version, ftype, flags, length, crc = protocol.HEADER.unpack_from(buffer, offset)
        if magic != protocol.MAGIC:
            error = ProtocolError(f"bad frame magic {bytes(magic)!r}")
        elif version != protocol.PROTOCOL_VERSION:
            error = ProtocolError(f"unsupported protocol version {version}")
        elif ftype not in (1, 2, 3, 4, 5):
            error = ProtocolError(f"unknown frame type {ftype}")
        elif flags != 0:
            error = ProtocolError(f"reserved frame flags set ({flags:#x})")
        elif length > protocol.MAX_PAYLOAD:
            error = ProtocolError(
                f"frame payload of {length} bytes exceeds the {protocol.MAX_PAYLOAD} byte limit"
            )
        end = offset + protocol.HEADER_SIZE + length
        if error is not None or end > size:
            break
        payload = buffer[offset + protocol.HEADER_SIZE : end]
        if zlib.crc32(payload) != crc:
            error = ProtocolError("frame payload failed its CRC check")
            break
        if runs and ftype == protocol.FRAME_BATCH:
            if length == 0 or length % _RECORD:
                error = protocol._batch_length_error(length)
                break
            parts.append(payload)
        else:
            if parts:
                items.append(_reference_gather(parts))
            items.append(protocol.Frame(ftype, bytes(payload)))
        offset = end
    if parts:
        items.append(_reference_gather(parts))
    return items, offset, error


def _reference_gather(parts):
    run = protocol.BatchRun(protocol.decode_batch(b"".join(parts)), len(parts))
    parts.clear()
    return run


# ---------------------------------------------------------------------- #
# Frame sequences and their damage
# ---------------------------------------------------------------------- #
def batch(first_beat: int, count: int, spare: int = 0) -> bytes:
    """A BATCH frame of ``count`` records (plus ``spare`` stray bytes)."""
    records = np.zeros(count, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(first_beat, first_beat + count)
    records["timestamp"] = records["beat"] * 0.001
    payload = bytes(protocol.batch_payload(records)) + b"\xab" * spare
    return protocol.encode_frame(protocol.FRAME_BATCH, payload)


def relay(beat: int, count: int) -> bytes:
    records = np.zeros(count, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(beat, beat + count)
    return protocol.encode_relay([protocol.RelayEntry(stream_id=f"s{beat}", pid=1, records=records)])


SEGMENTS = st.one_of(
    # runs of same-length BATCH frames: long ones (the traffic the run walk
    # is for; 16 frames make a run step) and short ones
    st.tuples(st.just("run"), st.integers(16, 48), st.integers(1, 6)),
    st.tuples(st.just("run"), st.integers(1, 15), st.integers(1, 6)),
    st.tuples(st.just("alternate"), st.integers(2, 12), st.integers(1, 4), st.integers(1, 4)),
    st.tuples(st.just("odd"), st.integers(1, 4), st.integers(0, 2), st.integers(0, _RECORD - 1)),
    st.tuples(st.just("hello")),
    st.tuples(st.just("targets")),
    st.tuples(st.just("close")),
    st.tuples(st.just("relay"), st.integers(0, 3)),
)

#: No damage, or one: a bad header field, a flipped CRC or a cut, in frame
#: (or at byte) ``where`` modulo the sequence's length.
MUTATIONS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["magic", "version", "type", "flags", "length"]), st.integers(0, 10**6)),
    st.tuples(st.just("crc"), st.integers(0, 10**6)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
)


def build(segments) -> list[bytes]:
    frames, beat = [], 0
    for kind, *args in segments:
        if kind == "run":
            count, size = args
            frames += [batch(beat + i * size, size) for i in range(count)]
            beat += count * size
        elif kind == "alternate":
            count, a, b = args
            for i in range(count):
                size = a if i % 2 == 0 else b
                frames.append(batch(beat, size))
                beat += size
        elif kind == "odd":  # zero-length and partial-record BATCH frames
            count, size, spare = args
            frames += [batch(beat, size, spare)] * count
        elif kind == "hello":
            frames.append(protocol.encode_hello("svc", pid=3, nonce=5, capacity=64))
        elif kind == "targets":
            frames.append(protocol.encode_targets(1.0, 2.0 + beat))
        elif kind == "close":
            frames.append(protocol.encode_close(beat))
        else:
            frames.append(relay(beat, args[0]))
    return frames


#: Where each damaged header field sits, and a value that makes it invalid.
_FIELDS = {
    "magic": (0, b"HBTQ"),
    "version": (4, bytes([protocol.PROTOCOL_VERSION + 1])),
    "type": (5, bytes([9])),
    "flags": (6, b"\x00\x04"),
    "length": (8, struct.pack("!I", protocol.MAX_PAYLOAD + 1)),
}


def damage(frames: list[bytes], mutation) -> bytes:
    wire = bytearray(b"".join(frames))
    if mutation is None:
        return bytes(wire)
    kind, where = mutation
    if kind == "truncate":
        return bytes(wire[: where % (len(wire) + 1)])
    starts = np.cumsum([0] + [len(f) for f in frames[:-1]])
    at = int(starts[where % len(frames)])
    if kind == "crc":
        wire[at + 12] ^= 0x01
    else:
        field, value = _FIELDS[kind]
        wire[at + field : at + field + len(value)] = value
    return bytes(wire)


def flat(items) -> list[tuple]:
    """Items as plain values: a run's records as bytes, beside its frame count."""
    out = []
    for item in items:
        if isinstance(item, protocol.BatchRun):
            assert item.records.dtype == RECORD_DTYPE
            out.append(("run", item.frames, item.records.tobytes()))
        else:
            assert type(item.payload) is bytes
            out.append((item.type, item.payload))
    return out


def as_wire(items) -> list[tuple]:
    """Items with adjacent runs merged: what a link ingests, however reads cut it."""
    out: list[tuple] = []
    for entry in flat(items):
        if entry[0] == "run" and out and out[-1][0] == "run":
            out[-1] = ("run", out[-1][1] + entry[1], out[-1][2] + entry[2])
        else:
            out.append(entry)
    return out


def same_scan(new, old) -> None:
    (items, end, error), (want, want_end, want_error) = new, old
    assert flat(items) == flat(want)
    assert end == want_end
    assert (error is None, str(error)) == (want_error is None, str(want_error))


# ---------------------------------------------------------------------- #
# The run walk ≡ the frame walk
# ---------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(
    segments=st.lists(SEGMENTS, min_size=1, max_size=8),
    mutation=MUTATIONS,
    lead=st.integers(0, 20),
    cuts=st.lists(st.integers(1, 1 << 14), max_size=6),
)
@example(segments=[("run", 30, 4)], mutation=("crc", 17), lead=0, cuts=[])  # frame j of a run
@example(segments=[("run", 30, 4)], mutation=("crc", 29), lead=0, cuts=[])  # its last frame
@example(segments=[("run", 30, 4)], mutation=("crc", 1), lead=0, cuts=[])
@example(segments=[("run", 8, 4), ("run", 8, 4)], mutation=("type", 11), lead=3, cuts=[700])
@example(segments=[("run", 6, 2), ("odd", 3, 0, 0)], mutation=("crc", 7), lead=0, cuts=[])
@example(segments=[("odd", 4, 1, 5), ("targets",)], mutation=None, lead=0, cuts=[])
@example(segments=[("alternate", 9, 1, 3), ("relay", 2)], mutation=("truncate", 500), lead=0, cuts=[])
def test_run_walk_equals_frame_walk(segments, mutation, lead, cuts):
    wire = damage(build(segments), mutation)
    data = b"\xee" * lead + wire
    for runs in (True, False):
        # bytes (journal replay) and bytearray (the socket decoder's buffer)
        same_scan(
            protocol.scan_frames(data, lead, runs=runs), reference_scan_frames(data, lead, runs=runs)
        )
        buffer = bytearray(data)
        items, end, _ = protocol.scan_frames(buffer, lead, runs=runs)
        kept = flat(items)
        buffer[:] = b"\x00" * len(buffer)  # nothing returned views the buffer ...
        assert flat(items) == kept
        del buffer[:end]  # ... and no view of it is still exported
    # A decoder fed the same bytes in reads cut anywhere ingests the same prefix.
    items, end, error = reference_scan_frames(wire, runs=True)
    decoder, got, got_error = protocol.FrameDecoder(), [], None
    edges = [0, *sorted({c % (len(wire) + 1) for c in cuts}), len(wire)]
    for a, b in zip(edges, edges[1:]):
        chunk_items, got_error = decoder.feed_runs(wire[a:b])
        got += chunk_items
        if got_error is not None:
            break
    assert as_wire(got) == as_wire(items)
    assert str(got_error) == str(error)
    if error is None:
        assert decoder.pending == len(wire) - end


def test_a_read_of_same_shape_frames_is_validated_in_one_step(monkeypatch):
    """256 four-record frames in one read: one array step, one run, wire order."""
    steps, run_length = [], protocol._run_length

    def counted(*args):
        steps.append(run_length(*args))
        return steps[-1]

    monkeypatch.setattr(protocol, "_run_length", counted)
    wire = b"".join(batch(4 * i, 4) for i in range(256))
    (run,), end, error = protocol.scan_frames(bytearray(wire), runs=True)
    assert steps == [256]
    assert (run.frames, end, error) == (256, len(wire), None)
    assert list(run.records["beat"]) == list(range(1024))


def test_a_run_goes_through_the_byte_order_conversion(monkeypatch):
    """A big-endian host converts a run's records as it converts one frame's."""
    monkeypatch.setattr(protocol, "_NATIVE_IS_WIRE", False)
    wire = b"".join(batch(4 * i, 4) for i in range(40))
    (run,), _, _ = protocol.scan_frames(wire, runs=True)
    assert run.records.dtype == RECORD_DTYPE and run.records.flags.owndata  # astype, not a view
    assert list(run.records["beat"]) == list(range(160))


@pytest.mark.parametrize("bad", [0, 1, 2, 16, 17, 39])
def test_a_flipped_crc_in_a_run_stops_the_walk_at_that_frame(bad):
    frames = [batch(4 * i, 4) for i in range(40)]
    wire = damage(frames, ("crc", bad))
    items, end, error = protocol.scan_frames(wire, runs=True)
    assert end == bad * len(frames[0])
    assert [item.frames for item in items] == ([bad] if bad else [])
    assert [len(item.records) for item in items] == ([4 * bad] if bad else [])
    assert str(error) == "frame payload failed its CRC check"


# ---------------------------------------------------------------------- #
# Journal replay keeps the frames before a bad CRC
# ---------------------------------------------------------------------- #
def test_replay_of_same_length_frames_keeps_exactly_the_frames_before_a_bad_crc(tmp_path):
    """``_replay_file`` derives its valid offset from ``BatchRun.frames``."""
    journal = StreamJournal(tmp_path)
    hello = protocol.Hello(name="svc", pid=3, default_window=4, capacity=64, target_min=0.0, target_max=0.0)
    writer = journal.writer("svc", hello)
    for i in range(40):
        writer.append_frame(protocol.FRAME_BATCH, protocol.strip_header(batch(4 * i, 4)))
    journal.close()
    path = journal.path_for("svc")
    data = bytearray(path.read_bytes())
    frame = protocol.HEADER_SIZE + 4 * _RECORD
    bad = len(data) - 15 * frame  # BATCH frame 25 of 40 (from 0), inside one run
    data[bad + 12] ^= 0x01  # its CRC
    path.write_bytes(bytes(data))

    fresh = StreamJournal(tmp_path)
    (replayed,) = fresh.replay()
    assert list(replayed.records["beat"]) == list(range(100))
    assert replayed.last_beat == 99
    assert replayed.valid_bytes == bad
    assert fresh.metrics.as_dict()["journal_torn_tails_total"] == 1
