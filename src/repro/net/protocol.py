"""Wire protocol for networked heartbeat telemetry.

A heartbeat stream crosses the network as a sequence of *frames*.  Every
frame is length-prefixed and carries a CRC of its payload, so a collector
can reject truncated or corrupted input deterministically instead of
misparsing it; the protocol is versioned so the layout can evolve without
silently breaking old peers.

Frame layout (network byte order)
---------------------------------
========  ======  ====================================================
offset    type    field
========  ======  ====================================================
0         4s      magic (``b"HBTP"``)
4         u8      protocol version (currently 1)
5         u8      frame type (hello / batch / targets / close)
6         u16     flags (reserved, must be zero)
8         u32     payload length in bytes
12        u32     CRC-32 of the payload
16        --      payload
========  ======  ====================================================

Frame types
-----------
``HELLO``
    Sent once per connection before anything else; registers the stream with
    the collector.  Carries the stream name, producer PID, default rate
    window, capacity hint and current target range, so a reconnecting
    producer re-synchronises the collector's per-stream metadata in one
    frame.
``BATCH``
    One or more heartbeat records packed exactly as the shared
    :data:`repro.core.record.RECORD_DTYPE` (little-endian on the wire).  On
    little-endian hosts — the common case — encoding is zero-copy: the
    frame's payload *is* the records array's buffer.
``TARGETS``
    A target heart-rate range update (``HB_set_target_rate`` made visible to
    remote observers).
``CLOSE``
    Graceful end of stream, carrying the producer's final beat count; a
    connection that drops without a CLOSE is a producer death, not a
    shutdown.
``RELAY``
    A collector→collector frame: one batch of per-stream *delta* entries —
    stream id, origin identity (pid, nonce), goals, liveness flags and any
    new records — letting an edge collector forward its whole fleet upstream
    in a handful of frames.  The payload carries its own version byte and
    record itemsize, so relay links are re-negotiable independently of the
    outer frame version and a root rejects mismatched record layouts
    deterministically.  A connection's first frame chooses its role: HELLO
    makes it a producer link, RELAY makes it a relay link, and the two frame
    families must not be mixed afterwards.

Receivers validate with :func:`scan_frames`, one run of same-shape frames
(one type and length) per step: every header and every CRC-32 is still
checked, and what comes back before an error is what a frame-by-frame walk
returns.

The byte-exact layouts, versioning rules and compatibility guarantees are
specified normatively in ``docs/wire-protocol.md``; this module is the
reference implementation.

>>> frame = encode_targets(8.0, 12.0)
>>> frame[:4], len(frame)
(b'HBTP', 32)
>>> decoder = FrameDecoder()
>>> [f.type for f in decoder.feed(frame)] == [FRAME_TARGETS]
True
"""

from __future__ import annotations

import select
import socket
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ProtocolError
from repro.core.record import RECORD_DTYPE

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "HEADER",
    "MAX_PAYLOAD",
    "FRAME_HELLO",
    "FRAME_BATCH",
    "FRAME_TARGETS",
    "FRAME_CLOSE",
    "FRAME_RELAY",
    "RELAY_VERSION",
    "MAX_RELAY_ENTRIES",
    "Frame",
    "BatchRun",
    "FrameDecoder",
    "Hello",
    "RelayEntry",
    "RelayFrame",
    "ProtocolError",
    "encode_frame",
    "frame_buffers",
    "encode_hello",
    "decode_hello",
    "batch_payload",
    "decode_batch",
    "encode_targets",
    "decode_targets",
    "encode_close",
    "decode_close",
    "encode_relay",
    "decode_relay",
    "decode_relay_frame",
    "relay_entry_size",
    "strip_header",
    "scan_frames",
    "parse_address",
    "link_alive",
]

MAGIC = b"HBTP"
PROTOCOL_VERSION = 1

#: magic, version, frame type, flags, payload length, payload CRC-32.
HEADER = struct.Struct("!4sBBHII")
HEADER_SIZE = HEADER.size

#: Upper bound on a frame payload.  Large enough for any realistic record
#: batch (16 MiB ≈ 500k records) while bounding what a garbage length prefix
#: can make a collector buffer.
MAX_PAYLOAD = 16 * 1024 * 1024

FRAME_HELLO = 1
FRAME_BATCH = 2
FRAME_TARGETS = 3
FRAME_CLOSE = 4
FRAME_RELAY = 5
_KNOWN_FRAMES = frozenset((FRAME_HELLO, FRAME_BATCH, FRAME_TARGETS, FRAME_CLOSE, FRAME_RELAY))

#: Version byte of the RELAY payload itself.  Relay links are
#: collector↔collector, so their layout can evolve (new flags, compression)
#: without bumping :data:`PROTOCOL_VERSION` and breaking every producer.
#: Version 2 widened the payload header with a hop-timestamp field so a
#: parent can measure per-link delivery latency.  Senders emit this version
#: and receivers decode only it: no edge of this tree sends version 1.
RELAY_VERSION = 2

#: Upper bound on stream entries in one RELAY frame (the count field is u16).
MAX_RELAY_ENTRIES = 0xFFFF

#: On-the-wire record layout: the shared record dtype, little-endian.  On
#: little-endian hosts this *is* :data:`RECORD_DTYPE`, so packing a batch is
#: a buffer view rather than a copy.
WIRE_RECORD_DTYPE = RECORD_DTYPE.newbyteorder("<")
_NATIVE_IS_WIRE = sys.byteorder == "little"
_RECORD_SIZE = WIRE_RECORD_DTYPE.itemsize

#: pid, nonce, window, capacity, itemsize, tmin, tmax, name length.  The
#: nonce is unique per producer backend instance, so a collector can tell a
#: reconnect of the *same* stream from a same-named sibling in one process.
_HELLO = struct.Struct("!qqqqqddH")
_TARGETS = struct.Struct("!dd")
_CLOSE = struct.Struct("!q")

#: RELAY payload header: relay version, record itemsize, entry count and the
#: sender's hop timestamp (an f64 ``time.perf_counter()`` reading; 0.0
#: means "not annotated").
_RELAY_HEADER = struct.Struct("!BHHd")
#: One RELAY entry header: pid, nonce, default window, target min/max,
#: reported total (-1: none), flags, stream-id byte length, record count.
_RELAY_ENTRY = struct.Struct("!qqqddqBHI")

#: RELAY entry flag bits (liveness propagated from the edge).
RELAY_FLAG_CONNECTED = 0x01
RELAY_FLAG_CLOSED = 0x02


@dataclass(frozen=True, slots=True)
class Frame:
    """One decoded frame: its type and raw payload bytes."""

    type: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class BatchRun:
    """Consecutive BATCH frames of one scan: ``frames`` wire frames, one array."""

    records: np.ndarray
    frames: int


@dataclass(frozen=True, slots=True)
class Hello:
    """Decoded stream registration (the first frame of every connection)."""

    name: str
    pid: int
    default_window: int
    capacity: int
    target_min: float
    target_max: float
    nonce: int = 0


# ---------------------------------------------------------------------- #
# Encoding
# ---------------------------------------------------------------------- #
def frame_buffers(ftype: int, payload: bytes | memoryview) -> tuple[bytes, bytes | memoryview]:
    """Return ``(header, payload)`` buffers for one frame.

    The payload buffer is returned as given, so a large record batch can be
    written to a socket without ever being copied into a joined bytestring.
    """
    length = len(payload) if isinstance(payload, bytes) else payload.nbytes
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {length} bytes exceeds the {MAX_PAYLOAD} byte limit")
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, ftype, 0, length, zlib.crc32(payload))
    return header, payload


def encode_frame(ftype: int, payload: bytes | memoryview = b"") -> bytes:
    """One frame as a single contiguous bytestring (convenience for tests)."""
    header, body = frame_buffers(ftype, payload)
    return header + bytes(body)


def encode_hello(
    name: str,
    *,
    pid: int = 0,
    nonce: int = 0,
    default_window: int = 0,
    capacity: int = 0,
    target_min: float = 0.0,
    target_max: float = 0.0,
) -> bytes:
    """Encode a stream registration frame."""
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"stream name of {len(raw)} bytes is too long")
    payload = (
        _HELLO.pack(
            pid, nonce, default_window, capacity, RECORD_DTYPE.itemsize, target_min, target_max, len(raw)
        )
        + raw
    )
    return encode_frame(FRAME_HELLO, payload)


def decode_hello(payload: bytes) -> Hello:
    """Decode a HELLO payload, validating the record layout it announces."""
    if len(payload) < _HELLO.size:
        raise ProtocolError(f"hello payload truncated: {len(payload)} bytes")
    pid, nonce, window, capacity, itemsize, tmin, tmax, name_len = _HELLO.unpack_from(payload)
    if itemsize != RECORD_DTYPE.itemsize:
        raise ProtocolError(
            f"peer records are {itemsize} bytes per record, expected {RECORD_DTYPE.itemsize}"
        )
    raw = payload[_HELLO.size : _HELLO.size + name_len]
    if len(raw) != name_len:
        raise ProtocolError("hello payload truncated: name shorter than its declared length")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"stream name is not valid UTF-8: {exc}") from exc
    if not name:
        raise ProtocolError("stream name must not be empty")
    return Hello(
        name=name,
        pid=int(pid),
        default_window=int(window),
        capacity=int(capacity),
        target_min=float(tmin),
        target_max=float(tmax),
        nonce=int(nonce),
    )


def batch_payload(records: np.ndarray) -> bytes | memoryview:
    """Pack a record batch for the wire.

    On little-endian hosts the returned buffer is a zero-copy view of the
    array's memory; big-endian hosts pay one byteswapped copy.
    """
    if records.dtype != RECORD_DTYPE:
        raise ValueError(f"records dtype must be {RECORD_DTYPE}, got {records.dtype}")
    wire = records if _NATIVE_IS_WIRE else records.astype(WIRE_RECORD_DTYPE)
    if not wire.flags.c_contiguous:  # pragma: no cover - callers pass fresh arrays
        wire = np.ascontiguousarray(wire)
    return memoryview(wire).cast("B")


def decode_batch(payload: bytes) -> np.ndarray:
    """Unpack a BATCH payload into a native-endian record array.

    The returned array is read-only on little-endian hosts (it views the
    payload bytes); callers that store it copy it into their own buffer.
    """
    if len(payload) == 0 or len(payload) % _RECORD_SIZE:
        raise _batch_length_error(len(payload))
    records = np.frombuffer(payload, dtype=WIRE_RECORD_DTYPE)
    return records if _NATIVE_IS_WIRE else records.astype(RECORD_DTYPE)


def _batch_length_error(length: int) -> ProtocolError:
    """Why a BATCH payload of ``length`` bytes is not a record batch."""
    if length == 0:
        return ProtocolError("batch frame carries no records")
    return ProtocolError(
        f"batch payload of {length} bytes is not a whole number of {_RECORD_SIZE}-byte records"
    )


def encode_targets(target_min: float, target_max: float) -> bytes:
    """Encode a target heart-rate range update."""
    return encode_frame(FRAME_TARGETS, _TARGETS.pack(target_min, target_max))


def decode_targets(payload: bytes) -> tuple[float, float]:
    if len(payload) != _TARGETS.size:
        raise ProtocolError(f"targets payload must be {_TARGETS.size} bytes, got {len(payload)}")
    tmin, tmax = _TARGETS.unpack(payload)
    return float(tmin), float(tmax)


def encode_close(total_beats: int = 0) -> bytes:
    """Encode a graceful end-of-stream frame with the final beat count."""
    return encode_frame(FRAME_CLOSE, _CLOSE.pack(total_beats))


def decode_close(payload: bytes) -> int:
    if len(payload) != _CLOSE.size:
        raise ProtocolError(f"close payload must be {_CLOSE.size} bytes, got {len(payload)}")
    return int(_CLOSE.unpack(payload)[0])


# ---------------------------------------------------------------------- #
# Relay frames (collector → collector)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class RelayEntry:
    """One stream's contribution to a RELAY frame.

    Every entry is self-describing: it carries the stream's edge-local id,
    the *origin producer's* identity (``pid``, ``nonce`` — forwarded
    unchanged so a root applies the same reconnect-resumption rule to
    relayed streams as to direct producers), the current goals, liveness
    flags and zero or more new records.  A root that has never seen the
    stream registers it from the entry alone; no HELLO is required on a
    relay link.

    Parameters
    ----------
    stream_id:
        The edge collector's id for the stream (its registration key at the
        next hop, subject to the usual collision suffixing).
    pid, nonce:
        Identity of the origin producer backend, forwarded end to end.
    default_window, target_min, target_max:
        Stream metadata, always current (cheap to re-send; the receiver
        applies them only on change).
    connected, closed, reported_total:
        Liveness as the edge sees it: ``connected`` tracks the producer's
        link to the edge, ``closed``/``reported_total`` propagate a graceful
        CLOSE.  ``reported_total`` is ``None`` until the producer closed.
    records:
        New records since the previous RELAY entry for this stream (dtype
        :data:`repro.core.record.RECORD_DTYPE`), possibly empty for a pure
        metadata/liveness update.

    >>> import numpy as np
    >>> from repro.core.record import RECORD_DTYPE
    >>> entry = RelayEntry(stream_id="svc", pid=7, nonce=1,
    ...                    records=np.zeros(2, dtype=RECORD_DTYPE))
    >>> [e.records.shape[0] for e in decode_relay(strip_header(encode_relay([entry])))]
    [2]
    """

    stream_id: str
    pid: int = 0
    nonce: int = 0
    default_window: int = 0
    target_min: float = 0.0
    target_max: float = 0.0
    connected: bool = True
    closed: bool = False
    reported_total: int | None = None
    records: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.records is None:
            object.__setattr__(self, "records", np.empty(0, dtype=RECORD_DTYPE))


@dataclass(frozen=True, slots=True)
class RelayFrame:
    """One decoded RELAY payload: its entries plus the hop annotation.

    ``hop_timestamp`` is the sending collector's ``time.perf_counter()``
    reading at the moment the frame was encoded, or ``None`` when the
    sender chose not to annotate.  It is only meaningful to a receiver on
    the *same host* time base or one measuring latency against its own
    clock via round-trip-free estimation; the collector uses it for
    same-process federation trees and loopback hops, where sender and
    receiver share one monotonic clock.
    """

    entries: list[RelayEntry]
    hop_timestamp: float | None = None


def relay_entry_size(stream_id: str, record_count: int) -> int:
    """Encoded size of one entry, for chunking frames under :data:`MAX_PAYLOAD`."""
    return (
        _RELAY_ENTRY.size
        + len(stream_id.encode("utf-8"))
        + record_count * WIRE_RECORD_DTYPE.itemsize
    )


def encode_relay(
    entries: "list[RelayEntry] | tuple[RelayEntry, ...]",
    *,
    hop_timestamp: float | None = None,
) -> bytes:
    """Encode one RELAY frame carrying ``entries``.

    ``hop_timestamp`` stamps the frame with the sender's monotonic send
    time (the hop annotation); ``None`` encodes the "not annotated" sentinel.
    The caller is responsible for keeping the total payload under
    :data:`MAX_PAYLOAD` (use :func:`relay_entry_size` to chunk); an
    oversized payload raises :class:`ProtocolError` like any other frame.
    """
    if len(entries) > MAX_RELAY_ENTRIES:
        raise ProtocolError(f"{len(entries)} entries exceed the {MAX_RELAY_ENTRIES} per-frame limit")
    stamp = 0.0 if hop_timestamp is None else float(hop_timestamp)
    parts = [_RELAY_HEADER.pack(RELAY_VERSION, RECORD_DTYPE.itemsize, len(entries), stamp)]
    for entry in entries:
        raw_id = entry.stream_id.encode("utf-8")
        if not raw_id:
            raise ProtocolError("relay entry stream id must not be empty")
        if len(raw_id) > 0xFFFF:
            raise ProtocolError(f"relay stream id of {len(raw_id)} bytes is too long")
        if entry.records.dtype != RECORD_DTYPE:
            raise ValueError(
                f"records dtype must be {RECORD_DTYPE}, got {entry.records.dtype}"
            )
        flags = (RELAY_FLAG_CONNECTED if entry.connected else 0) | (
            RELAY_FLAG_CLOSED if entry.closed else 0
        )
        reported = -1 if entry.reported_total is None else int(entry.reported_total)
        parts.append(
            _RELAY_ENTRY.pack(
                entry.pid,
                entry.nonce,
                entry.default_window,
                entry.target_min,
                entry.target_max,
                reported,
                flags,
                len(raw_id),
                int(entry.records.shape[0]),
            )
        )
        parts.append(raw_id)
        if entry.records.shape[0]:
            parts.append(bytes(batch_payload(entry.records)))
    return encode_frame(FRAME_RELAY, b"".join(parts))


def decode_relay(payload: bytes) -> list[RelayEntry]:
    """Decode a RELAY payload into its stream entries.

    A convenience wrapper over :func:`decode_relay_frame` for callers that
    do not care about the hop annotation.
    """
    return decode_relay_frame(payload).entries


def decode_relay_frame(payload: bytes) -> RelayFrame:
    """Decode a RELAY payload into entries plus its hop annotation.

    Accepts payload version :data:`RELAY_VERSION` only; rejects any other
    version and mismatched record layouts up front — a relay link
    negotiates nothing, so the first frame already proves (or disproves)
    compatibility.
    """
    if payload and payload[0] != RELAY_VERSION:
        raise ProtocolError(f"unsupported relay version {payload[0]}")
    if len(payload) < _RELAY_HEADER.size:
        raise ProtocolError(f"relay payload truncated: {len(payload)} bytes")
    _version, itemsize, count, stamp = _RELAY_HEADER.unpack_from(payload)
    hop_timestamp = float(stamp) if stamp > 0.0 else None
    offset = _RELAY_HEADER.size
    if itemsize != RECORD_DTYPE.itemsize:
        raise ProtocolError(
            f"relay records are {itemsize} bytes per record, expected {RECORD_DTYPE.itemsize}"
        )
    entries: list[RelayEntry] = []
    for _ in range(count):
        if len(payload) - offset < _RELAY_ENTRY.size:
            raise ProtocolError("relay payload truncated: entry header incomplete")
        (
            pid, nonce, window, tmin, tmax, reported, flags, id_len, n_records,
        ) = _RELAY_ENTRY.unpack_from(payload, offset)
        offset += _RELAY_ENTRY.size
        raw_id = payload[offset : offset + id_len]
        if len(raw_id) != id_len:
            raise ProtocolError("relay payload truncated: stream id incomplete")
        offset += id_len
        try:
            stream_id = raw_id.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"relay stream id is not valid UTF-8: {exc}") from exc
        if not stream_id:
            raise ProtocolError("relay entry stream id must not be empty")
        nbytes = n_records * WIRE_RECORD_DTYPE.itemsize
        raw_records = payload[offset : offset + nbytes]
        if len(raw_records) != nbytes:
            raise ProtocolError("relay payload truncated: records incomplete")
        offset += nbytes
        records = (
            decode_batch(raw_records) if n_records else np.empty(0, dtype=RECORD_DTYPE)
        )
        entries.append(
            RelayEntry(
                stream_id=stream_id,
                pid=int(pid),
                nonce=int(nonce),
                default_window=int(window),
                target_min=float(tmin),
                target_max=float(tmax),
                connected=bool(flags & RELAY_FLAG_CONNECTED),
                closed=bool(flags & RELAY_FLAG_CLOSED),
                reported_total=None if reported < 0 else int(reported),
                records=records,
            )
        )
    if offset != len(payload):
        raise ProtocolError(
            f"relay payload has {len(payload) - offset} trailing bytes after its entries"
        )
    return RelayFrame(entries=entries, hop_timestamp=hop_timestamp)


def strip_header(frame: bytes) -> bytes:
    """The payload of one already-encoded frame (a test/doctest convenience).

    >>> strip_header(encode_close(3)) == _CLOSE.pack(3)
    True
    """
    return frame[HEADER_SIZE:]


# ---------------------------------------------------------------------- #
# Decoding
# ---------------------------------------------------------------------- #
def scan_frames(
    buffer: bytes | bytearray, offset: int = 0, *, runs: bool
) -> tuple[list[Frame | BatchRun], int, ProtocolError | None]:
    """Validate and split every complete frame of ``buffer`` from ``offset`` on.

    The one frame-validation body in the tree: :class:`FrameDecoder` walks
    sockets with it, journal replay walks files.  Returns ``(items, end,
    error)`` — the frames in wire order, the offset of the first byte not
    consumed (a partial trailing frame, or the offending one) and why the
    walk stopped early, if it did: returned, not raised, so a caller can keep
    the valid prefix.  With ``runs``, consecutive BATCH frames come back as
    one :class:`BatchRun`, each checked to hold whole records; without, they
    are :class:`Frame` objects for :func:`decode_batch` like the rest.
    Nothing returned views ``buffer``.

    A long run of frames with one type and length (so one 12-byte header
    prefix) is walked in one step: its headers compared as arrays, every
    CRC-32 still checked, its payloads one copy.  Items, end and error are
    the frame-by-frame walk's.
    """
    items: list[Frame | BatchRun] = []
    parts: list[bytes | bytearray | np.ndarray] = []  # payloads of the BATCH run being gathered ...
    frames = 0  # ... and how many wire frames they hold
    error: ProtocolError | None = None
    size = len(buffer)
    shape = None  # type and length of the frame before
    while size - offset >= HEADER_SIZE:
        magic, version, ftype, flags, length, crc = HEADER.unpack_from(buffer, offset)
        if magic != MAGIC:
            error = ProtocolError(f"bad frame magic {bytes(magic)!r}")
        elif version != PROTOCOL_VERSION:
            error = ProtocolError(f"unsupported protocol version {version}")
        elif ftype not in _KNOWN_FRAMES:
            error = ProtocolError(f"unknown frame type {ftype}")
        elif flags != 0:
            error = ProtocolError(f"reserved frame flags set ({flags:#x})")
        elif length > MAX_PAYLOAD:
            error = ProtocolError(
                f"frame payload of {length} bytes exceeds the {MAX_PAYLOAD} byte limit"
            )
        stride = HEADER_SIZE + length
        end = offset + stride
        if error is not None or end > size:
            break
        if (
            shape == (ftype, length)
            and size - offset >= (_MIN_RUN - 1) * stride
            and buffer.startswith(buffer[offset : offset + 12], offset + (_MIN_RUN - 2) * stride)
        ):
            # The frame before (same type and length: the same 12 bytes) starts
            # a long run: take it back, and validate the run in one step.  Its
            # header passed every check, whole records included: only CRCs are left.
            offset -= stride
            count = _run_length(buffer, offset, stride, (size - offset) // stride)
            block = np.ndarray((count,), f"V{length}", buffer, offset + HEADER_SIZE, (stride,)).copy()
            payloads = block.tolist()
            checked = list(map(zlib.crc32, payloads))
            crcs = np.ndarray((count,), ">u4", buffer, offset + 12, (stride,)).tolist()
            good = count if checked == crcs else [a == b for a, b in zip(checked, crcs)].index(False)
            if runs and ftype == FRAME_BATCH:  # the frame before is ``parts[-1]`` ...
                parts[-1] = block[:good].view(np.uint8)
                frames += good - 1
            else:  # ... or ``items[-1]``
                items[-1:] = [Frame(ftype, payload) for payload in payloads[:good]]
            offset += good * stride
            if good < count:
                error = ProtocolError("frame payload failed its CRC check")
                break
            continue
        shape = ftype, length
        payload = buffer[offset + HEADER_SIZE : end]
        if zlib.crc32(payload) != crc:
            error = ProtocolError("frame payload failed its CRC check")
            break
        if runs and ftype == FRAME_BATCH:
            if length == 0 or length % _RECORD_SIZE:
                error = _batch_length_error(length)
                break
            parts.append(payload)
            frames += 1
        else:
            if parts:
                items.append(_gather(parts, frames))
                frames = 0
            items.append(Frame(ftype, bytes(payload)))
        offset = end
    if parts:
        items.append(_gather(parts, frames))
    return items, offset, error


#: Shortest run walked in one step: below it, setting up the arrays costs
#: more than the per-frame steps they save.
_MIN_RUN = 16


def _run_length(buffer: bytes | bytearray, offset: int, stride: int, most: int) -> int:
    """How many of the ``most`` frames from ``offset`` share its first 12 header bytes.

    Each compare spans as many headers as the run holds so far: a step reads
    at most about twice the headers it validates.
    """
    heads = np.ndarray((most,), "V12", buffer, offset, (stride,))
    count = 1
    while count < most:
        differs = heads[count : max(2 * count, _MIN_RUN)] != heads[0]
        first = int(differs.argmax())
        if differs[first]:
            return count + first
        count += differs.shape[0]
    return count


def _gather(parts: list[bytes | bytearray | np.ndarray], frames: int) -> BatchRun:
    run = BatchRun(decode_batch(parts[0] if len(parts) == 1 else b"".join(parts)), frames)
    parts.clear()
    return run


class FrameDecoder:
    """Incremental frame parser over a TCP byte stream.

    Feed it whatever ``recv`` returned; it yields every complete frame and
    retains the trailing partial one for the next call.  Any malformed input
    — bad magic, unknown version or frame type, oversized length prefix, CRC
    mismatch — is a :class:`ProtocolError`, after which the decoder is
    poisoned and the caller must drop the connection: a byte stream that has
    lost framing cannot be trusted to regain it.
    """

    __slots__ = ("_buffer", "_poisoned")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet parsed into a frame."""
        return len(self._buffer)

    def feed(self, data: bytes | memoryview) -> list[Frame]:
        """Consume ``data``; return every frame it completes, or raise and return none."""
        frames, error = self._scan(data, runs=False)
        if error is not None:
            raise error
        return frames  # type: ignore[return-value]

    def feed_runs(
        self, data: bytes | memoryview
    ) -> tuple[list[Frame | BatchRun], ProtocolError | None]:
        """:meth:`feed` for an ingest loop: one item per BATCH run, not per frame.

        Malformed input is *returned*, beside the valid frames that preceded
        it, so the caller can ingest those before dropping the connection.
        """
        return self._scan(data, runs=True)

    def _scan(
        self, data: bytes | memoryview, *, runs: bool
    ) -> tuple[list[Frame | BatchRun], ProtocolError | None]:
        if self._poisoned:
            raise ProtocolError("decoder already failed; the connection must be dropped")
        self._buffer.extend(data)
        items, end, error = scan_frames(self._buffer, runs=runs)
        del self._buffer[:end]
        self._poisoned = error is not None
        return items, error


# ---------------------------------------------------------------------- #
# Links and addresses
# ---------------------------------------------------------------------- #
def link_alive(sock: socket.socket) -> bool:
    """Probe an idle outbound link for a half-closed or dead peer.

    Collectors never send on a link, so readable means EOF or error and
    nothing-to-read means healthy.  Without the probe a peer that went away
    quietly (FIN, no RST) is only noticed by the *second* send after it.
    The probe is one zero-timeout ``poll`` (``select.select`` cannot take a
    descriptor past 1 023); only a readable link is read, to tell EOF or an
    error (dead) from bytes a peer did send (alive).  A closed socket fails
    the registration and reads as dead.
    """
    try:
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return not poller.poll(0) or sock.recv(4096) != b""
    except (OSError, ValueError):
        return False


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """Normalise ``"host:port"`` (or a ``(host, port)`` pair) to a tuple.

    IPv6 literals use the standard bracket form, ``"[::1]:7717"``; the
    brackets are stripped for the socket layer.  This is the only
    ``host:port`` parser in the tree: endpoint URLs, ``upstream=`` / ``via=``
    parameters, the exporter and the relay all come through it.
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like 'host:port', got {address!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    elif ":" in host:
        raise ValueError(
            f"IPv6 addresses must be bracketed, e.g. '[::1]:7717', got {address!r}"
        )
    if not host:
        raise ValueError(f"address must look like 'host:port', got {address!r}")
    try:
        number = int(port)
    except ValueError as exc:
        raise ValueError(f"address must look like 'host:port', got {address!r}") from exc
    if not 0 <= number <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {address!r}")
    return host, number
