"""Tests for the networked-telemetry wire protocol (framing + packing)."""

from __future__ import annotations

import select
import socket
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BackendFormatError, HeartbeatError
from repro.core.record import RECORD_DTYPE
from repro.net import protocol
from repro.net.protocol import (
    FRAME_BATCH,
    FRAME_CLOSE,
    FRAME_HELLO,
    FRAME_TARGETS,
    FrameDecoder,
    ProtocolError,
    parse_address,
)


def make_records(rows: list[tuple[int, float, int, int]]) -> np.ndarray:
    out = np.empty(len(rows), dtype=RECORD_DTYPE)
    for i, row in enumerate(rows):
        out[i] = row
    return out


class TestFrameRoundTrips:
    def test_hello_round_trip(self):
        frame = decode_one(
            protocol.encode_hello(
                "svc-α", pid=4242, nonce=31337, default_window=20, capacity=1024,
                target_min=1.5, target_max=9.0,
            )
        )
        assert frame.type == FRAME_HELLO
        hello = protocol.decode_hello(frame.payload)
        assert hello.name == "svc-α"
        assert hello.pid == 4242
        assert hello.nonce == 31337
        assert hello.default_window == 20
        assert hello.capacity == 1024
        assert hello.target_min == 1.5
        assert hello.target_max == 9.0

    def test_batch_round_trip(self):
        records = make_records([(0, 0.5, 7, 11), (1, 0.75, 8, 11), (2, 1.0, 9, 12)])
        header, payload = protocol.frame_buffers(FRAME_BATCH, protocol.batch_payload(records))
        frame = decode_one(bytes(header) + bytes(payload))
        assert frame.type == FRAME_BATCH
        decoded = protocol.decode_batch(frame.payload)
        assert decoded.dtype == RECORD_DTYPE
        np.testing.assert_array_equal(decoded, records)

    def test_targets_round_trip(self):
        frame = decode_one(protocol.encode_targets(2.5, 125.0))
        assert frame.type == FRAME_TARGETS
        assert protocol.decode_targets(frame.payload) == (2.5, 125.0)

    def test_close_round_trip(self):
        frame = decode_one(protocol.encode_close(123456789))
        assert frame.type == FRAME_CLOSE
        assert protocol.decode_close(frame.payload) == 123456789

    def test_batch_payload_is_zero_copy_on_little_endian(self):
        records = make_records([(0, 1.0, 0, 0)])
        payload = protocol.batch_payload(records)
        if protocol._NATIVE_IS_WIRE:
            # The payload views the array's memory: mutating one shows in the other.
            records["tag"] = 99
            assert protocol.decode_batch(bytes(payload))["tag"][0] == 99

    def test_errors_are_heartbeat_errors(self):
        assert issubclass(ProtocolError, HeartbeatError)
        assert issubclass(ProtocolError, BackendFormatError)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=-(2**62), max_value=2**62),
        ),
        min_size=1,
        max_size=200,
    ),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_fuzzed_batches_survive_chunked_transport(rows, chunk):
    """Any record batch round-trips exactly, however the bytes are split."""
    records = make_records(rows)
    header, payload = protocol.frame_buffers(FRAME_BATCH, protocol.batch_payload(records))
    wire = bytes(header) + bytes(payload)
    decoder = FrameDecoder()
    frames = []
    for start in range(0, len(wire), chunk):
        frames.extend(decoder.feed(wire[start : start + chunk]))
    assert len(frames) == 1
    np.testing.assert_array_equal(protocol.decode_batch(frames[0].payload), records)
    assert decoder.pending == 0


class TestDecoderRejection:
    """Garbage must raise ProtocolError, never misparse or grow unboundedly."""

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(b"NOPE" + bytes(12))

    def test_unsupported_version(self):
        wire = bytearray(protocol.encode_close(0))
        wire[4] = 99
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(bytes(wire))

    def test_unknown_frame_type(self):
        wire = protocol.HEADER.pack(protocol.MAGIC, protocol.PROTOCOL_VERSION, 77, 0, 0, zlib.crc32(b""))
        with pytest.raises(ProtocolError, match="frame type"):
            FrameDecoder().feed(wire)

    def test_reserved_flags(self):
        wire = protocol.HEADER.pack(protocol.MAGIC, protocol.PROTOCOL_VERSION, FRAME_CLOSE, 1, 0, zlib.crc32(b""))
        with pytest.raises(ProtocolError, match="flags"):
            FrameDecoder().feed(wire)

    def test_oversized_length_prefix_rejected_before_buffering(self):
        wire = protocol.HEADER.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION, FRAME_BATCH, 0, protocol.MAX_PAYLOAD + 1, 0
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            FrameDecoder().feed(wire)

    def test_corrupted_payload_fails_crc(self):
        wire = bytearray(protocol.encode_targets(1.0, 2.0))
        wire[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            FrameDecoder().feed(bytes(wire))

    def test_truncated_frame_waits_instead_of_failing(self):
        wire = protocol.encode_targets(1.0, 2.0)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-3]) == []
        assert decoder.pending == len(wire) - 3
        frames = decoder.feed(wire[-3:])
        assert [f.type for f in frames] == [FRAME_TARGETS]

    def test_poisoned_decoder_stays_poisoned(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"garbage-garbage-")
        with pytest.raises(ProtocolError, match="dropped"):
            decoder.feed(protocol.encode_close(0))

    def test_batch_with_partial_record_rejected(self):
        records = make_records([(0, 1.0, 0, 0)])
        torn = bytes(protocol.batch_payload(records))[:-5]
        with pytest.raises(ProtocolError, match="whole number"):
            protocol.decode_batch(torn)

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError, match="no records"):
            protocol.decode_batch(b"")

    def test_hello_mismatched_record_size_rejected(self):
        payload = struct.pack("!qqqqqddH", 1, 0, 0, 0, 16, 0.0, 0.0, 1) + b"x"
        with pytest.raises(ProtocolError, match="bytes per record"):
            protocol.decode_hello(payload)

    def test_hello_truncated_name_rejected(self):
        payload = struct.pack("!qqqqqddH", 1, 0, 0, 0, RECORD_DTYPE.itemsize, 0.0, 0.0, 10) + b"abc"
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.decode_hello(payload)

    def test_hello_empty_name_rejected(self):
        payload = struct.pack("!qqqqqddH", 1, 0, 0, 0, RECORD_DTYPE.itemsize, 0.0, 0.0, 0)
        with pytest.raises(ProtocolError, match="empty"):
            protocol.decode_hello(payload)


class TestAddressParsing:
    def test_host_port_string(self):
        assert parse_address("localhost:9000") == ("localhost", 9000)

    def test_tuple_passthrough(self):
        assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)

    def test_bracketed_ipv6_literal(self):
        assert parse_address("[::1]:7717") == ("::1", 7717)

    @pytest.mark.parametrize(
        "bad", ["nocolon", ":123", "host:", "host:abc", "::1", "[]:1", "fe80::1:7717"]
    )
    def test_malformed_addresses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


def decode_one(wire: bytes) -> protocol.Frame:
    frames = FrameDecoder().feed(wire)
    assert len(frames) == 1
    return frames[0]


# ---------------------------------------------------------------------- #
# link_alive: the EOF probe exporters and relays run before each drain
# ---------------------------------------------------------------------- #
@pytest.fixture
def link():
    """A connected localhost TCP pair: ``(ours, peer)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    ours = socket.create_connection(listener.getsockname(), timeout=2.0)
    peer, _ = listener.accept()
    listener.close()
    yield ours, peer
    ours.close()
    peer.close()


def wait_readable(sock: socket.socket) -> None:
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    assert poller.poll(2000), "the peer's packet never arrived"


@pytest.mark.network
class TestLinkAlive:
    def test_a_quiet_healthy_peer_is_alive_and_the_timeout_is_kept(self, link):
        ours, _ = link
        assert protocol.link_alive(ours) is True
        assert protocol.link_alive(ours) is True
        assert ours.gettimeout() == 2.0

    def test_a_peer_that_sent_bytes_is_alive(self, link):
        ours, peer = link
        peer.sendall(b"stray")
        wait_readable(ours)
        assert protocol.link_alive(ours) is True
        assert ours.gettimeout() == 2.0

    def test_a_peer_that_closed_quietly_is_dead(self, link):
        ours, peer = link
        peer.close()  # FIN, no RST
        wait_readable(ours)
        assert protocol.link_alive(ours) is False

    def test_a_peer_that_reset_the_link_is_dead(self, link):
        ours, peer = link
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()  # linger 0: RST
        wait_readable(ours)
        assert protocol.link_alive(ours) is False

    def test_a_closed_socket_is_dead(self, link):
        ours, _ = link
        ours.close()
        assert protocol.link_alive(ours) is False
