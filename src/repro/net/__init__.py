"""Networked heartbeat telemetry.

The paper requires the heartbeat buffer to live "in a universally accessible
location" so that *any* external observer can read it.  The memory, file and
shared-memory backends satisfy that on one host; this package carries
heartbeats across machine boundaries so the observer of Figure 1(b) can be a
fleet manager on a different machine entirely:

* :mod:`repro.net.protocol` — the versioned, length-prefixed binary frame
  format (hello / batch / targets / close) with CRC sanity checks and
  zero-copy numpy packing of the shared record dtype;
* :mod:`repro.net.exporter` — :class:`NetworkBackend`, a storage backend that
  buffers beats locally and ships them over TCP on a background thread with
  bounded queueing and drop-oldest backpressure, so the producer's beat path
  never blocks on the network;
* :mod:`repro.net.async_collector` — :class:`HeartbeatCollector` (the same
  class as :class:`AsyncHeartbeatCollector`, the name its module gives it),
  an event-loop TCP server that multiplexes
  thousands of producer connections through one ``selectors`` loop thread,
  keeps every stream as a row of a slab and exposes the slabs whole to
  :class:`repro.core.aggregator.HeartbeatAggregator` via
  ``attach_collector()``;
* :mod:`repro.net.relay` — :class:`RelayForwarder`, the edge half of
  collector federation: collectors built with ``upstream=`` batch their
  streams' deltas into RELAY frames and forward them up a collector tree
  with reconnect/backoff and idempotent replay.

The full byte-level frame format is specified in ``docs/wire-protocol.md``.
"""

from repro.net.async_collector import AsyncHeartbeatCollector, CollectorStreamInfo
from repro.net.exporter import NetworkBackend
from repro.net.protocol import (
    FRAME_BATCH,
    FRAME_CLOSE,
    FRAME_HELLO,
    FRAME_RELAY,
    FRAME_TARGETS,
    Frame,
    FrameDecoder,
    Hello,
    ProtocolError,
    RelayEntry,
    decode_relay,
    encode_relay,
    parse_address,
)
from repro.net.relay import RelayForwarder

#: The collector under the name the docs and the front door use.
HeartbeatCollector = AsyncHeartbeatCollector

__all__ = [
    "NetworkBackend",
    "HeartbeatCollector",
    "AsyncHeartbeatCollector",
    "RelayForwarder",
    "CollectorStreamInfo",
    "RelayEntry",
    "encode_relay",
    "decode_relay",
    "FRAME_RELAY",
    "Frame",
    "FrameDecoder",
    "Hello",
    "ProtocolError",
    "FRAME_HELLO",
    "FRAME_BATCH",
    "FRAME_TARGETS",
    "FRAME_CLOSE",
    "parse_address",
]
