"""Event-loop ingest tier: one process, 10k+ concurrent producer connections.

:class:`AsyncHeartbeatCollector` is the fan-in point of a remote fleet: one
``selectors`` loop thread multiplexes every connection through
``epoll``/``kqueue``, so the connection count is bounded by file descriptors
rather than threads — one collector is an ingest *tier*, not "a host's fleet".

Every stream is a row of a slab chain (one chain per retained depth, see
:class:`~repro.core.backends.arena._SlabPool`), and there is no other store.
The observation surface is the one the rest of the system already speaks:
per-stream sources (:meth:`source` is the stream's row, a
:class:`~repro.core.backends.ring.Ring`),
:meth:`stream_ids`, the slabs themselves (:meth:`slabs`), which
:meth:`~repro.core.aggregator.HeartbeatAggregator.attach_collector` reads
whole, and streams that survive disconnects so a producer death reads
``STALLED``.

Collectors also *compose*.  A collector constructed with ``upstream=`` runs
in **edge mode**: the event loop marks each stream that has news for the
root, and a background :class:`~repro.net.relay.RelayForwarder`, woken by
the first mark, batches those streams' new records into RELAY frames (see
:mod:`repro.net.protocol`) and ships them to the next collector up the tree,
with reconnect/backoff and ring-buffer drop-oldest backpressure.  Any
collector accepts RELAY links alongside producer links, so trees of any
depth — producers → edges → root — aggregate under unchanged ``tcp://``
semantics at the root.

Design points:

* one event-loop thread owns every socket and is the one writer of every
  row and every stream's liveness value; observers read rows through the
  ring's sequence word, so they read concurrently with ingest, and order
  comes from what they read first, never from mutual exclusion;
* the unit of ingest is the *read*, not the frame: each ``recv`` is scanned
  once (:meth:`FrameDecoder.feed_runs <repro.net.protocol.FrameDecoder.feed_runs>`)
  and every run of consecutive BATCH frames in it costs one ``append_many``,
  one journal frame and one counter update, however many wire frames it
  spans — ``frames``/``records`` still count the wire, ``batch_runs`` the
  appends.  The scan validates a run of same-shape frames per step, so a
  read of many small frames pays Python per run; what lands before a
  malformed frame is what a frame-by-frame walk would land;
* a malformed byte stream poisons only its own connection — producer or
  relay — and every other link keeps flowing;
* relayed records are deduplicated by beat number per stream, so an edge
  reconnecting after a drop (or a restarted root receiving a full replay)
  never double-counts history;
* the server binds port ``0`` by default and exposes the chosen port, so
  tests and scripts never collide on a fixed port.

>>> with AsyncHeartbeatCollector() as collector:
...     collector.host
'127.0.0.1'
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.core.backends.arena import Arena, _SlabPool
from repro.core.backends.base import BackendSnapshot
from repro.core.backends.ring import Ring
from repro.core.errors import MonitorAttachError, ProtocolError
from repro.net import link, protocol
from repro.net.persistence import JournalWriter, StreamJournal
from repro.obs.registry import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.relay import RelayForwarder

__all__ = ["AsyncHeartbeatCollector", "CollectorStreamInfo"]

#: Bounds applied to the capacity hint producers send in HELLO.
_MIN_STREAM_CAPACITY = 16
_MAX_STREAM_CAPACITY = 1 << 20

#: Largest single ``recv`` and the cap on consecutive reads per readiness
#: event, so one firehose connection cannot starve ten thousand quiet ones.
_RECV_SIZE = 1 << 16
_MAX_READS_PER_EVENT = 8


@dataclass(frozen=True, slots=True)
class CollectorStreamInfo:
    """Metadata of one registered stream (not its records).

    ``reported_total`` is the final beat count the producer declared in its
    CLOSE frame (``None`` until then); comparing it with ``total_beats``
    exposes how many records the producer's drop-oldest backpressure shed.
    ``via_relay`` is true for streams fed by a downstream collector rather
    than a directly-connected producer.
    """

    stream_id: str
    name: str
    pid: int
    connected: bool
    closed: bool
    total_beats: int
    reported_total: int | None
    via_relay: bool = False


class _Liveness(NamedTuple):
    """A stream's liveness, replaced whole by each transition, never edited."""

    connected: bool
    closed: bool
    reported_total: int | None


class _CollectorStream:
    """One registered stream: its slab row plus liveness state.

    The row is the only copy of the stream's records and goals.  A stream
    changes only through its transitions — :meth:`register`,
    :meth:`append`, :meth:`set_targets`, :meth:`set_window`,
    :meth:`close` and :meth:`disconnect` — each writing the row, the
    liveness value and the journal frame, so producer frames, relay entries
    and journal restore change a stream the same way.  The collector's
    event-loop thread is the only writer (journal restore runs before it
    starts), so transitions never wait on a reader.  Other threads read the row
    through the ring's sequence word and ``liveness`` as one stored value:
    a CLOSE stores it after the records it counts are published, so whoever
    reads ``liveness`` *before* the row never sees a CLOSE ahead of them.
    """

    __slots__ = (
        "stream_id", "name", "pid", "nonce", "ring", "capacity",
        "liveness", "conn_gen", "via_relay", "journal",
    )

    def __init__(self, stream_id: str, hello: protocol.Hello, capacity: int, ring: Ring, via_relay: bool) -> None:
        self.stream_id = stream_id
        self.name = hello.name
        self.pid = hello.pid
        self.nonce = hello.nonce
        self.capacity = capacity
        self.ring = ring
        self.liveness = _Liveness(False, False, None)
        #: Connection generation: bumped on every (re)registration so a
        #: superseded connection cannot clobber its successor's state.
        self.conn_gen = 0
        self.via_relay = via_relay
        #: Persistence hook: the stream's journal writer, or ``None``.
        self.journal: "JournalWriter | None" = None

    def hello(self) -> protocol.Hello:
        """A HELLO carrying the row's current goals."""
        _total, window, target_min, target_max = self.ring.capture()
        return protocol.Hello(self.name, self.pid, window, self.capacity, target_min, target_max, self.nonce)

    # ------------------------------------------------------------------ #
    # Transitions (event-loop thread, or construction-time restore)
    # ------------------------------------------------------------------ #
    def register(self, hello: protocol.Hello) -> int:
        """(Re-)register from a HELLO: connected, open, its goals; returns the generation."""
        self.conn_gen += 1
        self.ring.set_default_window(hello.default_window)
        self.ring.set_targets(hello.target_min, hello.target_max)
        self.liveness = _Liveness(True, False, None)
        if self.journal is not None:
            self.journal.append_hello(hello)
        return self.conn_gen

    def append(self, records: np.ndarray) -> None:
        """Append records to the row, journaled as one BATCH run."""
        self.ring.append_many(records)
        if self.journal is not None:
            self.journal.append_records(records)

    def set_targets(self, target_min: float, target_max: float) -> None:
        self.ring.set_targets(target_min, target_max)
        if self.journal is not None:
            self.journal.append_targets(target_min, target_max)

    def set_window(self, window: int) -> None:
        """Publish a new default window, journaled as a HELLO.

        No frame carries a window alone, so replay takes it from the latest
        HELLO; a HELLO re-registers, so a closed stream repeats its CLOSE.
        """
        self.ring.set_default_window(window)
        if self.journal is not None:
            self.journal.append_hello(self.hello())
            if self.liveness.closed:
                self.journal.append_close(self.liveness.reported_total)

    def close(self, reported_total: int | None, gen: int) -> None:
        """A CLOSE from connection generation ``gen`` (a superseded one is ignored)."""
        if self.conn_gen != gen:
            return
        self.liveness = _Liveness(False, True, reported_total)
        if self.journal is not None:
            self.journal.append_close(reported_total)

    def disconnect(self, gen: int) -> None:
        """Connection generation ``gen`` is gone (a superseded one is ignored)."""
        if self.conn_gen == gen:
            self.liveness = self.liveness._replace(connected=False)


class _Connection:
    """Per-socket state owned exclusively by the event-loop thread."""

    __slots__ = ("sock", "decoder", "stream", "gen", "is_relay", "relay_streams", "peer", "latency")

    def __init__(self, sock: socket.socket, peer: str = "?") -> None:
        self.sock = sock
        self.decoder = protocol.FrameDecoder()
        #: Producer-link state: the HELLO-registered stream and its
        #: registration generation.
        self.stream: _CollectorStream | None = None
        self.gen = 0
        #: Relay-link state: edge-local stream id → (stream, generation).
        self.is_relay = False
        self.relay_streams: dict[str, tuple[_CollectorStream, int]] = {}
        #: Peer address ("ip:port") and, for annotated relay links, the
        #: per-link delivery-latency histogram (created on first sample).
        self.peer = peer
        self.latency: Histogram | None = None


class AsyncHeartbeatCollector(link.SelectorServer):
    """Event-loop TCP fan-in server turning remote producers into streams.

    It binds and runs its loop by the wire tier's one rule
    (:class:`~repro.net.link.SelectorServer`).

    Parameters
    ----------
    host, port:
        Listening address.  The defaults (``127.0.0.1``, port ``0``) bind a
        loopback ephemeral port; read :attr:`port` (or :attr:`endpoint`) for
        the address the OS actually assigned.
    default_capacity:
        Record slots per stream when a producer's HELLO carries no capacity
        hint; hints are clipped to a sane range either way.
    backlog:
        ``listen()`` backlog.  Raise it for connect storms of thousands of
        producers (the kernel clamps it to ``net.core.somaxconn``).
    upstream:
        ``"host:port"`` (or ``(host, port)``) of the next collector up the
        tree.  When given, the collector runs in edge mode: a background
        forwarder relays every stream's new records upstream — see
        :class:`repro.net.relay.RelayForwarder` for the full discipline.
    relay_interval:
        Edge mode only: the forwarder's idle cadence — how often it probes
        a quiet upstream link for EOF (and the longest it waits to redial
        a lost one).  It does not pace forwarding: the event loop marks
        every stream with news and the first mark wakes the forwarder.
    relay_backoff_initial, relay_backoff_max:
        Edge mode only: the forwarder's reconnect backoff window (delay
        starts at the initial value and doubles per failed dial up to the
        max).  Scenario runs tighten these so a healed partition reconnects
        in milliseconds; the defaults match the forwarder's.
    journal:
        A :class:`~repro.net.persistence.StreamJournal` (or a directory
        path) enabling collector persistence: every registered stream's
        frames are appended to a per-stream journal behind the ingest path,
        and on construction any journals already in the directory are
        *replayed* — a killed-and-restarted collector resumes its streams'
        retained histories, (pid, nonce) resumption identities, relay dedup
        high-water marks and CLOSE state instead of starting empty.
        Restored streams begin disconnected (their producers redial, their
        relay links re-register) and their ``total_beats`` restarts from
        the retained window.  Pass a path to let the collector own the
        journal's lifetime (closed with the collector).
    arena:
        An :class:`~repro.core.backends.arena.Arena` (or a
        ``mem-arena://`` / ``shm-arena://`` endpoint URL) that holds the
        streams' rows, so other processes can map them.  Without one each
        stream is a row of a private slab as deep as its clipped HELLO
        capacity; with one every row has the arena's depth, and streams
        arriving after it is full go to private slabs of that depth chained
        behind it.  The arena's lifetime is the caller's/registry's — the
        collector never closes it.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` holding this
        collector's counters (and, in edge mode, its forwarder's).  A
        private registry is created when omitted; pass a shared one to
        scrape several subsystems from one page.

    Raises
    ------
    OSError
        When the listening address cannot be bound (already in use,
        unresolvable host, privileged port).

    >>> with AsyncHeartbeatCollector() as root:
    ...     with AsyncHeartbeatCollector(upstream=root.endpoint) as edge:
    ...         edge.is_edge, root.is_edge
    (True, False)
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_capacity: int = 4096,
        backlog: int = 128,
        upstream: str | tuple[str, int] | None = None,
        relay_interval: float = 0.05,
        relay_backoff_initial: float = 0.05,
        relay_backoff_max: float = 2.0,
        arena: "Arena | str | None" = None,
        journal: "StreamJournal | str | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._default_capacity = int(default_capacity)
        self._lock = threading.Lock()
        self._streams: dict[str, _CollectorStream] = {}
        if isinstance(arena, str):
            from repro.endpoints import open_arena

            arena = open_arena(arena)
        self._arena: Arena | None = arena
        #: Every stream's row: a chain of slabs per depth, ``arena`` first.
        self._pool = _SlabPool(first=arena)
        self._streams_changed = threading.Condition(self._lock)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._connections_accepted = self.metrics.counter(
            "collector_connections_accepted_total", help="connections accepted over the lifetime"
        )
        self._frames = self.metrics.counter(
            "collector_frames_total", help="protocol frames ingested"
        )
        self._batch_runs = self.metrics.counter(
            "collector_batch_runs_total", help="runs of consecutive BATCH frames ingested"
        )
        self._records = self.metrics.counter(
            "collector_records_total", help="heartbeat records ingested (producer + relay)"
        )
        self._protocol_errors = self.metrics.counter(
            "collector_protocol_errors_total", help="connections dropped for malformed input"
        )
        self._relay_frames = self.metrics.counter(
            "collector_relay_frames_total", help="RELAY frames ingested"
        )
        self._relay_records = self.metrics.counter(
            "collector_relay_records_total", help="records ingested over relay links"
        )
        self._relay_duplicates = self.metrics.counter(
            "collector_relay_duplicates_total", help="replayed records discarded by dedup"
        )
        self.metrics.gauge(
            "collector_open_connections",
            help="currently open connections",
            fn=lambda: float(len(self._connections)),
        )
        self.metrics.gauge(
            "collector_streams",
            help="registered streams",
            fn=lambda: float(len(self._streams)),
        )
        #: peer address → per-link delivery-latency histogram (annotated
        #: relay links only), for :meth:`link_latencies`.
        self._link_latency: dict[str, Histogram] = {}

        #: fd → connection; touched only by the event-loop thread.
        self._connections: dict[int, _Connection] = {}

        if isinstance(journal, str):
            journal = StreamJournal(journal, metrics=self.metrics)
        self._journal: StreamJournal | None = journal
        if self._journal is not None:
            # Replay before the loop thread exists, so restored streams are
            # visible to the very first connection (and to the relay's
            # first sweep in edge mode).
            self._restore_from_journal()

        super().__init__(host, port, backlog, "hb-collector")

        self._relay: "RelayForwarder | None" = None
        if upstream is not None:
            from repro.net.relay import RelayForwarder

            self._relay = RelayForwarder(
                self,
                upstream,
                interval=float(relay_interval),
                backoff_initial=float(relay_backoff_initial),
                backoff_max=float(relay_backoff_max),
                metrics=self.metrics,
            )

        self._start()
        if self._relay is not None:
            self._relay.start()

    # ------------------------------------------------------------------ #
    # Role (``address`` / ``endpoint`` / ``endpoint_url`` are the server's)
    # ------------------------------------------------------------------ #
    @property
    def is_edge(self) -> bool:
        """True when this collector forwards its streams to an upstream."""
        return self._relay is not None

    @property
    def upstream_address(self) -> tuple[str, int] | None:
        """``(host, port)`` of the upstream collector, or ``None`` at a root."""
        return None if self._relay is None else self._relay.address

    # ------------------------------------------------------------------ #
    # Observation surface (what the aggregator consumes)
    # ------------------------------------------------------------------ #
    def stream_ids(self) -> list[str]:
        """Registered stream ids, in registration order."""
        with self._lock:
            return list(self._streams)

    @property
    def arena(self) -> Arena | None:
        """The caller's ``arena=`` slab, first of the chain (``None``: none given)."""
        return self._arena

    def slabs(self) -> list[tuple[Arena, list[str]]]:
        """Every slab holding a stream's row, in creation order.

        Each comes with its row → stream-id table, a live list the
        collector extends as streams register (a row may be published a
        moment before its id).  :meth:`HeartbeatAggregator.attach_collector
        <repro.core.aggregator.HeartbeatAggregator.attach_collector>` reads
        each slab whole and names its rows from the table.
        """
        with self._lock:
            return [(slab.arena, slab.names) for slab in self._pool.slabs]

    def snapshot(self, stream_id: str) -> BackendSnapshot:
        """A consistent snapshot of one stream's retained history."""
        return self._get_stream(stream_id).ring.snapshot()

    def source(self, stream_id: str) -> Ring:
        """One registered stream as a :class:`~repro.core.stream.StreamSource`.

        It is the stream's row itself: a :class:`~repro.core.backends.ring.
        Ring`, read under its sequence word while the event loop writes it,
        with the full capability set — ``snapshot`` / ``snapshot_since`` /
        ``version`` — so it attaches anywhere a source does
        (``HeartbeatMonitor``, ``HeartbeatAggregator.attach_stream``, a
        ``ControlLoop`` rate source) with incremental polling intact.
        """
        return self._get_stream(stream_id).ring

    def version_source(self, stream_id: str) -> Callable[[], tuple[int, int]]:
        """A cheap change-token provider for the aggregator's idle-skip path."""
        return self._get_stream(stream_id).ring.version

    def streams(self) -> list[CollectorStreamInfo]:
        """Metadata for every registered stream."""
        with self._lock:
            streams = list(self._streams.values())
        infos = []
        for stream in streams:
            # Liveness before the counter: a CLOSE is stored after the
            # records it counts, so ``total_beats`` already holds them.
            live = stream.liveness
            infos.append(CollectorStreamInfo(
                stream_id=stream.stream_id,
                name=stream.name,
                pid=stream.pid,
                connected=live.connected,
                closed=live.closed,
                total_beats=stream.ring.version()[0],  # the counter, not a copy of the ring
                reported_total=live.reported_total,
                via_relay=stream.via_relay,
            ))
        return infos

    def stats(self) -> dict[str, int]:
        """Server counters (connections, frames, records, errors, relay).

        Returns
        -------
        dict
            ``connections_accepted`` / ``open_connections`` — lifetime and
            current connection counts; ``frames`` / ``records`` — ingest
            totals; ``batch_runs`` — runs of consecutive BATCH frames
            ingested, one append each (``frames`` per run is how much one
            read batches); ``protocol_errors`` — connections dropped for malformed
            input; ``streams`` — registered streams; ``relay_frames`` /
            ``relay_records`` / ``relay_duplicates`` — RELAY-link ingest and
            the replayed records deduplication discarded.

        This is a view over the collector's :attr:`metrics` registry; the
        keys predate the registry and stay stable.
        """
        with self._lock:
            streams = len(self._streams)
        return {
            "connections_accepted": int(self._connections_accepted.value),
            "open_connections": len(self._connections),
            "frames": int(self._frames.value),
            "batch_runs": int(self._batch_runs.value),
            "records": int(self._records.value),
            "protocol_errors": int(self._protocol_errors.value),
            "streams": streams,
            "relay_frames": int(self._relay_frames.value),
            "relay_records": int(self._relay_records.value),
            "relay_duplicates": int(self._relay_duplicates.value),
        }

    def relay_stats(self) -> dict[str, int]:
        """Edge-mode forwarding counters (empty dict at a root collector)."""
        return {} if self._relay is None else self._relay.stats()

    def link_latencies(self) -> dict[str, dict[str, float]]:
        """Per-link delivery latency roll-ups, keyed by downstream peer.

        Each value is a histogram summary (``count`` / ``mean`` / ``min`` /
        ``max`` / ``p50`` / ``p99``, seconds) of edge→here RELAY delivery
        latency, measured from the hop timestamp annotated on RELAY frames.
        Empty at a leaf collector, and for links whose sender does not
        annotate (a hop timestamp of ``0.0``).  Hop timestamps are
        monotonic-clock readings, so the numbers are meaningful when sender
        and receiver share a host clock (the in-tree federation and
        loopback cases).
        """
        with self._lock:
            links = dict(self._link_latency)
        return {peer: hist.summary() for peer, hist in links.items()}

    def wait_for_streams(self, count: int, timeout: float = 5.0) -> bool:
        """Block until at least ``count`` streams registered (True) or timeout."""
        deadline = time.monotonic() + timeout
        with self._streams_changed:
            while len(self._streams) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._streams_changed.wait(timeout=remaining)
        return True

    def _get_stream(self, stream_id: str) -> _CollectorStream:
        with self._lock:
            stream = self._streams.get(stream_id)
        if stream is None:
            raise MonitorAttachError(f"no stream {stream_id!r} is registered with this collector")
        return stream

    # ------------------------------------------------------------------ #
    # Internal surface for the relay forwarder
    # ------------------------------------------------------------------ #
    def _relay_streams(self) -> list[_CollectorStream]:
        """Every registered stream object (the forwarder's replay; order stable)."""
        with self._lock:
            return list(self._streams.values())

    def _news(self, stream: _CollectorStream) -> None:
        """Edge mode: queue ``stream`` for the forwarder's next sweep."""
        if self._relay is not None:
            self._relay.mark(stream)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting, drop every connection, keep histories.  Idempotent.

        Edge mode first stops the forwarder (one final flush attempt toward
        the upstream, bounded by its close deadline), then tears down the
        event loop.
        """
        if not self._begin_close():
            return
        if self._relay is not None:
            self._relay.close()
        self._stop_loop()
        if self._journal is not None:
            self._journal.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "edge" if self.is_edge else "root"
        return (
            f"{type(self).__name__}(endpoint={self.endpoint!r}, role={role}, "
            f"streams={len(self.stream_ids())})"
        )

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def _teardown(self) -> None:
        for conn in list(self._connections.values()):
            self._drop_connection(conn)

    def _accepted(self, sock: socket.socket, peer: object) -> None:
        sock.setblocking(False)
        conn = _Connection(sock, f"{peer[0]}:{peer[1]}")  # type: ignore[index]  # an INET or INET6 peer
        self._connections[sock.fileno()] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._connections_accepted.inc()

    def _ready(self, key: selectors.SelectorKey, mask: int) -> None:
        """Read one ready connection: up to ``_MAX_READS_PER_EVENT`` reads."""
        conn: _Connection = key.data  # dropped only by its own read, so never stale
        sock = conn.sock
        for _ in range(_MAX_READS_PER_EVENT):
            try:
                data = sock.recv(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._drop_connection(conn)
                return
            if not data:
                self._drop_connection(conn)  # peer hung up
                return
            try:
                self._ingest(conn, data)
            except ProtocolError:
                self._protocol_errors.inc()
                self._drop_connection(conn)
                return
            if len(data) < _RECV_SIZE:
                return

    def _ingest(self, conn: _Connection, data: bytes) -> None:
        """Demux one read; valid frames ahead of a malformed one are ingested before
        it raises, so what lands never depends on how TCP cut the bytes into reads.
        """
        items, error = conn.decoder.feed_runs(data)
        for item in items:
            if isinstance(item, protocol.BatchRun):
                self._ingest_run(conn, item)
            else:
                self._handle_frame(conn, item)
        if error is not None:
            raise error

    def _drop_connection(self, conn: _Connection) -> None:
        fd = conn.sock.fileno()
        if fd >= 0 and fd in self._connections:
            del self._connections[fd]
            self._unregister(conn.sock)
        conn.sock.close()
        if conn.stream is not None:
            conn.stream.disconnect(conn.gen)
            self._news(conn.stream)
        for stream, gen in conn.relay_streams.values():
            stream.disconnect(gen)
            self._news(stream)
        conn.relay_streams.clear()

    # ------------------------------------------------------------------ #
    # Frame handling (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _handle_frame(self, conn: _Connection, frame: protocol.Frame) -> None:
        self._frames.inc()
        if frame.type == protocol.FRAME_RELAY:
            if conn.stream is not None:
                raise ProtocolError("RELAY frame on a producer connection")
            conn.is_relay = True
            relay = protocol.decode_relay_frame(frame.payload)
            if relay.hop_timestamp is not None:
                self._observe_link_latency(conn, time.perf_counter() - relay.hop_timestamp)
            self._ingest_relay(conn, relay.entries)
            return
        if conn.is_relay:
            raise ProtocolError("producer frame on a relay connection")
        if frame.type == protocol.FRAME_HELLO:
            if conn.stream is not None:
                raise ProtocolError("duplicate HELLO on one connection")
            conn.stream, conn.gen = self._register(protocol.decode_hello(frame.payload))
            self._news(conn.stream)
            return
        stream = conn.stream
        if stream is None:
            raise ProtocolError("first frame of a connection must be HELLO")
        if frame.type == protocol.FRAME_TARGETS:
            stream.set_targets(*protocol.decode_targets(frame.payload))
        elif frame.type == protocol.FRAME_CLOSE:
            stream.close(protocol.decode_close(frame.payload), conn.gen)
        self._news(stream)

    def _ingest_run(self, conn: _Connection, run: protocol.BatchRun) -> None:
        """One read's consecutive BATCH frames: one append, one journal frame, one count."""
        self._frames.inc(run.frames)
        self._batch_runs.inc()
        if conn.is_relay:
            raise ProtocolError("producer frame on a relay connection")
        stream = conn.stream
        if stream is None:
            raise ProtocolError("first frame of a connection must be HELLO")
        stream.append(run.records)
        self._records.inc(int(run.records.shape[0]))
        self._news(stream)
        self._maybe_compact(stream)

    def _ingest_relay(self, conn: _Connection, entries: list[protocol.RelayEntry]) -> None:
        """Turn each entry into the transitions that bring the row to it."""
        appended = 0
        duplicates = 0
        for entry in entries:
            known = conn.relay_streams.get(entry.stream_id)
            if known is None:
                known = self._register(_entry_hello(entry), via_relay=True)
                conn.relay_streams[entry.stream_id] = known
            stream, gen = known
            records = entry.records
            if records.shape[0]:
                # Replays (edge reconnect, root restart) are deduplicated by
                # beat number against the row's newest record: the origin
                # beat counter is monotonic, so one at or below it is stored.
                newest, _ = stream.ring.copy_newest(stream.ring.total, 1)
                fresh = records["beat"] > (int(newest["beat"][0]) if newest.shape[0] else -1)
                if not fresh.all():
                    duplicates += int(records.shape[0] - np.count_nonzero(fresh))
                    records = records[fresh]
                if records.shape[0]:
                    stream.append(records)  # only what survived dedup is journaled
                    appended += int(records.shape[0])
            # The event loop is the row's only writer, so these reads are stable.
            if stream.conn_gen == gen:
                live = stream.liveness
                if entry.closed:
                    if not live.closed or live.reported_total != entry.reported_total:
                        stream.close(entry.reported_total, gen)
                elif live.closed or (entry.connected and not live.connected):
                    # The edge re-registered the stream: so does this hop.
                    gen = stream.register(_entry_hello(entry))
                    conn.relay_streams[entry.stream_id] = (stream, gen)
                if not entry.connected and stream.liveness.connected:
                    stream.disconnect(gen)
            _total, window, target_min, target_max = stream.ring.capture()
            if (entry.target_min, entry.target_max) != (target_min, target_max):
                stream.set_targets(entry.target_min, entry.target_max)
            if entry.default_window != window:
                stream.set_window(entry.default_window)
            self._news(stream)
            self._maybe_compact(stream)
        self._relay_frames.inc()
        self._relay_records.inc(appended)
        self._relay_duplicates.inc(duplicates)
        self._records.inc(appended)

    def _observe_link_latency(self, conn: _Connection, latency: float) -> None:
        """Record one hop's delivery latency in the link's histogram."""
        hist = conn.latency
        if hist is None:
            hist = self.metrics.histogram(
                "relay_link_latency_seconds",
                help="edge-to-here RELAY delivery latency per downstream link",
                labels={"peer": conn.peer},
            )
            conn.latency = hist
            with self._lock:
                self._link_latency[conn.peer] = hist
        # Sender and receiver sample the same monotonic clock only when they
        # share a host; clamp the tiny negative skews scheduling can produce.
        hist.observe(latency if latency > 0.0 else 0.0)

    def _register(
        self, hello: protocol.Hello, *, via_relay: bool = False
    ) -> tuple[_CollectorStream, int]:
        with self._streams_changed:
            stream_id = hello.name
            suffix = 1
            while (existing := self._streams.get(stream_id)) is not None:
                # A reconnecting producer resumes its own stream — identified
                # by (pid, nonce), so a same-named sibling backend in the
                # same process can never splice into another's history.  The
                # nonce is unique per backend instance, so a matching HELLO
                # supersedes the old connection even if the loop has not yet
                # observed the disconnect.  Other collisions get a distinct
                # id instead.
                if existing.pid == hello.pid and existing.nonce == hello.nonce:
                    return existing, existing.register(hello)
                suffix += 1
                stream_id = f"{hello.name}@{suffix}"
            stream = self._new_stream(stream_id, hello, via_relay)
            if self._journal is not None:
                stream.journal = self._journal.writer(stream_id, hello, via_relay=via_relay)
            self._streams[stream_id] = stream
            self._streams_changed.notify_all()
            return stream, stream.conn_gen

    def _new_stream(self, stream_id: str, hello: protocol.Hello, via_relay: bool) -> _CollectorStream:
        """A stream on a fresh row, registered from ``hello`` (not yet journaled or published)."""
        capacity = hello.capacity if hello.capacity > 0 else self._default_capacity
        capacity = min(max(capacity, _MIN_STREAM_CAPACITY), _MAX_STREAM_CAPACITY)
        slab, index = self._pool.take(capacity if self._arena is None else self._arena.depth, stream_id)
        stream = _CollectorStream(stream_id, hello, capacity, slab.arena._ring(index), via_relay)
        stream.register(hello)
        return stream

    def _restore_from_journal(self) -> None:
        """Re-register every journaled stream (construction time only).

        Each replayed stream goes through the live transitions — register
        from its latest HELLO, append its records, then CLOSE or disconnect
        — before its journal is reopened, so nothing is journaled twice.
        Restored streams start disconnected: their producers redial with
        the same (pid, nonce) and resume, their relay links re-register and
        are deduplicated against the row's newest beat.  ``total_beats``
        restarts from the journaled records (the ring never journaled what
        it had already shed).
        """
        assert self._journal is not None
        for replayed in self._journal.replay():
            stream = self._new_stream(replayed.stream_id, replayed.hello, replayed.via_relay)
            stream.append(replayed.records)
            if replayed.closed:
                stream.close(replayed.reported_total, stream.conn_gen)
            else:
                stream.disconnect(stream.conn_gen)
            try:
                stream.journal = self._journal.resume(replayed)
            except OSError:
                stream.journal = None  # restored read-only; ingest continues
            with self._streams_changed:
                self._streams[replayed.stream_id] = stream
                self._streams_changed.notify_all()

    def _maybe_compact(self, stream: _CollectorStream) -> None:
        """Rewrite an oversized journal from the stream's retained window."""
        writer = stream.journal
        if writer is None or not writer.oversized:
            return
        writer.rewrite(
            stream.hello(),
            stream.ring.snapshot().records,
            via_relay=stream.via_relay,
            closed=stream.liveness.closed,
            reported_total=stream.liveness.reported_total,
        )


def _entry_hello(entry: protocol.RelayEntry) -> protocol.Hello:
    """The HELLO a relay entry stands for: its origin identity and goals."""
    return protocol.Hello(
        entry.stream_id, entry.pid, entry.default_window, 0, entry.target_min, entry.target_max, entry.nonce
    )
