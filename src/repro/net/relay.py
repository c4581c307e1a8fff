"""Edge-collector forwarding: ship local streams upstream in RELAY frames.

:class:`RelayForwarder` is the other half of collector federation (see
:mod:`repro.net.async_collector`).  An edge collector absorbs producer
fan-in locally, and its event loop *marks* each stream the root must hear
about: records appended, a TARGETS or CLOSE frame, a producer hanging up, a
stream (re)registering.  The first mark into an empty set wakes this
forwarder's single background thread, which swaps the set out and sweeps
only the streams in it — O(moved), not O(registered) — pulling *new*
records through the backend's cursored :meth:`snapshot_since` delta path
and batching them, many streams per frame, into the versioned RELAY frames
defined by :mod:`repro.net.protocol`, shipped over one upstream TCP
connection.  Whatever lands while a sweep encodes and sends is the next
sweep's batch, so forwarding keeps pace with ingest rather than a timer;
``interval`` is only the idle cadence of the upstream EOF probe.

The discipline is the exporter's, applied one tier up:

* **reconnect with exponential backoff** — the upstream being down never
  blocks local ingest; the forwarder redials a lost link at once, then
  retries from 50 ms up to 2 s by the exporter's rule
  (:class:`~repro.net.link.Backoff`; connect time-out 2 s, send time-out 5 s);
* **full replay on reconnect** — every per-stream cursor is discarded when
  a connection is established and the first sweep on it covers every
  registered stream, moved or not.  A restarted (empty) root rebuilds the
  fleet from the replay; a root that never went away deduplicates the
  overlap by beat number, so replay is idempotent.  A send that fails
  mid-sweep drops the link, so that replay also covers the unsent rest;
* **drop-oldest backpressure** — unsent records are *not* queued here; they
  live in the edge's per-stream ring buffers.  If the upstream stays down
  long enough for a ring to lap, the delta path resynchronizes from the
  retained window and the oldest records are the ones lost;
* **at-least-once delivery** — cursors commit only after a successful send,
  so a connection lost mid-sweep re-sends from the last committed cursor;
* **metadata never overtakes records** — the edge's event loop stores a
  stream's liveness (connected, CLOSE and its count) only after the records
  before it are published, and a sweep reads that liveness *before* the
  stream's delta, so a CLOSE reaches the root with, never ahead of, the
  records before it.

>>> def chunks(total, per_entry):
...     return (total + per_entry - 1) // per_entry
>>> chunks(10_000, 4096)  # a lapped ring replays in a handful of entries
3
"""

from __future__ import annotations

import socket
import threading
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.backends.base import SnapshotCursor
from repro.net import protocol
from repro.net.link import Backoff, dial, hang_up
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.async_collector import AsyncHeartbeatCollector, _CollectorStream

__all__ = ["RelayForwarder"]

#: Per-frame payload budget, below the protocol hard cap so header and entry
#: overheads can never push a frame over :data:`repro.net.protocol.MAX_PAYLOAD`.
_FRAME_BUDGET = protocol.MAX_PAYLOAD - 4096

#: Socket time-outs for dialling the upstream and for one ``sendall``, in seconds.
_CONNECT_TIMEOUT = 2.0
_SEND_TIMEOUT = 5.0

#: Metadata/liveness fingerprint of one stream as last sent upstream.
_Meta = tuple[float, float, int, bool, bool, "int | None"]


class _StreamState:
    """Forwarding state for one local stream (forwarder thread only)."""

    __slots__ = ("cursor", "sent_meta")

    def __init__(self) -> None:
        self.cursor: SnapshotCursor | None = None
        self.sent_meta: _Meta | None = None


class RelayForwarder:
    """Background thread relaying an edge collector's streams upstream.

    Parameters
    ----------
    collector:
        The owning edge collector; its registered streams are the source.
    upstream:
        ``"host:port"`` string or ``(host, port)`` tuple of the next
        collector up the tree, parsed by
        :func:`repro.net.protocol.parse_address` (IPv6 literals bracketed:
        ``"[::1]:7717"``); a leading ``tcp://`` is tolerated so collector
        endpoint strings can be passed through unchanged.
    interval:
        Idle cadence: with no news, the forwarder wakes this often to probe
        the upstream for EOF (and redials no later than this while the link
        is down).  It does not pace forwarding — a mark does.
    backoff_initial, backoff_max:
        Reconnect backoff window (doubles on each failure).
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` to register
        forwarding counters into (labelled by upstream address); the owning
        collector passes its own registry so one scrape covers both tiers.
        A private registry is created when omitted.

    Raises
    ------
    ValueError
        When ``upstream`` is not a parseable address.
    """

    def __init__(
        self,
        collector: "AsyncHeartbeatCollector",
        upstream: str | tuple[str, int],
        *,
        interval: float = 0.05,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._collector = collector
        if isinstance(upstream, str):
            upstream = upstream.strip().removeprefix("tcp://")
        self.address = protocol.parse_address(upstream)
        self._interval = float(interval)
        self._backoff_initial = float(backoff_initial)
        self._backoff_max = float(backoff_max)

        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._closing = False
        self._sock: socket.socket | None = None
        self._states: dict[str, _StreamState] = {}
        #: Streams marked since the last sweep (a dict: ordered, deduplicated).
        self._moved: dict[_CollectorStream, None] = {}

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {"upstream": f"{self.address[0]}:{self.address[1]}"}
        self._connects = self.metrics.counter(
            "relay_connects_total", help="upstream connections established", labels=labels
        )
        self._connect_failures = self.metrics.counter(
            "relay_connect_failures_total", help="failed upstream dials", labels=labels
        )
        self._frames_sent = self.metrics.counter(
            "relay_frames_sent_total", help="RELAY frames shipped upstream", labels=labels
        )
        self._entries_sent = self.metrics.counter(
            "relay_entries_sent_total", help="stream entries shipped upstream", labels=labels
        )
        self._records_sent = self.metrics.counter(
            "relay_records_sent_total", help="records shipped upstream", labels=labels
        )
        self._send_errors = self.metrics.counter(
            "relay_send_errors_total", help="connections lost mid-send", labels=labels
        )

        self._thread = threading.Thread(
            target=self._run, name=f"hb-relay-{self.address[1]}", daemon=True
        )

    def start(self) -> None:
        """Start the forwarding thread (called once by the edge collector)."""
        self._thread.start()

    def close(self, timeout: float = 5.0) -> None:
        """Stop forwarding after one final flush attempt.  Idempotent.

        The thread gets one last sweep toward the upstream (bounded by the
        socket timeouts), then the connection is shut down.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)
        self._shutdown_socket()

    def mark(self, stream: "_CollectorStream") -> None:
        """Queue ``stream`` for the next sweep; a mark into an empty set wakes it."""
        with self._lock:
            wake = not self._moved
            self._moved[stream] = None
        if wake:
            self._wake.set()

    def stats(self) -> dict[str, int]:
        """Forwarding counters.

        Returns
        -------
        dict
            ``connects`` / ``connect_failures`` — upstream dial attempts;
            ``frames_sent`` / ``entries_sent`` / ``records_sent`` — shipped
            volume; ``send_errors`` — connections lost mid-send (the unsent
            tail is replayed from committed cursors).

        This is a view over the forwarder's :attr:`metrics` registry
        counters; the keys predate the registry and stay stable.
        """
        return {
            "connects": int(self._connects.value),
            "connect_failures": int(self._connect_failures.value),
            "frames_sent": int(self._frames_sent.value),
            "entries_sent": int(self._entries_sent.value),
            "records_sent": int(self._records_sent.value),
            "send_errors": int(self._send_errors.value),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(upstream={self.address[0]}:{self.address[1]})"

    # ------------------------------------------------------------------ #
    # Forwarding thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        backoff = Backoff(self._backoff_initial, self._backoff_max)
        replay = False
        while True:
            # A down link sleeps no longer than its next redial.
            self._wake.wait(timeout=self._interval if self._sock is not None else backoff.wait(self._interval))
            self._wake.clear()
            with self._lock:
                closing = self._closing
            if self._sock is None:
                if not backoff.attempt(self._connect, force=closing):
                    if closing:
                        return  # no peer; a final flush is pointless
                    continue
                replay = True
            # Probed before every sweep, so no send goes into a link already
            # half-closed: the upstream went away quietly (FIN, no RST) and
            # without this probe an *idle* link would never error and never
            # reconnect.
            sock = self._sock
            if sock is not None and not protocol.link_alive(sock):
                self._shutdown_socket()
                continue
            # Swapped after the clear: any later mark wakes the next pass.
            with self._lock:
                moved, self._moved = self._moved, {}
            # A fresh link replays every stream; otherwise only the news.
            self._sweep(self._collector._relay_streams() if replay else list(moved))
            replay = False
            if closing:
                return

    def _connect(self) -> bool:
        try:
            sock = dial(self.address, _CONNECT_TIMEOUT, _SEND_TIMEOUT)
        except OSError:
            self._connect_failures.inc()
            return False
        with self._lock:
            self._sock = sock
        self._connects.inc()
        # A fresh connection replays everything: discarding the cursors makes
        # the next sweep re-send each stream's retained history, which a
        # restarted root needs and a surviving root deduplicates.
        self._states.clear()
        return True

    def _sweep(self, streams: "list[_CollectorStream]") -> None:
        """Forward these streams' deltas; commit cursors on success."""
        pending: list[protocol.RelayEntry] = []
        commits: list[tuple[_StreamState, SnapshotCursor, _Meta]] = []
        pending_size = 0
        for stream in streams:
            state = self._states.get(stream.stream_id)
            if state is None:
                state = self._states[stream.stream_id] = _StreamState()
            # Liveness first, records second: a CLOSE read here was stored
            # after its records, so the delta read next holds all of them.
            # Swapped, a CLOSE landing between the reads would be relayed
            # ahead of the records that preceded it.
            liveness = stream.liveness
            delta, cursor = stream.ring.snapshot_since(state.cursor)
            meta: _Meta = (delta.target_min, delta.target_max, delta.default_window, *liveness)
            if delta.records.shape[0] == 0 and meta == state.sent_meta:
                # cursors for pure clock-stamp advances still need committing
                state.cursor = cursor
                continue
            entries = self._build_entries(stream.stream_id, stream.pid, stream.nonce, meta, delta.records)
            for i, entry in enumerate(entries):
                size = protocol.relay_entry_size(entry.stream_id, entry.records.shape[0])
                if pending and (
                    pending_size + size > _FRAME_BUDGET
                    or len(pending) >= protocol.MAX_RELAY_ENTRIES
                ):
                    if not self._send(pending, commits):
                        return
                    pending, commits, pending_size = [], [], 0
                pending.append(entry)
                pending_size += size
                if i == len(entries) - 1:
                    # Commit rides with the stream's *last* entry: a send
                    # failure before it leaves the cursor untouched, so the
                    # whole delta is replayed (and deduplicated upstream).
                    commits.append((state, cursor, meta))
        if pending:
            self._send(pending, commits)

    def _build_entries(
        self,
        stream_id: str,
        pid: int,
        nonce: int,
        meta: _Meta,
        records: np.ndarray,
    ) -> list[protocol.RelayEntry]:
        """One stream's delta as entries, each small enough for one frame."""
        target_min, target_max, window, connected, closed, reported = meta
        base = protocol.relay_entry_size(stream_id, 0)
        per_entry = max(1, (_FRAME_BUDGET - base) // protocol.WIRE_RECORD_DTYPE.itemsize)

        def make(chunk: np.ndarray) -> protocol.RelayEntry:
            return protocol.RelayEntry(
                stream_id=stream_id,
                pid=pid,
                nonce=nonce,
                default_window=window,
                target_min=target_min,
                target_max=target_max,
                connected=connected,
                closed=closed,
                reported_total=reported,
                records=chunk,
            )

        n = int(records.shape[0])
        if n <= per_entry:
            return [make(records)]
        return [make(records[start:start + per_entry]) for start in range(0, n, per_entry)]

    def _send(
        self,
        entries: list[protocol.RelayEntry],
        commits: list[tuple[_StreamState, SnapshotCursor, _Meta]],
    ) -> bool:
        sock = self._sock
        if sock is None:  # pragma: no cover - only racing a close
            return False
        try:
            # Stamp the frame with this hop's monotonic send time so the
            # parent can histogram edge→root delivery latency per link.
            frame = protocol.encode_relay(entries, hop_timestamp=time.perf_counter())
            sock.sendall(frame)
        except OSError:
            self._send_errors.inc()
            self._shutdown_socket()
            return False
        records = sum(int(e.records.shape[0]) for e in entries)
        for state, cursor, meta in commits:
            state.cursor = cursor
            state.sent_meta = meta
        self._frames_sent.inc()
        self._entries_sent.inc(len(entries))
        self._records_sent.inc(records)
        return True

    def _shutdown_socket(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            hang_up(sock)
