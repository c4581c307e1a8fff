"""Producer-side network backend.

:class:`NetworkBackend` implements the :class:`repro.core.backends.Backend`
interface on top of a TCP connection to a :class:`repro.net.HeartbeatCollector`.
Registering a heartbeat must stay cheap and predictable whatever the observer
is doing (the paper's overhead story), so the beat path touches only
process-local state and stores each beat once —

* in a local ring, a :class:`~repro.core.backends.memory.MemoryBackend`: the
  producer's own history, the metadata HELLO and TARGETS frames carry, and the
  send queue.  A background sender keeps one cursor — the ring total it has
  shipped or counted as dropped — and ships what the ring holds beyond it;
* so ``capacity`` is the one bound (local history, the collector's capacity
  hint, the send backlog).  A slow, unreachable or dead collector lets the
  writer lap the cursor: the oldest unsent records are dropped and counted
  and the producer never blocks — "when the buffer fills, old heartbeats are
  simply dropped";
* the beat path takes no lock.  It wakes the sender when the cursor, read
  *after* the append, equals the total from *before* it; after a drain the
  sender stores its cursor, then re-reads the total and wakes itself if it
  moved, so no wake-up is lost.  A busy sender is not woken, and one whose
  link is down sleeps until its next redial whatever its ``flush_interval``
  (the wire tier's one redial rule, :class:`~repro.net.link.Backoff`), so a
  dead collector costs the beat path no thread hand-offs;
* a drain copies at most ``max_batch_records`` of the oldest unsent records
  with the ring's reader half (``capture``, then ``copy_newest``, which drops
  a prefix the writer lapped mid-copy) into one BATCH frame and one
  ``sendall``.  A failed send leaves the cursor, so the records go again after
  the redial.  A send into a silently severed link *succeeds*, so each drain
  first probes the link for EOF (:func:`repro.net.protocol.link_alive`, the
  relay's rule) and redials; a link dying between probe and send loses at
  most its in-flight frame;
* a lost connection is redialled at once, then with exponential backoff
  (:func:`~repro.net.link.dial`: connect time-out 1 s, send time-out 2 s),
  and every (re)connect sends a HELLO with the stream's metadata.  A link
  carries one HELLO, so a new default window is published by hanging up
  (without CLOSE) and redialling.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import socket
import threading

import numpy as np

from repro.core.backends.arena import Arena
from repro.core.backends.base import Backend, BackendSnapshot, DeltaSnapshot, SnapshotCursor
from repro.core.backends.memory import MemoryBackend
from repro.core.errors import BackendError
from repro.core.record import pack_record
from repro.net import protocol
from repro.net.link import Backoff, dial, hang_up
from repro.obs.registry import MetricsRegistry

__all__ = ["NetworkBackend"]

#: Per-process backend instance counter.  Combined with the PID in HELLO it
#: gives every backend a fleet-unique nonce, so a collector can tell a
#: reconnect of the same stream from a same-named sibling in one process.
_nonce_counter = itertools.count(1)

#: Socket time-outs for dialling the collector and for one send, in seconds.
_CONNECT_TIMEOUT = 1.0
_SEND_TIMEOUT = 2.0


class NetworkBackend(Backend):
    """Ship one heartbeat stream to a remote collector over TCP.

    Parameters
    ----------
    address:
        Collector endpoint as ``"host:port"`` or a ``(host, port)`` tuple.
    stream:
        Stream name registered with the collector.  Defaults to
        ``"hb-<pid>"`` so several unnamed producers on one host stay
        distinguishable.
    capacity:
        Record slots in the local ring: the history :meth:`snapshot` serves,
        the capacity hint sent to the collector and the send backlog.  Once
        the collector is ``capacity`` records behind, the oldest unsent
        records are dropped; the producer never blocks.
    flush_interval:
        Longest time the sender lets unsent records sit before shipping
        them, in seconds.  It never delays a redial.
    max_batch_records:
        Largest number of records shipped in one BATCH frame.
    backoff_initial / backoff_max:
        Reconnect backoff: delay starts at ``backoff_initial`` and doubles
        per failed attempt up to ``backoff_max``.
    close_deadline:
        Longest :meth:`close` waits for the backlog to flush.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` holding the
        exporter's transmission counters (labelled by stream name).  A
        private registry is created when omitted.

    Raises
    ------
    ValueError
        When ``address`` is not a parseable ``host:port``.
    BackendError
        From :meth:`append` after the backend is closed.
    OverflowError
        From :meth:`append` for a value no record can hold; nothing is stored.

    >>> from repro.net import HeartbeatCollector
    >>> with HeartbeatCollector() as collector:
    ...     backend = NetworkBackend(collector.address, stream="svc", flush_interval=0.01)
    ...     backend.append(1, 0.01, 0, 1)
    ...     backend.close()                      # flushes, then CLOSE
    ...     collector.wait_for_streams(1, timeout=5.0)
    True
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        stream: str | None = None,
        capacity: int = 2048,
        flush_interval: float = 0.05,
        max_batch_records: int = 8192,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
        close_deadline: float = 2.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity <= 0:
            raise BackendError(f"capacity must be positive, got {capacity}")
        if max_batch_records <= 0:
            raise BackendError(f"max_batch_records must be positive, got {max_batch_records}")
        self.address = protocol.parse_address(address)
        self.stream = stream if stream is not None else f"hb-{os.getpid()}"
        self._nonce = next(_nonce_counter)
        self.capacity = int(capacity)
        #: Local history, the stream's metadata (HELLO and TARGETS frames are
        #: read back from its header) and the send queue.
        self._mirror = MemoryBackend(self.capacity)
        #: The sender's cursor: the mirror total shipped or counted as dropped.
        self._sent = 0
        self._flush_interval = float(flush_interval)
        self._max_batch_records = int(max_batch_records)
        self._backoff_initial = float(backoff_initial)
        self._backoff_max = float(backoff_max)
        self._close_deadline = float(close_deadline)

        self._lock = threading.Lock()  # the books and the goal flags; never the beat path's
        self._wake = threading.Event()
        self._targets_dirty = False
        self._window_dirty = False
        self._closing = False
        self._closed = False

        # Transmission statistics, registered so one scrape covers every
        # exporter sharing a registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {"stream": self.stream}
        self._sent_batches = self.metrics.counter(
            "exporter_sent_batches_total", help="BATCH frames shipped", labels=labels
        )
        self._sent_records = self.metrics.counter(
            "exporter_sent_records_total", help="records shipped", labels=labels
        )
        self._dropped_records = self.metrics.counter(
            "exporter_dropped_records_total",
            help="records shed by drop-oldest backpressure", labels=labels,
        )
        self._connects = self.metrics.counter(
            "exporter_connects_total", help="collector connections established", labels=labels
        )
        self._connect_failures = self.metrics.counter(
            "exporter_connect_failures_total", help="failed collector dials", labels=labels
        )
        self.metrics.gauge(
            "exporter_pending_records", help="records awaiting transmission",
            labels=labels, fn=lambda: float(min(self._mirror.total - self._sent, self.capacity)),
        )
        self.metrics.gauge(
            "exporter_connected", help="1 while the collector link is up",
            labels=labels, fn=lambda: 1.0 if self._sock is not None else 0.0,
        )

        self._sock: socket.socket | None = None
        self._sender = threading.Thread(
            target=self._sender_loop, name=f"hb-net-{self.stream}", daemon=True
        )
        self._sender.start()

    # ------------------------------------------------------------------ #
    # Backend interface — the producer's beat path
    # ------------------------------------------------------------------ #
    def append(self, beat: int, timestamp: float, tag: int, thread_id: int) -> None:
        if self._closing:
            raise BackendError("network backend is closed")
        pack_record(beat, timestamp, tag, thread_id)  # the range check, before the ring's
        mirror = self._mirror
        before = mirror.total
        mirror.append(beat, timestamp, tag, thread_id)
        if self._sent == before:  # the sender had caught up: wake it
            self._wake.set()

    def append_many(self, records: np.ndarray) -> None:
        if self._closing:
            raise BackendError("network backend is closed")
        mirror = self._mirror
        before = mirror.total
        mirror.append_many(records)  # rejects a wrong dtype
        if self._sent == before:
            self._wake.set()

    def set_targets(self, target_min: float, target_max: float) -> None:
        if self._closed:
            raise BackendError("network backend is closed")
        with self._lock:
            self._mirror.set_targets(target_min, target_max)
            self._targets_dirty = True
        self._wake.set()

    def set_default_window(self, window: int) -> None:
        if self._closed:
            raise BackendError("network backend is closed")
        with self._lock:
            self._mirror.set_default_window(window)
            self._window_dirty = True  # only a HELLO carries it: redial
        self._wake.set()

    def snapshot(self, n: int | None = None) -> BackendSnapshot:
        """Local view of the stream (the mirror's, so ``MemoryBackend``'s).

        Like ``MemoryBackend``, keeps serving the final history after
        :meth:`close`, so local observers of a finished producer read its
        last state instead of an error.
        """
        return self._mirror.snapshot(n)

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """O(new beats) local delta read (the mirror's)."""
        return self._mirror.snapshot_since(cursor)

    def slab_row(self) -> tuple[Arena, int] | None:
        """The mirror's slab row: observers read the local view in place."""
        return self._mirror.slab_row()

    def version(self) -> tuple[int, int]:
        """The mirror's change token, so local observers idle-skip."""
        return self._mirror.version()

    def close(self) -> None:
        """Flush the backlog (bounded by ``close_deadline``) and stop.

        Idempotent, and deliberately exception-free: teardown must succeed
        even when the collector died first, the socket is half-open, or
        close() races a second close() — the network analogue of the
        shared-memory backend surviving an external unlink.
        """
        with self._lock:
            if self._closed:
                return
            self._closing = True
        # Never join while holding the lock: the sender needs it to drain.
        self._wake.set()
        self._sender.join(timeout=self._close_deadline)
        with self._lock:
            if not self._closed:  # a concurrent close() settles exactly once
                self._closed = True
                self._advance_locked(self._mirror.total, 0)  # the undelivered are dropped
        if self._sender.is_alive():
            # The sender is wedged on a slow or dead peer; abort its socket.
            # Setting _closed above makes its loop exit on the next pass, so
            # an abandoned sender can never reconnect and keep transmitting.
            self._shutdown_socket("abort")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int | bool]:
        """Transmission counters (sent / dropped / reconnects / backlog).

        A view over the backend's :attr:`metrics` registry (the keys predate
        it and stay stable), plus the records the writer lapped since the
        sender last looked: they count as dropped at once, so
        ``sent + dropped + pending`` is the mirror's total at every call.
        """
        with self._lock:
            backlog = self._mirror.total - self._sent
            lapped = max(backlog - self.capacity, 0)
            return {
                "sent_batches": int(self._sent_batches.value),
                "sent_records": int(self._sent_records.value),
                "dropped_records": int(self._dropped_records.value) + lapped,
                "pending_records": backlog - lapped,
                "connects": int(self._connects.value),
                "connect_failures": int(self._connect_failures.value),
                "connected": self._sock is not None,
            }

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        return f"NetworkBackend(stream={self.stream!r}, address={host}:{port})"

    # ------------------------------------------------------------------ #
    # Sender thread
    # ------------------------------------------------------------------ #
    def _advance_locked(self, end: int, shipped: int) -> None:
        """Move the cursor to ``end``: its last ``shipped`` records went out,
        the unsent ones before them are dropped (lock held)."""
        if end - shipped > self._sent:
            self._dropped_records.inc(end - shipped - self._sent)
        self._sent = end

    def _sender_loop(self) -> None:
        backoff = Backoff(self._backoff_initial, self._backoff_max)
        has_work = False
        while True:
            # Work waiting on a down link sleeps no longer than its next redial.
            idle = self._flush_interval
            self._wake.wait(timeout=backoff.wait(idle) if has_work and self._sock is None else idle)
            self._wake.clear()
            with self._lock:
                if self._closed:
                    return  # close() gave up on us; do not touch the wire again
                closing, redial = self._closing, self._window_dirty and self._sock is not None
                total = self._mirror.total
                if total - self._sent > self.capacity:  # lapped while we were away
                    self._advance_locked(total - self.capacity, 0)
                has_work = total != self._sent or self._targets_dirty or redial
            if closing and not has_work:
                break
            if not has_work:
                continue
            if self._sock is not None and (redial or not protocol.link_alive(self._sock)):
                # A new window needs a new HELLO, and a link the collector left
                # quietly (FIN, no RST) would still take one send, losing it.
                self._shutdown_socket("redial" if redial else "close")
            if self._sock is None and not backoff.attempt(self._connect, force=closing):
                if closing:
                    break  # flush deadline work is pointless with no peer
                continue
            self._drain_once()
        self._shutdown_socket()

    def _connect(self) -> bool:
        try:
            sock = dial(self.address, _CONNECT_TIMEOUT, _SEND_TIMEOUT)
            with self._lock:
                _, default_window, target_min, target_max = self._mirror.capture()
                hello = protocol.encode_hello(
                    self.stream,
                    pid=os.getpid(),
                    nonce=self._nonce,
                    default_window=default_window,
                    capacity=self.capacity,
                    target_min=target_min,
                    target_max=target_max,
                )
                # HELLO already carries the current targets and window.
                self._targets_dirty = self._window_dirty = False
            sock.sendall(hello)
        except OSError:
            self._connect_failures.inc()
            return False
        with self._lock:
            self._sock = sock
        self._connects.inc()
        return True

    def _drain_once(self) -> None:
        """Ship pending targets and one BATCH frame of the oldest unsent records."""
        sock = self._sock
        if sock is None:  # pragma: no cover - only racing an abort
            return
        mirror = self._mirror
        with self._lock:
            targets = mirror.capture()[2:] if self._targets_dirty else None
            self._targets_dirty = False
        total = mirror.total  # the writer's copy: its records are placed
        first = max(self._sent, total - self.capacity)
        end = min(total, first + self._max_batch_records)
        records, _ = mirror.copy_newest(end, end - first)  # minus a prefix lapped meanwhile
        shipped = records.shape[0]
        try:
            if targets is not None:
                sock.sendall(protocol.encode_targets(*targets))
            if shipped:
                sock.sendall(protocol.encode_frame(protocol.FRAME_BATCH, protocol.batch_payload(records)))
        except OSError:
            with self._lock:
                self._targets_dirty |= targets is not None
            self._shutdown_socket()
            return  # the cursor stays: the records go again after the redial
        with self._lock:
            if self._closed:
                return  # close() already counted them as dropped
            if shipped:
                self._sent_batches.inc()
                self._sent_records.inc(shipped)
            self._advance_locked(end, shipped)
        if mirror.total != end:
            self._wake.set()  # more to ship, or appended meanwhile: come straight back

    def _shutdown_socket(self, how: str = "close") -> None:
        """Hang up.  ``"close"`` sends CLOSE first when closing; ``"redial"``
        sends none and waits until the collector hung up in turn — it has then
        ingested every frame of this link, so the next HELLO cannot overtake
        them; ``"abort"`` just closes the link a wedged sender holds."""
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is None:
            return
        with contextlib.suppress(OSError):
            if how == "redial":
                sock.shutdown(socket.SHUT_WR)
                sock.recv(1)  # a collector never sends: EOF (or a time-out)
            elif how == "close" and self._closing:
                sock.sendall(protocol.encode_close(self._mirror.version()[0]))
        hang_up(sock)
