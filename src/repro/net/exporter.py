"""Producer-side network backend.

:class:`NetworkBackend` implements the :class:`repro.core.backends.Backend`
interface on top of a TCP connection to a
:class:`repro.net.HeartbeatCollector`.  Its contract mirrors the
paper's overhead story: registering a heartbeat must stay cheap and
predictable no matter what the observer is doing, so the beat path only ever
touches process-local state —

* every record lands in a local mirror — a
  :class:`~repro.core.backends.memory.MemoryBackend`, so the producer (and
  any observer thread in its process) reads itself through the same ring
  kernel, delta cursors and change token as any in-process stream;
* records are *also* queued for a background sender thread — as their *wire
  bytes* (:func:`repro.net.protocol.record_bytes`: one ``tobytes`` per batch,
  one 32-byte ``pack`` per single beat), so coalescing a frame is a
  ``b"".join`` and nothing downstream touches an array again;
* the sender is woken when the queue goes empty → non-empty (and by
  ``set_targets`` / ``close``); while it is busy or backing off, further
  appends only queue — it comes straight back when a drain leaves records
  behind, and its ``flush_interval`` time-out covers the rest, so a dead
  collector costs the beat path no thread hand-offs;
* each BATCH frame leaves in one ``sendall``.  A single send into a silently
  severed link *succeeds*, so before every drain the sender probes the link
  for EOF (:func:`repro.net.protocol.link_alive`, the relay's rule) and
  redials first.  Delivery stays at-most-once per in-flight frame: a link
  can still die between probe and send;
* the queue is bounded: when the collector is slow, unreachable or dead, the
  oldest queued records are dropped (and counted) instead of the producer
  blocking — heartbeats are telemetry, and recent beats are worth more than
  old ones;
* a lost connection is retried with exponential backoff, and every
  (re)connect replays a HELLO frame carrying the stream's metadata so the
  collector is re-synchronised without any extra bookkeeping here.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from collections import deque

import numpy as np

from repro.core.backends.base import Backend, BackendSnapshot, DeltaSnapshot, SnapshotCursor
from repro.core.backends.memory import MemoryBackend
from repro.core.errors import BackendError
from repro.core.record import RECORD_STRUCT, pack_record
from repro.net import protocol
from repro.obs.registry import MetricsRegistry

__all__ = ["NetworkBackend"]

#: Per-process backend instance counter.  Combined with the PID in HELLO it
#: gives every backend a fleet-unique nonce, so a collector can tell a
#: reconnect of the same stream from a same-named sibling in one process.
_nonce_counter = itertools.count(1)

_RECORD_SIZE = RECORD_STRUCT.size


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
        Record slots in the local history buffer (what :meth:`snapshot`
        serves) and the capacity hint sent to the collector.
    max_pending:
        Upper bound on records queued for transmission.  Beyond it the
        oldest queued records are dropped; the producer never blocks.
    flush_interval:
        Longest time the sender lets queued records sit before shipping
        them, in seconds.
    max_batch_records:
        Largest number of records coalesced into one BATCH frame.
    connect_timeout / send_timeout:
        Socket timeouts for connecting and sending, in seconds.
    backoff_initial / backoff_max:
        Reconnect backoff: delay starts at ``backoff_initial`` and doubles
        per failed attempt up to ``backoff_max``.
    close_deadline:
        Longest :meth:`close` waits for the pending queue to flush.
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
        max_pending: int = 65536,
        flush_interval: float = 0.05,
        max_batch_records: int = 8192,
        connect_timeout: float = 1.0,
        send_timeout: float = 2.0,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
        close_deadline: float = 2.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity <= 0:
            raise BackendError(f"capacity must be positive, got {capacity}")
        if max_pending <= 0:
            raise BackendError(f"max_pending must be positive, got {max_pending}")
        if max_batch_records <= 0:
            raise BackendError(f"max_batch_records must be positive, got {max_batch_records}")
        self.address = protocol.parse_address(address)
        self.stream = stream if stream is not None else f"hb-{os.getpid()}"
        self._nonce = next(_nonce_counter)
        self.capacity = int(capacity)
        #: Local history *and* the stream's metadata: HELLO and TARGETS
        #: frames are read back from its header.
        self._mirror = MemoryBackend(self.capacity)
        self._max_pending = int(max_pending)
        self._flush_interval = float(flush_interval)
        self._max_batch_records = int(max_batch_records)
        self._connect_timeout = float(connect_timeout)
        self._send_timeout = float(send_timeout)
        self._backoff_initial = float(backoff_initial)
        self._backoff_max = float(backoff_max)
        self._close_deadline = float(close_deadline)

        self._lock = threading.Lock()
        self._wake = threading.Event()
        #: Wire bytes of the records awaiting transmission, oldest first;
        #: every chunk is a whole number of records (a view once split).
        self._queue: deque[bytes | memoryview] = deque()
        self._pending_records = 0
        self._targets_dirty = False
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
            "exporter_pending_records", help="records queued for transmission",
            labels=labels, fn=lambda: float(self._pending_records),
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
        if self._closed or self._closing:
            raise BackendError("network backend is closed")
        record = pack_record(beat, timestamp, tag, thread_id)  # before the mirror: the check
        self._mirror.append(beat, timestamp, tag, thread_id)
        self._enqueue(record)

    def append_many(self, records: np.ndarray) -> None:
        if self._closed or self._closing:
            raise BackendError("network backend is closed")
        self._mirror.append_many(records)  # rejects a wrong dtype
        if records.shape[0]:
            # The queue keeps its own bytes: the caller may reuse its array.
            self._enqueue(protocol.record_bytes(records))

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
        self._mirror.set_default_window(window)

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

    def version(self) -> tuple[int, int]:
        """The mirror's change token, so local observers idle-skip."""
        return self._mirror.version()

    def close(self) -> None:
        """Flush the pending queue (bounded by ``close_deadline``) and stop.

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
                undelivered = self._pending_records
                self._pending_records = 0
                self._queue.clear()
                if undelivered:
                    self._dropped_records.inc(undelivered)
        if self._sender.is_alive():
            # The sender is wedged on a slow or dead peer; abort its socket.
            # Setting _closed above makes its loop exit on the next pass, so
            # an abandoned sender can never reconnect and keep transmitting.
            self._abort_socket()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int | bool]:
        """Transmission counters (sent / dropped / reconnects / queue depth).

        A view over the backend's :attr:`metrics` registry; the keys predate
        the registry and stay stable.
        """
        with self._lock:
            pending = self._pending_records
            connected = self._sock is not None
        return {
            "sent_batches": int(self._sent_batches.value),
            "sent_records": int(self._sent_records.value),
            "dropped_records": int(self._dropped_records.value),
            "pending_records": pending,
            "connects": int(self._connects.value),
            "connect_failures": int(self._connect_failures.value),
            "connected": connected,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        return f"NetworkBackend(stream={self.stream!r}, address={host}:{port})"

    # ------------------------------------------------------------------ #
    # Queueing (called from the beat path; must never block on the network)
    # ------------------------------------------------------------------ #
    def _enqueue(self, chunk: bytes) -> None:
        with self._lock:
            was_idle = not self._queue
            self._queue.append(chunk)
            self._pending_records += len(chunk) // _RECORD_SIZE
            if self._pending_records > self._max_pending:
                self._trim_pending_locked()
        if was_idle:
            # Only the empty → non-empty edge wakes the sender; it drains
            # whatever else was queued by the time it looks.
            self._wake.set()

    def _trim_pending_locked(self) -> None:
        """Drop the oldest queued records down to the bound (lock held)."""
        while self._pending_records > self._max_pending:
            oldest = self._queue[0]
            count = len(oldest) // _RECORD_SIZE
            overflow = min(count, self._pending_records - self._max_pending)
            if overflow == count:
                self._queue.popleft()
            else:  # mid-chunk, on a record boundary; a view, so O(1) per trim
                self._queue[0] = memoryview(oldest)[overflow * _RECORD_SIZE :]
            self._pending_records -= overflow
            self._dropped_records.inc(overflow)

    # ------------------------------------------------------------------ #
    # Sender thread
    # ------------------------------------------------------------------ #
    def _sender_loop(self) -> None:
        backoff = self._backoff_initial
        next_attempt = 0.0
        while True:
            self._wake.wait(timeout=self._flush_interval)
            self._wake.clear()
            with self._lock:
                if self._closed:
                    return  # close() gave up on us; do not touch the wire again
                closing = self._closing
                has_work = bool(self._queue) or self._targets_dirty
            if closing and not has_work:
                break
            if not has_work:
                continue
            if self._sock is not None and not protocol.link_alive(self._sock):
                # The collector went away quietly (FIN, no RST): one send into
                # such a link would still succeed and lose the frame.
                self._shutdown_socket()
            if self._sock is None:
                if time.monotonic() < next_attempt and not closing:
                    continue
                if not self._connect():
                    backoff = min(backoff * 2.0, self._backoff_max)
                    next_attempt = time.monotonic() + backoff
                    if closing:
                        break  # flush deadline work is pointless with no peer
                    continue
                backoff = self._backoff_initial
            self._drain_once()  # a connection lost mid-send requeued its records
        self._shutdown_socket()

    def _connect(self) -> bool:
        try:
            sock = socket.create_connection(self.address, timeout=self._connect_timeout)
            sock.settimeout(self._send_timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
                # HELLO already carries the current targets.
                self._targets_dirty = False
            sock.sendall(hello)
        except OSError:
            self._connect_failures.inc()
            return False
        with self._lock:
            self._sock = sock
        self._connects.inc()
        return True

    def _drain_once(self) -> None:
        """Ship queued targets and one coalesced BATCH frame; requeue on a lost link."""
        sock = self._sock
        if sock is None:  # pragma: no cover - only racing an abort
            return
        with self._lock:
            targets = self._mirror.capture()[2:] if self._targets_dirty else None
            self._targets_dirty = False
            batch = self._pop_batch_locked()
        try:
            if targets is not None:
                sock.sendall(protocol.encode_targets(*targets))
            if batch:
                sock.sendall(protocol.encode_frame(protocol.FRAME_BATCH, batch))
        except OSError:
            self._drop_connection(requeue=batch, targets_dirty=targets is not None)
            return
        if batch:
            self._sent_batches.inc()
            self._sent_records.inc(len(batch) // _RECORD_SIZE)
            if self._queue:
                self._wake.set()  # more pending; come straight back

    def _pop_batch_locked(self) -> bytes:
        """Coalesce up to ``max_batch_records`` queued records (lock held)."""
        parts: list[bytes | memoryview] = []
        room = self._max_batch_records * _RECORD_SIZE
        while self._queue and room:
            chunk = self._queue.popleft()
            if len(chunk) > room:
                self._queue.appendleft(memoryview(chunk)[room:])
                chunk = memoryview(chunk)[:room]
            parts.append(chunk)
            room -= len(chunk)
        batch = b"".join(parts)
        self._pending_records -= len(batch) // _RECORD_SIZE
        return batch

    def _drop_connection(self, *, requeue: bytes, targets_dirty: bool) -> None:
        self._shutdown_socket()
        count = len(requeue) // _RECORD_SIZE
        with self._lock:
            if self._closed:
                # close() already settled the books (queue cleared, pending
                # counted as dropped); the in-flight batch joins the dropped
                # tally instead of resurrecting pending on a closed backend.
                self._dropped_records.inc(count)
                return
            if targets_dirty:
                self._targets_dirty = True
            if count:
                # Unsent records return to the head of the queue so ordering
                # holds; the bound still applies, trimming their oldest part.
                self._queue.appendleft(requeue)
                self._pending_records += count
                self._trim_pending_locked()

    def _shutdown_socket(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            if self._closing:
                try:
                    sock.sendall(protocol.encode_close(self._mirror.version()[0]))
                except OSError:
                    pass
            sock.close()

    def _abort_socket(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close barely ever raises
                pass
