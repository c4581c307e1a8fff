"""The :class:`Heartbeat` object — the paper's Table 1 API in object form.

A :class:`Heartbeat` owns one heartbeat stream: a history buffer, a default
rate window, and a published target heart-rate range.  Applications call
:meth:`Heartbeat.heartbeat` at significant points; the application itself or
an external observer reads progress back through :meth:`current_rate`,
:meth:`get_history` and the target accessors.

The mapping to the paper's functions is:

==========================  =======================================
Paper (Table 1)             This class
==========================  =======================================
``HB_initialize``           ``Heartbeat(window=..., ...)``
``HB_heartbeat``            :meth:`heartbeat`
``HB_heartbeat_n``          :meth:`heartbeat_batch`
``HB_current_rate``         :meth:`current_rate`
``HB_set_target_rate``      :meth:`set_target_rate`
``HB_get_target_min``       :meth:`target_min` (property)
``HB_get_target_max``       :meth:`target_max` (property)
``HB_get_history``          :meth:`get_history`
==========================  =======================================

A thin C-style functional facade over this class lives in
:mod:`repro.core.api` for code that wants to read exactly like the paper.
"""

from __future__ import annotations

import threading
from functools import partial
from threading import get_ident
from typing import Callable, NoReturn, Sequence

import numpy as np

from repro.clock import Clock, WallClock
from repro.core.backends.base import Backend
from repro.core.backends.memory import MemoryBackend
from repro.core.errors import (
    HeartbeatClosedError,
    InvalidTargetError,
    InvalidWindowError,
)
from repro.core.rate import global_rate, windowed_rate
from repro.core.record import RECORD_DTYPE, HeartbeatRecord
from repro.core.window import MAX_WINDOW, resolve_window, validate_default_window

__all__ = ["Heartbeat"]

#: ``0..n-1`` (int64) and ``1..n`` (float64), read-only: what a batch adds its
#: first beat number to and multiplies its timestamp step by.
_RAMP_SIZE = 4096
_INT_RAMP = np.arange(_RAMP_SIZE, dtype=np.int64)
_FLOAT_RAMP = np.arange(1, _RAMP_SIZE + 1, dtype=np.float64)
_INT_RAMP.flags.writeable = _FLOAT_RAMP.flags.writeable = False


def _ramps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two ramps at length ``n``: cached slices, or built for a huge batch."""
    if n <= _RAMP_SIZE:
        return _INT_RAMP[:n], _FLOAT_RAMP[:n]
    return np.arange(n, dtype=np.int64), np.arange(1, n + 1, dtype=np.float64)


def _thread_id(value: int) -> int:
    """An explicit ``thread_id``, checked like a tag (``get_ident()`` values are trusted)."""
    if -0x8000000000000000 <= int(value) <= 0x7FFFFFFFFFFFFFFF:
        return int(value)
    raise OverflowError(f"thread_id {value} does not fit a heartbeat record's int64")


def _finalized(name: str, *record: object) -> NoReturn:
    raise HeartbeatClosedError(f"heartbeat {name!r} is finalized")


class Heartbeat:
    """A single heartbeat stream (global per application, or per thread).

    Parameters
    ----------
    window:
        Default number of heartbeats used to compute the average heart rate
        when a rate query passes ``window=0``.  ``0`` selects the library
        default (:data:`repro.core.window.DEFAULT_WINDOW`).
    name:
        Optional human-readable name, used by the process-level registry and
        by file/shared-memory observers.
    clock:
        Time source used to stamp beats; defaults to :class:`WallClock`.
    backend:
        Storage backend; defaults to an in-process :class:`MemoryBackend`
        whose capacity is ``max(history, window)``.  May also be a telemetry
        endpoint URL string or parsed :class:`~repro.endpoints.Endpoint`
        (``mem://``, ``file:///path``, ``shm://name?depth=65536``,
        ``tcp://host:port``), opened through
        :func:`repro.endpoints.open_backend` with this heartbeat's ``name``
        as the default ``tcp://`` stream name.
    history:
        Number of beats retained for history queries when this constructor
        sizes in-process storage itself: the default memory backend, and a
        ``mem://`` endpoint URL without an explicit ``?capacity=``.  Ignored
        when a backend *object* (or any other endpoint scheme, which sizes
        storage via URL parameters) is supplied.
    thread_safe:
        When True (default) beat registration is serialised with a lock, which
        is required for the application-global heartbeat shared by several
        threads ("a mutex is used to guarantee mutual exclusion and ordering
        when multiple threads attempt to register a global heartbeat at the
        same time").  Per-thread local heartbeats may pass False to shave the
        locking overhead.
    """

    def __init__(
        self,
        window: int = 0,
        *,
        name: str = "heartbeat",
        clock: Clock | None = None,
        backend: "Backend | str | object | None" = None,
        history: int = 2048,
        thread_safe: bool = True,
    ) -> None:
        self.name = str(name)
        self._clock = clock if clock is not None else WallClock()
        self._window = validate_default_window(window)
        if history <= 0:
            raise InvalidWindowError(f"history must be positive, got {history}")
        capacity = min(max(int(history), self._window), MAX_WINDOW)
        if backend is not None and not isinstance(backend, Backend):
            # Endpoint URL (or parsed Endpoint): open through the front door.
            # Anything else non-Backend is trusted as a duck-typed sink.
            from dataclasses import replace

            from repro.endpoints import Endpoint, MemEndpoint, open_backend

            if isinstance(backend, (str, Endpoint)):
                ep = Endpoint.parse(backend)
                if isinstance(ep, MemEndpoint) and ep.capacity is None:
                    # An inline (mem://) URL without ?capacity= sizes its
                    # history exactly like the default backend would.
                    ep = replace(ep, capacity=capacity)
                # A default-named stream must not impose "heartbeat" as the
                # wire stream id (every process would collide at the
                # collector); the network backend's per-process default
                # applies instead.
                stream = self.name if self.name != "heartbeat" else None
                backend = open_backend(ep, stream=stream)
        self._backend: Backend = backend if backend is not None else MemoryBackend(capacity)  # type: ignore[assignment]
        self._backend.set_default_window(self._window)
        self._lock: threading.Lock | _NullLock = threading.Lock() if thread_safe else _NullLock()
        self._now = self._clock.now
        # The first single beat binds backend.append (a sink may lack it); finalize() a raiser.
        self._append: Callable[[int, float, int, int], None] = self._first_append
        self._count = 0
        self._first_timestamp: float | None = None
        self._last_timestamp: float | None = None
        self._target_min = 0.0
        self._target_max = 0.0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Producer API
    # ------------------------------------------------------------------ #
    def heartbeat(self, tag: int = 0, *, thread_id: int | None = None) -> int:
        """Register one heartbeat and return its sequence number.

        The beat is stamped with the current clock time and the caller's
        thread identifier (overridable with ``thread_id``, which simulated
        processes use to stamp their own identity).  A value outside int64
        raises ``OverflowError`` before anything is stored or counted.
        """
        tag = int(tag)
        if not -0x8000000000000000 <= tag <= 0x7FFFFFFFFFFFFFFF:
            raise OverflowError(f"tag {tag} does not fit a heartbeat record's int64")
        tid = get_ident() if thread_id is None else _thread_id(thread_id)
        lock = self._lock  # acquire/release: ``with`` costs 120-200 ns more per beat
        lock.acquire()
        try:
            now = self._now()
            beat = self._count
            self._append(beat, now, tag, tid)
            self._count = beat + 1
            self._last_timestamp = now
            return beat
        finally:
            lock.release()

    def _first_append(self, beat: int, timestamp: float, tag: int, thread_id: int) -> None:
        """The first single beat: store it, then bind the backend's ``append``."""
        self._backend.append(beat, timestamp, tag, thread_id)
        if self._first_timestamp is None:  # a batch may have come first
            self._first_timestamp = timestamp
        self._append = self._backend.append

    def heartbeat_batch(
        self,
        n: int,
        tag: int | Sequence[int] | np.ndarray = 0,
        *,
        thread_id: int | None = None,
    ) -> int:
        """Register ``n`` heartbeats at once; return the first sequence number.

        The batched ingestion path: one lock acquisition, one clock read and
        one vectorized backend write cover the whole batch, so the amortized
        per-beat cost is a small fraction of :meth:`heartbeat`'s — the paper's
        one-beat-per-25 000-options amortization without losing the beat
        count.  The batch says "``n`` units of work finished since the last
        beat", so the records' timestamps are spread linearly across the
        interval from the previous beat to now (ending exactly at now); rate
        windows that fall inside a single batch therefore still measure the
        true throughput instead of a zero span.  The first-ever batch has no
        preceding beat and stamps every record with the current time.

        ``tag`` may be a scalar (stamped on every record) or a length-``n``
        sequence of per-record tags.  ``heartbeat_batch(1)`` is equivalent to
        :meth:`heartbeat` including its return value; ``n == 0`` is a no-op
        that returns the sequence number the next beat will receive.
        Negative ``n`` raises ``ValueError``.
        """
        if self._closed:
            _finalized(self.name)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        tid = get_ident() if thread_id is None else int(thread_id)
        with self._lock:
            if n == 0:
                return self._count
            now = self._clock.now()
            first = self._count
            n = int(n)
            # A fresh array per call (a backend may keep the reference),
            # filled in place from the cached ramps: no temporaries.
            records = np.empty(n, dtype=RECORD_DTYPE)
            ints, floats = _ramps(n)
            np.add(ints, first, out=records["beat"])
            timestamps = records["timestamp"]
            previous = self._last_timestamp
            if previous is None or previous >= now:
                timestamps.fill(now)
            else:
                np.multiply(floats, (now - previous) / n, out=timestamps)
                np.add(timestamps, previous, out=timestamps)
                timestamps[-1] = now  # exact, despite float rounding
            records["tag"] = tag  # scalar broadcast or per-record array
            records["thread_id"].fill(tid)
            self._backend.append_many(records)
            self._count += int(n)
            if self._first_timestamp is None:
                self._first_timestamp = now
            self._last_timestamp = now
            return first

    def set_target_rate(self, target_min: float, target_max: float) -> None:
        """Publish the heart-rate range this application wants to maintain."""
        tmin = float(target_min)
        tmax = float(target_max)
        if tmin < 0 or tmax < 0:
            raise InvalidTargetError(
                f"target rates must be non-negative, got [{tmin}, {tmax}]"
            )
        if tmin > tmax:
            raise InvalidTargetError(
                f"target minimum {tmin} exceeds target maximum {tmax}"
            )
        with self._lock:
            self._target_min = tmin
            self._target_max = tmax
            self._backend.set_targets(tmin, tmax)

    def finalize(self) -> None:
        """Finalise the heartbeat stream and release backend resources.

        Mirrors the finalisation call the paper's instrumented PARSEC
        benchmarks perform; subsequent :meth:`heartbeat` calls raise
        :class:`HeartbeatClosedError`.  Idempotent.
        """
        with self._lock:  # a first beat in flight must not rebind over the raiser
            if self._closed:
                return
            self._closed = True
            self._append = partial(_finalized, self.name)
        self._backend.close()

    close = finalize

    def __enter__(self) -> "Heartbeat":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finalize()

    # ------------------------------------------------------------------ #
    # Observation API (application or external observer in-process)
    # ------------------------------------------------------------------ #
    def current_rate(self, window: int = 0) -> float:
        """Average heart rate (beats/second) over the last ``window`` beats.

        ``window=0`` uses the default window registered at construction time.
        Windows larger than the default are silently clipped to it.  Returns
        ``0.0`` until at least two heartbeats have been registered.
        """
        with self._lock:
            available = min(self._count, self._backend.capacity)
            effective = resolve_window(window, self._window, available)
            if effective < 2:
                return 0.0
            snap = self._backend.snapshot(effective)
        return windowed_rate(snap.records["timestamp"])

    def global_heart_rate(self) -> float:
        """Whole-execution average heart rate (the Table 2 metric)."""
        with self._lock:
            if self._count < 2 or self._first_timestamp is None or self._last_timestamp is None:
                return 0.0
            return global_rate(self._first_timestamp, self._last_timestamp, self._count)

    def get_history(self, n: int | None = None) -> list[HeartbeatRecord]:
        """Return the last ``n`` heartbeats in production order.

        ``None`` (or a value larger than the retained history) returns the
        full retained history; the paper allows implementations to bound
        ``n`` and this implementation bounds it by the backend capacity.
        """
        if n is not None and n < 0:
            raise InvalidWindowError(f"n must be >= 0, got {n}")
        with self._lock:
            snap = self._backend.snapshot(n)
        return snap.as_records()

    def get_history_array(self, n: int | None = None) -> np.ndarray:
        """Structured-array variant of :meth:`get_history` (zero-copy friendly)."""
        if n is not None and n < 0:
            raise InvalidWindowError(f"n must be >= 0, got {n}")
        with self._lock:
            snap = self._backend.snapshot(n)
        return snap.records

    def rate_series(self, window: int = 0) -> np.ndarray:
        """Moving-average heart rate at every retained beat (figure helper)."""
        from repro.core.rate import moving_rate_series  # local import to avoid cycle in docs

        effective = self._window if window == 0 else window
        ts = self.get_history_array()["timestamp"]
        return moving_rate_series(ts, effective)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def target_min(self) -> float:
        """Minimum target heart rate set by :meth:`set_target_rate` (0 if unset)."""
        return self._target_min

    @property
    def target_max(self) -> float:
        """Maximum target heart rate set by :meth:`set_target_rate` (0 if unset)."""
        return self._target_max

    @property
    def window(self) -> int:
        """Default rate window."""
        return self._window

    @property
    def count(self) -> int:
        """Total number of heartbeats registered so far."""
        return self._count

    @property
    def backend(self) -> Backend:
        """The storage backend (exposed for observers and tests)."""
        return self._backend

    @property
    def clock(self) -> Clock:
        """The time source stamping this stream's beats."""
        return self._clock

    @property
    def closed(self) -> bool:
        return self._closed

    def last_timestamp(self) -> float | None:
        """Timestamp of the most recent beat (``None`` before the first beat)."""
        return self._last_timestamp

    def intervals(self, n: int | None = None) -> np.ndarray:
        """Inter-beat intervals (seconds) over the last ``n`` beats."""
        ts = self.get_history_array(n)["timestamp"]
        return np.diff(ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Heartbeat(name={self.name!r}, count={self._count}, window={self._window}, "
            f"target=[{self._target_min}, {self._target_max}])"
        )


class _NullLock:
    """No-op lock used when thread safety is explicitly disabled."""

    __slots__ = ()

    def acquire(self) -> bool:
        return True

    def release(self, *exc_info: object) -> None:
        return None

    __enter__, __exit__ = acquire, release
