"""External observer handle.

:class:`HeartbeatMonitor` is the read side of the paper's Figure 1(b): an
external service (OS, scheduler, cloud manager, system-administration tool)
that observes a Heartbeat-enabled application's progress and goals without
participating in its execution.

A monitor observes one :class:`~repro.core.stream.StreamSource`: a
:class:`~repro.core.heartbeat.Heartbeat` or backend in the same process, a
log file written by a :class:`~repro.core.backends.FileBackend` or a
shared-memory segment written by a
:class:`~repro.core.backends.SharedMemoryBackend` in any process on the same
host (:meth:`HeartbeatMonitor.attach_endpoint`), one stream of a network
collector, an arena row.  Whatever the source, the query surface is the
same: windowed heart rate, target range, history, liveness (time since the
last beat) and simple health classification, which is what the
fault-tolerance and cloud use cases in the paper's Sections 2.3, 2.6 and 5.4
need.

Both observers read one way: every stream they observe is a slab row,
read where it lies.  A source that is a row (a ``MemoryBackend``, so a
``Heartbeat`` on ``mem://``; an ``shm://`` segment; an arena row; a
collector's ``source(stream_id)`` view: see
:func:`~repro.core.stream.capabilities_of`) is its own row.  Any other (a
``file://`` log, a snapshot callable) is mirrored by :meth:`_Mirror.sync`
into a row of a private ``mem-arena`` slab, in the chain of the smallest
power-of-two depth holding the window it is read at.  A monitor reads its
row through the row's ring (:func:`~repro.core.backends.arena._read_alone`);
:class:`~repro.core.aggregator.HeartbeatAggregator` reads a fleet's rows by
slab, in vectorized passes that fall back to that read for a raced row.
:func:`classify_codes` is the health rule of both, and ``tests/model.py``
states the contract both must meet.
"""

from __future__ import annotations

import sys
from enum import Enum
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.clock import Clock, WallClock
from repro.core.backends.arena import Arena, _read_alone, _Slab, _SlabPool
from repro.core.backends.base import BackendSnapshot, DeltaSnapshot, SnapshotCursor
from repro.core.backends.ring import Ring
from repro.core.errors import HeartbeatError
from repro.core.heartbeat import Heartbeat
from repro.core.rate import BACKWARDS
from repro.core.record import HeartbeatRecord, array_to_records
from repro.core.stream import SourceCapabilities, capabilities_of
from repro.core.window import resolve_window

__all__ = [
    "HeartbeatMonitor",
    "HealthStatus",
    "MonitorReading",
    "classify_codes",
]


class HealthStatus(Enum):
    """Coarse application-health classification derived from heartbeats."""

    #: No beats observed yet (application starting, or no progress at all).
    UNKNOWN = "unknown"
    #: Beats are arriving and the rate is inside the published target range.
    HEALTHY = "healthy"
    #: Beats are arriving but the rate is below the published minimum.
    SLOW = "slow"
    #: Beats are arriving but the rate is above the published maximum.
    FAST = "fast"
    #: No beat has arrived for longer than the liveness timeout — the
    #: application may have hung or crashed (paper Section 2.3/2.6).
    STALLED = "stalled"


class MonitorReading(NamedTuple):
    """One observation taken by :meth:`HeartbeatMonitor.read` (a tuple row)."""

    rate: float
    total_beats: int
    target_min: float
    target_max: float
    last_timestamp: float | None
    age: float | None
    status: HealthStatus

    @property
    def below_target(self) -> bool:
        return self.status is HealthStatus.SLOW

    @property
    def above_target(self) -> bool:
        return self.status is HealthStatus.FAST

    @property
    def in_target(self) -> bool:
        return self.status is HealthStatus.HEALTHY


#: Integer health codes of :func:`classify_codes`; index
#: :data:`_STATUS_BY_CODE` with a code, or a whole code column, for the enum.
_UNKNOWN, _HEALTHY, _SLOW, _FAST, _STALLED = range(5)
_STATUS_BY_CODE = np.array(
    [HealthStatus.UNKNOWN, HealthStatus.HEALTHY, HealthStatus.SLOW, HealthStatus.FAST, HealthStatus.STALLED],
    dtype=object,
)


def classify_codes(
    rate: np.ndarray,
    retained: np.ndarray,
    target_min: np.ndarray,
    target_max: np.ndarray,
    age: np.ndarray,
    liveness_timeout: float | None,
) -> np.ndarray:
    """The health rule, one int8 status code per stream.

    UNKNOWN without a retained beat; STALLED when the last beat is older
    than ``liveness_timeout``; HEALTHY without a published goal; otherwise
    SLOW below ``target_min``, FAST above a set ``target_max``, else HEALTHY.
    ``age`` is ``nan`` where no beat was observed, which is never stalled.
    """
    # Lowest precedence first: each later rule overrides the ones before.
    codes = np.full(rate.shape, _HEALTHY, dtype=np.int8)
    codes[(target_max > 0.0) & (rate > target_max)] = _FAST
    codes[rate < target_min] = _SLOW
    codes[(target_min <= 0.0) & (target_max <= 0.0)] = _HEALTHY
    if liveness_timeout is not None:
        codes[age > liveness_timeout] = _STALLED
    codes[retained == 0] = _UNKNOWN
    return codes


def _values(columns: Sequence[np.ndarray]) -> tuple[list, ...]:
    """Python values of ``(rate, total, target_min, target_max, last_ts, age, codes)``.

    One ``tolist()`` per column and no Python call per row: ``nan`` stamps
    and ages become ``None`` in one object-array pass, codes become
    :class:`HealthStatus` in one index of :data:`_STATUS_BY_CODE`.
    """
    rate, total, tmin, tmax, last_ts, age, codes = columns
    stamps = np.stack((last_ts, age))
    held = stamps.astype(object)
    held[np.isnan(stamps)] = None
    statuses = _STATUS_BY_CODE[codes].tolist()
    return (rate.tolist(), total.tolist(), tmin.tolist(), tmax.tolist(), *held.tolist(), statuses)


def _rows(values: Sequence[list]) -> Iterator[MonitorReading]:
    """Readings from :func:`_values` lists, each built only as it is consumed.

    The one place a fleet sample's :class:`MonitorReading` rows are built
    (a monitor builds its one reading itself).  A row holds a
    :class:`HealthStatus`, so the cyclic collector tracks it: a caller
    passing over many rows should keep none of them.
    """
    return map(tuple.__new__, repeat(MonitorReading), zip(*values))


class _Mirror:
    """An observed stream's capabilities and its slab row.

    A source that is a row (``caps.row``) is read where it lies, through
    ``ring``.  Any other is mirrored: :meth:`sync`, the one sync step of
    both observers, replays its deltas into a row of a private slab, with
    a cursor and the source's version token.
    """

    __slots__ = ("caps", "cursor", "version", "slab", "index", "ring")

    def __init__(self, caps: SourceCapabilities) -> None:
        self.caps = caps
        self.cursor: SnapshotCursor | None = None
        self.version: object | None = None
        self.slab: _Slab | None = None
        self.index = -1
        self.ring: Ring | None = None if caps.row is None else caps.row[0]._ring(caps.row[1])

    def sync(self, pool: _SlabPool, requested: int) -> None:
        """Replay what the source produced since the last sync into the row.

        An unchanged ``version`` token skips the read.  Otherwise the delta
        since the cursor lands by :class:`DeltaSnapshot`'s replay rule: a
        resync restarts the row at the delta's first beat, an increment
        appends, and ``held`` trims to what the source retains.  A window
        that outgrew the row moves the stream once, with a full resync.  A
        read that raises leaves the cursor unset, so the next one resyncs.
        """
        delta_source, probe, version = self.caps.delta, self.caps.probe, None
        if probe is not None:
            try:
                version = probe()
            except HeartbeatError:
                pass  # let the delta read report the failure
        cursor, ring = self.cursor, self.ring
        if cursor is not None and version is not None and version == self.version:
            window = ring.words[ring.window_at]  # type: ignore[union-attr]
            if resolve_window(requested, window, sys.maxsize) <= ring.capacity:  # type: ignore[union-attr]
                return  # no new beats, no goal change, and the row holds the window
        self.cursor = None
        delta, cursor = delta_source(cursor)
        need = resolve_window(requested, delta.default_window, sys.maxsize)
        if ring is None or need > ring.capacity:
            if ring is not None:  # the window outgrew the row: move, with a full resync
                pool.give(self.slab, self.index)  # type: ignore[arg-type]
                self.slab = self.ring = None
                delta, cursor = delta_source(None)
                need = max(need, resolve_window(requested, delta.default_window, sys.maxsize))
            # A row of the smallest power-of-two depth holding the window.
            self.slab, self.index = pool.take(1 << max(need - 1, 1).bit_length())
            ring = self.ring = self.slab.arena._ring(self.index)
        records = delta.records[-ring.capacity :]
        if delta.resync or records.shape[0] < delta.new:
            ring.total = ring.words[ring.total_at] = delta.total_beats - records.shape[0]
        ring.append_many(records)
        ring.set_default_window(delta.default_window)  # each a sequence cycle: the row's version moves
        ring.set_targets(delta.target_min, delta.target_max)
        self.slab.held[self.index] = delta.retained  # type: ignore[union-attr]
        self.cursor, self.version = cursor, version


class HeartbeatMonitor:
    """Read-only observer of one heartbeat stream.

    Pass any :class:`~repro.core.stream.StreamSource`-shaped object — a
    backend, a reader, a collector's ``source(stream_id)`` view, an arena
    row, a ``Heartbeat``, another monitor, or a bare zero-argument snapshot
    callable — or use :meth:`attach` (an in-process heartbeat, on its own
    clock) or :meth:`attach_endpoint` (a ``file://``/``shm://`` URL).  Each call to
    :meth:`read` re-polls the source, so a monitor held by a scheduler
    naturally tracks the application over time.

    :meth:`read` reads one slab row through its ring — the source's own
    when it is a row (a collector's stream is read in place), else a
    private row its ``snapshot_since`` deltas (found with
    :func:`repro.core.stream.capabilities_of`) are replayed into, skipped
    on equal ``version`` tokens — and classifies it with
    :func:`classify_codes`.

    The monitor is itself a ``StreamSource`` (:meth:`snapshot`,
    :meth:`snapshot_since`, :meth:`version` and :meth:`slab_row` forward to
    what it observes), so
    ``HeartbeatAggregator.attach_stream(name, monitor)`` adopts an existing
    attachment as one stream of a fleet.

    Parameters
    ----------
    source:
        The stream to observe (see above).
    clock:
        Clock used to compute the age of the last beat for liveness checks;
        it must be the same time base the producer stamps beats with
        (simulated experiments pass the shared simulated clock).
    window:
        Rate window used by :meth:`read`; ``0`` uses the producer's published
        default window.
    liveness_timeout:
        Seconds without a beat after which the application is classified
        :attr:`HealthStatus.STALLED`.  ``None`` disables the check.
    own:
        When True, :meth:`close` also closes ``source``.
    """

    def __init__(
        self,
        source: object,
        *,
        clock: Clock | None = None,
        window: int = 0,
        liveness_timeout: float | None = None,
        own: bool = False,
    ) -> None:
        self._stream = _Mirror(capabilities_of(source))
        self._close = self._stream.caps.close if own else None
        self._clock = clock if clock is not None else WallClock()
        self._window = int(window)
        self._liveness_timeout = liveness_timeout
        self._pool = _SlabPool(first_bytes=0)  # a mirror's: one stream, one row
        #: The last read of the row, keyed by its version, the window and the cap.
        self._last: tuple[object, tuple] = (None, ())

    # ------------------------------------------------------------------ #
    # Attachment constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def attach(
        cls,
        heartbeat: Heartbeat,
        *,
        window: int = 0,
        liveness_timeout: float | None = None,
    ) -> "HeartbeatMonitor":
        """Observe a heartbeat object living in this process."""
        return cls(
            heartbeat,
            clock=heartbeat.clock,
            window=window,
            liveness_timeout=liveness_timeout,
        )

    @classmethod
    def attach_endpoint(
        cls,
        endpoint: object,
        *,
        clock: Clock | None = None,
        window: int = 0,
        liveness_timeout: float | None = None,
    ) -> "HeartbeatMonitor":
        """Observe the stream named by an endpoint URL (``file://``/``shm://``).

        The monitor owns the attachment: :meth:`close` detaches it.  See
        :mod:`repro.endpoints` for the URL scheme; ``mem://`` and ``tcp://``
        endpoints are observed through
        :class:`~repro.session.TelemetrySession` instead.
        """
        from repro.endpoints import open_source

        return cls(
            open_source(endpoint),  # type: ignore[arg-type]
            clock=clock,
            window=window,
            liveness_timeout=liveness_timeout,
            own=True,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def read(self, window: int | None = None) -> MonitorReading:
        """Poll the source and classify the application's current health.

        A read copies the rate window once, and a row whose version did not
        move is not read again (only its age, and so its class, moves).
        Raises what the source raises, and ``ValueError`` when the rate
        window holds a backwards timestamp.
        """
        requested = self._window if window is None else int(window)
        stream = self._stream
        if stream.caps.row is None:
            stream.sync(self._pool, requested)
            cap = int(stream.slab.held[stream.index])  # type: ignore[union-attr]
        else:
            stream.caps.row[0]._check_open()
            cap = stream.ring.capacity  # type: ignore[union-attr]
        key = (stream.ring.version(), requested, cap)  # type: ignore[union-attr]
        if key != self._last[0]:  # an idle row is not read again: only its age moves
            self._last = (key, _read_alone(stream.ring, requested, cap))  # type: ignore[arg-type]
        rate, total, tmin, tmax, last_ts, retained, _ = self._last[1]
        if rate != rate:
            raise ValueError(BACKWARDS)
        age = self._clock.now() - last_ts
        columns = np.array([[rate], [retained], [tmin], [tmax], [age]])
        code = classify_codes(*columns, self._liveness_timeout)[0]
        if last_ts != last_ts:  # nan: no beat observed
            last_ts = age = None
        return MonitorReading(rate, total, tmin, tmax, last_ts, age, _STATUS_BY_CODE[code])

    def snapshot(self) -> BackendSnapshot:
        """A full snapshot of the observed stream."""
        return self._stream.caps.snapshot()

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """The observed stream's records since ``cursor`` (see :class:`DeltaSnapshot`)."""
        return self._stream.caps.delta(cursor)

    def version(self) -> object | None:
        """The observed stream's cheap change token (``None``: it has none)."""
        probe = self._stream.caps.probe
        return probe() if probe is not None else None

    def slab_row(self) -> tuple[Arena, int] | None:
        """The observed stream's slab row (``None``: it is not a row)."""
        return self._stream.caps.row

    def current_rate(self, window: int | None = None) -> float:
        """Convenience: the windowed rate only."""
        return self.read(window).rate

    def target_range(self) -> tuple[float, float]:
        """The application's published target heart-rate range."""
        snap = self._stream.caps.snapshot()
        return snap.target_min, snap.target_max

    def get_history(self, n: int | None = None) -> list[HeartbeatRecord]:
        """The last ``n`` observed heartbeat records."""
        return array_to_records(self.history_array(n))

    def history_array(self, n: int | None = None) -> np.ndarray:
        """The last ``n`` observed records as a structured array."""
        records = self._stream.caps.snapshot().records
        return records if n is None or n >= records.shape[0] else records[records.shape[0] - n :]

    def is_alive(self, timeout: float) -> bool:
        """True when a beat has been observed within the last ``timeout`` seconds."""
        snap = self._stream.caps.snapshot()
        if snap.retained == 0:
            return False
        age = self._clock.now() - float(snap.records["timestamp"][-1])
        return age <= timeout

    def close(self) -> None:
        """Detach from the source (needed for shared-memory attachments)."""
        if self._close is not None:
            self._close()

    def __enter__(self) -> "HeartbeatMonitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
