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

Both observers read one way.  Every stream they observe is a row of a
private ``mem-arena`` slab, in the chain of the smallest power-of-two depth
holding the window it is read at (:func:`~repro.core.window.resolve_window`,
not clipped to what is retained).  The sync step (:meth:`_Mirror.sync`)
replays the source's deltas into the row by :class:`DeltaSnapshot`'s replay rule and
records what the source still retains; one :meth:`Arena.snapshot_since_all`
pass then computes the windowed rate and liveness stamp of every row, and
:func:`classify_codes` is the health rule.  A monitor is that path for one
row; :class:`~repro.core.aggregator.HeartbeatAggregator` runs it for a fleet.
``tests/model.py`` states the contract both must meet.
"""

from __future__ import annotations

import sys
from enum import Enum
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.clock import Clock, WallClock
from repro.core.backends.arena import _Slab, _SlabPool
from repro.core.backends.base import BackendSnapshot, DeltaSnapshot, SnapshotCursor
from repro.core.backends.ring import Ring
from repro.core.errors import HeartbeatError
from repro.core.heartbeat import Heartbeat
from repro.core.rate import BACKWARDS
from repro.core.record import HeartbeatRecord, array_to_records
from repro.core.stream import DeltaSource, ProbeSource, capabilities_of
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

    The one place a :class:`MonitorReading` row is built.  A row holds a
    :class:`HealthStatus`, so the cyclic collector tracks it: a caller
    passing over many rows should keep none of them.
    """
    return map(tuple.__new__, repeat(MonitorReading), zip(*values))


class _Mirror:
    """One observed stream's private slab row, with its cursor and version token.

    :meth:`sync` is the one sync step of both observers; the windowed
    rate, the liveness stamp and the health class are then read for every
    row at once by :meth:`Arena.snapshot_since_all` and
    :func:`classify_codes`.
    """

    __slots__ = ("cursor", "version", "slab", "index", "ring")

    def __init__(self) -> None:
        self.cursor: SnapshotCursor | None = None
        self.version: object | None = None
        self.slab: _Slab | None = None
        self.index = -1
        self.ring: Ring | None = None

    def sync(
        self, pool: _SlabPool, delta_source: DeltaSource, probe: ProbeSource | None, requested: int
    ) -> None:
        """Replay what the source produced since the last sync into the row.

        An unchanged ``version`` token skips the read.  Otherwise the delta
        since the cursor lands by :class:`DeltaSnapshot`'s replay rule: a
        resync restarts the row at the delta's first beat, an increment
        appends, and ``held`` trims to what the source retains.  A window
        that outgrew the row moves the stream once, with a full resync.  A
        read that raises leaves the cursor unset, so the next one resyncs.
        """
        version = None
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
        ring.words[ring.window_at] = delta.default_window
        ring.reals[ring.window_at + 1] = delta.target_min
        ring.reals[ring.window_at + 2] = delta.target_max
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

    :meth:`read` is the aggregator's read path for one row: the source's
    ``snapshot_since`` (found with :func:`repro.core.stream.capabilities_of`)
    delivers only the beats produced since the previous read into a private
    slab row — two equal ``version`` tokens skip even that on an idle
    stream — and :meth:`Arena.snapshot_since_all` and :func:`classify_codes`
    read the row.  A source with neither is re-snapshotted in full and read
    through the same path.

    The monitor is itself a ``StreamSource`` (:meth:`snapshot`,
    :meth:`snapshot_since`, :meth:`version` forward to what it observes), so
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
        caps = capabilities_of(source)
        self._source = caps.snapshot
        self._delta: DeltaSource = caps.delta
        self._probe = caps.probe
        self._close = caps.close if own else None
        self._clock = clock if clock is not None else WallClock()
        self._window = int(window)
        self._liveness_timeout = liveness_timeout
        self._pool = _SlabPool(first_bytes=0)  # one stream, one row
        self._mirror = _Mirror()

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

        Only the beats produced since the previous ``read`` are fetched, so
        a steady poll costs O(new beats) instead of O(history).  Raises what
        the source raises, and ``ValueError`` when the rate window holds a
        backwards timestamp.
        """
        requested = self._window if window is None else int(window)
        mirror = self._mirror
        mirror.sync(self._pool, self._delta, self._probe, requested)
        slab, i = mirror.slab, slice(mirror.index, mirror.index + 1)
        fleet = slab.arena.snapshot_since_all(  # type: ignore[union-attr]
            window=requested, include_records=False, held=slab.held  # type: ignore[union-attr]
        )
        rate, last_ts = fleet.rate[i], fleet.last_timestamp[i]
        if np.isnan(rate[0]):
            raise ValueError(BACKWARDS)
        age = self._clock.now() - last_ts
        tmin, tmax = fleet.target_min[i], fleet.target_max[i]
        codes = classify_codes(rate, fleet.retained[i], tmin, tmax, age, self._liveness_timeout)
        return next(_rows(_values((rate, fleet.totals[i], tmin, tmax, last_ts, age, codes))))

    def snapshot(self) -> BackendSnapshot:
        """A full snapshot of the observed stream."""
        return self._source()

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """The observed stream's records since ``cursor`` (see :class:`DeltaSnapshot`)."""
        return self._delta(cursor)

    def version(self) -> object | None:
        """The observed stream's cheap change token (``None``: it has none)."""
        return self._probe() if self._probe is not None else None

    def current_rate(self, window: int | None = None) -> float:
        """Convenience: the windowed rate only."""
        return self.read(window).rate

    def target_range(self) -> tuple[float, float]:
        """The application's published target heart-rate range."""
        snap = self._source()
        return snap.target_min, snap.target_max

    def get_history(self, n: int | None = None) -> list[HeartbeatRecord]:
        """The last ``n`` observed heartbeat records."""
        return array_to_records(self.history_array(n))

    def history_array(self, n: int | None = None) -> np.ndarray:
        """The last ``n`` observed records as a structured array."""
        records = self._source().records
        return records if n is None or n >= records.shape[0] else records[records.shape[0] - n :]

    def is_alive(self, timeout: float) -> bool:
        """True when a beat has been observed within the last ``timeout`` seconds."""
        snap = self._source()
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
