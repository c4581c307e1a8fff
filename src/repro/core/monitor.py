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
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from repro.clock import Clock, WallClock
from repro.core.backends.base import BackendSnapshot, DeltaSnapshot, SnapshotCursor
from repro.core.backends.ring import place
from repro.core.heartbeat import Heartbeat
from repro.core.rate import windowed_rate
from repro.core.record import RECORD_DTYPE, HeartbeatRecord, array_to_records
from repro.core.stream import DeltaSource, capabilities_of
from repro.core.window import resolve_window

__all__ = [
    "HeartbeatMonitor",
    "HealthStatus",
    "MonitorReading",
    "StreamDeltaState",
    "classify",
    "reading_from_snapshot",
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


def reading_from_snapshot(
    snap: BackendSnapshot,
    *,
    now: float,
    window: int = 0,
    liveness_timeout: float | None = None,
) -> MonitorReading:
    """Classify one backend snapshot into a :class:`MonitorReading`.

    This is the single interpretation of a heartbeat stream's state shared by
    the per-stream :class:`HeartbeatMonitor` and the fleet-level
    :class:`repro.core.aggregator.HeartbeatAggregator`, so a stream is
    "slow" or "stalled" by exactly the same rule no matter which observer is
    asking.  ``now`` is the observer's current time in the producer's time
    base.
    """
    requested = int(window)
    default_window = snap.default_window if snap.default_window > 0 else max(requested, 1)
    effective = resolve_window(requested, default_window, snap.retained)
    timestamps = snap.records["timestamp"]
    rate = windowed_rate(timestamps[timestamps.shape[0] - effective :]) if effective >= 2 else 0.0
    last_ts: float | None = float(timestamps[-1]) if timestamps.shape[0] else None
    age = (now - last_ts) if last_ts is not None else None
    status = _classify_snapshot(rate, snap, age, liveness_timeout)
    return MonitorReading(
        rate=rate,
        total_beats=snap.total_beats,
        target_min=snap.target_min,
        target_max=snap.target_max,
        last_timestamp=last_ts,
        age=age,
        status=status,
    )


def classify(
    rate: float,
    retained: int,
    target_min: float,
    target_max: float,
    age: float | None,
    liveness_timeout: float | None,
) -> HealthStatus:
    """The single scalar health-classification rule.

    :func:`reading_from_snapshot` and the incremental delta consumers both
    reduce to this function; the aggregator's vectorized classification is
    its numpy transliteration (and is tested for equivalence against it).
    """
    if retained == 0:
        return HealthStatus.UNKNOWN
    if liveness_timeout is not None and age is not None and age > liveness_timeout:
        return HealthStatus.STALLED
    if target_min <= 0.0 and target_max <= 0.0:
        # No published goal: any progress is healthy.
        return HealthStatus.HEALTHY
    if rate < target_min:
        return HealthStatus.SLOW
    if target_max > 0.0 and rate > target_max:
        return HealthStatus.FAST
    return HealthStatus.HEALTHY


def _classify_snapshot(
    rate: float,
    snap: BackendSnapshot,
    age: float | None,
    liveness_timeout: float | None,
) -> HealthStatus:
    return classify(
        rate, snap.retained, snap.target_min, snap.target_max, age, liveness_timeout
    )


class StreamDeltaState:
    """Rolling per-stream observation state fed by :class:`DeltaSnapshot`\\ s.

    Replaces the "copy the retained history, recompute the windowed rate
    from scratch" read with O(new beats) bookkeeping: a small ring of the
    last ``default_window`` beat timestamps is updated from each delta's
    records, and the windowed rate falls out of the ring's first/last
    entries — the same arithmetic :func:`repro.core.rate.windowed_rate`
    applies to a full timestamp copy.

    Shared by the incremental :meth:`HeartbeatMonitor.read` and every stream
    of a :class:`repro.core.aggregator.HeartbeatAggregator`.
    """

    __slots__ = (
        "requested", "cursor", "version", "ring", "seen", "dw",
        "rate", "total", "retained", "tmin", "tmax", "last_ts",
    )

    def __init__(self, requested: int) -> None:
        #: Window requested by the observer (0: the producer's default).
        self.requested = int(requested)
        self.cursor: SnapshotCursor | None = None
        self.version: object | None = None
        self.ring = np.zeros(max(self.requested, 2), dtype=np.float64)
        self.seen = 0  # timestamps ever written into the ring
        self.dw = max(self.requested, 1)  # effective default window
        self.rate = 0.0
        self.total = 0
        self.retained = 0
        self.tmin = 0.0
        self.tmax = 0.0
        self.last_ts = math.nan

    def apply(self, delta: DeltaSnapshot, cursor: SnapshotCursor) -> bool:
        """Fold one delta into the cached rolling state.

        Returns True when the ring covers every timestamp the effective
        window can ask for.  False means the rate would be computed over too
        few beats — the producer grew its default window past what the ring
        retained — and the caller must re-read with a fresh cursor (a full
        resync refills the ring from the backend's retained history).
        """
        self.cursor = cursor
        self.total = delta.total_beats
        self.retained = delta.retained
        self.tmin = delta.target_min
        self.tmax = delta.target_max
        dw = delta.default_window if delta.default_window > 0 else max(self.requested, 1)
        if delta.resync:
            self.seen = 0
        if dw != self.dw or dw > self.ring.shape[0]:
            self._resize(max(dw, 2))
        self.dw = dw
        timestamps = delta.records["timestamp"]
        k = int(timestamps.shape[0])
        cap = self.ring.shape[0]
        if k:
            place(self.ring, 0, cap, self.seen, timestamps)
            self.seen += k
            self.last_ts = float(self.ring[(self.seen - 1) % cap])
        elif self.seen == 0:
            self.last_ts = math.nan
        self.rate = self._rate_for(self.requested)
        return min(self.seen, cap) >= min(self.retained, self.dw)

    def consume(self, delta_source: DeltaSource) -> None:
        """Read and fold the next delta, resyncing in full when needed.

        The one consume protocol shared by the monitor and the aggregator:
        when :meth:`apply` reports the ring cannot cover the effective
        window (the producer grew its default window past what the ring
        retained), re-read with a fresh cursor so a full resync refills the
        ring from the backend's retained history.
        """
        delta, cursor = delta_source(self.cursor)
        if not self.apply(delta, cursor):
            delta, cursor = delta_source(None)
            self.apply(delta, cursor)

    def reading(self, now: float, liveness_timeout: float | None) -> MonitorReading:
        """Classify the cached state exactly like :func:`reading_from_snapshot`."""
        no_beats = math.isnan(self.last_ts)
        age = None if no_beats else now - self.last_ts
        return MonitorReading(
            rate=self.rate,
            total_beats=self.total,
            target_min=self.tmin,
            target_max=self.tmax,
            last_timestamp=None if no_beats else self.last_ts,
            age=age,
            status=classify(
                self.rate, self.retained, self.tmin, self.tmax, age, liveness_timeout
            ),
        )

    def _rate_for(self, requested: int) -> float:
        effective = resolve_window(requested, self.dw, self.retained)
        entries = min(self.seen, self.ring.shape[0])
        if effective > entries:  # pragma: no cover - defensive; ring covers dw
            effective = entries
        if effective < 2:
            return 0.0
        cap = self.ring.shape[0]
        last = float(self.ring[(self.seen - 1) % cap])
        first = float(self.ring[(self.seen - effective) % cap])
        span = last - first
        if span < 0:
            raise ValueError("timestamps are not sorted in non-decreasing order")
        if span == 0.0:
            return 0.0
        return (effective - 1) / span

    def _resize(self, cap: int) -> None:
        """Grow (or shrink) the ring, preserving the newest timestamps."""
        entries = min(self.seen, self.ring.shape[0])
        if entries:
            end = self.seen % self.ring.shape[0]
            if self.seen <= self.ring.shape[0]:
                ordered = self.ring[:entries].copy()
            elif end == 0:
                ordered = self.ring.copy()
            else:
                ordered = np.concatenate((self.ring[end:], self.ring[:end]))
        else:
            ordered = self.ring[:0]
        keep = min(int(ordered.shape[0]), cap)
        ring = np.zeros(cap, dtype=np.float64)
        ring[:keep] = ordered[ordered.shape[0] - keep :]
        self.ring = ring
        self.seen = keep


class HeartbeatMonitor:
    """Read-only observer of one heartbeat stream.

    Pass any :class:`~repro.core.stream.StreamSource`-shaped object — a
    backend, a reader, a collector's ``source(stream_id)`` view, an arena
    row, a ``Heartbeat``, another monitor, or a bare zero-argument snapshot
    callable — or use :meth:`attach` (an in-process heartbeat, on its own
    clock) or :meth:`attach_endpoint` (a ``file://``/``shm://`` URL).  Each call to
    :meth:`read` re-polls the source, so a monitor held by a scheduler
    naturally tracks the application over time.

    :meth:`read` polls incrementally: the source's ``snapshot_since`` (found
    with :func:`repro.core.stream.capabilities_of`) delivers only the beats
    produced since the previous read, and two equal ``version`` tokens skip
    even that on an idle stream.  A source with neither is re-snapshotted in
    full and read through the same path.

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
        self._state: StreamDeltaState | None = None

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

        Only the beats produced since the previous ``read`` are fetched and
        folded into cached rolling-window state, so a steady poll costs
        O(new beats) instead of O(history).  A ``window`` override different
        from the monitor's configured window is answered from a full
        snapshot instead (the cached state is sized for one window).
        """
        requested = self._window if window is None else int(window)
        if requested != self._window:
            return reading_from_snapshot(
                self._source(),
                now=self._clock.now(),
                window=requested,
                liveness_timeout=self._liveness_timeout,
            )
        state = self._state
        if state is None:
            state = self._state = StreamDeltaState(self._window)
        version = self.version()
        # Probe *before* the read: a beat landing in between is consumed now
        # and read again next time — never the other way around.
        if state.cursor is None or version is None or version != state.version:
            state.consume(self._delta)
            state.version = version
        return state.reading(self._clock.now(), self._liveness_timeout)

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
        snap = self._source()
        records = snap.records
        if n is not None and n < records.shape[0]:
            records = records[records.shape[0] - n :]
        return array_to_records(records)

    def history_array(self, n: int | None = None) -> np.ndarray:
        snap = self._source()
        records = snap.records
        if n is not None and n < records.shape[0]:
            records = records[records.shape[0] - n :]
        if records.dtype != RECORD_DTYPE:  # pragma: no cover - defensive
            records = records.astype(RECORD_DTYPE)
        return records

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
