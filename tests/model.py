"""A plain-list model of one observed heartbeat stream: the observer contract.

An external observer (the paper's Figure 1b) can know four things about an
application's stream: the records its storage still holds, how many beats it
has produced, the target range it published and its default rate window.  A
wire stream adds two: whether its producer closed it, and the total it
reported in that CLOSE.  :class:`StreamModel` keeps exactly those, as Python
lists and numbers, and derives what every observer route must report from
the paper's definitions alone:

* the heart rate is the average over the last *N* beats the storage still
  holds: ``(N - 1) / (t_last - t_first)``.  *N* is the observer's window, or
  the published default when the observer asks for 0; a window larger than
  the default is clipped to the default (Section 3: "silently clipped"), and
  *N* never exceeds the beats held.  Fewer than two beats, or no elapsed
  time, is rate 0; a window whose stamps run backwards has no rate at all —
  the observer reports the stream as an error;
* the health class: UNKNOWN while nothing is held, STALLED once the newest
  beat is older than the liveness timeout, HEALTHY without a published goal,
  SLOW below the minimum, FAST above a set maximum, HEALTHY inside.

``tests/test_observer_model.py`` drives every route — ``mem://``,
``shm://``, ``file://``, an arena row, a ``Heartbeat``, ``tcp://`` into a
journaled collector, an edge → root relay hop and a ``NetworkBackend``
producer — and compares the
aggregator's ``FleetSample``, each ``HeartbeatMonitor.read()`` and a wire
collector's ``streams()`` with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.monitor import HealthStatus, MonitorReading

#: What a reading whose rate window runs backwards is instead of a reading.
BACKWARDS = "backwards"


@dataclass
class StreamModel:
    """One stream as its observers should see it.

    ``capacity`` is how many of the newest beats the storage retains
    (``None``: all of them, as a log file does).
    """

    capacity: int | None
    stamps: list[float] = field(default_factory=list)
    total: int = 0
    target_min: float = 0.0
    target_max: float = 0.0
    window: int = 0
    closed: bool = False
    reported_total: int | None = None

    @classmethod
    def of(cls, snap: object) -> "StreamModel":
        """The model of a stream as one full ``snapshot()`` shows it."""
        return cls(
            None,
            snap.records["timestamp"].tolist(),  # type: ignore[attr-defined]
            snap.total_beats,  # type: ignore[attr-defined]
            snap.target_min,  # type: ignore[attr-defined]
            snap.target_max,  # type: ignore[attr-defined]
            snap.default_window,  # type: ignore[attr-defined]
        )

    def beat(self, stamp: float) -> None:
        self.stamps.append(float(stamp))
        self.total += 1
        if self.capacity is not None and len(self.stamps) > self.capacity:
            del self.stamps[: len(self.stamps) - self.capacity]

    def close(self) -> None:
        """The producer sent CLOSE carrying the total it produced."""
        self.closed, self.reported_total = True, self.total

    def resume(self) -> None:
        """A HELLO re-registered the stream, clearing any CLOSE."""
        self.closed, self.reported_total = False, None

    def restart(self) -> None:
        """The storage starts over empty (a truncated or rotated log)."""
        self.stamps.clear()
        self.total = 0
        self.target_min = self.target_max = 0.0
        self.window = 0

    @property
    def last(self) -> float | None:
        return self.stamps[-1] if self.stamps else None

    def rate(self, requested: int = 0) -> float | str:
        default = self.window if self.window > 0 else max(requested, 1)
        n = default if requested == 0 else min(requested, default)
        n = min(n, len(self.stamps))
        if n < 2:
            return 0.0
        span = self.stamps[-1] - self.stamps[-n]
        if span < 0:
            return BACKWARDS
        return 0.0 if span == 0 else (n - 1) / span

    def status(self, rate: float, age: float | None, liveness: float | None) -> HealthStatus:
        if not self.stamps:
            return HealthStatus.UNKNOWN
        if liveness is not None and age is not None and age > liveness:
            return HealthStatus.STALLED
        if self.target_min <= 0.0 and self.target_max <= 0.0:
            return HealthStatus.HEALTHY
        if rate < self.target_min:
            return HealthStatus.SLOW
        if self.target_max > 0.0 and rate > self.target_max:
            return HealthStatus.FAST
        return HealthStatus.HEALTHY

    def reading(
        self, now: float, *, requested: int = 0, liveness: float | None = None
    ) -> MonitorReading | str:
        """What an observer reads at ``now``, or :data:`BACKWARDS`."""
        rate = self.rate(requested)
        if rate == BACKWARDS:
            return BACKWARDS
        last = self.last
        age = None if last is None else now - last
        return MonitorReading(
            rate, self.total, self.target_min, self.target_max, last, age,
            self.status(rate, age, liveness),  # type: ignore[arg-type]
        )
