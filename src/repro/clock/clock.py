"""Clock implementations.

All clocks report time in seconds as a ``float``.  Clocks must be monotonic:
``now()`` never returns a smaller value than a previous call.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "WallClock", "SimulatedClock", "ManualClock"]


@runtime_checkable
class Clock(Protocol):
    """Minimal time-source protocol used throughout the framework."""

    def now(self) -> float:
        """Return the current time in seconds."""
        ...  # pragma: no cover - protocol stub


class WallClock:
    """Monotonic wall-clock time source.

    Uses :func:`time.perf_counter`, the host-wide monotonic clock, so every
    process on a host stamps and reads beats in one time base and liveness
    ages mean the same to a producer and to any observer.  ``rebase=True``
    moves the origin to this clock's construction: a time base no other
    process shares, so observers elsewhere misread its beats' ages.  Leave
    it at the default.
    """

    __slots__ = ("_origin",)

    def __init__(self, *, rebase: bool = False) -> None:
        self._origin = time.perf_counter() if rebase else 0.0

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` of real time (convenience for examples)."""
        if seconds > 0:
            time.sleep(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallClock(now={self.now():.6f})"


class SimulatedClock:
    """A clock advanced explicitly by a simulation engine.

    The clock never moves on its own; :meth:`advance` moves it forward by a
    non-negative delta and :meth:`advance_to` moves it to an absolute time
    that must not be in the past.  This is the time source used by
    :mod:`repro.sim` so that every experiment is deterministic.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"start time must be >= 0, got {start!r}")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance by a negative delta ({delta!r})")
        self._now += float(delta)
        return self._now

    def advance_to(self, when: float) -> float:
        """Move time forward to the absolute instant ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot move simulated time backwards: now={self._now!r}, requested={when!r}"
            )
        self._now = float(when)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self._now:.6f})"


class ManualClock:
    """A clock whose time is assigned directly.

    Unlike :class:`SimulatedClock` it allows setting any non-decreasing value
    via the :attr:`time` property, which reads naturally in unit tests::

        clock = ManualClock()
        clock.time = 1.5
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    @property
    def time(self) -> float:
        return self._now

    @time.setter
    def time(self, value: float) -> None:
        if value < self._now:
            raise ValueError(
                f"manual clock cannot go backwards: now={self._now!r}, requested={value!r}"
            )
        self._now = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManualClock(now={self._now:.6f})"
