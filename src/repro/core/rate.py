"""Heart-rate computation: the one rate rule.

A *heart rate* is the average number of heartbeats per second over a window
of the most recent heartbeats.  Given the timestamps ``t_0 .. t_{w-1}`` of the
last ``w`` beats the windowed rate is::

    rate = (w - 1) / (t_{w-1} - t_0)

i.e. the number of inter-beat intervals divided by the time they span, which
matches the intuitive reading "beats per second over the last ``w`` beats".
Fewer than one interval (a window of one beat) or a zero span has no
measurable rate and reads ``0.0``, so observers polling a freshly started
application see "no measurable progress yet" rather than an exception — the
same behaviour an external observer reading a file with a single entry would
get from the paper's reference implementation.  A span that runs backwards
(stamps out of production order) has no rate at all, and that has one
answer: ``nan`` from the array form, ``ValueError(BACKWARDS)`` from every
scalar function and from :func:`moving_rate_series`.

The rule is written twice, once per form, and nowhere else:
:func:`interval_rate` (pure Python: a one-window query such as
``Heartbeat.current_rate`` builds no array for the rule) behind
:func:`windowed_rate`, :func:`global_rate` and :func:`instantaneous_rate`,
and :func:`interval_rates` behind :meth:`Arena.snapshot_since_all
<repro.core.backends.arena.Arena.snapshot_since_all>` and
:func:`moving_rate_series`.  The module also provides the summary
statistics used to regenerate the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import InvalidWindowError

__all__ = [
    "BACKWARDS",
    "interval_rate",
    "interval_rates",
    "windowed_rate",
    "global_rate",
    "instantaneous_rate",
    "moving_rate_series",
    "RateStatistics",
    "rate_statistics",
]

#: The ``ValueError`` message of a rate window whose span runs backwards.
BACKWARDS = "timestamps are not sorted in non-decreasing order"


def interval_rate(intervals: int, span: float) -> float:
    """The rule for one window: ``intervals`` inter-beat intervals over ``span`` seconds."""
    if intervals < 1:
        return 0.0
    if span < 0:
        raise ValueError(BACKWARDS)
    return intervals / span if span > 0 else 0.0


def interval_rates(intervals: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The rule for many windows at once: ``nan`` where a span runs backwards."""
    counted = intervals >= 1
    measurable = counted & (spans > 0)
    rates = np.zeros(spans.shape)
    np.divide(intervals, spans, out=rates, where=measurable)
    rates[counted & (spans < 0)] = np.nan
    return rates


def windowed_rate(timestamps: Sequence[float] | np.ndarray) -> float:
    """Return the average heart rate over the given beat timestamps.

    ``timestamps`` must be sorted in non-decreasing order (production order).
    Fewer than two timestamps, or a zero time span, yield ``0.0``.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError(f"timestamps must be one-dimensional, got shape {ts.shape}")
    if ts.size < 2:
        return 0.0
    return interval_rate(ts.size - 1, float(ts[-1] - ts[0]))


def global_rate(first_timestamp: float, last_timestamp: float, total_beats: int) -> float:
    """Return the whole-execution average heart rate.

    This is the metric reported in the paper's Table 2: the number of beats
    produced over the full run divided by the elapsed time between the first
    and last beat.
    """
    return interval_rate(total_beats - 1, last_timestamp - first_timestamp)


def instantaneous_rate(previous_timestamp: float, current_timestamp: float) -> float:
    """Return the instantaneous rate implied by a single inter-beat interval."""
    return interval_rate(1, current_timestamp - previous_timestamp)


def moving_rate_series(
    timestamps: Sequence[float] | np.ndarray, window: int
) -> np.ndarray:
    """Return the moving-average heart rate at every beat.

    Element ``i`` of the result is the windowed rate computed over beats
    ``max(0, i - window + 1) .. i`` — exactly the series plotted in the
    paper's Figures 2, 3, 5–8 ("a moving average of heart rate ... using a
    20 beat window").  Beats with fewer than two timestamps in their window
    report ``0.0``; a window whose span runs backwards raises ``ValueError``.
    """
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)):
        raise InvalidWindowError(f"window must be an int, got {window!r}")
    if window < 1:
        raise InvalidWindowError(f"window must be >= 1, got {window}")
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError(f"timestamps must be one-dimensional, got shape {ts.shape}")
    beats = np.arange(ts.size)
    starts = np.maximum(0, beats - (window - 1))
    rates = interval_rates(beats - starts, ts - ts[starts])
    if np.isnan(rates).any():
        raise ValueError(BACKWARDS)
    return rates


@dataclass(frozen=True, slots=True)
class RateStatistics:
    """Summary statistics of a heart-rate series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    std: float

    def within(self, low: float, high: float) -> bool:
        """Return True when the mean rate lies inside ``[low, high]``."""
        return low <= self.mean <= high


def rate_statistics(rates: Sequence[float] | np.ndarray) -> RateStatistics:
    """Summarise a series of heart-rate samples (ignores leading zeros).

    Leading zeros correspond to the warm-up beats for which no windowed rate
    exists yet; including them would bias every experiment's mean downwards.
    """
    arr = np.asarray(rates, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"rates must be one-dimensional, got shape {arr.shape}")
    nonzero = np.nonzero(arr)[0]
    trimmed = arr[nonzero[0] :] if nonzero.size else arr[:0]
    if trimmed.size == 0:
        return RateStatistics(count=0, mean=0.0, minimum=0.0, maximum=0.0, std=0.0)
    return RateStatistics(
        count=int(trimmed.size),
        mean=float(np.mean(trimmed)),
        minimum=float(np.min(trimmed)),
        maximum=float(np.max(trimmed)),
        std=float(np.std(trimmed)),
    )
