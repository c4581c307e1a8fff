"""Tests for heart-rate computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidWindowError
from repro.core.rate import (
    RateStatistics,
    global_rate,
    instantaneous_rate,
    moving_rate_series,
    rate_statistics,
    windowed_rate,
)


class TestWindowedRate:
    def test_uniform_intervals(self):
        ts = np.arange(10) * 0.1  # 10 beats, 0.1 s apart
        assert windowed_rate(ts) == pytest.approx(10.0)

    def test_two_beats(self):
        assert windowed_rate([0.0, 0.5]) == pytest.approx(2.0)

    def test_fewer_than_two_beats(self):
        assert windowed_rate([]) == 0.0
        assert windowed_rate([1.0]) == 0.0

    def test_zero_span(self):
        assert windowed_rate([2.0, 2.0, 2.0]) == 0.0

    def test_non_uniform_intervals_average(self):
        # 3 intervals over 6 seconds -> 0.5 beats/s regardless of distribution.
        assert windowed_rate([0.0, 1.0, 2.0, 6.0]) == pytest.approx(0.5)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            windowed_rate([1.0, 0.5])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            windowed_rate(np.zeros((2, 2)))


class TestGlobalRate:
    def test_matches_windowed_for_full_history(self):
        ts = np.arange(50) * 0.25
        assert global_rate(ts[0], ts[-1], len(ts)) == pytest.approx(windowed_rate(ts))

    def test_degenerate_cases(self):
        assert global_rate(0.0, 10.0, 1) == 0.0
        assert global_rate(5.0, 5.0, 10) == 0.0

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            global_rate(2.0, 1.0, 5)


class TestInstantaneousRate:
    def test_simple(self):
        assert instantaneous_rate(1.0, 1.25) == pytest.approx(4.0)

    def test_zero_interval(self):
        assert instantaneous_rate(1.0, 1.0) == 0.0

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            instantaneous_rate(2.0, 1.0)


class TestMovingRateSeries:
    def test_constant_rate(self):
        ts = np.arange(30) * 0.5
        series = moving_rate_series(ts, window=10)
        assert series[0] == 0.0  # no rate for the first beat
        assert series[5] == pytest.approx(2.0)
        assert series[-1] == pytest.approx(2.0)

    def test_window_one_gives_zero(self):
        # A single-beat window has no interval to average.
        ts = np.arange(5) * 1.0
        assert list(moving_rate_series(ts, window=1)) == [0.0] * 5

    def test_detects_phase_change(self):
        ts = np.concatenate([np.arange(50) * 1.0, 50.0 + np.arange(1, 51) * 0.1])
        series = moving_rate_series(ts, window=10)
        assert series[40] == pytest.approx(1.0)
        assert series[-1] == pytest.approx(10.0)

    def test_window_must_be_positive_int(self):
        with pytest.raises(InvalidWindowError):
            moving_rate_series([0.0, 1.0], window=0)
        with pytest.raises(InvalidWindowError):
            moving_rate_series([0.0, 1.0], window=1.5)  # type: ignore[arg-type]

    def test_backwards_window_raises_like_windowed_rate(self):
        # One answer for a span that runs backwards: this series used to
        # read [0, 0.5, 0] where windowed_rate([2.0, 1.0]) raised.
        with pytest.raises(ValueError, match="not sorted"):
            moving_rate_series([0.0, 2.0, 1.0], 2)
        with pytest.raises(ValueError, match="not sorted"):
            windowed_rate([2.0, 1.0])

    def test_length_matches_input(self):
        ts = np.sort(np.random.default_rng(0).uniform(0, 10, 37))
        assert moving_rate_series(ts, 5).shape == (37,)

    def test_matches_windowed_rate_at_each_beat(self):
        rng = np.random.default_rng(1)
        ts = np.cumsum(rng.uniform(0.05, 0.5, 40))
        series = moving_rate_series(ts, window=8)
        for i in range(1, 40):
            lo = max(0, i - 7)
            assert series[i] == pytest.approx(windowed_rate(ts[lo : i + 1]))


class TestRateStatistics:
    def test_basic_summary(self):
        stats = rate_statistics([0.0, 0.0, 2.0, 4.0, 6.0])
        assert stats.count == 3
        assert stats.mean == pytest.approx(4.0)
        assert stats.minimum == pytest.approx(2.0)
        assert stats.maximum == pytest.approx(6.0)

    def test_skips_leading_zeros_only(self):
        stats = rate_statistics([0.0, 5.0, 0.0, 5.0])
        assert stats.count == 3  # the embedded zero is genuine data

    def test_all_zero(self):
        stats = rate_statistics([0.0, 0.0])
        assert stats == RateStatistics(count=0, mean=0.0, minimum=0.0, maximum=0.0, std=0.0)

    def test_within(self):
        stats = rate_statistics([3.0, 3.0, 3.0])
        assert stats.within(2.5, 3.5)
        assert not stats.within(3.5, 4.0)
