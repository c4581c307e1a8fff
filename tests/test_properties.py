"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import ManualClock, SimulatedClock
from repro.core.backends import MemoryBackend
from repro.core.heartbeat import Heartbeat
from repro.core.rate import interval_rate, interval_rates, moving_rate_series, windowed_rate
from repro.core.window import resolve_window, resolve_windows
from repro.sim.scaling import AmdahlScaling, LinearScaling, SaturatingScaling

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

intervals = st.lists(
    st.floats(min_value=1e-4, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)

capacities = st.integers(min_value=1, max_value=64)


# ---------------------------------------------------------------------------
# Circular buffer
# ---------------------------------------------------------------------------


class TestBufferProperties:
    @given(capacity=capacities, count=st.integers(min_value=0, max_value=300))
    def test_retained_is_min_of_total_and_capacity(self, capacity: int, count: int) -> None:
        backend = MemoryBackend(capacity)
        for i in range(count):
            backend.append(i, float(i), 0, 0)
        snap = backend.snapshot()
        assert snap.retained == min(count, capacity)
        assert snap.total_beats == count

    @given(capacity=capacities, count=st.integers(min_value=1, max_value=300))
    def test_last_returns_most_recent_beats_in_order(self, capacity: int, count: int) -> None:
        backend = MemoryBackend(capacity)
        for i in range(count):
            backend.append(i, float(i), 0, 0)
        expected = list(range(max(0, count - capacity), count))
        assert list(backend.snapshot().records["beat"]) == expected
        assert list(backend.snapshot(1).records["beat"]) == [count - 1]

    @given(
        capacity=capacities,
        count=st.integers(min_value=0, max_value=300),
        n=st.integers(min_value=0, max_value=400),
    )
    def test_last_n_is_a_suffix(self, capacity: int, count: int, n: int) -> None:
        backend = MemoryBackend(capacity)
        for i in range(count):
            backend.append(i, float(i), 0, 0)
        suffix = backend.snapshot(n).records
        full = backend.snapshot().records
        assert np.array_equal(suffix, full[len(full) - len(suffix):])
        assert len(suffix) == min(n, len(full))


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------


class TestRateProperties:
    @given(gaps=intervals)
    def test_windowed_rate_is_nonnegative_and_finite(self, gaps: list[float]) -> None:
        timestamps = np.cumsum([0.0] + gaps)
        rate = windowed_rate(timestamps)
        assert np.isfinite(rate)
        assert rate >= 0.0

    @given(gaps=intervals)
    def test_windowed_rate_bounded_by_extreme_intervals(self, gaps: list[float]) -> None:
        timestamps = np.cumsum([0.0] + gaps)
        rate = windowed_rate(timestamps)
        fastest = 1.0 / min(gaps)
        slowest = 1.0 / max(gaps)
        assert slowest * (1 - 1e-9) <= rate <= fastest * (1 + 1e-9)

    @given(gaps=intervals, scale=st.floats(min_value=0.1, max_value=10.0))
    def test_windowed_rate_scales_inversely_with_time(self, gaps: list[float], scale: float) -> None:
        timestamps = np.cumsum([0.0] + gaps)
        base = windowed_rate(timestamps)
        scaled = windowed_rate(timestamps * scale)
        assert scaled == np.float64(base / scale) or abs(scaled - base / scale) <= 1e-6 * base

    @given(gaps=intervals, window=st.integers(min_value=2, max_value=50))
    def test_moving_series_consistent_with_windowed_rate(self, gaps, window) -> None:
        timestamps = np.cumsum([0.0] + gaps)
        series = moving_rate_series(timestamps, window)
        assert series.shape == timestamps.shape
        i = len(timestamps) - 1
        lo = max(0, i - window + 1)
        assert series[-1] == np.float64(windowed_rate(timestamps[lo:]))


# ---------------------------------------------------------------------------
# Window resolution
# ---------------------------------------------------------------------------


class TestWindowResolutionProperties:
    @given(
        requested=st.integers(min_value=0, max_value=1000),
        default=st.integers(min_value=1, max_value=500),
        available=st.integers(min_value=0, max_value=500),
    )
    def test_resolved_window_never_exceeds_bounds(self, requested, default, available) -> None:
        effective = resolve_window(requested, default, available)
        assert 0 <= effective <= min(default, available) or effective <= available
        assert effective <= default
        assert effective <= available

    @given(
        default=st.integers(min_value=1, max_value=500),
        available=st.integers(min_value=0, max_value=500),
    )
    def test_zero_request_equals_default_request(self, default, available) -> None:
        assert resolve_window(0, default, available) == resolve_window(default, default, available)


# ---------------------------------------------------------------------------
# One rule, two forms: the array form agrees with the scalar one element-wise
# ---------------------------------------------------------------------------

#: Spans around the rule's edges: backwards, zero, tiny and ordinary.
spans = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


class TestOneRuleTwoForms:
    @given(windows=st.lists(st.tuples(st.integers(min_value=-2, max_value=50), spans), max_size=30))
    def test_rate_forms_agree(self, windows: list[tuple[int, float]]) -> None:
        intervals = np.array([n for n, _ in windows], dtype=np.int64)
        with np.errstate(over="ignore"):  # 1 / 5e-324 is inf in both forms
            columns = interval_rates(intervals, np.array([s for _, s in windows], dtype=np.float64))
        for (n, span), column in zip(windows, columns.tolist(), strict=True):
            try:
                scalar = interval_rate(n, span)
            except ValueError:
                assert np.isnan(column), (n, span)  # the one backwards answer, in each form
            else:
                assert column == scalar, (n, span)

    @given(
        requested=st.sampled_from([0, 0, 1, 2]) | st.integers(min_value=0, max_value=80),
        rows=st.lists(
            st.tuples(st.integers(min_value=-3, max_value=40), st.integers(min_value=0, max_value=40)),
            max_size=30,
        ),
    )
    def test_window_forms_agree(self, requested: int, rows: list[tuple[int, int]]) -> None:
        published = np.array([p for p, _ in rows], dtype=np.int64)
        retained = np.array([r for _, r in rows], dtype=np.int64)
        columns = resolve_windows(requested, published, retained).tolist()
        assert columns == [resolve_window(requested, p, r) for p, r in rows]


# ---------------------------------------------------------------------------
# Heartbeat end-to-end invariants
# ---------------------------------------------------------------------------


class TestHeartbeatProperties:
    @given(gaps=intervals)
    @settings(max_examples=50)
    def test_recorded_rate_matches_formula(self, gaps: list[float]) -> None:
        clock = ManualClock()
        hb = Heartbeat(window=len(gaps) + 1, clock=clock, history=len(gaps) + 1)
        t = 0.0
        hb.heartbeat()
        for gap in gaps:
            t += gap
            clock.time = t
            hb.heartbeat()
        timestamps = hb.get_history_array()["timestamp"]
        assert hb.current_rate() == np.float64(windowed_rate(timestamps))
        assert hb.count == len(gaps) + 1

    @given(
        gaps=intervals,
        history=st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=50)
    def test_global_rate_independent_of_history_capacity(self, gaps, history) -> None:
        clock = ManualClock()
        hb = Heartbeat(window=2, clock=clock, history=history)
        t = 0.0
        hb.heartbeat()
        for gap in gaps:
            t += gap
            clock.time = t
            hb.heartbeat()
        expected = len(gaps) / t if t > 0 else 0.0
        assert hb.global_heart_rate() == np.float64(expected) or abs(
            hb.global_heart_rate() - expected
        ) < 1e-9 * max(expected, 1.0)


# ---------------------------------------------------------------------------
# Scaling models
# ---------------------------------------------------------------------------


class TestScalingProperties:
    @given(
        serial=st.floats(min_value=0.0, max_value=1.0),
        cores=st.integers(min_value=1, max_value=256),
    )
    def test_amdahl_bounds(self, serial: float, cores: int) -> None:
        model = AmdahlScaling(serial)
        speedup = model.speedup(cores)
        assert 1.0 - 1e-9 <= speedup <= cores + 1e-9
        if serial > 0:
            assert speedup <= 1.0 / serial + 1e-9

    @given(
        efficiency=st.floats(min_value=0.01, max_value=1.0),
        cores=st.integers(min_value=0, max_value=128),
    )
    def test_linear_monotone_in_cores(self, efficiency: float, cores: int) -> None:
        model = LinearScaling(efficiency)
        assert model.speedup(cores + 1) >= model.speedup(cores)

    @given(
        max_speedup=st.floats(min_value=1.0, max_value=32.0),
        cores=st.integers(min_value=1, max_value=128),
    )
    def test_saturating_never_exceeds_cap(self, max_speedup: float, cores: int) -> None:
        model = SaturatingScaling(max_speedup=max_speedup)
        assert model.speedup(cores) <= max_speedup + 1e-12


# ---------------------------------------------------------------------------
# Simulated clock
# ---------------------------------------------------------------------------


class TestClockProperties:
    @given(
        deltas=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100
        )
    )
    def test_simulated_clock_accumulates_exactly(self, deltas: list[float]) -> None:
        clock = SimulatedClock()
        for d in deltas:
            clock.advance(d)
        assert clock.now() == np.float64(sum(np.asarray(deltas))) or clock.now() >= 0.0
        # Monotonicity is the hard invariant.
        assert clock.now() >= 0.0
