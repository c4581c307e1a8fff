"""Tests for the Heartbeat object API (paper Table 1 semantics)."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import (
    HeartbeatClosedError,
    InvalidTargetError,
    InvalidWindowError,
)
from repro.core.heartbeat import Heartbeat


class TestRegistration:
    def test_heartbeat_returns_sequence_numbers(self, heartbeat, manual_clock):
        assert heartbeat.heartbeat() == 0
        manual_clock.time = 1.0
        assert heartbeat.heartbeat() == 1
        assert heartbeat.count == 2

    def test_records_timestamp_tag_and_thread(self, manual_clock):
        hb = Heartbeat(window=5, clock=manual_clock)
        manual_clock.time = 2.5
        hb.heartbeat(tag=17)
        record = hb.get_history()[0]
        assert record.timestamp == pytest.approx(2.5)
        assert record.tag == 17
        assert record.thread_id == threading.get_ident()

    def test_explicit_thread_id_override(self, heartbeat):
        heartbeat.heartbeat(tag=0, thread_id=999)
        assert heartbeat.get_history()[0].thread_id == 999

    def test_last_timestamp(self, heartbeat, manual_clock):
        assert heartbeat.last_timestamp() is None
        manual_clock.time = 3.0
        heartbeat.heartbeat()
        assert heartbeat.last_timestamp() == pytest.approx(3.0)


class TestRates:
    def test_rate_zero_before_two_beats(self, heartbeat):
        assert heartbeat.current_rate() == 0.0
        heartbeat.heartbeat()
        assert heartbeat.current_rate() == 0.0

    def test_rate_over_default_window(self, heartbeat, manual_clock, beat_recorder):
        beat_recorder(heartbeat, manual_clock, [i * 0.2 for i in range(30)])
        assert heartbeat.current_rate() == pytest.approx(5.0)

    def test_rate_uses_requested_window(self, heartbeat, manual_clock, beat_recorder):
        # 20 slow beats then 5 fast beats; a small window sees only the fast ones.
        times = [float(i) for i in range(20)] + [19.0 + 0.1 * i for i in range(1, 6)]
        beat_recorder(heartbeat, manual_clock, times)
        assert heartbeat.current_rate(5) == pytest.approx(10.0, rel=0.01)
        assert heartbeat.current_rate(10) < 5.0

    def test_window_larger_than_default_clipped(self, manual_clock):
        hb = Heartbeat(window=5, clock=manual_clock, history=100)
        for i in range(50):
            manual_clock.time = float(i)
            hb.heartbeat()
        # Requesting 40 is clipped to the default window of 5.
        assert hb.current_rate(40) == pytest.approx(hb.current_rate(5))

    def test_global_heart_rate(self, heartbeat, manual_clock, beat_recorder):
        beat_recorder(heartbeat, manual_clock, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert heartbeat.global_heart_rate() == pytest.approx(1.0)

    def test_global_rate_insensitive_to_history_eviction(self, manual_clock):
        hb = Heartbeat(window=4, clock=manual_clock, history=4)
        for i in range(100):
            manual_clock.time = i * 0.5
            hb.heartbeat()
        assert hb.global_heart_rate() == pytest.approx(2.0)

    def test_rate_series_shape(self, heartbeat, manual_clock, beat_recorder):
        beat_recorder(heartbeat, manual_clock, [i * 0.1 for i in range(25)])
        series = heartbeat.rate_series()
        assert len(series) == min(25, heartbeat.backend.capacity)
        assert series[-1] == pytest.approx(10.0)

    def test_intervals(self, heartbeat, manual_clock, beat_recorder):
        beat_recorder(heartbeat, manual_clock, [0.0, 0.5, 1.5])
        assert list(heartbeat.intervals()) == pytest.approx([0.5, 1.0])


class TestTargets:
    def test_default_targets_are_zero(self, heartbeat):
        assert heartbeat.target_min == 0.0
        assert heartbeat.target_max == 0.0

    def test_set_and_get(self, heartbeat):
        heartbeat.set_target_rate(2.5, 3.5)
        assert heartbeat.target_min == 2.5
        assert heartbeat.target_max == 3.5

    def test_invalid_targets(self, heartbeat):
        with pytest.raises(InvalidTargetError):
            heartbeat.set_target_rate(5.0, 2.0)
        with pytest.raises(InvalidTargetError):
            heartbeat.set_target_rate(-1.0, 2.0)

    @pytest.mark.parametrize("bounds", [(float("nan"), 10.0), (1.0, float("nan")), (float("nan"),) * 2])
    def test_nan_target_is_refused_and_nothing_is_published(self, heartbeat, bounds):
        heartbeat.set_target_rate(1.0, 2.0)
        with pytest.raises(InvalidTargetError):
            heartbeat.set_target_rate(*bounds)
        snap = heartbeat.backend.snapshot()
        assert (heartbeat.target_min, heartbeat.target_max) == (snap.target_min, snap.target_max) == (1.0, 2.0)

    def test_targets_published_to_backend(self, heartbeat):
        heartbeat.set_target_rate(1.0, 2.0)
        snap = heartbeat.backend.snapshot()
        assert snap.target_min == 1.0
        assert snap.target_max == 2.0


class TestHistory:
    def test_get_history_order_and_length(self, heartbeat, manual_clock, beat_recorder):
        beat_recorder(heartbeat, manual_clock, [float(i) for i in range(8)])
        history = heartbeat.get_history(3)
        assert [r.beat for r in history] == [5, 6, 7]

    def test_get_history_none_returns_all_retained(self, manual_clock):
        hb = Heartbeat(window=5, clock=manual_clock, history=10)
        for i in range(25):
            manual_clock.time = float(i)
            hb.heartbeat()
        assert len(hb.get_history()) == 10

    def test_get_history_negative_rejected(self, heartbeat):
        with pytest.raises(InvalidWindowError):
            heartbeat.get_history(-1)

    def test_history_array_matches_records(self, heartbeat, manual_clock, beat_recorder):
        beat_recorder(heartbeat, manual_clock, [0.0, 1.0, 2.0], tag=4)
        arr = heartbeat.get_history_array()
        assert list(arr["tag"]) == [4, 4, 4]
        assert list(arr["beat"]) == [0, 1, 2]


class TestLifecycle:
    def test_finalize_blocks_further_beats(self, heartbeat):
        heartbeat.heartbeat()
        heartbeat.finalize()
        assert heartbeat.closed
        with pytest.raises(HeartbeatClosedError):
            heartbeat.heartbeat()

    def test_finalize_idempotent(self, heartbeat):
        heartbeat.finalize()
        heartbeat.finalize()

    def test_context_manager_finalizes(self, manual_clock):
        with Heartbeat(window=5, clock=manual_clock) as hb:
            hb.heartbeat()
        assert hb.closed

    def test_invalid_history_rejected(self, manual_clock):
        with pytest.raises(InvalidWindowError):
            Heartbeat(window=5, clock=manual_clock, history=0)


class TestThreadSafety:
    def test_concurrent_global_heartbeats_are_all_counted(self):
        hb = Heartbeat(window=100, history=100_000)
        threads = 8
        beats_per_thread = 2_000
        barrier = threading.Barrier(threads)

        def hammer() -> None:
            barrier.wait()
            for i in range(beats_per_thread):
                hb.heartbeat(tag=i)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert hb.count == threads * beats_per_thread
        history = hb.get_history_array()
        # Beat sequence numbers are unique and dense.
        assert len(set(history["beat"].tolist())) == len(history)
        # Timestamps are non-decreasing in buffer order.
        ts = history["timestamp"]
        assert (ts[1:] >= ts[:-1]).all()
