"""Tests for the external-observer HeartbeatMonitor."""

from __future__ import annotations

import pytest

from repro.clock import ManualClock
from repro.core.backends import FileBackend, SharedMemoryBackend
from repro.core.errors import MonitorAttachError
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus, HeartbeatMonitor


def make_beating_heartbeat(clock: ManualClock, *, count: int = 30, dt: float = 0.1) -> Heartbeat:
    hb = Heartbeat(window=10, clock=clock)
    for i in range(count):
        clock.time = i * dt
        hb.heartbeat(tag=i)
    return hb


class TestInProcessAttachment:
    def test_reading_fields(self, manual_clock):
        hb = make_beating_heartbeat(manual_clock)
        hb.set_target_rate(8.0, 12.0)
        monitor = HeartbeatMonitor.attach(hb)
        reading = monitor.read()
        assert reading.rate == pytest.approx(10.0)
        assert reading.total_beats == 30
        assert reading.target_min == 8.0
        assert reading.target_max == 12.0
        assert reading.last_timestamp == pytest.approx(2.9)
        assert reading.in_target

    def test_status_classification(self, manual_clock):
        hb = make_beating_heartbeat(manual_clock)
        monitor = HeartbeatMonitor.attach(hb)
        # No target published: healthy as long as beats arrive.
        assert monitor.read().status is HealthStatus.HEALTHY
        hb.set_target_rate(20.0, 40.0)
        assert monitor.read().status is HealthStatus.SLOW
        hb.set_target_rate(1.0, 5.0)
        assert monitor.read().status is HealthStatus.FAST
        hb.set_target_rate(8.0, 12.0)
        assert monitor.read().status is HealthStatus.HEALTHY

    def test_unknown_before_any_beat(self, manual_clock):
        hb = Heartbeat(window=10, clock=manual_clock)
        monitor = HeartbeatMonitor.attach(hb)
        assert monitor.read().status is HealthStatus.UNKNOWN

    def test_stall_detection(self, manual_clock):
        hb = make_beating_heartbeat(manual_clock)
        hb.set_target_rate(8.0, 12.0)
        monitor = HeartbeatMonitor.attach(hb, liveness_timeout=1.0)
        assert monitor.read().status is HealthStatus.HEALTHY
        manual_clock.time = 10.0  # no beats for 7 seconds
        reading = monitor.read()
        assert reading.status is HealthStatus.STALLED
        assert reading.age == pytest.approx(10.0 - 2.9)
        assert not monitor.is_alive(1.0)
        assert monitor.is_alive(100.0)

    def test_history_queries(self, manual_clock):
        hb = make_beating_heartbeat(manual_clock, count=10)
        monitor = HeartbeatMonitor.attach(hb)
        assert [r.beat for r in monitor.get_history(3)] == [7, 8, 9]
        assert monitor.history_array(2).shape == (2,)
        assert monitor.target_range() == (0.0, 0.0)

    def test_window_override(self, manual_clock):
        hb = Heartbeat(window=20, clock=manual_clock)
        # slow beats then fast beats
        for i in range(20):
            manual_clock.time = float(i)
            hb.heartbeat()
        for i in range(5):
            manual_clock.time = 19.0 + (i + 1) * 0.1
            hb.heartbeat()
        monitor = HeartbeatMonitor.attach(hb)
        assert monitor.current_rate(5) > monitor.current_rate(20)


class TestFileAttachment:
    def test_observing_a_log_file(self, tmp_path, manual_clock):
        path = tmp_path / "hb.log"
        hb = Heartbeat(window=10, clock=manual_clock, backend=FileBackend(path))
        hb.set_target_rate(5.0, 15.0)
        for i in range(20):
            manual_clock.time = i * 0.1
            hb.heartbeat(tag=i)
        hb.backend.flush()  # file appends are buffered; publish to observers
        monitor = HeartbeatMonitor.attach_endpoint(f"file://{path}", clock=manual_clock)
        reading = monitor.read()
        assert reading.total_beats == 20
        assert reading.rate == pytest.approx(10.0)
        assert reading.target_min == 5.0
        # New beats become visible on the next poll (after a flush).
        manual_clock.time = 2.0
        hb.heartbeat(tag=99)
        hb.backend.flush()
        assert monitor.read().total_beats == 21
        hb.finalize()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MonitorAttachError):
            HeartbeatMonitor.attach_endpoint(f"file://{tmp_path / 'absent.log'}")


class TestSharedMemoryAttachment:
    def test_observing_a_segment(self, manual_clock):
        backend = SharedMemoryBackend(capacity=64)
        hb = Heartbeat(window=10, clock=manual_clock, backend=backend)
        hb.set_target_rate(5.0, 15.0)
        for i in range(30):
            manual_clock.time = i * 0.1
            hb.heartbeat()
        with HeartbeatMonitor.attach_endpoint(f"shm://{backend.name}", clock=manual_clock) as monitor:
            reading = monitor.read()
            assert reading.rate == pytest.approx(10.0)
            assert reading.total_beats == 30
            assert reading.status is HealthStatus.HEALTHY
        hb.finalize()

    def test_missing_segment_rejected(self):
        from repro.core.errors import BackendFormatError

        with pytest.raises(BackendFormatError):
            HeartbeatMonitor.attach_endpoint("shm://no-such-heartbeat-segment")
