"""Tests for the C-style functional API (paper Table 1)."""

from __future__ import annotations

import threading

import pytest

from repro.clock import ManualClock
from repro.core import api as hb
from repro.core.errors import RegistryError


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with a fresh process-level registry."""
    hb.reset_registry()
    yield
    hb.reset_registry()


class TestInitialization:
    def test_initialize_and_is_initialized(self):
        assert not hb.HB_is_initialized()
        hb.HB_initialize(window=10)
        assert hb.HB_is_initialized()

    def test_double_initialize_rejected(self):
        hb.HB_initialize()
        with pytest.raises(RegistryError):
            hb.HB_initialize()

    def test_calls_before_initialize_rejected(self):
        with pytest.raises(RegistryError):
            hb.HB_heartbeat()
        with pytest.raises(RegistryError):
            hb.HB_current_rate()

    def test_finalize_allows_reinitialization(self):
        hb.HB_initialize()
        hb.HB_finalize()
        hb.HB_initialize()
        assert hb.HB_is_initialized()


class TestTable1Functions:
    def test_heartbeat_and_rate(self):
        clock = ManualClock()
        hb.HB_initialize(window=10, clock=clock)
        for i in range(20):
            clock.time = i * 0.25
            hb.HB_heartbeat(tag=i)
        assert hb.HB_current_rate() == pytest.approx(4.0)
        assert hb.HB_global_rate() == pytest.approx(4.0)

    def test_current_rate_window_zero_uses_default(self):
        clock = ManualClock()
        hb.HB_initialize(window=5, clock=clock)
        for i in range(10):
            clock.time = float(i)
            hb.HB_heartbeat()
        assert hb.HB_current_rate(0) == hb.HB_current_rate(5)

    def test_target_rate_roundtrip(self):
        hb.HB_initialize()
        hb.HB_set_target_rate(30.0, 35.0)
        assert hb.HB_get_target_min() == 30.0
        assert hb.HB_get_target_max() == 35.0

    def test_get_history_returns_tag_and_thread(self):
        clock = ManualClock()
        hb.HB_initialize(window=5, clock=clock)
        for i in range(5):
            clock.time = float(i)
            hb.HB_heartbeat(tag=100 + i)
        history = hb.HB_get_history(3)
        assert [r.tag for r in history] == [102, 103, 104]
        assert all(r.thread_id == threading.get_ident() for r in history)


class TestLocalHeartbeats:
    def test_local_requires_local_initialize(self):
        hb.HB_initialize()
        with pytest.raises(RegistryError):
            hb.HB_heartbeat(local=True)

    def test_local_and_global_are_independent(self):
        clock = ManualClock()
        hb.HB_initialize(window=5, clock=clock)
        hb.HB_initialize(window=5, local=True, clock=clock)
        for i in range(6):
            clock.time = float(i)
            hb.HB_heartbeat()            # global
            if i % 2 == 0:
                hb.HB_heartbeat(local=True)  # local, half the rate
        assert len(hb.HB_get_history(local=False)) == 6
        assert len(hb.HB_get_history(local=True)) == 3

    def test_each_thread_gets_its_own_local_heartbeat(self):
        hb.HB_initialize()
        counts: dict[int, int] = {}
        errors: list[Exception] = []

        def worker(n: int) -> None:
            try:
                hb.HB_initialize(window=5, local=True)
                for _ in range(n):
                    hb.HB_heartbeat(local=True)
                # Key by the worker index: OS thread identifiers may be
                # reused once a thread exits.
                counts[n] = len(hb.HB_get_history(local=True))
                hb.HB_finalize(local=True)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i + 1,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sorted(counts.values()) == [1, 2, 3, 4]

    def test_finalize_local_only_affects_caller_thread(self):
        hb.HB_initialize()
        hb.HB_initialize(local=True)
        hb.HB_heartbeat(local=True)
        hb.HB_finalize(local=True)
        assert hb.HB_is_initialized()  # the global stream survives
        assert not hb.HB_is_initialized(local=True)
        with pytest.raises(RegistryError):
            hb.HB_finalize(local=True)


class TestRemoteInitialization:
    """HB_initialize(endpoint="tcp://...") — Table 1 instrumentation shipped over TCP."""

    def test_remote_stream_reaches_collector(self):
        import time

        from repro.net import HeartbeatCollector

        with HeartbeatCollector() as collector:
            heartbeat = hb.HB_initialize(window=10, endpoint=collector.endpoint_url)
            assert heartbeat.backend.__class__.__name__ == "NetworkBackend"
            assert heartbeat.backend.address == collector.address
            # Wire producers stamp with the host-wide monotonic clock.
            assert heartbeat.clock.now() == pytest.approx(time.perf_counter(), abs=1.0)
            hb.HB_set_target_rate(1.0, 1e6)
            hb.HB_heartbeat_n(25)
            hb.HB_finalize()
            assert collector.wait_for_streams(1, timeout=5.0)
            (stream_id,) = collector.stream_ids()
            assert stream_id.startswith("global-")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if collector.snapshot(stream_id).total_beats == 25:
                    break
                time.sleep(0.01)
            snap = collector.snapshot(stream_id)
            assert snap.total_beats == 25
            assert snap.target_min == 1.0
            assert snap.default_window == 10

    def test_remote_and_backend_are_mutually_exclusive(self):
        from repro.core.backends import MemoryBackend

        with pytest.raises(ValueError, match="not both"):
            hb.HB_initialize(endpoint="tcp://127.0.0.1:1", backend=MemoryBackend(16))

    def test_local_after_remote_global_gets_its_own_backend(self):
        from repro.net import HeartbeatCollector

        with HeartbeatCollector() as collector:
            hb.HB_initialize(window=10, endpoint=collector.endpoint_url)
            local = hb.HB_initialize(local=True)
            # The global's network backend must not be shared with locals.
            assert local.backend is not hb.get_registry().get(local=False).backend
            assert local.backend.__class__.__name__ == "MemoryBackend"
            hb.HB_finalize()

    def test_failed_remote_initialize_does_not_leak_sender_threads(self):
        import time

        from repro.net import HeartbeatCollector

        def net_threads() -> int:
            return sum(1 for t in threading.enumerate() if t.name.startswith("hb-net-"))

        with HeartbeatCollector() as collector:
            hb.HB_initialize(window=10, endpoint=collector.endpoint_url)
            baseline = net_threads()
            for _ in range(3):
                with pytest.raises(RegistryError):
                    hb.HB_initialize(window=10, endpoint=collector.endpoint_url)
            # The rejected backends were closed; give their senders a beat to exit.
            deadline = time.monotonic() + 5.0
            while net_threads() > baseline and time.monotonic() < deadline:
                time.sleep(0.02)
            assert net_threads() == baseline
            hb.HB_finalize()
