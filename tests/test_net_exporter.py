"""Tests for the producer-side NetworkBackend (queueing, backpressure, teardown)."""

from __future__ import annotations

import socket
import sys
import threading
import time

import numpy as np
import pytest
from waiting import wait_until

from repro.core.backends import Arena
from repro.core.errors import BackendError
from repro.core.heartbeat import Heartbeat
from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, NetworkBackend


def unreachable_endpoint() -> str:
    """A loopback endpoint with nobody listening (bound then closed)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


def make_batch(n: int, start: int = 0, t0: float = 1.0) -> np.ndarray:
    records = np.empty(n, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(start, start + n)
    records["timestamp"] = t0 + 0.001 * np.arange(n)
    records["tag"] = 0
    records["thread_id"] = 1
    return records


class TestLocalSemantics:
    """The producer's own view must match MemoryBackend semantics exactly."""

    def test_snapshot_reflects_appends_without_a_collector(self):
        backend = NetworkBackend(unreachable_endpoint(), stream="local", capacity=64)
        try:
            backend.set_default_window(10)
            backend.set_targets(2.0, 8.0)
            backend.append(0, 1.0, 5, 77)
            backend.append_many(make_batch(3, start=1, t0=2.0))
            snap = backend.snapshot()
            assert snap.total_beats == 4
            assert snap.retained == 4
            assert snap.target_min == 2.0 and snap.target_max == 8.0
            assert snap.default_window == 10
            assert list(snap.records["beat"]) == [0, 1, 2, 3]
        finally:
            backend.close()

    def test_capacity_eviction_matches_circular_buffer(self):
        backend = NetworkBackend(unreachable_endpoint(), stream="evict", capacity=8)
        try:
            backend.append_many(make_batch(20))
            snap = backend.snapshot()
            assert snap.total_beats == 20
            assert list(snap.records["beat"]) == list(range(12, 20))
        finally:
            backend.close()

    def test_wrong_dtype_rejected(self):
        backend = NetworkBackend(unreachable_endpoint(), stream="dtype")
        try:
            with pytest.raises(ValueError, match="dtype"):
                backend.append_many(np.zeros(3, dtype=np.int64))
        finally:
            backend.close()

    def test_closed_backend_refuses_appends_but_still_serves_snapshots(self):
        backend = NetworkBackend(unreachable_endpoint(), stream="closed")
        backend.append(0, 1.0, 5, 7)
        backend.close()
        with pytest.raises(BackendError):
            backend.append(1, 2.0, 0, 0)
        # MemoryBackend parity: local observers read the final history after
        # the producer finalizes instead of getting an error.
        snap = backend.snapshot()
        assert snap.total_beats == 1
        assert snap.records["tag"][0] == 5


class TestBackpressure:
    """The beat path must never block on a slow or dead collector."""

    def test_drop_oldest_when_collector_down(self):
        backend = NetworkBackend(
            unreachable_endpoint(), stream="drop", capacity=100
        )
        try:
            for i in range(10):
                backend.append_many(make_batch(50, start=i * 50))
            stats = backend.stats()
            assert stats["pending_records"] == 100
            assert stats["dropped_records"] == 400
            # The local history is untouched by transmission drops.
            assert backend.snapshot().total_beats == 500
        finally:
            backend.close()

    def test_oversized_single_batch_keeps_newest_tail(self):
        backend = NetworkBackend(
            unreachable_endpoint(), stream="huge", capacity=64
        )
        try:
            backend.append_many(make_batch(1000))
            stats = backend.stats()
            assert stats["pending_records"] == 64
            assert stats["dropped_records"] == 936
        finally:
            backend.close()

    def test_beat_path_stays_fast_with_collector_down(self):
        """10k beats into a dead endpoint must take milliseconds, not timeouts."""
        backend = NetworkBackend(
            unreachable_endpoint(), stream="fast", capacity=1024
        )
        hb = Heartbeat(window=20, backend=backend)
        try:
            start = time.perf_counter()
            for _ in range(160):
                hb.heartbeat_batch(64)
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, f"beat path took {elapsed:.2f}s against a dead collector"
            assert hb.count == 160 * 64
        finally:
            hb.finalize()

    def test_connect_failures_are_counted_and_retried(self):
        backend = NetworkBackend(
            unreachable_endpoint(),
            stream="retry",
            backoff_initial=0.01,
            backoff_max=0.05,
            flush_interval=0.01,
        )
        try:
            backend.append(0, 1.0, 0, 0)
            assert wait_until(lambda: backend.stats()["connect_failures"] >= 2)
        finally:
            backend.close()


class TestTeardown:
    """close() flushes with a deadline, is idempotent and never raises."""

    def test_close_flushes_pending_queue(self):
        with HeartbeatCollector() as collector:
            backend = NetworkBackend(collector.endpoint, stream="flush", capacity=4096)
            backend.append_many(make_batch(500))
            backend.close()  # must push the remaining queue before returning
            assert collector.wait_for_streams(1, timeout=5.0)
            assert wait_until(lambda: collector.snapshot("flush").total_beats == 500)
            assert backend.stats()["pending_records"] == 0

    def test_close_is_idempotent(self):
        backend = NetworkBackend(unreachable_endpoint(), stream="idem")
        backend.close()
        backend.close()
        assert backend.closed

    def test_concurrent_close_flushes_without_deadlock(self):
        """Racing closers must not starve the sender of the queue lock."""
        with HeartbeatCollector() as collector:
            backend = NetworkBackend(collector.endpoint, stream="race", capacity=4096)
            backend.append_many(make_batch(300))
            threads = [threading.Thread(target=backend.close) for _ in range(4)]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert time.perf_counter() - start < 5.0
            assert backend.closed
            assert collector.wait_for_streams(1, timeout=5.0)
            assert wait_until(lambda: collector.snapshot("race").total_beats == 300)
            assert backend.stats()["dropped_records"] == 0

    def test_close_survives_collector_death_with_deadline(self):
        """Teardown against a vanished collector finishes within the deadline."""
        collector = HeartbeatCollector()
        backend = NetworkBackend(
            collector.endpoint, stream="orphan", close_deadline=1.0, flush_interval=0.01
        )
        backend.append_many(make_batch(100))
        assert collector.wait_for_streams(1, timeout=5.0)
        collector.close()  # the peer disappears under the producer
        backend.append_many(make_batch(100, start=100))
        start = time.perf_counter()
        backend.close()
        assert time.perf_counter() - start < 5.0
        backend.close()  # still idempotent afterwards

    def test_context_manager_closes(self):
        with NetworkBackend(unreachable_endpoint(), stream="ctx") as backend:
            backend.append(0, 1.0, 0, 0)
        assert backend.closed


class TestReconnect:
    def test_reconnects_and_resumes_stream_after_collector_restart(self):
        collector = HeartbeatCollector()
        port = collector.port
        backend = NetworkBackend(
            collector.endpoint,
            stream="phoenix",
            flush_interval=0.01,
            backoff_initial=0.01,
            backoff_max=0.05,
        )
        try:
            backend.append_many(make_batch(10))
            assert collector.wait_for_streams(1, timeout=5.0)
            assert wait_until(lambda: collector.snapshot("phoenix").total_beats == 10)
            collector.close()

            restarted = None
            for _ in range(20):  # the freed port can take a moment to rebind
                try:
                    restarted = HeartbeatCollector("127.0.0.1", port)
                    break
                except OSError:
                    time.sleep(0.1)
            if restarted is None:
                pytest.skip("could not rebind the collector port")
            try:
                # Keep producing until the sender notices the dead socket,
                # backs off, reconnects and replays HELLO.
                assert wait_until(
                    lambda: (backend.append_many(make_batch(5, start=100)) or True)
                    and "phoenix" in restarted.stream_ids(),
                    timeout=10.0,
                    interval=0.05,
                )
                assert backend.stats()["connects"] >= 2
            finally:
                restarted.close()
        finally:
            backend.close()

    def test_a_new_default_window_reaches_the_collector_by_redialling(self):
        """Only a HELLO carries the window and a link gets one HELLO, so a
        window set after the first connect is published by a redial without
        CLOSE — and no record is lost or reordered across it."""
        with HeartbeatCollector() as collector:
            backend = NetworkBackend(collector.endpoint, stream="win", flush_interval=0.01)
            try:
                backend.set_default_window(5)
                backend.append_many(make_batch(40))
                assert collector.wait_for_streams(1, timeout=5.0)
                assert wait_until(lambda: collector.snapshot("win").total_beats == 40)
                assert collector.snapshot("win").default_window == 5
                backend.set_default_window(9)
                backend.append_many(make_batch(40, start=40))
                assert wait_until(
                    lambda: (collector.snapshot("win").default_window, collector.snapshot("win").total_beats)
                    == (9, 80)
                ), collector.snapshot("win")
                [info] = collector.streams()
                assert not info.closed and info.connected
                want = np.concatenate([make_batch(40), make_batch(40, start=40)])
                assert collector.snapshot("win").records.tobytes() == want.tobytes()
                assert backend.stats()["connects"] == 2
            finally:
                backend.close()


@pytest.mark.network
def test_beat_thread_against_sender_thread_stores_each_beat_once():
    """A 64-slot exporter beaten flat out, in single beats and batches of 64,
    with the interpreter switching threads every 10 µs: the sender copies
    out of the ring the beat thread is writing, so whatever reaches the
    collector must be byte-identical to what was appended under the same
    beat number, in order and once, and the books must balance."""
    rounds, singles = 1500, 32
    appended = rounds * (singles + 64)
    want = make_batch(appended)
    want["tag"] = np.arange(appended) * 7 + 3
    arena = Arena(streams=1, depth=1 << 18)  # deeper than the run: the collector laps nothing
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with HeartbeatCollector(arena=arena) as collector:
            backend = NetworkBackend(collector.endpoint, stream="stress", capacity=64)

            def beat() -> None:
                beat = 0
                for _ in range(rounds):
                    for record in want[beat : beat + singles].tolist():
                        backend.append(*record)
                    backend.append_many(want[beat + singles : beat + singles + 64])
                    beat += singles + 64

            thread = threading.Thread(target=beat)
            thread.start()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            backend.close()
            stats = backend.stats()
            assert stats["sent_records"] + stats["dropped_records"] == appended, stats
            assert stats["pending_records"] == 0
            assert wait_until(lambda: collector.snapshot("stress").total_beats == stats["sent_records"])
            got = collector.snapshot("stress").records
    finally:
        sys.setswitchinterval(interval)
        arena.close()
    assert np.all(np.diff(got["beat"]) > 0)
    assert got.tobytes() == want[got["beat"]].tobytes()


def test_capacity_is_the_one_bound():
    """The send backlog is the ring: there is no separate queue bound to set."""
    with pytest.raises(TypeError, match="max_pending"):
        NetworkBackend(unreachable_endpoint(), stream="gone", max_pending=100)
