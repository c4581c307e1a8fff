"""Producer/collector integration over localhost TCP.

Every server here binds ``127.0.0.1`` port 0 and propagates the chosen port,
so parallel CI runs never collide on a fixed port; every wait is bounded so
a broken socket can fail a test but not hang the suite.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import time

import numpy as np
import pytest
from waiting import wait_until

from repro.clock import WallClock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.backends.ring import Ring
from repro.core.errors import MonitorAttachError
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus
from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, NetworkBackend, protocol


def raw_connection(collector: HeartbeatCollector) -> socket.socket:
    sock = socket.create_connection(collector.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def records_for(beats: list[tuple[int, float]]) -> np.ndarray:
    out = np.empty(len(beats), dtype=RECORD_DTYPE)
    for i, (beat, ts) in enumerate(beats):
        out[i] = (beat, ts, 0, 1)
    return out


class TestBindAndPortPropagation:
    def test_binds_ephemeral_loopback_port(self):
        with HeartbeatCollector() as collector:
            assert collector.host == "127.0.0.1"
            assert collector.port > 0
            assert collector.address == ("127.0.0.1", collector.port)
            assert collector.endpoint == f"127.0.0.1:{collector.port}"

    def test_two_collectors_never_collide(self):
        with HeartbeatCollector() as a, HeartbeatCollector() as b:
            assert a.port != b.port

    def test_close_is_idempotent(self):
        collector = HeartbeatCollector()
        collector.close()
        collector.close()


class TestEndToEnd:
    def test_producer_records_arrive_exactly(self):
        with HeartbeatCollector() as collector:
            backend = NetworkBackend(collector.endpoint, stream="svc", flush_interval=0.01)
            hb = Heartbeat(window=20, backend=backend, clock=WallClock(rebase=False))
            hb.set_target_rate(1.0, 1e6)
            for i in range(7):
                hb.heartbeat(tag=i)
            hb.heartbeat_batch(93)
            hb.finalize()  # flushes, then CLOSE
            assert collector.wait_for_streams(1, timeout=5.0)
            assert wait_until(lambda: collector.snapshot("svc").total_beats == 100)
            snap = collector.snapshot("svc")
            assert list(snap.records["beat"]) == list(range(100))
            assert snap.target_min == 1.0 and snap.target_max == 1e6
            assert snap.default_window == 20
            # The CLOSE frame may land a beat after the last batch.
            assert wait_until(
                lambda: {s.stream_id: s for s in collector.streams()}["svc"].closed
            )
            info = {s.stream_id: s for s in collector.streams()}["svc"]
            assert not info.connected
            assert info.pid == os.getpid()
            # Nothing was dropped, so the CLOSE-frame count matches delivery.
            assert info.reported_total == 100 == info.total_beats

    def test_listing_streams_copies_no_ring(self, monkeypatch):
        """``streams()`` reads each stream's beat counter, not its history:
        wait loops poll it while the event loop writes the rows, and a
        listing costs no copy of any ring."""
        with HeartbeatCollector(default_capacity=65536) as collector:
            backend = NetworkBackend(collector.endpoint, stream="svc", flush_interval=0.01)
            hb = Heartbeat(window=20, backend=backend, clock=WallClock(rebase=False))
            hb.heartbeat_batch(500)
            hb.finalize()
            assert wait_until(
                lambda: [s.total_beats for s in collector.streams()] == [500]
            )
            real, calls = Ring.snapshot, []
            monkeypatch.setattr(
                Ring, "snapshot", lambda self, n=None: calls.append(n) or real(self, n)
            )
            (info,) = collector.streams()
            assert info.total_beats == 500
            assert calls == []
            assert collector.snapshot("svc").total_beats == 500 and calls == [None]

    def test_many_producers_demultiplexed(self):
        with HeartbeatCollector() as collector:
            heartbeats = []
            for i in range(5):
                backend = NetworkBackend(
                    collector.endpoint, stream=f"svc-{i}", flush_interval=0.01
                )
                hb = Heartbeat(window=10, backend=backend, clock=WallClock(rebase=False))
                hb.heartbeat_batch(10 * (i + 1))
                heartbeats.append(hb)
            for hb in heartbeats:
                hb.finalize()
            assert collector.wait_for_streams(5, timeout=5.0)
            for i in range(5):
                assert wait_until(
                    lambda i=i: collector.snapshot(f"svc-{i}").total_beats == 10 * (i + 1)
                )

    def test_duplicate_live_names_get_distinct_ids(self):
        with HeartbeatCollector() as collector:
            a = NetworkBackend(collector.endpoint, stream="dup", flush_interval=0.01)
            b = NetworkBackend(collector.endpoint, stream="dup", flush_interval=0.01)
            a.append_many(records_for([(0, 1.0)]))
            b.append_many(records_for([(0, 1.0)]))
            assert collector.wait_for_streams(2, timeout=5.0)
            assert sorted(collector.stream_ids()) == ["dup", "dup@2"]
            a.close()
            b.close()

    def test_reconnect_resumes_only_the_matching_nonce(self):
        """Resumption is keyed on (pid, nonce): a same-named sibling backend
        from the same process must get its own stream, never splice into a
        disconnected twin's history."""
        with HeartbeatCollector() as collector:
            first = raw_connection(collector)
            first.sendall(protocol.encode_hello("twin", pid=7, nonce=1))
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(records_for([(0, 1.0)]))
            )
            first.sendall(bytes(header) + bytes(payload))
            assert wait_until(lambda: collector.stream_ids() == ["twin"])
            first.close()  # abrupt drop, stream stays resumable
            assert wait_until(
                lambda: not {s.stream_id: s for s in collector.streams()}["twin"].connected
            )

            sibling = raw_connection(collector)
            sibling.sendall(protocol.encode_hello("twin", pid=7, nonce=2))
            assert wait_until(lambda: sorted(collector.stream_ids()) == ["twin", "twin@2"])

            comeback = raw_connection(collector)
            comeback.sendall(protocol.encode_hello("twin", pid=7, nonce=1))
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(records_for([(1, 2.0)]))
            )
            comeback.sendall(bytes(header) + bytes(payload))
            # The original stream resumed (no third id) and grew its history.
            assert wait_until(lambda: collector.snapshot("twin").total_beats == 2)
            assert sorted(collector.stream_ids()) == ["twin", "twin@2"]
            sibling.close()
            comeback.close()

    def test_redial_supersedes_connection_the_collector_still_thinks_live(self):
        """A matching (pid, nonce) HELLO resumes even before the old
        connection thread observes the disconnect, and the stale thread's
        teardown must not mark the resumed stream disconnected."""
        with HeartbeatCollector() as collector:
            old = raw_connection(collector)
            old.sendall(protocol.encode_hello("svc", pid=7, nonce=3))
            assert wait_until(lambda: collector.stream_ids() == ["svc"])

            new = raw_connection(collector)  # redial while `old` is still open
            new.sendall(protocol.encode_hello("svc", pid=7, nonce=3))
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(records_for([(0, 1.0)]))
            )
            new.sendall(bytes(header) + bytes(payload))
            assert wait_until(lambda: collector.snapshot("svc").total_beats == 1)
            assert collector.stream_ids() == ["svc"]  # no 'svc@2' split

            old.close()  # the superseded connection finally goes away
            time.sleep(0.3)
            info = {s.stream_id: s for s in collector.streams()}["svc"]
            assert info.connected, "stale teardown clobbered the live connection"
            new.close()
            assert wait_until(
                lambda: not {s.stream_id: s for s in collector.streams()}["svc"].connected
            )

    def test_unknown_stream_rejected(self):
        with HeartbeatCollector() as collector:
            with pytest.raises(MonitorAttachError):
                collector.snapshot("nope")
            with pytest.raises(MonitorAttachError):
                collector.source("nope")


class TestGarbageIsolation:
    """A malformed connection dies alone; the collector and its peers live."""

    def test_garbage_connection_does_not_kill_collector(self):
        with HeartbeatCollector() as collector:
            vandal = raw_connection(collector)
            vandal.sendall(b"GET / HTTP/1.1\r\nHost: heartbeat\r\n\r\n")
            assert wait_until(lambda: collector.stats()["protocol_errors"] == 1)
            vandal.close()
            # A well-behaved producer still gets through afterwards.
            backend = NetworkBackend(collector.endpoint, stream="good", flush_interval=0.01)
            backend.append_many(records_for([(0, 1.0), (1, 2.0)]))
            assert collector.wait_for_streams(1, timeout=5.0)
            assert wait_until(lambda: collector.snapshot("good").total_beats == 2)
            backend.close()

    def test_batch_before_hello_rejected(self):
        with HeartbeatCollector() as collector:
            sock = raw_connection(collector)
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(records_for([(0, 1.0)]))
            )
            sock.sendall(bytes(header) + bytes(payload))
            assert wait_until(lambda: collector.stats()["protocol_errors"] == 1)
            assert collector.stream_ids() == []
            sock.close()

    def test_corrupt_frame_mid_stream_drops_connection_keeps_history(self):
        with HeartbeatCollector() as collector:
            sock = raw_connection(collector)
            sock.sendall(protocol.encode_hello("torn", pid=1))
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(records_for([(0, 1.0), (1, 2.0)]))
            )
            sock.sendall(bytes(header) + bytes(payload))
            assert wait_until(lambda: "torn" in collector.stream_ids())
            assert wait_until(lambda: collector.snapshot("torn").total_beats == 2)
            corrupted = bytearray(protocol.encode_targets(1.0, 2.0))
            corrupted[-1] ^= 0xFF
            sock.sendall(bytes(corrupted))
            assert wait_until(lambda: collector.stats()["protocol_errors"] == 1)
            # The already-ingested history survives the bad frame.
            assert collector.snapshot("torn").total_beats == 2
            sock.close()


class TestAggregatorIntegration:
    def test_attach_collector_serves_fleet_queries(self):
        with HeartbeatCollector() as collector:
            heartbeats = []
            for i in range(4):
                backend = NetworkBackend(
                    collector.endpoint, stream=f"s{i}", flush_interval=0.01
                )
                hb = Heartbeat(window=50, backend=backend, clock=WallClock(rebase=False))
                hb.set_target_rate(5.0, 1e6)
                heartbeats.append(hb)
            for _ in range(20):
                for hb in heartbeats:
                    hb.heartbeat_batch(5)
                time.sleep(0.005)
            for hb in heartbeats:
                hb.finalize()
            assert collector.wait_for_streams(4, timeout=5.0)
            assert wait_until(
                lambda: all(collector.snapshot(f"s{i}").total_beats == 100 for i in range(4))
            )
            agg = HeartbeatAggregator(clock=WallClock(rebase=False))
            try:
                attached = agg.attach_collector(collector)
                assert sorted(attached) == [f"s{i}" for i in range(4)]
                sample = agg.poll()
                assert sample.total_beats() == 400
                rates = sample.rates()
                assert rates.shape == (4,) and (rates > 0).all()
                percentiles = sample.percentiles()
                assert set(percentiles) == {50.0, 90.0, 99.0}
                assert all(p > 0 for p in percentiles.values())
                assert set(sample.lagging(target=1e9)) == {f"s{i}" for i in range(4)}
            finally:
                agg.close()

    def test_streams_registered_after_attach_appear_on_next_poll(self):
        with HeartbeatCollector() as collector:
            agg = HeartbeatAggregator(clock=WallClock(rebase=False))
            try:
                assert agg.attach_collector(collector) == []
                assert len(agg.poll()) == 0
                backend = NetworkBackend(collector.endpoint, stream="late", flush_interval=0.01)
                backend.append_many(records_for([(0, 1.0)]))
                assert collector.wait_for_streams(1, timeout=5.0)
                assert wait_until(lambda: "late" in dict(agg.poll()))
                backend.close()
            finally:
                agg.close()

    def test_mid_stream_producer_death_reads_stalled(self):
        """A producer that dies without CLOSE must classify as STALLED."""
        with HeartbeatCollector() as collector:
            clock = WallClock(rebase=False)
            sock = raw_connection(collector)
            sock.sendall(protocol.encode_hello("victim", pid=999, default_window=4))
            now = clock.now()
            beats = records_for([(i, now - 0.4 + 0.1 * i) for i in range(5)])
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(beats)
            )
            sock.sendall(bytes(header) + bytes(payload))
            assert wait_until(lambda: "victim" in collector.stream_ids())
            assert wait_until(lambda: collector.snapshot("victim").total_beats == 5)
            # Abrupt death: RST-ish close, no CLOSE frame.
            sock.close()
            assert wait_until(
                lambda: not {s.stream_id: s for s in collector.streams()}["victim"].connected
            )
            info = {s.stream_id: s for s in collector.streams()}["victim"]
            assert not info.closed  # death, not shutdown
            agg = HeartbeatAggregator(clock=clock, liveness_timeout=0.5)
            try:
                agg.attach_collector(collector)
                assert wait_until(
                    lambda: agg.poll().reading("victim").status is HealthStatus.STALLED,
                    timeout=5.0,
                )
                reading = agg.poll().reading("victim")
                assert reading.age is not None and reading.age > 0.5
                assert reading.total_beats == 5
            finally:
                agg.close()


class TestSubprocessProducer:
    def test_subprocess_death_is_observable(self):
        """A real producer process killed mid-stream reads as STALLED."""
        with HeartbeatCollector() as collector:
            ctx = mp.get_context("spawn")
            proc = ctx.Process(
                target=_doomed_producer, args=(collector.endpoint,), daemon=True
            )
            proc.start()
            try:
                assert collector.wait_for_streams(1, timeout=30.0)
                assert wait_until(
                    lambda: collector.snapshot("doomed").total_beats >= 10, timeout=30.0
                )
                proc.join(timeout=30.0)  # _doomed_producer os._exits mid-stream
                assert proc.exitcode == 17
                agg = HeartbeatAggregator(clock=WallClock(rebase=False), liveness_timeout=0.3)
                try:
                    agg.attach_collector(collector)
                    assert wait_until(
                        lambda: agg.poll().reading("doomed").status is HealthStatus.STALLED,
                        timeout=5.0,
                    )
                finally:
                    agg.close()
            finally:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)


def _doomed_producer(endpoint: str) -> None:
    backend = NetworkBackend(endpoint, stream="doomed", flush_interval=0.005)
    hb = Heartbeat(window=10, backend=backend, clock=WallClock(rebase=False))
    for i in range(20):
        hb.heartbeat(tag=i)
        time.sleep(0.01)
    time.sleep(0.2)  # let the sender flush before dying without finalize()
    os._exit(17)


def _raw_producer(collector: HeartbeatCollector, name: str, **hello: object) -> socket.socket:
    sock = raw_connection(collector)
    sock.sendall(protocol.encode_hello(name, pid=os.getpid(), **hello))  # type: ignore[arg-type]
    return sock


def _batch_frame(first: int, count: int, t0: float = 0.0) -> bytes:
    records = records_for([(first + i, t0 + 0.001 * (first + i)) for i in range(count)])
    return protocol.encode_frame(protocol.FRAME_BATCH, protocol.batch_payload(records))


class TestCollectorSlabRows:
    """Every collector stream is a slab row, read whole by ``attach_collector``."""

    @pytest.mark.parametrize("with_arena", [False, True], ids=["private", "arena"])
    def test_long_stream_ids_keep_their_full_names(self, with_arena):
        """A row header stores 64 name bytes; the sample names rows from the
        collector's stream-id table, so longer ids neither truncate nor collide."""
        from repro.core.backends import Arena

        arena = Arena(streams=4, depth=64) if with_arena else None
        stem = "x" * 64
        ids = [stem + "-long-tail-a" + "y" * 8, stem + "-long-tail-b" + "y" * 8]
        assert all(len(i.encode()) == 84 for i in ids)
        try:
            with HeartbeatCollector(arena=arena) as collector:
                socks = [_raw_producer(collector, name, default_window=4) for name in ids]
                for n, sock in enumerate(socks):
                    sock.sendall(_batch_frame(0, 3 + n))
                assert wait_until(lambda: [s.total_beats for s in collector.streams()] == [3, 4])
                assert collector.stream_ids() == ids
                with HeartbeatAggregator(clock=WallClock(rebase=False)) as agg:
                    attached = agg.attach_collector(collector, prefix="c/")
                    sample = agg.poll()
                    assert sorted(sample.names) == ["c/" + i for i in ids]
                    assert [sample.reading("c/" + i).total_beats for i in ids] == [3, 4]
                    assert sorted(attached) == ["c/" + i for i in ids]
                for sock in socks:
                    sock.close()
        finally:
            if arena is not None:
                arena.close()

    def test_a_capacity_that_is_not_a_power_of_two_is_retained_exactly(self):
        with HeartbeatCollector() as collector:
            sock = _raw_producer(collector, "odd", capacity=1000, default_window=10)
            for first in range(0, 1500, 100):
                sock.sendall(_batch_frame(first, 100))
            assert collector.wait_for_streams(1)
            assert wait_until(lambda: collector.snapshot("odd").total_beats == 1500)
            snap = collector.snapshot("odd")
            assert snap.retained == 1000
            assert snap.records["beat"].tolist() == list(range(500, 1500))
            with HeartbeatAggregator() as agg:
                agg.attach_collector(collector)
                reading = agg.poll().reading("odd")
                assert reading.total_beats == 1500
                assert reading.rate == pytest.approx(9 / 0.009)
            sock.close()

    def test_polling_a_collector_mirrors_no_stream(self, monkeypatch):
        """The aggregator reads the collector's slabs whole: no stream is
        replayed into a private mirror row."""
        from repro.core.monitor import _Mirror

        calls = []
        real = _Mirror.sync
        monkeypatch.setattr(
            _Mirror, "sync", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
        )
        with HeartbeatCollector() as collector:
            # Three capacities: three slab chains.
            socks = [
                _raw_producer(collector, f"s{i}", capacity=cap, default_window=8)
                for i, cap in enumerate((16, 64, 64, 4096, 16))
            ]
            for sock in socks:
                sock.sendall(_batch_frame(0, 40))
            assert wait_until(
                lambda: [s.total_beats for s in collector.streams()] == [40] * 5
            )
            with HeartbeatAggregator() as agg:
                agg.attach_collector(collector)
                for _ in range(3):
                    sample = agg.poll()
                assert sorted(sample.names) == [f"s{i}" for i in range(5)]
                assert sample.errors == {}
                assert sample.total_beats() == 200
            assert calls == []
            for sock in socks:
                sock.close()

    def test_concurrent_writers_against_a_polling_observer(self):
        """Producers ingest at full rate on their own sockets while another
        thread polls: totals never go backwards, no row errors, and every
        record sent is counted."""
        import sys
        import threading

        frames, batch = 300, 64
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with HeartbeatCollector() as collector:
                names = [f"w{i}" for i in range(3)]
                socks = [
                    _raw_producer(collector, name, capacity=4096, default_window=32)
                    for name in names
                ]
                assert collector.wait_for_streams(len(names))
                agg = HeartbeatAggregator(clock=WallClock(rebase=False))
                agg.attach_collector(collector)
                stop = threading.Event()
                seen: dict[str, list[int]] = {name: [] for name in names}
                errors: list[dict[str, str]] = []

                def observe() -> None:
                    while not stop.is_set():
                        sample = agg.poll()
                        if sample.errors:
                            errors.append(dict(sample.errors))
                        for name, total in zip(sample.names, sample.totals().tolist()):
                            seen[name].append(total)

                def write(sock: socket.socket) -> None:
                    for f in range(frames):
                        sock.sendall(_batch_frame(f * batch, batch, time.time()))

                observer = threading.Thread(target=observe)
                writers = [threading.Thread(target=write, args=(sock,)) for sock in socks]
                observer.start()
                for thread in writers:
                    thread.start()
                for thread in writers:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                sent = frames * batch
                assert wait_until(
                    lambda: [s.total_beats for s in collector.streams()] == [sent] * len(names),
                    timeout=10.0,
                )
                stop.set()
                observer.join(timeout=10.0)
                assert not observer.is_alive()
                final = agg.poll()
                agg.close()
                for sock in socks:
                    sock.close()
        finally:
            sys.setswitchinterval(switch)
        assert errors == [] and final.errors == {}
        assert dict(zip(final.names, final.totals().tolist())) == {name: sent for name in names}
        for name, totals in seen.items():
            assert totals, name
            assert all(a <= b for a, b in zip(totals, totals[1:])), name
