"""The edge relays on news: contracts of the forwarder's wake rule.

Every edge here is built with ``relay_interval=10``: the idle cadence is far
longer than any bound asserted below, so whatever reaches the root in time
got there because the edge's event loop marked the stream and the mark woke
the forwarder — not because a timer expired.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
import waiting

from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, protocol
from repro.net import relay as relay_module

#: An idle cadence no assertion in this file can wait out.
IDLE = 10.0


wait_until = partial(waiting.wait_until, interval=0.005)


def batch(first: int, count: int) -> bytes:
    """One BATCH frame carrying beats ``first .. first + count - 1``."""
    records = np.zeros(count, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(first, first + count)
    records["timestamp"] = records["beat"] * 0.001
    return protocol.encode_frame(protocol.FRAME_BATCH, protocol.batch_payload(records))


def dial(edge: HeartbeatCollector, name: str, pid: int) -> socket.socket:
    sock = socket.create_connection(edge.address, timeout=5.0)
    sock.sendall(protocol.encode_hello(name, pid=pid, nonce=pid, default_window=4))
    return sock


def info_at(root: HeartbeatCollector, stream_id: str):
    return {info.stream_id: info for info in root.streams()}.get(stream_id)


def total_at(root: HeartbeatCollector, stream_id: str) -> int:
    info = info_at(root, stream_id)
    return -1 if info is None else info.total_beats


def on_relay_thread() -> bool:
    return threading.current_thread().name.startswith("hb-relay")


@pytest.fixture
def tree():
    with HeartbeatCollector() as root:
        with HeartbeatCollector(upstream=root.endpoint, relay_interval=IDLE) as edge:
            yield root, edge


class TestNewsReachesTheRootInBoundedTime:
    def test_records(self, tree):
        root, edge = tree
        sock = dial(edge, "svc", pid=1)
        try:
            sock.sendall(batch(1, 64))
            assert wait_until(lambda: total_at(root, "svc") == 64, timeout=1.0)
            sock.sendall(batch(65, 64))
            assert wait_until(lambda: total_at(root, "svc") == 128, timeout=1.0)
        finally:
            sock.close()

    def test_targets_update(self, tree):
        root, edge = tree
        sock = dial(edge, "svc", pid=1)
        try:
            sock.sendall(batch(1, 8))
            assert wait_until(lambda: total_at(root, "svc") == 8, timeout=1.0)
            sock.sendall(protocol.encode_targets(8.0, 12.0))
            assert wait_until(
                lambda: (root.snapshot("svc").target_min, root.snapshot("svc").target_max)
                == (8.0, 12.0),
                timeout=1.0,
            )
        finally:
            sock.close()

    def test_close(self, tree):
        root, edge = tree
        sock = dial(edge, "svc", pid=1)
        try:
            sock.sendall(batch(1, 8))
            assert wait_until(lambda: total_at(root, "svc") == 8, timeout=1.0)
            sock.sendall(protocol.encode_close(8))

            def closed() -> bool:
                info = info_at(root, "svc")
                return info is not None and info.closed and info.reported_total == 8

            assert wait_until(closed, timeout=1.0)
        finally:
            sock.close()

    def test_producer_hang_up(self, tree):
        root, edge = tree
        sock = dial(edge, "svc", pid=1)
        sock.sendall(batch(1, 8))
        assert wait_until(lambda: total_at(root, "svc") == 8, timeout=1.0)
        assert info_at(root, "svc").connected
        sock.close()  # abrupt: no CLOSE frame
        assert wait_until(lambda: not info_at(root, "svc").connected, timeout=1.0)
        assert not info_at(root, "svc").closed


class TestSweepReadsOnlyTheStreamsThatMoved:
    def test_one_moved_stream_of_a_hundred_is_one_delta_read(self, tree, monkeypatch):
        root, edge = tree
        socks = [dial(edge, f"s{i:03d}", pid=i + 1) for i in range(100)]
        try:
            for sock in socks:
                sock.sendall(batch(1, 4))
            assert wait_until(
                lambda: all(total_at(root, f"s{i:03d}") == 4 for i in range(100)),
                timeout=10.0,
            )
            reads: list[int] = []
            ring_type = type(edge.source("s000"))
            original = ring_type.snapshot_since

            def counting(self, cursor=None):
                if on_relay_thread():
                    reads.append(1)
                return original(self, cursor)

            monkeypatch.setattr(ring_type, "snapshot_since", counting)
            time.sleep(0.3)  # let any trailing pass of the fill-up finish
            reads.clear()
            frames = edge.relay_stats()["frames_sent"]

            socks[42].sendall(batch(5, 4))
            assert wait_until(lambda: total_at(root, "s042") == 8, timeout=1.0)
            time.sleep(0.3)  # a stray extra pass would show up here
            assert len(reads) == 1
            assert edge.relay_stats()["frames_sent"] == frames + 1
        finally:
            for sock in socks:
                sock.close()


class TestSendFailureMidSweep:
    def test_reconnect_replays_and_acknowledged_streams_stay_exact(self, tree, monkeypatch):
        root, edge = tree
        names = ["a", "b", "c", "d"]
        socks = {name: dial(edge, name, pid=i + 1) for i, name in enumerate(names)}
        try:
            for sock in socks.values():
                sock.sendall(batch(1, 20))
            # The edge counts ``records_sent`` after its ``sendall`` returns, so
            # the root can hold all 80 before the edge has counted them: wait for
            # both, or the baselines below are taken short.
            assert wait_until(
                lambda: all(total_at(root, n) == 20 for n in names)
                and edge.relay_stats()["records_sent"] >= 80
            )

            # Eight records per entry and one entry per frame, so one
            # stream's 40 new records leave as five frames of one sweep.
            monkeypatch.setattr(
                relay_module, "_FRAME_BUDGET", protocol.relay_entry_size("a", 8)
            )
            forwarder = edge._relay  # the forwarding thread under test
            original_send = forwarder._send
            sends: list[int] = []

            def failing_third_send(entries, commits):
                sends.append(len(entries))
                if len(sends) == 3:
                    forwarder._sock.close()  # the link dies under this frame
                return original_send(entries, commits)

            monkeypatch.setattr(forwarder, "_send", failing_third_send)
            before_root = root.stats()
            before_edge = edge.relay_stats()

            socks["a"].sendall(batch(21, 40))

            def delta(before: dict, after: dict, key: str) -> int:
                return after[key] - before[key]

            def replay_landed() -> waiting.Facts:
                # The reconnect replayed all 120 retained records, and all
                # the edge shipped since arming reached the root.
                after_root, after_edge = root.stats(), edge.relay_stats()
                shipped = delta(before_edge, after_edge, "records_sent")
                landed = delta(before_root, after_root, "relay_records") + delta(
                    before_root, after_root, "relay_duplicates"
                )
                connects = delta(before_edge, after_edge, "connects")
                return waiting.Facts(
                    connects == 1 and shipped >= 120 and landed == shipped,
                    connects=connects, shipped=shipped, landed=landed,
                )

            assert wait_until(replay_landed)
            assert len(sends) > 3  # the failure was mid-sweep, and a replay followed
            after_root, after_edge = root.stats(), edge.relay_stats()
            assert delta(before_edge, after_edge, "send_errors") == 1
            # Every stream complete; nothing the root already held was stored twice.
            assert {n: total_at(root, n) for n in names} == {"a": 60, "b": 20, "c": 20, "d": 20}
            for name in names:
                beats = root.snapshot(name).records["beat"]
                assert beats.tolist() == list(range(1, beats.shape[0] + 1))
            # Only the 40 new records were appended; everything else the edge
            # shipped (its replay of what the root already held) was a
            # counted duplicate.
            new = delta(before_root, after_root, "relay_records")
            shipped = delta(before_edge, after_edge, "records_sent")
            assert new == 40
            assert delta(before_root, after_root, "relay_duplicates") == shipped - new
        finally:
            for sock in socks.values():
                sock.close()


class TestNoLostWakeUp:
    def test_every_record_arrives_with_producers_racing_the_forwarder(self, tree):
        """Eight producer threads on a tiny switch interval race the event
        loop's marks against the forwarder's swap; a lost wake-up would
        strand the tail until the 10 s idle timer."""
        root, edge = tree
        streams, rounds, per = 8, 200, 4
        socks = [dial(edge, f"w{i}", pid=i + 1) for i in range(streams)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def produce(sock: socket.socket) -> None:
                for r in range(rounds):
                    sock.sendall(batch(1 + r * per, per))

            threads = [threading.Thread(target=produce, args=(sock,)) for sock in socks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert wait_until(
                lambda: all(total_at(root, f"w{i}") == rounds * per for i in range(streams)),
                timeout=5.0,
            )
        finally:
            sys.setswitchinterval(previous)
            for sock in socks:
                sock.close()


class TestCloseNeverOvertakesItsRecords:
    def test_close_ingested_after_the_delta_read_is_not_relayed_ahead(self, tree, monkeypatch):
        """A CLOSE landing right after the forwarder read a stream's records
        must not reach the root before the records that preceded it: the
        sweep reads the stream's liveness before its delta, so the CLOSE
        waits for the next sweep, which carries the records too."""
        root, edge = tree
        sock = dial(edge, "svc", pid=1)
        try:
            sock.sendall(batch(1, 10))
            assert wait_until(lambda: total_at(root, "svc") == 10)

            violations: list[tuple[int, int | None]] = []
            original_ingest = root._ingest_relay

            def checked_ingest(conn, entries):
                original_ingest(conn, entries)
                info = info_at(root, "svc")
                if info is not None and info.closed and info.total_beats < info.reported_total:
                    violations.append((info.total_beats, info.reported_total))

            monkeypatch.setattr(root, "_ingest_relay", checked_ingest)

            row = edge.source("svc")
            paused = threading.Event()
            original_read = type(row).snapshot_since

            def ingest_behind_the_read(self, cursor=None):
                delta, cursor = original_read(self, cursor)
                # Right after the forwarder's first delta read with records,
                # the producer's tail and CLOSE land at the edge.
                if on_relay_thread() and self is row and delta.records.shape[0] and not paused.is_set():
                    paused.set()
                    sock.sendall(batch(16, 5) + protocol.encode_close(20))
                    assert wait_until(lambda: info_at(edge, "svc").closed, timeout=2.0)
                return delta, cursor

            monkeypatch.setattr(type(row), "snapshot_since", ingest_behind_the_read)

            sock.sendall(batch(11, 5))

            def closed_at_root() -> bool:
                info = info_at(root, "svc")
                return info is not None and info.closed

            assert wait_until(closed_at_root)
            assert paused.is_set()
            assert total_at(root, "svc") == 20
            assert violations == []
        finally:
            sock.close()
