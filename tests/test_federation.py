"""Collector federation: producers → edge collectors → root collector.

Every collector binds ``127.0.0.1`` port 0 so parallel CI runs never collide
on a fixed port; every wait is bounded so a broken link can fail a test but
not hang the suite.  Edges run at the default ``relay_interval``: the
relay forwards on news, so the interval no longer sets how fast a beat
reaches the root.
"""

from __future__ import annotations

import socket
import time
from functools import partial

import numpy as np
import pytest
import waiting

from repro.clock import WallClock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.monitor import HealthStatus
from repro.core.record import RECORD_DTYPE
from repro.endpoints import open_collector
from repro.net import HeartbeatCollector, NetworkBackend, protocol
from repro.session import TelemetrySession


wait_until = partial(waiting.wait_until, timeout=10.0, interval=0.02)


def records_for(beats: list[tuple[int, float]]) -> np.ndarray:
    out = np.empty(len(beats), dtype=RECORD_DTYPE)
    for i, (beat, ts) in enumerate(beats):
        out[i] = (beat, ts, 0, 1)
    return out


def edge_for(root: HeartbeatCollector, **kwargs) -> HeartbeatCollector:
    return HeartbeatCollector(upstream=root.endpoint, **kwargs)


def root_total(root: HeartbeatCollector, stream_id: str) -> int:
    if stream_id not in root.stream_ids():
        return -1
    return root.snapshot(stream_id).total_beats


class TestEdgeForwarding:
    def test_edge_delivers_every_stream_and_beat_to_root(self):
        with HeartbeatCollector() as root, edge_for(root) as edge:
            backends = [
                NetworkBackend(edge.address, stream=f"svc-{i}", flush_interval=0.01)
                for i in range(5)
            ]
            try:
                for k, backend in enumerate(backends):
                    for beat in range(1, 101):
                        backend.append(beat, beat * 0.001 + k, k, 1)
                assert wait_until(
                    lambda: all(root_total(root, f"svc-{i}") == 100 for i in range(5))
                )
            finally:
                for backend in backends:
                    backend.close()
            infos = {info.stream_id: info for info in root.streams()}
            assert all(infos[f"svc-{i}"].via_relay for i in range(5))
            # Nothing was replayed, so nothing should have been deduplicated.
            assert root.stats()["relay_records"] == 500

    def test_targets_and_close_propagate_to_root(self):
        with HeartbeatCollector() as root, edge_for(root) as edge:
            backend = NetworkBackend(edge.address, stream="svc", flush_interval=0.01)
            backend.set_targets(8.0, 12.0)
            for beat in range(1, 21):
                backend.append(beat, beat * 0.01, 0, 1)
            assert wait_until(lambda: root_total(root, "svc") == 20)
            assert wait_until(
                lambda: (
                    root.snapshot("svc").target_min,
                    root.snapshot("svc").target_max,
                ) == (8.0, 12.0)
            )
            backend.close()  # graceful CLOSE with reported total
            assert wait_until(
                lambda: any(
                    info.stream_id == "svc" and info.closed and info.reported_total == 20
                    for info in root.streams()
                )
            )

    def test_aggregator_on_root_observes_relayed_fleet(self):
        clock = WallClock(rebase=False)
        with HeartbeatCollector() as root, edge_for(root) as edge:
            backend = NetworkBackend(edge.address, stream="svc", flush_interval=0.01)
            backend.set_default_window(8)
            now = clock.now()
            for beat in range(1, 51):
                backend.append(beat, now - 0.5 + beat * 0.01, 0, 1)
            assert wait_until(lambda: root_total(root, "svc") == 50)
            agg = HeartbeatAggregator(clock=clock, liveness_timeout=30.0)
            try:
                agg.attach_collector(root)
                sample = agg.poll()
                assert sample.reading("svc").total_beats == 50
                assert sample.reading("svc").rate > 0
            finally:
                agg.close()
                backend.close()

    def test_resume_after_close_reopens_the_stream_at_the_root(self):
        """A HELLO after CLOSE re-registers at the edge, and so at the root."""

        def liveness(collector: HeartbeatCollector) -> list[tuple[bool, int | None]]:
            return [(i.closed, i.reported_total) for i in collector.streams()]

        hello = protocol.encode_hello("svc", pid=41, nonce=7, default_window=8, capacity=64)

        def batch(beats: range) -> bytes:
            payload = protocol.batch_payload(records_for([(b, b * 0.01) for b in beats]))
            return protocol.encode_frame(protocol.FRAME_BATCH, payload)

        with HeartbeatCollector() as root, edge_for(root) as edge:
            with socket.create_connection(edge.address, timeout=5.0) as sock:
                sock.sendall(hello + batch(range(5)) + protocol.encode_close(5))
                assert wait_until(lambda: liveness(root) == [(True, 5)])
            with socket.create_connection(edge.address, timeout=5.0) as sock:
                sock.sendall(hello + batch(range(5, 8)))
                assert wait_until(lambda: root_total(root, "svc") == 8)
                assert liveness(edge) == [(False, None)]
                assert wait_until(lambda: liveness(root) == liveness(edge), timeout=2.0)


class TestTreeTopology:
    def test_two_edges_one_root_keeps_streams_distinct(self):
        with HeartbeatCollector() as root:
            with edge_for(root) as edge_a, edge_for(root) as edge_b:
                backend_a = NetworkBackend(edge_a.address, stream="svc-a", flush_interval=0.01)
                backend_b = NetworkBackend(edge_b.address, stream="svc-b", flush_interval=0.01)
                try:
                    for beat in range(1, 31):
                        backend_a.append(beat, beat * 0.01, 0, 1)
                    for beat in range(1, 41):
                        backend_b.append(beat, beat * 0.01, 0, 1)
                    assert wait_until(lambda: root_total(root, "svc-a") == 30)
                    assert wait_until(lambda: root_total(root, "svc-b") == 40)
                finally:
                    backend_a.close()
                    backend_b.close()

    def test_producer_death_reads_stalled_through_two_hops(self):
        """A producer dying at the edge must classify STALLED at the root."""
        clock = WallClock(rebase=False)
        with HeartbeatCollector() as root, edge_for(root) as edge:
            sock = socket.create_connection(edge.address, timeout=5.0)
            sock.sendall(protocol.encode_hello("victim", pid=999, default_window=4))
            now = clock.now()
            beats = records_for([(i + 1, now - 0.4 + 0.1 * i) for i in range(5)])
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(beats)
            )
            sock.sendall(bytes(header) + bytes(payload))
            assert wait_until(lambda: root_total(root, "victim") == 5)
            sock.close()  # abrupt death: no CLOSE frame
            assert wait_until(
                lambda: any(
                    info.stream_id == "victim" and not info.connected and not info.closed
                    for info in root.streams()
                )
            )
            agg = HeartbeatAggregator(clock=clock, liveness_timeout=0.5)
            try:
                agg.attach_collector(root)
                assert wait_until(
                    lambda: agg.poll().reading("victim").status is HealthStatus.STALLED
                )
                reading = agg.poll().reading("victim")
                assert reading.total_beats == 5
                assert reading.age is not None and reading.age > 0.5
            finally:
                agg.close()


class TestRootRestart:
    def test_edge_outlives_root_restart_and_replays_streams(self):
        root = HeartbeatCollector()
        port = root.port
        edge = edge_for(root)
        backend = NetworkBackend(edge.address, stream="svc", flush_interval=0.01)
        try:
            for beat in range(1, 201):
                backend.append(beat, beat * 0.001, 0, 1)
            assert wait_until(lambda: root_total(root, "svc") == 200)
            root.close()  # the root dies; the edge keeps absorbing beats
            for beat in range(201, 301):
                backend.append(beat, beat * 0.001, 0, 1)
            # A new (empty) root takes over the same port; SO_REUSEADDR makes
            # the rebind race-free once the old socket is closed.
            deadline = time.monotonic() + 10.0
            new_root = None
            while new_root is None:
                try:
                    new_root = HeartbeatCollector(port=port)
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            try:
                # The forwarder reconnects with backoff and replays the
                # stream's full retained history from a fresh cursor.
                assert wait_until(lambda: root_total(new_root, "svc") == 300, timeout=15.0)
                info = {i.stream_id: i for i in new_root.streams()}["svc"]
                assert info.via_relay and info.connected
            finally:
                new_root.close()
        finally:
            backend.close()
            edge.close()

    def test_replay_is_deduplicated_at_a_surviving_root(self):
        """The same RELAY entry sent twice must not double-count beats."""
        with HeartbeatCollector() as root:
            entry = protocol.RelayEntry(
                stream_id="svc",
                pid=7,
                nonce=3,
                records=records_for([(i + 1, i * 0.01) for i in range(10)]),
            )
            frame = protocol.encode_relay([entry])
            sock = socket.create_connection(root.address, timeout=5.0)
            try:
                sock.sendall(frame)
                sock.sendall(frame)  # verbatim replay, e.g. after a lost ACK
                assert wait_until(lambda: root_total(root, "svc") == 10)
                assert wait_until(lambda: root.stats()["relay_duplicates"] == 10)
                assert root.snapshot("svc").total_beats == 10
            finally:
                sock.close()


class TestRelayLinkIsolation:
    def test_garbage_on_relay_link_poisons_only_that_link(self):
        with HeartbeatCollector() as root:
            good = NetworkBackend(root.address, stream="good", flush_interval=0.01)
            bad = socket.create_connection(root.address, timeout=5.0)
            try:
                entry = protocol.RelayEntry(
                    stream_id="relayed",
                    pid=1,
                    nonce=1,
                    records=records_for([(1, 0.01)]),
                )
                bad.sendall(protocol.encode_relay([entry]))
                assert wait_until(lambda: root_total(root, "relayed") == 1)
                bad.sendall(b"\xde\xad\xbe\xef" * 16)  # garbage mid-link
                assert wait_until(lambda: root.stats()["protocol_errors"] == 1)
                # The poisoned link's stream survives, marked disconnected...
                assert wait_until(
                    lambda: any(
                        i.stream_id == "relayed" and not i.connected
                        for i in root.streams()
                    )
                )
                # ...and the unrelated producer link keeps flowing.
                for beat in range(1, 11):
                    good.append(beat, beat * 0.01, 0, 1)
                assert wait_until(lambda: root_total(root, "good") == 10)
                assert root.stats()["protocol_errors"] == 1
            finally:
                bad.close()
                good.close()

    def test_mixing_roles_on_one_connection_is_a_protocol_error(self):
        with HeartbeatCollector() as root:
            # RELAY after HELLO: a producer link cannot turn into a relay.
            sock = socket.create_connection(root.address, timeout=5.0)
            try:
                sock.sendall(protocol.encode_hello("svc", pid=1, default_window=4))
                assert wait_until(lambda: "svc" in root.stream_ids())
                entry = protocol.RelayEntry(stream_id="x", pid=2, nonce=2)
                sock.sendall(protocol.encode_relay([entry]))
                assert wait_until(lambda: root.stats()["protocol_errors"] == 1)
            finally:
                sock.close()
            # HELLO after RELAY: a relay link cannot register as a producer.
            sock = socket.create_connection(root.address, timeout=5.0)
            try:
                entry = protocol.RelayEntry(stream_id="y", pid=3, nonce=3)
                sock.sendall(protocol.encode_relay([entry]))
                sock.sendall(protocol.encode_hello("z", pid=4, default_window=4))
                assert wait_until(lambda: root.stats()["protocol_errors"] == 2)
            finally:
                sock.close()
            assert "x" not in root.stream_ids()


class TestEndpointAndSessionWiring:
    def test_session_builds_a_federation_tree_from_urls(self):
        with TelemetrySession() as session:
            root = session.collect("tcp://127.0.0.1:0")
            edge = session.collect(
                f"tcp://127.0.0.1:0?upstream={root.endpoint}"
            )
            assert edge.is_edge and not root.is_edge
            heartbeat = session.produce(
                f"{edge.endpoint_url}?stream=svc&flush_interval=0.01", window=8
            )
            heartbeat.heartbeat_batch(50)
            assert wait_until(lambda: root_total(root, "svc") == 50)

    def test_open_collector_rejects_producer_params_with_upstream(self):
        from repro.endpoints import EndpointError

        with pytest.raises(EndpointError, match="producer-side"):
            open_collector("tcp://127.0.0.1:0?stream=x&upstream=127.0.0.1:1")

    def test_ipv6_tree_from_bracketed_urls(self):
        """producer -> edge bound at tcp://[::1]:0 -> root via upstream=[::1]:PORT.

        ``host:port`` has one owner (``protocol.parse_address``): the
        collector binds the family its address names, the relay dials the
        unbracketed host, and ``endpoint_url`` round-trips with brackets.
        """
        from repro.endpoints import Endpoint

        try:
            probe = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
            try:
                probe.bind(("::1", 0))
            finally:
                probe.close()
        except OSError as exc:
            pytest.skip(f"cannot bind ::1 on this host: {exc}")
        with TelemetrySession() as session:
            root = session.collect("tcp://[::1]:0")
            assert root.address[0] == "::1"
            assert root.endpoint_url == f"tcp://[::1]:{root.port}"
            assert Endpoint.parse(root.endpoint_url).url() == root.endpoint_url
            edge = session.collect(
                f"tcp://[::1]:0?upstream=[::1]:{root.port}"
            )
            assert edge.upstream_address == ("::1", root.port)
            heartbeat = session.produce(
                f"{edge.endpoint_url}?stream=svc6&flush_interval=0.01", window=8
            )
            heartbeat.heartbeat_batch(50)
            assert wait_until(lambda: root_total(root, "svc6") == 50)
            assert edge.relay_stats()["send_errors"] == 0
