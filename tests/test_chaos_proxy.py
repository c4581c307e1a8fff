"""ChaosProxy behavior: transparent forwarding, impairments, partitions.

Every proxy targets a live collector on an ephemeral loopback port; every
wait is bounded.  These tests exercise the proxy as the scenario harness
uses it: inserted between a NetworkBackend producer and a collector.
"""

from __future__ import annotations

import time

import pytest
from waiting import wait_until

from repro.faults.timeline import Timeline, TimelineEvent
from repro.net import HeartbeatCollector, NetworkBackend
from repro.scenario import ChaosProxy

pytestmark = pytest.mark.network


def total_at(collector: HeartbeatCollector, stream: str) -> int:
    for info in collector.streams():
        if info.stream_id == stream:
            return info.total_beats
    return 0


class TestTransparentForwarding:
    def test_beats_flow_through_proxy(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                backend = NetworkBackend(proxy.endpoint, stream="thru", flush_interval=0.01)
                for beat in range(20):
                    backend.append(beat, beat * 0.01, 0, 1)
                assert wait_until(lambda: total_at(collector, "thru") == 20)
                backend.close()
                assert wait_until(
                    lambda: any(i.closed for i in collector.streams())
                )
                stats = proxy.stats()
                assert stats["bytes_forwarded"] > 0
                assert stats["connections"] == 1

    def test_endpoint_properties(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                host, port = proxy.address
                assert host == "127.0.0.1"
                assert proxy.endpoint == f"127.0.0.1:{port}"
                assert proxy.endpoint_url == f"tcp://127.0.0.1:{port}"

    def test_via_query_param_routes_through_proxy(self):
        from repro.endpoints import open_backend

        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                backend = open_backend(
                    f"tcp://{collector.endpoint}?stream=via-svc"
                    f"&via={proxy.endpoint}&flush_interval=0.01"
                )
                backend.append(0, 0.0, 0, 1)
                assert wait_until(lambda: total_at(collector, "via-svc") == 1)
                backend.close()
                assert proxy.stats()["connections"] == 1


class TestImpairments:
    def test_latency_delays_delivery(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint, latency=0.3) as proxy:
                backend = NetworkBackend(proxy.endpoint, stream="lag", flush_interval=0.01)
                backend.append(0, 0.0, 0, 1)
                started = time.monotonic()
                assert wait_until(lambda: total_at(collector, "lag") == 1)
                # HELLO and the batch each cross the proxy once; the first
                # record cannot arrive before at least one latency budget.
                assert time.monotonic() - started >= 0.25
                backend.close()

    def test_drop_probability_discards_chunks(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint, drop_probability=1.0, seed=1) as proxy:
                backend = NetworkBackend(proxy.endpoint, stream="loss", flush_interval=0.01)
                backend.append(0, 0.0, 0, 1)
                assert wait_until(lambda: proxy.stats()["chunks_dropped"] > 0)
                # Nothing survives a 100% loss link.
                assert total_at(collector, "loss") == 0
                backend.close()


class TestPartitions:
    def test_blackhole_stalls_then_heals_losslessly(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                backend = NetworkBackend(proxy.endpoint, stream="part", flush_interval=0.01)
                backend.append(0, 0.0, 0, 1)
                assert wait_until(lambda: total_at(collector, "part") == 1)

                proxy.partition("blackhole")
                assert wait_until(lambda: proxy.partitioned == "blackhole")
                for beat in range(1, 11):
                    backend.append(beat, beat * 0.01, 0, 1)
                time.sleep(0.2)
                assert total_at(collector, "part") == 1  # nothing crossed

                proxy.heal()
                assert wait_until(lambda: total_at(collector, "part") == 11)
                backend.close()

    def test_drop_partition_refuses_new_connections(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                proxy.partition("drop")
                assert wait_until(lambda: proxy.partitioned == "drop")
                backend = NetworkBackend(
                    proxy.endpoint, stream="refused", flush_interval=0.01
                )
                backend.append(0, 0.0, 0, 1)
                assert wait_until(lambda: proxy.stats()["refused"] > 0)
                assert total_at(collector, "refused") == 0
                # Heal: the exporter's reconnect loop gets through.  The
                # pre-heal beat may be lost (it can be committed into a
                # socket the proxy already closed — the documented
                # at-most-once window), but new traffic must flow.
                proxy.heal()
                backend.append(1, 0.01, 0, 1)
                assert wait_until(lambda: total_at(collector, "refused") >= 1)
                backend.close()

    def test_flap_severs_but_exporter_recovers(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                backend = NetworkBackend(
                    proxy.endpoint,
                    stream="flappy",
                    flush_interval=0.01,
                    backoff_initial=0.01,
                    backoff_max=0.05,
                )
                backend.append(0, 0.0, 0, 1)
                assert wait_until(lambda: total_at(collector, "flappy") == 1)
                proxy.flap()
                assert wait_until(lambda: proxy.stats()["links_severed"] >= 1)
                backend.append(1, 0.01, 0, 1)
                assert wait_until(lambda: total_at(collector, "flappy") == 2)
                backend.close()


class TestSchedule:
    def test_scheduled_timeline_applies(self):
        schedule = Timeline(
            [TimelineEvent(at=0.05, action="partition", params={"mode": "blackhole"})]
        )
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint, schedule=schedule) as proxy:
                assert wait_until(lambda: proxy.partitioned == "blackhole")

    def test_apply_rejects_unknown_action(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                with pytest.raises(ValueError):
                    proxy.apply(TimelineEvent(at=0.0, action="sharknado"))

    def test_partition_mode_validated(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                with pytest.raises(ValueError):
                    proxy.partition("wormhole")
