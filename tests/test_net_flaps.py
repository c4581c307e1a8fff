"""Link-flap coherence: obs counters and latency roll-ups under chaos.

Satellite coverage for the scenario harness: when a ChaosProxy forces
reconnects on producer links and relay hops, the exporter's and forwarder's
metrics must stay monotonic (counters never jump backwards across a
reconnect) and the root's ``link_latencies()`` must stay coherent — every
summary keyed by a live peer, counts only growing.
"""

from __future__ import annotations

from functools import partial

import pytest
import waiting

from repro.net import HeartbeatCollector, NetworkBackend
from repro.scenario import ChaosProxy

pytestmark = [pytest.mark.network]


wait_until = partial(waiting.wait_until, timeout=10.0)


def total_at(collector: HeartbeatCollector, stream: str) -> int:
    for info in collector.streams():
        if info.stream_id == stream:
            return info.total_beats
    return 0


class TestExporterCountersAcrossFlaps:
    def test_counters_monotonic_across_forced_reconnects(self):
        with HeartbeatCollector() as collector:
            with ChaosProxy(collector.endpoint) as proxy:
                backend = NetworkBackend(
                    proxy.endpoint,
                    stream="flappy",
                    flush_interval=0.01,
                    backoff_initial=0.01,
                    backoff_max=0.05,
                )
                observed: list[dict] = []

                def snapshot() -> dict:
                    stats = backend.stats()
                    observed.append(stats)
                    return stats

                beat = 0
                for round_no in range(3):
                    for _ in range(10):
                        backend.append(beat, beat * 0.01, 0, 1)
                        beat += 1
                    target = beat
                    assert wait_until(
                        lambda: total_at(collector, "flappy") == target
                    ), f"round {round_no}: only {total_at(collector, 'flappy')}/{target}"
                    snapshot()
                    proxy.flap()
                    assert wait_until(
                        lambda: proxy.stats()["links_severed"] >= round_no + 1
                    )
                backend.close()

                # Reconnects happened (one initial connect + one per flap the
                # exporter noticed) and every counter is monotonic across them.
                assert observed[-1]["connects"] >= 1
                for key in ("sent_batches", "sent_records", "connects"):
                    values = [s[key] for s in observed]
                    assert values == sorted(values), f"{key} went backwards: {values}"
                # Everything the producer acknowledged arrived despite flaps.
                assert total_at(collector, "flappy") == beat


class TestRelayCountersAcrossFlaps:
    def test_relay_counters_and_latencies_coherent_across_flaps(self):
        with HeartbeatCollector() as root:
            with ChaosProxy(root.endpoint) as proxy:
                edge = HeartbeatCollector(
                    "127.0.0.1",
                    0,
                    upstream=proxy.endpoint,
                    relay_interval=0.02,
                    relay_backoff_initial=0.01,
                    relay_backoff_max=0.05,
                )
                try:
                    backend = NetworkBackend(
                        edge.address, stream="hop", flush_interval=0.01
                    )
                    for beat in range(10):
                        backend.append(beat, beat * 0.01, 0, 1)
                    assert wait_until(lambda: total_at(root, "hop") == 10)
                    before = edge.relay_stats()

                    proxy.flap()
                    assert wait_until(lambda: proxy.stats()["links_severed"] >= 1)
                    for beat in range(10, 20):
                        backend.append(beat, beat * 0.01, 0, 1)
                    assert wait_until(lambda: total_at(root, "hop") == 20)
                    after = edge.relay_stats()

                    for key in ("connects", "frames_sent", "entries_sent", "records_sent"):
                        assert after[key] >= before[key], (
                            f"{key} went backwards across flap: {before[key]} -> {after[key]}"
                        )
                    assert after["connects"] >= before["connects"] + 1

                    # The root's per-link latency roll-up stays coherent
                    # across the flap: the relay redials from a fresh local
                    # port, so a second peer key may appear — but every
                    # summary is well-formed and the aggregate sample count
                    # only grows.
                    def latency_count() -> int:
                        return sum(
                            int(s["count"]) for s in root.link_latencies().values()
                        )

                    assert wait_until(lambda: latency_count() >= 1)
                    for summary in root.link_latencies().values():
                        assert summary["min"] <= summary["p50"] <= summary["max"]
                    count_before = latency_count()
                    for beat in range(20, 30):
                        backend.append(beat, beat * 0.01, 0, 1)
                    assert wait_until(lambda: total_at(root, "hop") == 30)
                    assert wait_until(lambda: latency_count() > count_before)
                    backend.close()
                finally:
                    edge.close()

    def test_probe_interval_query_param_reaches_forwarder(self):
        from repro.endpoints import EndpointError, open_collector

        with HeartbeatCollector() as root:
            # The forwarder probes before every sweep; there is no knob.
            with pytest.raises(EndpointError, match="unknown query parameter 'probe_interval'"):
                open_collector(f"tcp://127.0.0.1:0?upstream={root.endpoint}&probe_interval=0.5")
            edge = open_collector(
                f"tcp://127.0.0.1:0?upstream={root.endpoint}"
                "&relay_interval=0.02&backoff_initial=0.01&backoff_max=0.25"
            )
            try:
                forwarder = edge._relay  # the wiring under test
                assert forwarder is not None
                assert forwarder._interval == 0.02
                assert forwarder._backoff_initial == 0.01
                assert forwarder._backoff_max == 0.25
            finally:
                edge.close()

    def test_backoff_query_params_reach_exporter(self):
        from repro.endpoints import open_backend

        with HeartbeatCollector() as collector:
            backend = open_backend(
                f"tcp://{collector.endpoint}?stream=tuned"
                "&backoff_initial=0.02&backoff_max=0.3"
            )
            try:
                assert backend._backoff_initial == 0.02
                assert backend._backoff_max == 0.3
            finally:
                backend.close()
