"""The HTTP/SSE dashboard server: endpoints, metrics equivalence, acceptance.

Every server binds ``127.0.0.1`` port 0 (no fixed-port collisions), every
HTTP call carries a timeout, and the acceptance test drives the issue's
headline scenario end to end: a two-edge federation tree served live, with
per-link edge→root latency quantiles and per-stream health classification
arriving over SSE, and ``/metrics`` agreeing exactly with the historic
``stats()`` dicts.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from functools import partial

import pytest
import waiting

from repro.net import HeartbeatCollector, NetworkBackend
from repro.obs import MetricsRegistry
from repro.obs.serve import TelemetryServer
from repro.session import TelemetrySession


wait_until = partial(waiting.wait_until, timeout=10.0, interval=0.02)


def http_get(url: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def read_sse_snapshot(url: str, timeout: float = 10.0) -> dict:
    """Open ``/events`` and return the first complete snapshot event."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        event, data = None, []
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = response.readline().decode("utf-8").rstrip("\n")
            if line.startswith("event:"):
                event = line.split(":", 1)[1].strip()
            elif line.startswith("data:"):
                data.append(line.split(":", 1)[1].strip())
            elif line == "" and data:
                if event == "snapshot":
                    return json.loads("".join(data))
                event, data = None, []
    raise AssertionError("no snapshot event arrived over SSE")


def parse_metrics(text: str) -> dict[str, float]:
    """``name{labels} value`` lines as a dict (comments skipped)."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        out[name] = float(value)
    return out


class TestServerEndpoints:
    def test_dashboard_metrics_snapshot_and_sse(self):
        with TelemetrySession() as session:
            hb = session.produce("mem://svc", window=8)
            hb.set_target_rate(1.0, 100.0)
            for _ in range(12):
                hb.heartbeat()
                time.sleep(0.005)
            server = session.watch("mem://svc", interval=0.05)
            base = server.url

            html = http_get(f"{base}/").decode("utf-8")
            assert "EventSource" in html and "/events" in html

            metrics = http_get(f"{base}/metrics").decode("utf-8")
            assert "aggregator_polls_total" in metrics
            assert "# TYPE aggregator_poll_duration_seconds histogram" in metrics

            snapshot = json.loads(http_get(f"{base}/api/snapshot"))
            assert snapshot["summary"]["streams"] == 1
            (row,) = snapshot["streams"]
            assert row["name"] == "svc"
            assert row["status"] in {"healthy", "slow", "fast", "stalled", "unknown"}

            sse = read_sse_snapshot(f"{base}/events")
            assert sse["summary"]["streams"] == 1
            assert sse["streams"][0]["name"] == "svc"

    def test_unknown_path_is_404(self):
        with TelemetrySession() as session:
            server = session.watch(interval=0.05)
            try:
                http_get(f"{server.url}/nope")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
            else:
                raise AssertionError("expected a 404")

    def test_extra_registries_served(self):
        extra = MetricsRegistry()
        extra.counter("custom_total").inc(7)
        with TelemetrySession() as session:
            aggregator = session.fleet()
            with TelemetryServer(aggregator, registries=[extra], interval=0.05) as server:
                assert "custom_total 7" in http_get(f"{server.url}/metrics").decode()


class TestBindRule:
    """The dashboard binds by the collector's rule: family from the host, errors name the address."""

    def test_binds_ipv6_loopback_with_a_bracketed_url(self, ipv6_loopback):
        with TelemetrySession() as session:
            server = session.watch(interval=0.05, host=ipv6_loopback)
            assert server.url == f"http://[::1]:{server.port}"
            assert "aggregator" in http_get(f"{server.url}/metrics").decode()

    def test_a_port_in_use_names_the_address(self):
        with socket.socket() as blocker, TelemetrySession() as session:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with pytest.raises(OSError, match=f"cannot bind 127.0.0.1:{port}: "):
                TelemetryServer(session.fleet(), port=port)


class TestMetricsEquivalence:
    """`/metrics` and the historic ``stats()`` dicts read the same counters."""

    def test_relay_and_collector_stats_match_scrape(self):
        with HeartbeatCollector() as root:
            with HeartbeatCollector(upstream=root.endpoint) as edge:
                backend = NetworkBackend(edge.address, stream="svc", flush_interval=0.01)
                try:
                    for beat in range(1, 31):
                        backend.append(beat, beat * 0.01, 0, 1)
                    assert wait_until(
                        lambda: "svc" in root.stream_ids()
                        and root.snapshot("svc").total_beats == 30
                    )
                finally:
                    backend.close()
                with TelemetrySession() as session:
                    aggregator = session.fleet(root)
                    with TelemetryServer(
                        aggregator, collectors=[edge], interval=0.05
                    ) as server:
                        # Quiesce: nothing left to relay, then compare.
                        time.sleep(0.1)
                        relay_stats = edge.relay_stats()
                        edge_stats = edge.stats()
                        scraped = parse_metrics(
                            http_get(f"{server.url}/metrics").decode()
                        )
                up_host, up_port = edge.upstream_address
                label = f'{{upstream="{up_host}:{up_port}"}}'
                assert scraped[f"relay_frames_sent_total{label}"] == relay_stats["frames_sent"]
                assert scraped[f"relay_entries_sent_total{label}"] == relay_stats["entries_sent"]
                assert scraped[f"relay_records_sent_total{label}"] == relay_stats["records_sent"]
                assert scraped[f"relay_connects_total{label}"] == relay_stats["connects"]
                assert scraped[f"relay_send_errors_total{label}"] == relay_stats["send_errors"]
                assert scraped["collector_frames_total"] == edge_stats["frames"]
                assert scraped["collector_records_total"] == edge_stats["records"]
                assert scraped["collector_batch_runs_total"] == edge_stats["batch_runs"] >= 1
                assert (
                    scraped["collector_connections_accepted_total"]
                    == edge_stats["connections_accepted"]
                )


class TestAcceptanceTwoEdgeTree:
    """The issue's acceptance scenario: 2 edges → 1 root, served live."""

    def test_fleet_tree_latency_and_classification_over_sse(self):
        with TelemetrySession() as session:
            root = session.collect("tcp://127.0.0.1:0")
            edges = [
                HeartbeatCollector(upstream=root.endpoint)
                for _ in range(2)
            ]
            backends = [
                NetworkBackend(edge.address, stream=f"svc-{k}", flush_interval=0.01)
                for k, edge in enumerate(edges)
            ]
            try:
                now = time.time()
                for k, backend in enumerate(backends):
                    for beat in range(1, 41):
                        backend.append(beat, now - 1.0 + beat * 0.025, 0, 1)
                assert wait_until(
                    lambda: sorted(root.stream_ids()) == ["svc-0", "svc-1"]
                    and all(
                        root.snapshot(f"svc-{k}").total_beats == 40 for k in range(2)
                    )
                )
                assert wait_until(lambda: len(root.link_latencies()) == 2)

                server = session.watch(root, interval=0.05)
                snapshot = read_sse_snapshot(f"{server.url}/events")

                # Per-link edge→root latency quantiles: one entry per edge.
                assert len(snapshot["links"]) == 2
                for link in snapshot["links"].values():
                    assert link["count"] >= 1
                    assert link["p50"] is not None and link["p50"] >= 0.0
                    assert link["p99"] is not None and link["p99"] >= link["p50"]

                # Live per-stream classification for both relayed streams.
                rows = {row["name"]: row for row in snapshot["streams"]}
                assert set(rows) == {"svc-0", "svc-1"}
                for row in rows.values():
                    assert row["status"] in {"healthy", "slow", "fast", "stalled", "unknown"}
                    assert row["total_beats"] == 40

                # The same counters reach /metrics.
                scraped = http_get(f"{server.url}/metrics").decode()
                assert "collector_relay_frames_total" in scraped
                assert "relay_link_latency_seconds_bucket" in scraped
            finally:
                for backend in backends:
                    backend.close()
                for edge in edges:
                    edge.close()
