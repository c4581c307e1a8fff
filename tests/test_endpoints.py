"""Endpoint URL parsing/formatting and the open_* factories.

The round-trip property — ``Endpoint.parse(str(ep)) == ep`` — is checked
property-based over generated endpoints (names, paths and hosts drawn from a
broad alphabet, including characters that require percent-encoding), plus
hand-written cases for every error path and factory.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends.file import FileBackend
from repro.core.backends.memory import MemoryBackend
from repro.core.backends.shared_memory import SharedMemoryBackend, SharedMemoryReader
from repro.core.backends.file import FileReader
from repro.core.stream import StreamSink, StreamSource
from repro.endpoints import (
    SCHEMES,
    Endpoint,
    EndpointError,
    FileEndpoint,
    MemEndpoint,
    ShmEndpoint,
    TcpEndpoint,
    open_backend,
    open_collector,
    open_sink,
    open_source,
    stream_name_for,
)
from repro.net import HeartbeatCollector
from repro.net.exporter import NetworkBackend

# Broad text for names/paths: printable-ish unicode including spaces, '?',
# '#', '%', '&' and '/' — everything the percent-encoding must survive.
_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=24,
)
_paths = _names.filter(bool)
_hosts = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=20),
    st.sampled_from(["::1", "fe80::1", "2001:db8::aa"]),
)
_ports = st.integers(min_value=0, max_value=65535)
_capacities = st.one_of(st.none(), st.integers(min_value=1, max_value=1 << 30))
_intervals = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.none(),
)


class TestRoundTrip:
    """Property: ``Endpoint.parse(str(ep)) == ep`` for every endpoint."""

    @settings(max_examples=200)
    @given(name=_names, capacity=_capacities)
    def test_mem(self, name, capacity):
        ep = MemEndpoint(name=name, capacity=capacity)
        assert Endpoint.parse(str(ep)) == ep

    @settings(max_examples=200)
    @given(path=_paths, capacity=_capacities, buffered=st.booleans(), flush=_intervals)
    def test_file(self, path, capacity, buffered, flush):
        ep = FileEndpoint(
            path=path, capacity=capacity, buffered=buffered, flush_interval=flush
        )
        assert Endpoint.parse(str(ep)) == ep

    @settings(max_examples=200)
    @given(name=_names, depth=_capacities)
    def test_shm(self, name, depth):
        ep = ShmEndpoint(name=name, depth=depth)
        assert Endpoint.parse(str(ep)) == ep

    @settings(max_examples=200)
    @given(
        host=_hosts,
        port=_ports,
        stream=st.one_of(st.none(), _names),
        capacity=_capacities,
        flush=_intervals,
    )
    def test_tcp(self, host, port, stream, capacity, flush):
        ep = TcpEndpoint(
            host=host, port=port, stream=stream, capacity=capacity, flush_interval=flush
        )
        assert Endpoint.parse(str(ep)) == ep

    def test_parse_is_idempotent_on_endpoints(self):
        ep = ShmEndpoint(name="svc", depth=16)
        assert Endpoint.parse(ep) is ep


class TestParsing:
    def test_scheme_examples(self):
        assert Endpoint.parse("mem://") == MemEndpoint()
        assert Endpoint.parse("mem://worker?capacity=64") == MemEndpoint("worker", 64)
        assert Endpoint.parse("file:///var/log/x.hblog") == FileEndpoint("/var/log/x.hblog")
        assert Endpoint.parse("file://rel.hblog?buffered=0") == FileEndpoint(
            "rel.hblog", buffered=False
        )
        assert Endpoint.parse("shm://svc?depth=65536") == ShmEndpoint("svc", 65536)
        assert Endpoint.parse("tcp://h:7717?stream=svc") == TcpEndpoint(
            "h", 7717, stream="svc"
        )
        assert Endpoint.parse("tcp://[::1]:0") == TcpEndpoint("::1", 0)

    def test_shm_accepts_capacity_as_depth_alias(self):
        assert Endpoint.parse("shm://s?capacity=32") == ShmEndpoint("s", 32)
        with pytest.raises(EndpointError, match="not both"):
            Endpoint.parse("shm://s?capacity=32&depth=32")

    @pytest.mark.parametrize(
        "url",
        [
            "nope",  # no scheme
            "zap://x",  # unknown scheme
            "mem://?depth=4",  # unknown parameter for the scheme
            "mem://?capacity=0",  # non-positive capacity
            "mem://?capacity=four",  # non-integer
            "file://",  # missing path
            "file://x?buffered=maybe",  # bad boolean
            "file://x?flush_interval=-1",  # non-positive interval
            "tcp://:1",  # missing host
            "tcp://h",  # missing port
            "tcp://h:70000",  # port out of range
            "tcp://::1:1",  # unbracketed IPv6
            "tcp://h:1?stream=a&stream=b",  # duplicate parameter
        ],
    )
    def test_rejects_malformed_urls(self, url):
        with pytest.raises(EndpointError):
            Endpoint.parse(url)

    def test_schemes_constant_matches_parsers(self):
        assert set(SCHEMES) == {"mem", "file", "shm", "mem-arena", "shm-arena", "tcp"}

    def test_stream_name_for(self, tmp_path):
        assert stream_name_for("file:///var/log/svc.hblog") == "file:svc.hblog"
        assert stream_name_for("shm://seg") == "shm:seg"
        assert stream_name_for("mem://w") == "w"
        assert stream_name_for("mem://") == "heartbeat"
        assert stream_name_for("tcp://h:1?stream=svc") == "svc"
        assert stream_name_for("tcp://h:1") == "tcp:h:1"


class TestFactories:
    def test_open_backend_mem(self):
        backend = open_backend("mem://?capacity=99")
        assert isinstance(backend, MemoryBackend)
        assert backend.capacity == 99
        backend.close()

    def test_open_backend_file(self, tmp_path):
        log = tmp_path / "svc.hblog"
        backend = open_backend(f"file://{log}?capacity=123&buffered=0")
        assert isinstance(backend, FileBackend)
        assert backend.capacity == 123
        assert backend.buffered is False
        assert str(backend.path) == str(log)
        backend.close()

    def test_open_backend_shm_and_source(self):
        backend = open_backend("shm://repro-ep-test?depth=32")
        try:
            assert isinstance(backend, SharedMemoryBackend)
            assert backend.capacity == 32
            source = open_source("shm://repro-ep-test")
            assert isinstance(source, SharedMemoryReader)
            assert isinstance(source, StreamSource)
            source.close()
        finally:
            backend.close()

    def test_open_backend_tcp(self):
        with HeartbeatCollector() as collector:
            backend = open_backend(
                f"tcp://{collector.endpoint}?stream=svc&capacity=64&flush_interval=0.01"
            )
            try:
                assert isinstance(backend, NetworkBackend)
                assert backend.stream == "svc"
                assert backend.capacity == 64
            finally:
                backend.close()

    def test_open_backend_tcp_stream_default(self):
        with HeartbeatCollector() as collector:
            backend = open_backend(collector.endpoint_url, stream="fallback")
            try:
                assert backend.stream == "fallback"
            finally:
                backend.close()

    def test_open_sink_satisfies_protocol(self):
        sink = open_sink("mem://")
        assert isinstance(sink, StreamSink)
        sink.close()

    def test_open_source_file(self, tmp_path):
        log = tmp_path / "svc.hblog"
        backend = FileBackend(log, buffered=False)
        backend.append(0, 1.0, 0, 0)
        backend.append(1, 2.0, 0, 0)
        backend.close()
        source = open_source(f"file://{log}")
        assert isinstance(source, FileReader)
        assert isinstance(source, StreamSource)
        snap = source.snapshot()
        assert snap.total_beats == 2
        delta, cursor = source.snapshot_since(None)
        assert delta.total_beats == 2
        assert source.version() is not None

    def test_open_source_rejects_local_and_fleet_schemes(self):
        with pytest.raises(EndpointError, match="process-local"):
            open_source("mem://x")
        with pytest.raises(EndpointError, match="fleet-shaped"):
            open_source("tcp://h:1")
        with pytest.raises(EndpointError, match="segment name"):
            open_source("shm://")

    def test_open_collector(self):
        collector = open_collector("tcp://127.0.0.1:0")
        try:
            assert collector.port > 0
            assert collector.endpoint_url == f"tcp://127.0.0.1:{collector.port}"
        finally:
            collector.close()
        with pytest.raises(EndpointError, match="tcp"):
            open_collector("shm://x")


class TestUpstreamParameter:
    """tcp://?upstream= — the collector-side federation parameter."""

    def test_round_trips_and_parses(self):
        ep = TcpEndpoint(host="0.0.0.0", port=7717, upstream="root.example:7717")
        parsed = Endpoint.parse(str(ep))
        assert parsed == ep
        assert parsed.upstream == "root.example:7717"

    def test_rejects_malformed_upstream(self):
        with pytest.raises(EndpointError, match="upstream"):
            Endpoint.parse("tcp://127.0.0.1:0?upstream=nocolon")
        with pytest.raises(EndpointError, match="upstream"):
            TcpEndpoint(host="h", port=1, upstream="host:notaport")

    def test_open_backend_rejects_upstream(self):
        with pytest.raises(EndpointError, match="collector-side"):
            open_backend("tcp://127.0.0.1:1?upstream=127.0.0.1:2")

    def test_open_collector_with_upstream_binds_edge(self):
        with open_collector("tcp://127.0.0.1:0") as root:
            with open_collector(f"tcp://127.0.0.1:0?upstream={root.endpoint}") as edge:
                assert edge.is_edge
                assert edge.upstream_address == root.address
            assert not root.is_edge


class TestChaosAndDurabilityParameters:
    """tcp://?via= / journal= / backoff / relay tuning query parameters."""

    def test_producer_params_round_trip(self):
        ep = Endpoint.parse(
            "tcp://10.0.0.1:7717?stream=svc&via=127.0.0.1:9999"
            "&backoff_initial=0.01&backoff_max=0.5"
        )
        assert Endpoint.parse(str(ep)) == ep
        assert ep.via == "127.0.0.1:9999"
        assert ep.dial_address == ("127.0.0.1", 9999)
        assert ep.backoff_initial == 0.01

    def test_collector_params_round_trip(self):
        ep = Endpoint.parse(
            "tcp://0.0.0.0:0?upstream=root:7717&journal=/var/lib/hb"
            "&relay_interval=0.02&backoff_initial=0.05"
        )
        assert Endpoint.parse(str(ep)) == ep
        assert ep.journal == "/var/lib/hb"
        assert ep.relay_interval == 0.02

    def test_dial_address_defaults_to_host(self):
        ep = Endpoint.parse("tcp://10.0.0.1:7717")
        assert ep.dial_address == ("10.0.0.1", 7717)

    def test_relay_tuning_requires_upstream(self):
        with pytest.raises(EndpointError, match="needs upstream"):
            Endpoint.parse("tcp://127.0.0.1:0?relay_interval=0.5")
        with pytest.raises(EndpointError, match="unknown query parameter 'probe_interval'"):
            Endpoint.parse("tcp://127.0.0.1:0?upstream=root:7717&probe_interval=0.5")

    def test_rejects_malformed_values(self):
        with pytest.raises(EndpointError, match="via"):
            Endpoint.parse("tcp://127.0.0.1:0?via=nocolon")
        with pytest.raises(EndpointError, match="backoff_initial"):
            Endpoint.parse("tcp://127.0.0.1:0?backoff_initial=-1")

    def test_open_backend_rejects_collector_side_params(self):
        with pytest.raises(EndpointError, match="collector-side"):
            open_backend("tcp://127.0.0.1:1?journal=/tmp/j")

    def test_open_collector_rejects_producer_side_params(self):
        with pytest.raises(EndpointError, match="producer-side"):
            open_collector("tcp://127.0.0.1:0?via=127.0.0.1:9")
        with pytest.raises(EndpointError, match="backoff"):
            open_collector("tcp://127.0.0.1:0?backoff_initial=0.1")
