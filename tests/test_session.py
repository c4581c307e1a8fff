"""TelemetrySession facade + legacy-vs-URL wiring equivalence.

The equivalence half proves the acceptance criterion directly: every legacy
wiring style and its endpoint-URL form build *identical pipelines* — same
backend types, same parameters, same bytes in a log file under a
deterministic clock, same observer readings.
"""

from __future__ import annotations

import time

import pytest
from waiting import wait_until

from repro import (
    Heartbeat,
    HeartbeatAggregator,
    HeartbeatMonitor,
    TelemetrySession,
)
from repro.clock import SimulatedClock, WallClock
from repro.core import api as hb_api
from repro.core.backends.file import FileBackend, FileReader
from repro.core.backends.memory import MemoryBackend
from repro.core.backends.shared_memory import SharedMemoryBackend
from repro.endpoints import EndpointError, TcpEndpoint, open_source
from repro.net import HeartbeatCollector
from repro.net.exporter import NetworkBackend


def _pump(heartbeat: Heartbeat, clock: SimulatedClock, n: int = 10, dt: float = 0.1) -> None:
    for _ in range(n):
        clock.advance(dt)
        heartbeat.heartbeat()


class TestSessionProduceObserve:
    def test_mem_produce_observe_fleet(self):
        with TelemetrySession() as session:
            clock = SimulatedClock()
            hb = session.produce("mem://worker", window=5, target=(1.0, 1e9), clock=clock)
            assert hb.name == "worker"
            assert isinstance(hb.backend, MemoryBackend)
            _pump(hb, clock)
            monitor = session.observe("mem://worker")
            reading = monitor.read()
            assert reading.total_beats == 10
            assert reading.in_target
            fleet = session.fleet("mem://worker")
            assert fleet.rates().keys() == {"worker"}

    def test_produce_duplicate_name_is_rejected(self):
        with TelemetrySession() as session:
            first = session.produce("mem://dup")
            with pytest.raises(EndpointError, match="already produced"):
                session.produce("mem://dup")
            # The survivor is the first stream, still observable.
            first.heartbeat()
            assert session.observe("mem://dup").read().total_beats == 1

    def test_open_collector_rejects_producer_only_params(self):
        from repro.endpoints import open_collector

        with pytest.raises(EndpointError, match="producer-side"):
            open_collector("tcp://127.0.0.1:0?stream=x")
        with pytest.raises(EndpointError, match="capacity"):
            open_collector("tcp://127.0.0.1:0?capacity=9")

    def test_mem_observe_unknown_name_errors(self):
        with TelemetrySession() as session:
            with pytest.raises(EndpointError, match="process-local"):
                session.observe("mem://ghost")

    def test_observe_tcp_is_rejected_with_guidance(self):
        with TelemetrySession() as session:
            with pytest.raises(EndpointError, match="fleet"):
                session.observe("tcp://127.0.0.1:1")

    def test_file_produce_observe_cross_object(self, tmp_path):
        log = tmp_path / "svc.hblog"
        with TelemetrySession() as session:
            clock = SimulatedClock()
            hb = session.produce(f"file://{log}?buffered=0", window=5, clock=clock)
            assert hb.name == "file:svc.hblog"
            _pump(hb, clock)
            monitor = session.observe(f"file://{log}", clock=clock)
            assert monitor.read().total_beats == 10

    def test_shm_produce_observe(self):
        with TelemetrySession() as session:
            clock = SimulatedClock()
            hb = session.produce("shm://repro-sess-test?depth=64", window=5, clock=clock)
            _pump(hb, clock)
            monitor = session.observe("shm://repro-sess-test", clock=clock)
            assert monitor.read().total_beats == 10

    def test_one_session_one_time_base(self, tmp_path):
        """Every scheme defaults to the same host-wide monotonic clock."""
        with TelemetrySession() as session:
            hb = session.produce(f"file://{tmp_path / 'c.hblog'}")
            mem = session.produce("mem://local")
            # WallClock(rebase=False) reports raw perf_counter time.
            for stream in (hb, mem):
                assert stream.clock.now() == pytest.approx(time.perf_counter(), abs=1.0)
        rebased = SimulatedClock()
        with TelemetrySession(clock=rebased) as session:
            assert session.produce("mem://local").clock is rebased

    def test_fleet_observes_session_mem_streams_live(self):
        """A mem:// stream and the fleet observer share the time base, so a
        beating stream is never misread as STALLED."""
        with TelemetrySession(liveness_timeout=5.0) as session:
            hb = session.produce("mem://live", window=5)
            for _ in range(10):
                hb.heartbeat()
            fleet = session.fleet("mem://live")
            sample = fleet.poll()
            assert sample.stalled() == []
            assert sample.reading("live").total_beats == 10

    def test_tcp_produce_fleet_roundtrip(self):
        with TelemetrySession() as session:
            collector = session.collect()
            fleet = session.fleet(collector)
            hb = session.produce(
                collector.endpoint_url + "?stream=svc-a&flush_interval=0.01", window=5
            )
            for _ in range(20):
                hb.heartbeat()
                time.sleep(0.002)
            hb.finalize()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                sample = fleet.poll()
                if "svc-a" in sample.names and sample.reading("svc-a").total_beats == 20:
                    break
                time.sleep(0.02)
            assert sample.reading("svc-a").total_beats == 20

    def test_fleet_tcp_url_binds_session_owned_collector(self):
        session = TelemetrySession()
        fleet = session.fleet("tcp://127.0.0.1:0")
        assert fleet.names == []  # nothing dialled in yet, but bound and polling
        session.close()
        # The collector bound by the fleet was closed with the session: a new
        # one can bind the same ephemeral range with no leaked sockets.
        assert session.closed

    def test_fleet_rejects_non_endpoint_entries(self):
        with TelemetrySession() as session:
            with pytest.raises(EndpointError, match="fleet entries"):
                session.fleet(object())

    def test_fleet_attaches_an_object_with_only_slabs(self):
        """CollectorLike is one method: an object with only ``slabs()`` is a collector."""
        from repro.core.backends.arena import Arena

        class SlabsOnly:
            def __init__(self, arena):
                self.arena = arena

            def slabs(self):
                return [(self.arena, ["one", "two"])]

        with Arena(streams=2, depth=8) as arena, TelemetrySession() as session:
            arena.allocate("one").append(1, time.perf_counter(), 0, 0)
            arena.allocate("two")
            fleet = session.fleet(SlabsOnly(arena))
            assert fleet.names == ["one", "two"]
            assert fleet.poll().reading("one").total_beats == 1


class TestReviewRegressions:
    """Regressions pinned from the PR's code review."""

    def test_heartbeat_accepts_duck_typed_sink(self):
        """A non-Backend object with the sink methods is trusted, not parsed."""

        class Tee:
            def __init__(self):
                self.rows = []
                self.capacity = 16

            def append(self, beat, timestamp, tag, thread_id):
                self.rows.append(beat)

            def set_targets(self, tmin, tmax):
                pass

            def set_default_window(self, window):
                pass

            def close(self):
                pass

        tee = Tee()
        hb = Heartbeat(window=5, backend=tee)
        hb.heartbeat()
        hb.heartbeat()
        assert tee.rows == [0, 1]
        hb.finalize()

    def test_produce_mem_history_sizes_capacity(self):
        with TelemetrySession() as session:
            hb = session.produce("mem://deep", history=4096)
            assert hb.backend.capacity == 4096
            explicit = session.produce("mem://shallow?capacity=32", history=4096)
            assert explicit.backend.capacity == 32  # URL wins

    def test_produce_bare_tcp_defaults_to_per_process_stream(self):
        import os as _os

        with HeartbeatCollector() as collector:
            with TelemetrySession() as session:
                hb = session.produce(collector.endpoint_url)
                assert hb.name == f"hb-{_os.getpid()}"
                assert hb.backend.stream == hb.name

    def test_hb_initialize_rejects_stream_kwarg_for_non_tcp(self):
        hb_api.reset_registry()
        with pytest.raises(ValueError, match="tcp"):
            hb_api.HB_initialize(window=4, endpoint="mem://", stream="x")
        assert not hb_api.HB_is_initialized()
        hb_api.reset_registry()

    def test_heartbeat_mem_url_sizes_capacity_like_default_backend(self):
        assert Heartbeat(window=4096, backend="mem://").backend.capacity == 4096
        assert Heartbeat(backend="mem://", history=8192).backend.capacity == 8192
        assert Heartbeat(backend="mem://?capacity=64", history=8192).backend.capacity == 64

    def test_produce_does_not_leak_backend_on_bad_target(self):
        from repro.core.backends.shared_memory import SharedMemoryReader
        from repro.core.errors import InvalidTargetError

        with TelemetrySession() as session:
            with pytest.raises(InvalidTargetError):
                session.produce("shm://repro-leak-test?depth=64", target=(10.0, 5.0))
            # The rejected stream's segment was released, not leaked.
            with pytest.raises(Exception):
                SharedMemoryReader("repro-leak-test")

    def test_capabilities_of_attaches_a_collector_row_as_is(self):
        """``collector.source(id)`` is a fresh view of the stream's row, and a
        source attaches it as-is: in place, by its slab and row index."""
        from repro.core.backends.arena import ArenaRowView
        from repro.core.stream import capabilities_of
        from repro.net.exporter import NetworkBackend

        with HeartbeatCollector() as collector:
            backend = NetworkBackend(collector.endpoint, stream="row")
            hb = Heartbeat(window=5, backend=backend)
            hb.heartbeat()
            hb.finalize()
            deadline = time.monotonic() + 5
            while "row" not in collector.stream_ids() and time.monotonic() < deadline:
                time.sleep(0.02)
            view = collector.source("row")
            assert isinstance(view, ArenaRowView)
            [(slab, names)] = [(a, n) for a, n in collector.slabs() if "row" in n]
            assert view.slab_row() == (slab, names.index("row"))
            words, _, sequence_at, _, _, slots, slots_at, _ = slab._ring_args(names.index("row"))
            ring = view._ring
            assert ring.words is words and ring.slots is slots  # the slab's own views
            assert (ring.sequence_at, ring.slots_at) == (sequence_at, slots_at)
            caps = capabilities_of(view)
            assert caps.snapshot.__self__ is view
            assert caps.delta.__self__ is view
            assert caps.probe.__self__ is view
            assert caps.row == (slab, names.index("row"))
            # Closing one view closes that view only: the stream, and the
            # next caller's view of it, still read.
            view.close()
            assert wait_until(lambda: collector.snapshot("row").total_beats == 1)
            assert collector.source("row") is not view
            assert collector.source("row").snapshot().total_beats == 1
            assert collector.snapshot("row").total_beats == 1

    def test_capabilities_of_rejects_whole_collectors(self):
        from repro.core.stream import capabilities_of

        with HeartbeatCollector() as collector:
            with pytest.raises(TypeError, match="collector-like"):
                capabilities_of(collector)
            agg = HeartbeatAggregator()
            with pytest.raises(TypeError, match="attach_collector"):
                agg.attach_stream("oops", collector)
            agg.close()

    def test_hb_initialize_rejects_stream_kwarg_plus_url_stream(self):
        hb_api.reset_registry()
        with pytest.raises(ValueError, match="not both"):
            hb_api.HB_initialize(window=4, endpoint="tcp://h:1?stream=a", stream="b")
        assert not hb_api.HB_is_initialized()
        hb_api.reset_registry()

    def test_hb_initialize_mem_url_sizes_like_heartbeat(self):
        hb_api.reset_registry()
        try:
            via_api = hb_api.HB_initialize(window=5, endpoint="mem://x", history=8192)
            assert via_api.backend.capacity == 8192
            assert (
                via_api.backend.capacity
                == Heartbeat(window=5, backend="mem://x", history=8192).backend.capacity
            )
        finally:
            hb_api.HB_finalize()
            hb_api.reset_registry()

    def test_cli_closes_bound_collector_when_later_bind_raises(self, capsys):
        """The CLI is a session: its LIFO close releases the first collector
        when a later bind fails, and the failure is one line + exit 1."""
        from repro import cli, session as session_module

        bound: list[object] = []
        real_open = session_module.open_collector

        def spying_open(ep, **kwargs):
            if len(bound) >= 1:
                raise OSError("cannot bind second collector")
            collector = real_open(ep, **kwargs)
            bound.append(collector)
            return collector

        session_module.open_collector = spying_open
        try:
            rc = cli.main(["watch", "tcp://127.0.0.1:0", "tcp://127.0.0.1:0", "--once"])
        finally:
            session_module.open_collector = real_open
        assert rc == 1
        assert "cannot bind second collector" in capsys.readouterr().err
        assert len(bound) == 1
        assert bound[0]._closed  # the first collector did not leak its socket

    def test_observe_mem_honours_clock_override(self):
        with TelemetrySession() as session:
            producer_clock, observer_clock = SimulatedClock(), SimulatedClock()
            hb = session.produce("mem://c", window=5, clock=producer_clock)
            _pump(hb, producer_clock)
            observer_clock.advance(producer_clock.now() + 9.0)
            monitor = session.observe(
                "mem://c", clock=observer_clock, liveness_timeout=5.0
            )
            reading = monitor.read()
            assert reading.age == pytest.approx(9.0)
            assert reading.status.value == "stalled"


class TestOneObserverDoor:
    """A stream reaches an observer as one ``StreamSource`` object: the
    callable-triple spellings, the second poll path and the legacy flags
    they kept alive are gone from the public surface."""

    def test_removed_spellings_are_not_importable_or_reachable(self):
        import inspect

        import repro
        import repro.core
        import repro.core.aggregator
        import repro.core.monitor
        import repro.core.stream
        from repro.adapt.spec import AdaptSpec, LoopSpec, SpecError
        from repro.cloud.balancer import HeartbeatLoadBalancer
        from repro.core.aggregator import FleetSample
        from repro.scenario import ScenarioSpec

        modules = (
            repro, repro.core, repro.core.stream, repro.core.monitor, repro.core.aggregator
        )
        for module in modules:
            for name in ("BoundSource", "file_observer_sources", "collector_stream_sources"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in module.__all__
        removed_attributes = {
            HeartbeatAggregator: (
                "attach_source", "attach_monitor", "incremental", "_poll_full",
                "attach", "attach_file", "attach_shared_memory",
                "num_shards", "_run_sharded", "_ensure_pool", "_pool",
            ),
            HeartbeatMonitor: (
                "for_source", "snapshot_source", "delta_source", "probe_source",
                "attach_file", "attach_shared_memory",
            ),
            HeartbeatCollector: ("snapshot_source", "delta_source"),
            FleetSample: ("from_readings",),
            AdaptSpec: ("from_toml", "from_json", "num_shards"),
            ScenarioSpec: ("from_toml", "from_json"),
        }
        for cls, names in removed_attributes.items():
            for name in names:
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"
        assert not hasattr(HeartbeatAggregator(), "num_shards")
        assert not hasattr(AdaptSpec([LoopSpec(match="*")]), "num_shards")
        for fn in (HeartbeatAggregator.__init__, HeartbeatMonitor.__init__, TelemetrySession.fleet):
            parameters = set(inspect.signature(fn).parameters)
            assert not parameters & {"incremental", "delta", "probe", "close"}, fn.__qualname__
        for fn in (
            HeartbeatAggregator.__init__, TelemetrySession.fleet,
            HeartbeatLoadBalancer.__init__, AdaptSpec.__init__,
        ):
            assert "num_shards" not in inspect.signature(fn).parameters, fn.__qualname__
        with pytest.raises(SpecError, match="unknown engine keys"):
            AdaptSpec.from_dict({"engine": {"num_shards": 2}, "loops": [{"match": "*"}]})
        assert "remote" not in inspect.signature(hb_api.HB_initialize).parameters
        self._assert_observers_are_loops_and_one_recorder_remains()
        # What replaces them, and what the benchmark ledger calls, stays.
        assert {"snapshot", "snapshot_since", "version"} <= set(dir(HeartbeatMonitor))
        assert {"attach", "attach_endpoint"} <= set(dir(HeartbeatMonitor))
        assert {
            "attach_stream", "attach_endpoint", "attach_arena", "attach_collector", "attach_registry",
        } <= set(dir(HeartbeatAggregator))
        assert {"from_dict", "from_file", "parse"} <= set(dir(AdaptSpec))
        assert {"from_dict", "from_file"} <= set(dir(ScenarioSpec))
        assert {"source", "version_source"} <= set(dir(HeartbeatCollector))

    @staticmethod
    def _assert_observers_are_loops_and_one_recorder_remains():
        """The scheduler's second decision list, its policy layer, the monitor
        wrappers, the per-subsystem JSONL writers, the relay probe knob and
        the copies of the controller kind table."""
        import importlib.util
        import inspect

        import repro.adapt
        import repro.adapt.loop
        import repro.adapt.spec
        import repro.obs
        import repro.obs.tracing
        import repro.scheduler
        import repro.scheduler.dvfs
        import repro.scheduler.external
        import repro.tune
        import repro.tune.emit
        import repro.tune.space
        from repro.adapt import ControlLoop
        from repro.encoder.adaptive import AdaptiveEncoder
        from repro.endpoints import TcpEndpoint, _params
        from repro.experiments.scheduler_runner import run_scheduled_workload
        from repro.net.async_collector import AsyncHeartbeatCollector
        from repro.net.relay import RelayForwarder
        from repro.scheduler import DVFSGovernor, ExternalScheduler

        gone = {
            repro.scheduler: (
                "SchedulerDecisionRecord", "DVFSDecisionRecord",
                "AllocationPolicy", "MinimizeCoresPolicy", "ProportionalPolicy",
            ),
            repro.scheduler.external: ("SchedulerDecisionRecord", "_PolicyController", "MinimizeCoresPolicy"),
            repro.scheduler.dvfs: ("DVFSDecisionRecord",),
            repro.adapt: ("backend_monitor", "collector_monitor"),
            repro.adapt.loop: ("backend_monitor", "collector_monitor"),
            repro.obs: ("DecisionTraceLog",),
            repro.obs.tracing: ("DecisionTraceLog",),
            repro.tune: ("FlightLog", "register_tunables"),
            repro.tune.emit: ("FlightLog",),
            # One controller table: repro.control.CONTROLLER_KINDS.
            repro.tune.space: ("register_tunables", "_TUNABLES", "KIND_BY_CONTROLLER"),
            repro.adapt.spec: ("_CONTROLLER_KINDS", "_build_controller", "_log_actuator_factory"),
        }
        for module, names in gone.items():
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in getattr(module, "__all__", ())
        assert importlib.util.find_spec("repro.scheduler.policies") is None
        for cls in (ExternalScheduler, DVFSGovernor):
            assert issubclass(cls, ControlLoop)
            for name in ("observe_and_act", "loop", "spacer", "policy"):
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"
            for name in ("_last_change_beat", "_effective_window", "reset", "__repr__"):
                assert name not in vars(cls), f"{cls.__name__}.{name} is ControlLoop's"
        assert not hasattr(AdaptiveEncoder, "spacer")
        for fn in (ExternalScheduler.__init__, run_scheduled_workload):
            parameters = inspect.signature(fn).parameters
            assert "policy" not in parameters and "controller" in parameters, fn.__qualname__
        assert "relay_probe_interval" not in inspect.signature(AsyncHeartbeatCollector.__init__).parameters
        assert "probe_interval" not in inspect.signature(RelayForwarder.__init__).parameters
        assert "probe_interval" not in _params(TcpEndpoint)
        assert {"FlightRecorder", "iter_traces"} <= set(repro.obs.tracing.__all__)


class TestSessionLifecycle:
    def test_close_is_idempotent_and_lifo(self):
        order: list[str] = []
        session = TelemetrySession()
        hb = session.produce("mem://a")
        session.observe("mem://a")
        session._register("probe-first", lambda: order.append("first"))
        session._register("probe-second", lambda: order.append("second"))
        # Registration order is creation order; close runs it newest-first.
        assert [label for label, _ in session._resources][:2] == [
            "produce:mem://a",
            "observe:mem://a",
        ]
        session.close()
        session.close()
        assert order == ["second", "first"]
        assert hb.closed

    def test_closed_session_refuses_new_resources(self):
        session = TelemetrySession()
        session.close()
        with pytest.raises(EndpointError, match="closed"):
            session.produce("mem://x")

    def test_adapt_builds_engine_from_spec_attach(self, tmp_path):
        from repro.adapt.spec import AdaptSpec

        log = tmp_path / "svc.hblog"
        clock = SimulatedClock()
        producer = Heartbeat(window=5, backend=f"file://{log}?buffered=0", clock=clock)
        producer.set_target_rate(1e6, 2e6)  # unreachable: the loop must step
        _pump(producer, clock)
        spec = AdaptSpec.from_dict(
            {
                "engine": {"attach": [f"file://{log}"], "min_beats": 2},
                "loops": [{"match": "file:*", "target": "published", "actuator": "log"}],
            }
        )
        assert [str(ep) for ep in spec.attach] == [f"file://{log}"]
        with TelemetrySession() as session:
            engine = session.adapt(spec, clock=clock)
            tick = engine.tick()
            assert len(tick.sample) == 1
            assert "file:svc.hblog" in engine.loops
            assert tick.decisions == 1
        producer.finalize()


class TestLegacyEquivalence:
    """Each legacy wiring path and its URL form build identical pipelines."""

    def test_file_backend_constructor_vs_url(self, tmp_path):
        legacy_log, url_log = tmp_path / "legacy.hblog", tmp_path / "url.hblog"
        legacy = Heartbeat(
            window=5,
            backend=FileBackend(legacy_log, 123, buffered=False),
            clock=SimulatedClock(),
        )
        via_url = Heartbeat(
            window=5,
            backend=f"file://{url_log}?capacity=123&buffered=0",
            clock=SimulatedClock(),
        )
        assert type(via_url.backend) is type(legacy.backend)
        assert via_url.backend.capacity == legacy.backend.capacity == 123
        assert via_url.backend.buffered is legacy.backend.buffered is False
        for hb in (legacy, via_url):
            hb.set_target_rate(10.0, 20.0)
            clock = hb.clock
            for _ in range(10):
                clock.advance(0.25)
                hb.heartbeat(tag=7)
            hb.finalize()
        # Identical pipelines ⇒ byte-identical logs under identical clocks.
        assert legacy_log.read_bytes() == url_log.read_bytes()

    def test_shm_backend_constructor_vs_url(self):
        legacy = Heartbeat(
            window=5, backend=SharedMemoryBackend(name="repro-eq-legacy", capacity=77)
        )
        via_url = Heartbeat(window=5, backend="shm://repro-eq-url?depth=77")
        try:
            assert type(via_url.backend) is type(legacy.backend)
            assert via_url.backend.capacity == legacy.backend.capacity == 77
            assert via_url.backend.name == "repro-eq-url"
        finally:
            legacy.finalize()
            via_url.finalize()

    def test_monitor_attach_file_vs_endpoint(self, tmp_path):
        log = tmp_path / "svc.hblog"
        clock = SimulatedClock()
        producer = Heartbeat(window=5, backend=f"file://{log}?buffered=0", clock=clock)
        producer.set_target_rate(2.0, 100.0)
        _pump(producer, clock)
        via_object = HeartbeatMonitor(FileReader(log), clock=clock, own=True)
        via_url = HeartbeatMonitor.attach_endpoint(f"file://{log}", clock=clock)
        assert via_object.read() == via_url.read()
        producer.finalize()

    def test_aggregator_attach_shared_memory_vs_endpoint(self):
        clock = SimulatedClock()
        producer = Heartbeat(
            window=5, backend="shm://repro-eq-agg?depth=64", clock=clock
        )
        producer.set_target_rate(2.0, 100.0)
        _pump(producer, clock)
        object_agg = HeartbeatAggregator(clock=clock)
        object_agg.attach_stream("s", open_source("shm://repro-eq-agg"), own=True)
        url_agg = HeartbeatAggregator(clock=clock)
        assert url_agg.attach_endpoint("shm://repro-eq-agg", name="s") == "s"
        try:
            assert object_agg.poll().reading("s") == url_agg.poll().reading("s")
        finally:
            object_agg.close()
            url_agg.close()
            producer.finalize()

    def test_balancer_collector_url_binds_and_closes(self):
        from repro.cloud.balancer import HeartbeatLoadBalancer
        from repro.cloud.cluster import CloudCluster

        cluster = CloudCluster()
        cluster.add_node(100.0)
        balancer = HeartbeatLoadBalancer(
            cluster, collector="tcp://127.0.0.1:0", clock=WallClock(rebase=False)
        )
        try:
            url = balancer.collector_endpoint
            assert url is not None and url.startswith("tcp://127.0.0.1:")
            assert TcpEndpoint.parse(url).port > 0
        finally:
            balancer.close()
