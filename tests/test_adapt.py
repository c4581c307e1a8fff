"""Tests for the unified adaptation runtime (repro.adapt)."""

from __future__ import annotations

import json
import sys
import time
import warnings

import pytest

from repro.adapt import (
    AdaptationEngine,
    AdaptSpec,
    ControlLoop,
    CoreActuator,
    FrequencyActuator,
    FunctionActuator,
    LadderActuator,
    LogActuator,
    SpecError,
    actuator_cost,
)
from repro.clock import SimulatedClock
from repro.control import (
    ControlDecision,
    PIDController,
    StepController,
    TargetWindow,
)
from repro.core.aggregator import HeartbeatAggregator
from repro.core.backends.memory import MemoryBackend
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.scheduler import CoreAllocator, DVFSGovernor, ExternalScheduler
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.sim.scaling import LinearScaling

WINDOW = TargetWindow(8.0, 12.0)


class LinearWorkload:
    name = "linear"
    scaling = LinearScaling(1.0)

    def work_per_beat(self, beat_index: int) -> float:
        return 1.0

    def tag(self, beat_index: int) -> int:
        return beat_index


def clocked_heartbeat(window=4):
    """A fresh heartbeat on its own simulated clock."""
    clock = SimulatedClock()
    hb = Heartbeat(window=window, clock=clock)
    return clock, hb


# --------------------------------------------------------------------- #
# Actuators
# --------------------------------------------------------------------- #
class TestActuators:
    def test_core_actuator_applies_values_and_deltas(self):
        machine = SimulatedMachine(8)
        process = SimulatedProcess(LinearWorkload(), Heartbeat(window=5), machine, cores=2)
        allocator = CoreAllocator(machine, process, min_cores=1, max_cores=6)
        actuator = CoreActuator(allocator)
        assert actuator.bounds == (1.0, 6.0)
        assert actuator.current() == 2.0
        assert actuator.apply(ControlDecision(value=4.2), beat=7) == 5.0  # ceil
        assert actuator.apply(ControlDecision(delta=-1), beat=8) == 4.0
        assert actuator.apply(ControlDecision(delta=99), beat=9) == 6.0  # clamped
        assert actuator.apply(ControlDecision(), beat=10) == 6.0  # no opinion
        assert actuator_cost(actuator) == 6.0
        # The allocator history (the Figures 5-7 core trace) is maintained.
        assert [c.new_cores for c in allocator.history] == [5, 4, 6]

    def test_frequency_actuator_walks_the_ladder(self):
        machine = SimulatedMachine(2)
        actuator = FrequencyActuator(machine, (1.0, 0.5, 0.75))
        assert actuator.frequencies == (0.5, 0.75, 1.0)  # sorted
        assert actuator.current() == 1.0  # starts at nominal
        assert machine.cores[0].frequency == 1.0  # applied at construction
        assert actuator.apply(ControlDecision(delta=-1)) == 0.75
        assert machine.cores[0].frequency == 0.75
        assert actuator.apply(ControlDecision(delta=-5)) == 0.5  # clamped
        assert actuator.apply(ControlDecision(delta=1)) == 0.75
        assert actuator.apply(ControlDecision(value=0.9)) == 1.0  # closest rung
        assert actuator.bounds == (0.5, 1.0)
        with pytest.raises(ValueError):
            FrequencyActuator(machine, ())

    def test_ladder_actuator_fires_on_change_only_when_moving(self):
        seen = []
        actuator = LadderActuator(5, initial_level=1, on_change=seen.append)
        assert actuator.apply(ControlDecision(delta=1)) == 2.0
        assert actuator.apply(ControlDecision(delta=0)) == 2.0
        assert actuator.apply(ControlDecision(delta=-9)) == 0.0  # clamped
        assert actuator.apply(ControlDecision(delta=-1)) == 0.0  # already at top
        assert seen == [2, 0]
        assert actuator.bounds == (0.0, 4.0)
        cost = LadderActuator(3, cost_of=lambda level: 100.0 - level)
        assert actuator_cost(cost) == 100.0

    def test_function_actuator_binds_plain_attributes(self):
        state = {"speed": 5.0}

        def set_speed(value):
            state["speed"] = value
            return value

        actuator = FunctionActuator(lambda: state["speed"], set_speed, bounds=(0.0, 10.0), step=2.0)
        assert actuator.apply(ControlDecision(delta=1)) == 7.0
        assert actuator.apply(ControlDecision(delta=2)) == 10.0  # clamped
        assert actuator.apply(ControlDecision(value=3.5)) == 3.5
        assert actuator.apply(ControlDecision()) == 3.5
        with pytest.raises(ValueError):
            FunctionActuator(lambda: 0.0, set_speed, bounds=(5.0, 1.0))

    def test_log_actuator_records_applied_decisions(self):
        actuator = LogActuator(initial=2.0, bounds=(0.0, 4.0))
        actuator.apply(ControlDecision(delta=1), beat=3)
        actuator.apply(ControlDecision(delta=0), beat=4)
        actuator.apply(ControlDecision(value=99.0), beat=5)
        assert actuator.current() == 4.0
        assert actuator.applied == [(3, 2.0, 3.0), (5, 3.0, 4.0)]


# --------------------------------------------------------------------- #
# ControlLoop
# --------------------------------------------------------------------- #
class TestControlLoop:
    def test_binds_heartbeat_source_and_records_traces(self):
        clock, hb = clocked_heartbeat()
        actuator = LogActuator(initial=0.0)
        loop = ControlLoop(
            hb, StepController(WINDOW), actuator, name="svc", decision_interval=1, warmup=0
        )
        for i in range(10):
            clock.advance(0.25)  # 4 beats/s: below the window
            hb.heartbeat()
            loop.step(i)
        assert actuator.current() == 10.0  # stepped up once per beat
        assert len(loop.traces) == 10
        trace = loop.traces[-1]
        assert trace.loop == "svc" and trace.beat == 9
        assert trace.before == 9.0 and trace.after == 10.0 and trace.changed
        assert loop.target is WINDOW

    def test_decision_cadence_and_warmup(self):
        clock, hb = clocked_heartbeat()
        loop = ControlLoop(hb, StepController(WINDOW), LogActuator(), decision_interval=5)
        for i in range(20):
            clock.advance(0.1)
            hb.heartbeat()
            assert (loop.step(i) is not None) == (i in (5, 10, 15))

    def test_backend_monitor_source_reads_incrementally(self):
        clock = SimulatedClock()
        backend = MemoryBackend(64)
        backend.set_default_window(4)
        hb = Heartbeat(window=4, clock=clock, backend=backend)
        monitor = HeartbeatMonitor(backend, clock=clock, window=4)
        loop = ControlLoop(
            monitor, StepController(WINDOW), LogActuator(), decision_interval=1, warmup=0
        )
        for i in range(8):
            clock.advance(0.05)  # 20 beats/s: above the window
            hb.heartbeat()
            loop.step(i)
        # First step sees a single beat (rate 0 -> +1); the remaining seven
        # read the true 20 beat/s incrementally and step down each time.
        assert loop.actuator.current() == -6.0
        assert all(t.observed_rate > WINDOW.maximum for t in loop.traces[1:])

    def test_explicit_rate_feed_requires_no_source(self):
        loop = ControlLoop(None, StepController(WINDOW), LogActuator(), warmup=0)
        assert loop.step(rate=1.0).decision.delta == 1
        with pytest.raises(ValueError):
            ControlLoop(None, StepController(WINDOW), LogActuator(), warmup=0).step()

    def test_auto_beat_indexing(self):
        loop = ControlLoop(None, StepController(WINDOW), LogActuator(), warmup=0)
        first = loop.step(rate=1.0)
        second = loop.step(rate=1.0)
        assert (first.beat, second.beat) == (0, 1)

    def test_settle_after_change_restricts_the_window(self):
        loop = ControlLoop(
            None,
            StepController(WINDOW),
            LogActuator(),
            rate_window=10,
            settle_after_change=True,
            warmup=0,
        )
        assert loop._effective_window(20) == 10
        loop._last_change_beat = 18
        assert loop._effective_window(20) == 2
        assert loop._effective_window(40) == 10

    def test_trace_limit_bounds_memory(self):
        loop = ControlLoop(
            None, StepController(WINDOW), LogActuator(), warmup=0, trace_limit=4
        )
        for _ in range(10):
            loop.step(rate=1.0)
        assert len(loop.traces) == 4
        assert loop.traces[-1].beat == 9

    def test_reset_clears_loop_state(self):
        loop = ControlLoop(None, PIDController(WINDOW), LogActuator(), warmup=0)
        loop.step(rate=1.0)
        loop.reset()
        assert loop.traces == [] and loop.last_trace is None
        assert loop._last_change_beat is None
        assert loop.step(rate=1.0).beat == 0

    def test_threaded_drive_steps_on_a_time_cadence(self):
        rates = iter(range(1, 1000))
        loop = ControlLoop(
            lambda window=None: float(next(rates)),
            StepController(WINDOW),
            LogActuator(),
            warmup=0,
        )
        with loop:
            loop.start(interval=0.01)
            assert loop.running
            deadline = time.monotonic() + 5.0
            while not loop.traces and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not loop.running
        assert loop.traces, "the threaded drive never stepped"

    def test_threading_primitives_wait_for_start(self, monkeypatch):
        import repro.adapt.loop as loop_module

        events = []

        class CountedEvent(loop_module.threading.Event):
            def __init__(self):
                super().__init__()
                events.append(self)

        monkeypatch.setattr(loop_module.threading, "Event", CountedEvent)
        rates = iter(range(1, 10_000))
        loops = [
            ControlLoop(lambda window=None: float(next(rates)), StepController(WINDOW), LogActuator(), warmup=0)
            for _ in range(100)
        ]
        assert events == [] and loops[1]._stop is None
        loops[1].stop()  # before start(): a no-op
        assert events == [] and not loops[1].running
        loop, stops = loops[0], []
        for _ in range(2):  # start, stop, start
            loop.start(interval=0.005)
            assert loop.running and loop._stop in events
            stops.append(loop._stop)
            seen = loop.decisions
            deadline = time.monotonic() + 5.0
            while loop.decisions == seen and time.monotonic() < deadline:
                time.sleep(0.005)
            assert loop.decisions > seen, "the threaded drive never stepped"
            loop.stop()
            assert not loop.running
        assert stops[0] is not stops[1] and all(stop.is_set() for stop in stops)

    def test_nan_rate_is_a_noop_end_to_end(self):
        actuator = LogActuator(initial=5.0)
        loop = ControlLoop(None, StepController(WINDOW), actuator, warmup=0)
        trace = loop.step(rate=float("nan"))
        assert trace.decision.is_noop and not trace.changed
        assert actuator.current() == 5.0


# --------------------------------------------------------------------- #
# AdaptationEngine over local fleets
# --------------------------------------------------------------------- #
class SimStream:
    """An in-process producer whose rate follows a FunctionActuator knob."""

    def __init__(self, clock, speed, *, target=(8.0, 12.0), window=4):
        self.clock = clock
        self.speed = float(speed)
        self.heartbeat = Heartbeat(window=window, clock=clock)
        self.heartbeat.set_target_rate(*target)
        self.heartbeat.heartbeat()  # anchor batch interpolation
        self._carry = 0.0

    def produce(self, dt):
        exact = self.speed * dt + self._carry
        beats = int(exact)
        self._carry = exact - beats
        if beats:
            self.heartbeat.heartbeat_batch(beats)

    def actuator(self):
        def set_speed(value):
            self.speed = float(value)
            return self.speed

        return FunctionActuator(lambda: self.speed, set_speed, bounds=(1.0, 64.0))


def build_engine(clock, streams, **engine_kwargs):
    aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=2.5)

    def factory(name, reading):
        if name not in streams:
            return None
        target = TargetWindow(reading.target_min, reading.target_max)
        return ControlLoop(
            None,
            StepController(target),
            streams[name].actuator(),
            name=name,
            warmup=0,
        )

    engine = AdaptationEngine(aggregator, factory, **engine_kwargs)
    return aggregator, engine


class TestAdaptationEngine:
    def test_fleet_converges_into_published_windows(self):
        clock = SimulatedClock()
        streams = {
            f"svc-{i}": SimStream(clock, speed, target=(9.0, 15.0))
            for i, speed in enumerate([2, 5, 11, 20, 33])
        }
        aggregator, engine = build_engine(clock, streams)
        for name, stream in streams.items():
            aggregator.attach_stream(name, stream.heartbeat)
        with engine:
            for _ in range(25):
                clock.advance(1.0)
                for stream in streams.values():
                    stream.produce(1.0)
                engine.tick()
            assert engine.converged()
            assert engine.lagging() == []
            for stream in streams.values():
                assert 9.0 <= stream.speed <= 15.0

    def test_streams_attach_dynamically_and_unmatched_are_declined(self):
        clock = SimulatedClock()
        streams = {"svc-0": SimStream(clock, 2.0)}
        aggregator, engine = build_engine(clock, streams)
        aggregator.attach_stream("svc-0", streams["svc-0"].heartbeat)
        other = Heartbeat(window=4, clock=clock)
        other.set_target_rate(1.0, 2.0)
        aggregator.attach_stream("ignored", other)  # factory answers None
        with engine:
            tick = engine.tick()
            assert tick.attached == ("svc-0",)
            assert set(engine.loops) == {"svc-0"}
            # The refusal is remembered: the factory is not re-consulted.
            assert engine.tick().attached == ()
            # A stream joining later is offered and adopted on the next tick.
            streams["svc-1"] = SimStream(clock, 20.0)
            aggregator.attach_stream("svc-1", streams["svc-1"].heartbeat)
            assert engine.tick().attached == ("svc-1",)

    def test_goalless_streams_are_reoffered_until_they_publish(self):
        clock = SimulatedClock()
        hb = Heartbeat(window=4, clock=clock)
        hb.heartbeat()
        aggregator = HeartbeatAggregator(clock=clock)
        aggregator.attach_stream("svc-0", hb)
        offers = []

        def factory(name, reading):
            offers.append(reading.target_min)
            if reading.target_min <= 0:
                return None
            return ControlLoop(None, StepController(TargetWindow(1.0, 2.0)), LogActuator(), warmup=0)

        with AdaptationEngine(aggregator, factory) as engine:
            engine.tick()
            engine.tick()
            assert len(offers) == 2  # goalless: offered again
            hb.set_target_rate(5.0, 6.0)
            engine.tick()
            assert set(engine.loops) == {"svc-0"}

    def test_a_goalless_stream_does_not_resync_membership_every_tick(self):
        clock = SimulatedClock()
        aggregator = HeartbeatAggregator(clock=clock)
        heartbeats = {}
        for i in range(4):
            hb = heartbeats[f"svc-{i}"] = Heartbeat(window=4, clock=clock)
            if i:
                hb.set_target_rate(5.0, 6.0)
            aggregator.attach_stream(f"svc-{i}", hb)
        offered = []

        def factory(name, reading):
            offered.append(name)
            if reading.target_min <= 0:
                return None
            return ControlLoop(None, StepController(TargetWindow(5.0, 6.0)), LogActuator(), name=name, warmup=0)

        with AdaptationEngine(aggregator, factory) as engine:
            syncs = []
            sync = engine._sync_membership
            engine._sync_membership = lambda *args: syncs.append(1) or sync(*args)
            for _ in range(5):
                clock.advance(0.1)
                for hb in heartbeats.values():
                    hb.heartbeat()
                engine.tick()
            assert len(syncs) == 1  # the first tick; the goalless row is re-offered alone
            assert offered == ["svc-0", "svc-1", "svc-2", "svc-3"] + ["svc-0"] * 4
            heartbeats["svc-0"].set_target_rate(5.0, 6.0)
            tick = engine.tick()
            assert tick.attached == ("svc-0",) and len(syncs) == 1
            clock.advance(0.1)
            heartbeats["svc-0"].heartbeat()
            assert [trace.loop for trace in engine.tick().traces] == ["svc-0"]

    def test_vanished_streams_lose_their_loops(self):
        clock = SimulatedClock()
        streams = {"svc-0": SimStream(clock, 5.0)}
        aggregator, engine = build_engine(clock, streams)
        aggregator.attach_stream("svc-0", streams["svc-0"].heartbeat)
        with engine:
            engine.tick()
            assert "svc-0" in engine.loops
            aggregator.detach("svc-0")
            tick = engine.tick()
            assert tick.detached == ("svc-0",)
            assert engine.loops == {}

    def test_stalled_streams_are_not_steered(self):
        clock = SimulatedClock()
        streams = {"svc-0": SimStream(clock, 2.0)}
        aggregator, engine = build_engine(clock, streams)
        aggregator.attach_stream("svc-0", streams["svc-0"].heartbeat)
        with engine:
            for _ in range(3):
                clock.advance(1.0)
                streams["svc-0"].produce(1.0)
                engine.tick()
            stepped = len(engine.loops["svc-0"].traces)
            assert stepped > 0
            clock.advance(10.0)  # the producer goes silent past the timeout
            tick = engine.tick()
            assert tick.sample.reading("svc-0").status.value == "stalled"
            assert len(engine.loops["svc-0"].traces) == stepped

    def test_threaded_drive(self):
        clock = SimulatedClock()
        streams = {"svc-0": SimStream(clock, 2.0)}
        aggregator, engine = build_engine(clock, streams)
        aggregator.attach_stream("svc-0", streams["svc-0"].heartbeat)
        with engine:
            engine.start(interval=0.01)
            with pytest.raises(RuntimeError):
                engine.start(interval=0.01)
            deadline = time.monotonic() + 5.0
            while engine.ticks == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            engine.stop()
            assert engine.ticks > 0

    def test_run_with_between_hook(self):
        clock = SimulatedClock()
        streams = {"svc-0": SimStream(clock, 2.0)}
        aggregator, engine = build_engine(clock, streams)
        aggregator.attach_stream("svc-0", streams["svc-0"].heartbeat)

        def between(tick):
            clock.advance(1.0)
            streams["svc-0"].produce(1.0)

        with engine:
            ticks = engine.run(5, between=between)
        assert [t.index for t in ticks] == [0, 1, 2, 3, 4]


# --------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------- #
class TestAdaptSpec:
    def test_from_dict_builds_loops(self):
        spec = AdaptSpec.from_dict(
            {
                "engine": {"liveness_timeout": 3.0, "interval": 0.5},
                "loops": [
                    {"match": "svc-*", "target": [8, 12], "controller": "step"},
                    {
                        "match": "enc-*",
                        "controller": {"kind": "ladder", "levels": 4},
                        "target": "published",
                    },
                ],
            }
        )
        assert spec.liveness_timeout == 3.0 and spec.interval == 0.5
        assert spec.rule_for("svc-7").match == "svc-*"
        assert spec.rule_for("enc-1").controller == "ladder"
        assert spec.rule_for("db-1") is None

    def test_first_matching_rule_wins(self):
        spec = AdaptSpec.from_dict(
            {
                "loops": [
                    {"match": "svc-special", "controller": "pid", "target": [1, 2]},
                    {"match": "svc-*", "controller": "step", "target": [1, 2]},
                ]
            }
        )
        assert spec.rule_for("svc-special").controller == "pid"
        assert spec.rule_for("svc-other").controller == "step"

    def test_json_and_file_round_trip(self, tmp_path):
        data = {"loops": [{"match": "*", "target": [1, 2]}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        spec = AdaptSpec.from_file(path)
        assert spec.rule_for("anything") is not None
        assert AdaptSpec.parse("  " + json.dumps(data)) == spec  # sniffed as JSON
        with pytest.raises(SpecError):
            AdaptSpec.parse("{not json")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs 3.11+")
    def test_toml_parsing(self):
        spec = AdaptSpec.parse(
            """
            [engine]
            liveness_timeout = 5.0

            [[loops]]
            match = "vm-*"
            target = "published"
            controller = { kind = "proportional", gain = 2.0 }
            actuator = "log"
            """
        )
        rule = spec.rule_for("vm-3")
        assert rule.controller == "proportional"
        assert rule.controller_options["gain"] == 2.0
        with pytest.raises(SpecError):
            AdaptSpec.parse("not [valid toml")

    @pytest.mark.parametrize(
        "bad",
        [
            {},  # no loops
            {"loops": []},
            {"loops": [{"controller": "step"}]},  # no match
            {"loops": [{"match": "x", "controller": "warp"}]},  # unknown kind
            {"loops": [{"match": "x", "controller": "ladder"}]},  # ladder needs levels
            {"loops": [{"match": "x", "target": "sometimes"}]},
            {"loops": [{"match": "x", "unknown_key": 1}]},
            {"loops": [{"match": "x"}], "mystery": {}},
            {"engine": {"warp": 9}, "loops": [{"match": "x"}]},
            {"loops": [{"match": "x", "decision_interval": 0}]},
            pytest.param({"loops": "x"}, id="loops-not-array"),
            pytest.param({"engine": 3, "loops": [{"match": "x"}]}, id="engine-not-table"),
            pytest.param({"loops": [{"match": "x", "target": None}]}, id="target-null"),
            pytest.param({"loops": [{"match": "x", "target": [5.0, 1.0]}]}, id="target-inverted"),
            pytest.param({"loops": [{"match": "x", "target": [float("nan"), 1.0]}]}, id="target-nan"),
            pytest.param({"loops": [{"match": "x", "controller": 7}]}, id="controller-not-kind"),
            pytest.param(
                {"loops": [{"match": "x", "controller": {"kind": "proportional", "gian": 8.0}}]},
                id="controller-misspelt-option",
            ),
            pytest.param(
                {"loops": [{"match": "x", "controller": {"kind": "pid", "kp": "fast"}}]},
                id="controller-option-not-a-number",
            ),
            pytest.param(
                {"loops": [{"match": "x", "controller": {"kind": "step", "step": 0}}]},
                id="controller-option-out-of-range",
            ),
            pytest.param(
                {"loops": [{"match": "x", "controller": {"kind": "step", "step": float("inf")}}]},
                id="controller-option-infinite",
            ),
        ],
        ids=lambda d: str(sorted(d))[:40],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(SpecError) as info:
            spec = AdaptSpec.from_dict(bad)
            spec.loop_factory()  # some errors surface at build time
        assert type(info.value) is SpecError

    def test_unknown_actuator_name_raises_at_build(self):
        spec = AdaptSpec.from_dict({"loops": [{"match": "*", "actuator": "warp-core"}]})
        with pytest.raises(SpecError):
            spec.loop_factory()

    def test_published_target_defers_until_goal_appears(self):
        spec = AdaptSpec.from_dict({"loops": [{"match": "*"}]})
        factory = spec.loop_factory()
        clock = SimulatedClock()
        hb = Heartbeat(window=4, clock=clock)
        hb.heartbeat()
        aggregator = HeartbeatAggregator(clock=clock)
        aggregator.attach_stream("svc", hb)
        sample = aggregator.poll()
        assert factory("svc", sample.reading("svc")) is None
        hb.set_target_rate(30.0, 120.0)
        loop = factory("svc", aggregator.poll().reading("svc"))
        assert loop is not None
        assert loop.target.minimum == 30.0 and loop.target.maximum == 120.0
        aggregator.close()

    def test_build_engine_end_to_end_with_custom_actuator(self):
        clock = SimulatedClock()
        stream = SimStream(clock, 2.0, target=(9.0, 15.0))
        spec = AdaptSpec.from_dict(
            {"loops": [{"match": "svc-*", "target": "published", "actuator": "knob"}]}
        )
        aggregator = HeartbeatAggregator(clock=clock)
        aggregator.attach_stream("svc-0", stream.heartbeat)
        engine = spec.build_engine(
            aggregator=aggregator,
            actuators={"knob": lambda name, reading, options: stream.actuator()},
        )
        with engine:
            for _ in range(12):
                clock.advance(1.0)
                stream.produce(1.0)
                engine.tick()
            assert engine.converged()
            assert 9.0 <= stream.speed <= 15.0
        aggregator.close()


# --------------------------------------------------------------------- #
# Deprecation-shimmed facades
# --------------------------------------------------------------------- #
class TestDeprecatedFacades:
    def build_scheduler(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(8)
        heartbeat = Heartbeat(window=5, clock=clock, history=4096)
        heartbeat.set_target_rate(2.5, 3.5)
        process = SimulatedProcess(LinearWorkload(), heartbeat, machine, cores=1)
        monitor = HeartbeatMonitor.attach(heartbeat, window=5)
        allocator = CoreAllocator(machine, process, max_cores=8)
        return clock, heartbeat, process, monitor, allocator

    def test_external_scheduler_warns_and_keeps_legacy_behavior(self):
        clock, heartbeat, process, monitor, allocator = self.build_scheduler()
        scheduler = ExternalScheduler(
            monitor, allocator, decision_interval=3, rate_window=5
        )
        engine = ExecutionEngine(clock)
        scheduler.attach(engine)
        engine.run(process, 60, rate_window=5)
        # The linear workload converges onto 3 cores ...
        assert process.allocated_cores == 3
        assert scheduler.decisions > 0 and scheduler.last_trace.after == 3.0
        assert isinstance(scheduler.last_trace.observed_rate, float)
        # ... and the scheduler is a ControlLoop, its decisions the loop's traces.
        assert isinstance(scheduler, ControlLoop)
        assert len(scheduler.traces) == scheduler.decisions

    def test_dvfs_governor_warns_and_routes_through_the_loop(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(4)
        heartbeat = Heartbeat(window=5, clock=clock, history=4096)
        heartbeat.set_target_rate(2.0, 2.5)
        process = SimulatedProcess(LinearWorkload(), heartbeat, machine, cores=4)
        monitor = HeartbeatMonitor.attach(heartbeat, window=5)
        governor = DVFSGovernor(
            monitor, machine, frequencies=(0.25, 0.5, 0.75, 1.0),
            decision_interval=3, rate_window=5,
        )
        engine = ExecutionEngine(clock)
        governor.attach(engine, process)
        engine.run(process, 80, rate_window=5)
        assert governor.current_frequency < 1.0
        assert machine.cores[0].frequency == governor.current_frequency
        assert isinstance(governor, ControlLoop)
        assert len(governor.traces) == governor.decisions > 0

    def test_blessed_experiment_runner_does_not_warn(self):
        from repro.experiments.scheduler_runner import SchedulerRunConfig, run_scheduled_workload

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_scheduled_workload(
                LinearWorkload(),
                SchedulerRunConfig(target_min=2.5, target_max=3.5, beats=20, cores=4),
            )
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_adaptive_encoder_routes_through_the_loop(self):
        from repro.encoder.adaptive import AdaptiveEncoder
        from repro.encoder.frames import SyntheticVideoSource

        clock = SimulatedClock()
        heartbeat = Heartbeat(window=10, clock=clock, history=4096)
        encoder = AdaptiveEncoder(
            SyntheticVideoSource(16, 16, seed=3),
            heartbeat,
            target_min=30.0,
            check_interval=10,
            work_rate=500.0,
        )
        encoder.encode(40)
        assert isinstance(encoder.loop, ControlLoop)
        assert encoder.loop.actuator.current() == float(encoder.level)

    def test_balancer_slow_vm_control_runs_on_loops(self):
        from repro.cloud import CloudCluster, HeartbeatLoadBalancer

        cluster = CloudCluster()
        busy = cluster.add_node(capacity=10.0)
        spare = cluster.add_node(capacity=100.0)
        vm = cluster.add_vm(work_per_beat=1.0, target_min=20.0, target_max=30.0, node=busy)
        balancer = HeartbeatLoadBalancer(cluster, liveness_timeout=100.0)
        for _ in range(5):
            cluster.step(1.0)  # 10 beats/s on the small node: too slow
        actions = balancer.manage()
        migrations = [a for a in actions if a.kind == "migrate"]
        assert migrations and migrations[0].to_node == spare.node_id
        assert vm.node_id == spare.node_id
        # The decision came from a per-VM ControlLoop over the new runtime.
        assert set(balancer._slow_loops) == {vm.vm_id}
        trace = balancer._slow_loops[vm.vm_id].last_trace
        assert trace is not None and trace.changed
        assert int(trace.before) == busy.node_id and int(trace.after) == spare.node_id
        balancer.close()


# --------------------------------------------------------------------- #
# Fault isolation and state hygiene (review hardening)
# --------------------------------------------------------------------- #
class TestFaultIsolation:
    def test_inverted_published_window_declines_instead_of_crashing(self):
        from repro.core.monitor import HealthStatus, MonitorReading

        rule = AdaptSpec.from_dict({"loops": [{"match": "*"}]}).loops[0]
        bad = MonitorReading(
            rate=5.0, total_beats=10, target_min=10.0, target_max=5.0,
            last_timestamp=1.0, age=0.0, status=HealthStatus.HEALTHY,
        )
        assert rule.resolve_target(bad) is None

    @pytest.mark.parametrize("window", [(float("nan"), 5.0), (5.0, float("nan")), (float("nan"), float("nan"))])
    def test_nan_published_window_declines_instead_of_never_firing(self, window):
        from repro.core.monitor import HealthStatus, MonitorReading

        rule = AdaptSpec.from_dict({"loops": [{"match": "*"}]}).loops[0]
        bad = MonitorReading(
            rate=5.0, total_beats=10, target_min=window[0], target_max=window[1],
            last_timestamp=1.0, age=0.0, status=HealthStatus.HEALTHY,
        )
        assert rule.resolve_target(bad) is None

    def test_factory_exception_is_isolated_per_stream(self):
        clock = SimulatedClock()
        good = SimStream(clock, 2.0, target=(9.0, 15.0))
        bad = SimStream(clock, 2.0, target=(9.0, 15.0))
        aggregator = HeartbeatAggregator(clock=clock)
        aggregator.attach_stream("good", good.heartbeat)
        aggregator.attach_stream("bad", bad.heartbeat)

        def factory(name, reading):
            if name == "bad":
                raise ValueError("poisoned goal")
            target = TargetWindow(reading.target_min, reading.target_max)
            return ControlLoop(None, StepController(target), good.actuator(), name=name, warmup=0)

        with AdaptationEngine(aggregator, factory) as engine:
            clock.advance(1.0)
            good.produce(1.0)
            bad.produce(1.0)
            tick = engine.tick()
            # The healthy stream is managed; the poisoned one is reported
            # and refused, not allowed to take the fleet down.
            assert set(engine.loops) == {"good"}
            assert "bad" in tick.errors and "poisoned goal" in tick.errors["bad"]
            assert engine.tick().errors == {}  # refused once, not retried

    def test_step_exception_is_isolated_per_stream(self):
        clock = SimulatedClock()
        streams = {"svc-0": SimStream(clock, 2.0), "svc-1": SimStream(clock, 2.0)}
        aggregator, engine = build_engine(clock, streams)
        for name, stream in streams.items():
            aggregator.attach_stream(name, stream.heartbeat)
        with engine:
            clock.advance(1.0)
            for stream in streams.values():
                stream.produce(1.0)
            engine.tick()

            def explode(decision, *, beat=-1):
                raise RuntimeError("actuator wedged")

            engine.loops["svc-0"].actuator.apply = explode
            clock.advance(1.0)
            for stream in streams.values():
                stream.produce(1.0)
            tick = engine.tick()
            assert "svc-0" in tick.errors and "actuator wedged" in tick.errors["svc-0"]
            # The sibling loop still stepped this tick.
            assert any(t.loop == "svc-1" for t in tick.traces)

    def test_engine_drive_records_error_and_stops_running(self):
        clock = SimulatedClock()
        aggregator = HeartbeatAggregator(clock=clock)
        engine = AdaptationEngine(aggregator, lambda name, reading: None)

        def systemic_fault():
            raise RuntimeError("observation plane down")

        aggregator.poll = systemic_fault  # type: ignore[method-assign]
        engine.start(interval=0.01)
        deadline = time.monotonic() + 5.0
        while engine.running and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not engine.running
        assert engine.last_error is not None
        engine.stop()  # no-op, does not hang

    def test_loop_drive_records_error_and_stops_running(self):
        def bad_source(window=None):
            raise RuntimeError("source gone")

        loop = ControlLoop(bad_source, StepController(WINDOW), LogActuator(), warmup=0)
        loop.start(interval=0.01)
        deadline = time.monotonic() + 5.0
        while loop.running and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not loop.running
        assert isinstance(loop.last_error, RuntimeError)

    def test_reset_realigns_ladder_actuator_with_controller(self):
        from repro.control import LadderController

        moves = []
        actuator = LadderActuator(6, initial_level=1, on_change=moves.append)
        controller = LadderController(TargetWindow(30.0, 40.0), levels=6, initial_level=1)
        loop = ControlLoop(None, controller, actuator, warmup=0)
        loop.step(rate=5.0)  # below: both sides move 1 -> 2
        loop.step(rate=5.0)  # -> 3
        assert controller.level == 3 and actuator.level == 3
        loop.reset()
        # Controller back at its initial level AND the actuator realigned,
        # so the pair keeps walking the same rungs after a reset.
        assert controller.level == 1 and actuator.level == 1
        assert moves[-1] == 1
        trace = loop.step(rate=5.0)
        assert controller.level == actuator.level == 2
        assert trace.before == 1.0 and trace.after == 2.0
