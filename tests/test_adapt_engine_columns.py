"""The engine ticks on columns: equivalence with the per-stream walk, and gating.

``ReferenceWalk`` is the per-stream tick the engine used before it read
:class:`FleetSample` columns, kept here as the oracle.  It steps every managed
loop on every tick, so the two agree trace for trace exactly when every
stream produced a beat since the previous tick; what the engine does
otherwise (nothing, for a stream with no news) is pinned by the gating tests.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.aggregator as aggregator_module
from repro.adapt import AdaptationEngine, AdaptSpec, ControlLoop, LogActuator
from repro.clock import SimulatedClock
from repro.control import LadderController, PIDController, StepController, TargetWindow
from repro.core.aggregator import FleetSample, HeartbeatAggregator
from repro.core.backends.arena import Arena
from repro.core.backends.memory import MemoryBackend
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus
from repro.net import HeartbeatCollector, NetworkBackend

WINDOW = TargetWindow(8.0, 12.0)


class ReferenceWalk:
    """The parent commit's ``_tick_locked``: one Python walk over every stream."""

    def __init__(self, factory, *, min_beats=2, step_stalled=False):
        self.factory, self.min_beats, self.step_stalled = factory, min_beats, step_stalled
        self.loops, self.declined, self.ticks = {}, set(), 0

    def tick(self, sample):
        index, self.ticks = self.ticks, self.ticks + 1
        present = set(sample.names) | set(sample.errors)
        detached = tuple(name for name in self.loops if name not in present)
        for name in detached:
            del self.loops[name]
        self.declined &= present
        attached, errors, traces = [], {}, []
        readings = dict(zip(sample.names, sample.readings))
        for name, reading in readings.items():
            if name in self.loops or name in self.declined:
                continue
            try:
                loop = self.factory(name, reading)
            except Exception as exc:
                errors[name] = f"loop factory failed: {exc}"
                self.declined.add(name)
                continue
            if loop is None:
                if reading.target_min > 0.0 or reading.target_max > 0.0:
                    self.declined.add(name)
                continue
            self.loops[name] = loop
            attached.append(name)
        for name, loop in self.loops.items():
            reading = readings.get(name)
            if reading is None or reading.total_beats < self.min_beats:
                continue
            if reading.status is HealthStatus.STALLED and not self.step_stalled:
                continue
            try:
                trace = loop.step(index, rate=reading.rate)
            except Exception as exc:
                errors[name] = f"step failed: {exc}"
                continue
            if trace is not None:
                traces.append(trace)
        return tuple(attached), detached, traces, errors


def assert_tick_equals_reference(tick, reference, *, ordered=True):
    attached, detached, traces, errors = reference.tick(tick.sample)
    mine = list(tick.traces)
    if not ordered:  # the engine decides in sample order, the walk in attach order
        mine.sort(key=lambda trace: trace.loop)
        traces.sort(key=lambda trace: trace.loop)
    assert (tick.attached, tick.detached, mine, dict(tick.errors)) == (
        attached, detached, traces, errors,
    )


# --------------------------------------------------------------------- #
# (a) engine == reference on real fleets where every stream beats
# --------------------------------------------------------------------- #
CONTROLLERS = {
    "step": {"kind": "step"},
    "proportional": {"kind": "proportional", "gain": 2.0, "max_step": 3},
    "pid": {"kind": "pid", "kp": 0.5, "ki": 0.3, "kd": 0.1},
    "ladder": {"kind": "ladder", "levels": 5, "initial_level": 2},
}
STREAMS = [f"svc-{i}" for i in range(5)] + ["poisoned"]


class Fleet:
    """Six producers on one simulated clock behind a real aggregator."""

    def __init__(self, kind):
        self.clock = SimulatedClock()
        self.aggregator = HeartbeatAggregator(clock=self.clock, liveness_timeout=None)
        self.collector = self.arena = None
        self.sent = 0
        if kind == "collector":
            self.collector = HeartbeatCollector()
            self.aggregator.attach_collector(self.collector)
        elif kind == "arena":
            self.arena = Arena(streams=8, depth=64)
            self.aggregator.attach_arena(self.arena)
        self.heartbeats = [self._producer(kind, name) for name in STREAMS]
        self.beat(np.ones(len(STREAMS), dtype=int))  # anchor batch interpolation

    def _producer(self, kind, name):
        if kind == "collector":
            backend = NetworkBackend(
                self.collector.endpoint, stream=name, capacity=128, flush_interval=0.01
            )
        elif kind == "arena":
            backend = self.arena.allocate(name)
        else:
            backend = MemoryBackend(64)
            self.aggregator.attach_stream(name, backend)
        return Heartbeat(window=4, clock=self.clock, backend=backend)

    def beat(self, counts):
        self.clock.advance(1.0)
        for heartbeat, count in zip(self.heartbeats, counts):
            heartbeat.heartbeat_batch(int(count))
        self.sent += int(sum(counts))
        if self.collector is not None:
            deadline = time.monotonic() + 30.0
            while self.collector.stats()["records"] < self.sent:
                assert time.monotonic() < deadline, "collector never landed the beats"
                time.sleep(0.005)

    def close(self):
        for heartbeat in self.heartbeats:
            heartbeat.finalize()
        self.aggregator.close()
        if self.collector is not None:
            self.collector.close()
        if self.arena is not None:
            self.arena.close()


def spec_factory(controller, decision_interval):
    build = AdaptSpec.from_dict(
        {
            "loops": [
                {
                    "match": "*",
                    "target": [8.0, 12.0],
                    "controller": controller,
                    "decision_interval": decision_interval,
                }
            ]
        }
    ).loop_factory()

    def factory(name, reading):
        if name == "poisoned":
            raise RuntimeError("no loop for you")
        return build(name, reading)

    return factory


@pytest.mark.parametrize("kind", ["memory", "arena", "collector"])
@pytest.mark.parametrize("decision_interval", [1, 3])
@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
def test_engine_equals_reference_when_every_stream_beats(controller, decision_interval, kind):
    fleet = Fleet(kind)
    rng = np.random.default_rng(7)
    engine = AdaptationEngine(
        fleet.aggregator, spec_factory(CONTROLLERS[controller], decision_interval)
    )
    reference = ReferenceWalk(spec_factory(CONTROLLERS[controller], decision_interval))
    try:
        decisions = 0
        for _ in range(10):
            fleet.beat(rng.integers(1, 30, size=len(STREAMS)))
            tick = engine.tick()
            assert_tick_equals_reference(tick, reference)
            decisions += tick.decisions
        assert decisions >= 5 * (10 // decision_interval - 1)
        assert set(engine.loops) == set(reference.loops) == set(STREAMS) - {"poisoned"}
    finally:
        engine.close()
        fleet.close()


# --------------------------------------------------------------------- #
# Scripted samples: the engine needs nothing of an aggregator but poll()
# --------------------------------------------------------------------- #
_CODES = {status: code for code, status in enumerate(aggregator_module._STATUS_BY_CODE)}


def _row(total, rate, status=HealthStatus.HEALTHY, goal=(8.0, 12.0)):
    return total, rate, status, goal


def sample_of(rows, errors=None, *, taken_at=0.0):
    """A :class:`FleetSample` from ``{name: (total, rate[, status[, (tmin, tmax)]])}``."""
    full = [_row(*row) for row in rows.values()]
    last_ts = np.asarray([np.nan if row[0] == 0 else taken_at for row in full], dtype=np.float64)
    return FleetSample(
        tuple(rows),
        dict(errors or {}),
        taken_at,
        rate=np.asarray([row[1] for row in full], dtype=np.float64),
        total=np.asarray([row[0] for row in full], dtype=np.int64),
        target_min=np.asarray([row[3][0] for row in full], dtype=np.float64),
        target_max=np.asarray([row[3][1] for row in full], dtype=np.float64),
        last_ts=last_ts,
        age=taken_at - last_ts,
        codes=np.asarray([_CODES[row[2]] for row in full], dtype=np.int8),
    )


class Scripted:
    """Stands in for the aggregator: ``poll()`` returns the sample set last."""

    def __init__(self):
        self.sample = sample_of({})

    def poll(self):
        return self.sample

    def close(self):
        pass


def scripted_engine(factory, **kwargs):
    scripted = Scripted()
    engine = AdaptationEngine(scripted, factory, **kwargs)

    def tick(rows, errors=None):
        scripted.sample = sample_of(rows, errors)
        return engine.tick()

    return engine, tick


def loop_with(controller):
    return lambda name, reading: ControlLoop(
        None, controller(), LogActuator(initial=4.0), name=name, warmup=0
    )


# --------------------------------------------------------------------- #
# (b) gating
# --------------------------------------------------------------------- #
class TestGating:
    def test_no_new_beats_no_step_and_controller_state_untouched(self):
        controllers = {
            "pid": PIDController(WINDOW, ki=0.5),
            "ladder": LadderController(WINDOW, levels=5, initial_level=2),
            "busy": StepController(WINDOW),
        }
        engine, tick = scripted_engine(
            lambda name, reading: ControlLoop(
                None, controllers[name], LogActuator(initial=4.0), name=name,
                warmup=0, decision_interval=2,
            )
        )
        first = tick({"pid": (10, 2.0), "ladder": (10, 2.0), "busy": (10, 2.0)})
        assert [trace.loop for trace in first.traces] == ["pid", "ladder", "busy"]
        pid, ladder = engine.loops["pid"], engine.loops["ladder"]

        def state():
            return (
                controllers["pid"]._integral, controllers["pid"]._previous_error,
                controllers["ladder"].level, pid.spacer._last_decision_beat,
                ladder.spacer._last_decision_beat, pid.actuator.current(), ladder.actuator.current(),
            )

        after_first = state()
        for total in (14, 18, 22, 26):  # only "busy" keeps beating
            later = tick({"pid": (10, 2.0), "ladder": (10, 2.0), "busy": (total, 2.0)})
            assert {trace.loop for trace in later.traces} <= {"busy"}
        assert state() == after_first
        assert (pid.decisions, ladder.decisions, engine.loops["busy"].decisions) == (1, 1, 3)
        # News again: the stream is stepped on that very tick.
        assert [t.loop for t in tick({"pid": (11, 2.0), "ladder": (10, 2.0), "busy": (26, 2.0)}).traces] == ["pid"]

    def test_first_sight_and_a_dropping_total_count_as_news(self):
        engine, tick = scripted_engine(loop_with(lambda: StepController(WINDOW)))
        assert tick({"a": (50, 2.0)}).decisions == 1  # first sight
        assert tick({"a": (50, 2.0)}).decisions == 0
        assert tick({"a": (3, 2.0)}).decisions == 1  # the producer restarted
        assert tick({"a": (3, 2.0)}).decisions == 0
        assert tick({"a": (3, 2.0), "b": (9, 2.0)}).attached == ("b",)
        assert engine.loops["b"].decisions == 1 and engine.loops["a"].decisions == 2

    def test_min_beats_and_stalled_still_gate(self):
        engine, tick = scripted_engine(loop_with(lambda: StepController(WINDOW)), min_beats=5)
        assert tick({"a": (3, 2.0)}).decisions == 0  # news, but too few beats
        assert tick({"a": (4, 2.0)}).decisions == 0
        assert tick({"a": (5, 2.0)}).decisions == 1
        assert tick({"a": (6, 2.0, HealthStatus.STALLED)}).decisions == 0  # news, but stalled
        assert tick({"a": (6, 2.0, HealthStatus.STALLED)}).decisions == 0
        assert engine.loops["a"].decisions == 1

    def test_step_stalled_steps_a_silent_stalled_stream_every_tick(self):
        engine, tick = scripted_engine(
            loop_with(lambda: StepController(WINDOW)), step_stalled=True, min_beats=5
        )
        rows = {
            "dead": (9, 2.0, HealthStatus.STALLED),
            "idle": (9, 2.0),
            "cold": (1, 2.0, HealthStatus.STALLED),  # stalled, but under min_beats
        }
        assert [trace.loop for trace in tick(rows).traces] == ["dead", "idle"]
        for _ in range(3):
            assert [trace.loop for trace in tick(rows).traces] == ["dead"]
        assert engine.loops["dead"].decisions == 4
        # A stalled row stepped without news is stepped, not skipped.
        flat = engine.metrics.as_dict()
        assert flat["engine_rows_stepped_total"] == 2 + 3
        assert flat["engine_rows_skipped_no_news_total"] == 3 * 2  # idle and cold


def test_row_counters_follow_the_news_mask():
    clock = SimulatedClock()
    arena = Arena(streams=16, depth=32)
    aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=None)
    aggregator.attach_arena(arena)
    managed = [
        Heartbeat(window=4, clock=clock, backend=arena.allocate(f"row-{i}")) for i in range(10)
    ]
    unmanaged = Heartbeat(window=4, clock=clock, backend=arena.allocate("free"))
    spec = AdaptSpec.from_dict({"loops": [{"match": "row-*", "target": [8.0, 12.0]}]})
    engine = spec.build_engine(aggregator=aggregator)

    def counters():
        flat = engine.metrics.as_dict()
        return (
            flat["engine_rows_stepped_total"],
            flat["engine_rows_skipped_no_news_total"],
            flat["engine_tick_duration_seconds_count"],
        )

    try:
        for index, beating in enumerate((10, 10, 3, 0, 7)):  # the first tick sees every row beat
            clock.advance(1.0)
            for heartbeat in managed[:beating]:
                heartbeat.heartbeat_batch(5)
            if index % 2 == 0:  # the unmanaged row's news, or its silence, counts for neither
                unmanaged.heartbeat_batch(5)
            before = counters()
            tick = engine.tick()
            stepped, skipped, ticks = (b - a for a, b in zip(before, counters()))
            assert tick.decisions == beating == stepped
            assert (skipped, ticks) == (len(managed) - beating, 1)
        assert len(engine.loops) == len(managed)
    finally:
        engine.close(close_aggregator=True)
        arena.close()


# --------------------------------------------------------------------- #
# (c) membership churn keeps columns and loops aligned
# --------------------------------------------------------------------- #
def goal_factory(name, reading):
    """Refuses ``ignored-*``; manages a stream once it has published a goal."""
    if name.startswith("ignored") or reading.target_min <= 0.0:
        return None
    target = TargetWindow(reading.target_min, reading.target_max)
    return ControlLoop(
        None, PIDController(target, ki=0.4), LogActuator(initial=4.0), name=name, warmup=0
    )


def test_membership_churn_matches_reference():
    engine, tick = scripted_engine(goal_factory)
    reference = ReferenceWalk(goal_factory)
    beats = iter(range(10, 10_000, 3))  # every present stream beats between ticks

    def row(rate, *extra):
        return (next(beats), rate, *extra)

    no_goal = (HealthStatus.HEALTHY, (0.0, 0.0))
    script = [
        ({"a": row(2.0), "b": row(20.0), "late": row(9.0, *no_goal)}, None),
        ({"a": row(3.0), "b": row(18.0), "late": row(9.0, *no_goal), "c": row(5.0)}, None),  # attach
        ({"c": row(6.0), "late": row(9.0, *no_goal), "b": row(15.0), "a": row(4.0)}, None),  # reorder
        ({"c": row(7.0), "late": row(9.0), "a": row(5.0)}, {"b": "segment vanished"}),  # b errors
        ({"c": row(8.0), "late": row(30.0), "b": row(14.0), "a": row(6.0)}, None),  # b is back
        ({"late": row(25.0), "b": row(13.0), "ignored-1": row(1.0)}, None),  # a, c detach
        ({"b": row(12.5), "late": row(20.0), "ignored-1": row(1.0), "a": row(2.0)}, None),  # a again
    ]
    for rows, errors in script:
        result = tick(rows, errors)
        assert_tick_equals_reference(result, reference, ordered=False)
        assert engine._names == tuple(rows)
        assert engine._aligned == [engine.loops.get(name) for name in rows]
        assert engine._prev_total.tolist() == [rows[name][0] for name in rows]
    assert set(engine.loops) == set(reference.loops) == {"a", "b", "late"}
    assert engine.loops["b"].decisions == len(script) - 1  # kept across the errored poll


def test_decline_is_kept_across_an_errored_poll():
    offers = []

    def factory(name, reading):
        offers.append(name)
        if name == "broken":
            raise RuntimeError("poisoned goal")
        return None  # goal published and refused: a definitive decline

    engine, tick = scripted_engine(factory)
    assert tick({"refused": (5, 2.0), "broken": (5, 2.0)}).errors == {
        "broken": "loop factory failed: poisoned goal"
    }
    unreadable = {"refused": "segment vanished", "broken": "segment vanished"}
    assert tick({}, unreadable).errors == {}
    back = tick({"refused": (6, 2.0), "broken": (6, 2.0)})
    assert back.errors == {} and offers == ["refused", "broken"]
    # Gone from names *and* errors: forgotten, so a namesake is a new stream.
    tick({})
    tick({"refused": (1, 2.0)})
    assert offers == ["refused", "broken", "refused"]


def test_a_held_loop_is_dropped_once_its_stream_leaves_errors_too():
    engine, tick = scripted_engine(loop_with(lambda: StepController(WINDOW)))
    tick({"a": (5, 2.0), "b": (5, 2.0)})
    assert tick({"a": (6, 2.0)}, {"b": "unreadable"}).detached == ()
    assert tick({"a": (7, 2.0)}, {"b": "unreadable"}).detached == ()
    assert tick({"a": (8, 2.0)}).detached == ("b",)  # same names as the tick before
    assert set(engine.loops) == {"a"}


# --------------------------------------------------------------------- #
# (d) readings: row by row == bulk, and a steady tick builds none
# --------------------------------------------------------------------- #
@pytest.fixture
def reading_count(monkeypatch):
    """Every :class:`MonitorReading` a :class:`FleetSample` builds.

    ``_rows`` is the one construction site: ``readings`` (bulk) and
    ``reading_at`` / ``reading`` / ``get`` (one row) all go through it.
    """
    built = []
    rows = aggregator_module._rows

    def counting(columns):
        made = list(rows(columns))
        built.extend(made)
        return iter(made)

    monkeypatch.setattr(aggregator_module, "_rows", counting)
    return built


def test_reading_at_equals_readings_row_for_row():
    rows = {
        "unseen": (0, 0.0, HealthStatus.UNKNOWN, (0.0, 0.0)),
        "slow": (40, 2.5, HealthStatus.SLOW),
        "fast": (41, 99.0, HealthStatus.FAST),
        "dead": (7, 1.0, HealthStatus.STALLED),
        "fine": (12, 10.0),
    }
    by_row = sample_of(rows, taken_at=5.0)
    bulk = sample_of(rows, taken_at=5.0)
    assert [by_row.reading_at(i) for i in range(len(rows))] == list(bulk.readings)
    assert by_row._readings is None, "reading_at materialised the fleet"
    unseen = by_row.reading_at(0)
    assert unseen.last_timestamp is None and unseen.age is None
    assert type(unseen.total_beats) is int and type(unseen.rate) is float
    assert bulk.reading_at(1) is bulk.readings[1]
    assert bulk.totals().tolist() == [0, 40, 41, 7, 12]
    assert bulk.stalled_mask().tolist() == [False, False, False, True, False]
    with pytest.raises(ValueError):
        bulk.totals()[0] = 1


def test_steady_state_tick_constructs_no_readings(reading_count):
    clock = SimulatedClock()
    arena = Arena(streams=64, depth=32)
    aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=None)
    aggregator.attach_arena(arena)
    heartbeats = [
        Heartbeat(window=4, clock=clock, backend=arena.allocate(f"row-{i}")) for i in range(40)
    ]
    spec = AdaptSpec.from_dict({"loops": [{"match": "*", "target": [8.0, 12.0]}]})
    engine = spec.build_engine(aggregator=aggregator)
    try:
        for tick_index in range(6):
            clock.advance(1.0)
            for heartbeat in heartbeats[: 40 if tick_index < 2 else 10]:
                heartbeat.heartbeat_batch(5)
            built_before = len(reading_count)
            tick = engine.tick()
            if tick_index == 0:
                assert len(tick.attached) == 40 and len(reading_count) == 40
            else:
                assert len(reading_count) == built_before, "a steady tick built readings"
                assert tick.decisions == (40 if tick_index < 2 else 10)
            assert engine.converged() is False and len(engine.lagging()) == 40
            assert len(reading_count) == (40 if tick_index == 0 else built_before)
    finally:
        engine.close(close_aggregator=True)
        arena.close()


def test_dashboard_builds_readings_for_the_rows_it_shows(reading_count):
    from repro.obs.serve import TelemetryServer

    clock = SimulatedClock()
    aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=None)
    for i in range(20):
        heartbeat = Heartbeat(window=4, clock=clock)
        heartbeat.heartbeat_batch(i + 1)
        aggregator.attach_stream(f"svc-{i:02d}", heartbeat)
    try:
        with TelemetryServer(aggregator, interval=60.0, max_streams=3) as server:
            snapshot = server.snapshot()  # built synchronously by the constructor
        assert [(row["name"], row["total_beats"]) for row in snapshot["streams"]] == [
            ("svc-00", 1), ("svc-01", 2), ("svc-02", 3),
        ]
        assert snapshot["streams_truncated"] == 17 and len(reading_count) == 3
    finally:
        aggregator.close()


def test_converged_and_lagging_follow_the_sample_given():
    engine, tick = scripted_engine(loop_with(lambda: StepController(WINDOW)))
    assert engine.converged() is False and engine.lagging() == []
    tick({"a": (5, 10.0), "b": (5, 2.0), "c": (1, 10.0)})
    assert engine.converged() is False and engine.lagging() == ["b"]
    tick({"a": (6, 10.0), "b": (6, 9.0), "c": (2, 10.0)})
    assert engine.converged() is True and engine.lagging() == []
    # Another sample than the last tick's: other order, one managed stream absent.
    other = sample_of({"c": (9, 30.0), "x": (9, 10.0), "a": (9, 10.0)})
    assert engine.converged(other) is False and engine.lagging(other) == ["c", "b"]


# --------------------------------------------------------------------- #
# Spec-built loops are bounded; decisions outlive the trimming
# --------------------------------------------------------------------- #
def test_spec_built_loops_keep_a_bounded_trace_history():
    from repro.adapt.spec import _LOOP_TRACE_LIMIT

    factory = AdaptSpec.from_dict({"loops": [{"match": "*", "target": [8.0, 12.0]}]}).loop_factory()
    loop = factory("svc", sample_of({"svc": (5, 2.0)}).reading_at(0))
    steps = 5 * _LOOP_TRACE_LIMIT + 3
    for beat in range(steps):
        loop.step(beat, rate=2.0)
        assert len(loop.traces) <= _LOOP_TRACE_LIMIT
    assert loop.decisions == steps and len(loop.traces) == _LOOP_TRACE_LIMIT
    assert loop.last_trace.beat == steps - 1 and loop.traces[0].beat == steps - _LOOP_TRACE_LIMIT
    loop.traces.clear()
    assert loop.traces == [] and loop.last_trace is None and loop.decisions == steps
    loop.reset()
    assert loop.decisions == 0


# --------------------------------------------------------------------- #
# (e) Attaching at fleet width: spec loops are thin rows, built as prescribed
# --------------------------------------------------------------------- #
NAN = float("nan")
ATTACH_SPEC = {
    "loops": [
        {
            "match": "fix-*", "target": [10.0, 20.0], "actuator": "knob",
            "controller": {"kind": "pid", "kp": 2.0, "ki": 0.25},
            "decision_interval": 3, "warmup": "auto", "actuator_options": {"scale": 2},
        },
        {"match": "pub-*", "controller": {"kind": "proportional", "gain": 1.5}, "actuator": "knob", "warmup": 4},
        {"match": "lad-?[0-4]*", "target": [5.0, 1e9], "controller": {"kind": "ladder", "levels": 5}},
    ]
}
#: Published windows of the ``pub-*`` streams, by ``index % 5``: a usable
#: one, none, an inverted one and a NaN in either bound.
PUBLISHED = [(6.0, 9.0), (0.0, 0.0), (9.0, 6.0), (NAN, 9.0), (6.0, NAN)]


def attach_fleet(n=1000):
    """``n`` streams over every attach outcome, and what the spec prescribes for each."""
    rows, prescribed = {}, {}
    for i in range(n):
        kind = i % 4
        if kind == 0:
            name, goal = f"fix-{i:04d}", (0.0, 0.0)
            prescribed[name] = (0, TargetWindow(10.0, 20.0))
        elif kind == 1:
            name, goal = f"pub-{i:04d}", PUBLISHED[(i // 4) % 5]
            if (i // 4) % 5 == 0:
                prescribed[name] = (1, TargetWindow(*goal))
            else:
                prescribed[name] = "awaiting" if goal == (0.0, 0.0) else "declined"
        elif kind == 2:
            name, goal = f"lad-{i:04d}", (0.0, 0.0)
            prescribed[name] = (2, TargetWindow(5.0, 1e9)) if name[5] in "01234" else "awaiting"
        else:
            name, goal = f"other-{i:04d}", (7.0, 8.0) if i % 8 == 3 else (0.0, 0.0)
            prescribed[name] = "declined" if goal[0] else "awaiting"
        rows[name] = (3, 5.0, HealthStatus.HEALTHY, goal)
    prescribed["fix-0500"] = "error"  # its actuator factory raises
    return rows, prescribed


def test_thousand_streams_attach_exactly_as_the_spec_prescribes():
    from repro.adapt.spec import _LOOP_TRACE_LIMIT
    from repro.control import CONTROLLER_KINDS

    rows, prescribed = attach_fleet()
    spec = AdaptSpec.from_dict(ATTACH_SPEC)
    calls = []

    def knob(name, reading, options):
        calls.append((name, reading, dict(options)))
        if name == "fix-0500":
            raise ValueError("boom")
        return LogActuator()

    engine, tick = scripted_engine(spec.loop_factory({"knob": knob, "log": knob}))
    first = tick(rows)
    sample = first.sample
    managed = [name for name in sample.names if isinstance(prescribed[name], tuple)]
    assert first.attached == tuple(managed)
    assert engine._declined == {name for name, want in prescribed.items() if want in ("declined", "error")}
    assert dict(first.errors) == {"fix-0500": "loop factory failed: boom"}
    assert calls == [
        (name, sample.readings[i], dict(spec.rule_for(name).actuator_options))
        for i, name in enumerate(sample.names)
        if isinstance(prescribed[name], tuple) or name == "fix-0500"
    ]
    for name in managed:
        rule_index, target = prescribed[name]
        rule = spec.loops[rule_index]
        loop = engine.loops[name]
        reference = CONTROLLER_KINDS[rule.controller](target, **rule.controller_options)
        assert type(loop.controller) is type(reference) and vars(loop.controller) == vars(reference)
        assert loop.target == target and loop.name == name
        warmup = rule.decision_interval if rule.warmup is None else rule.warmup
        assert (loop.spacer.interval, loop.spacer.warmup) == (rule.decision_interval, warmup)
        assert loop.trace_limit == _LOOP_TRACE_LIMIT
    # Unchanged names: only the awaiting rows are offered again, and nothing attaches.
    calls.clear()
    second = tick(rows)
    assert (second.attached, dict(second.errors), calls) == ((), {}, [])
    assert sorted(engine._awaiting) == [i for i, name in enumerate(sample.names) if prescribed[name] == "awaiting"]


def test_the_engine_steps_a_per_instance_step_wrapper():
    """A tracer wraps ``loop.step`` on the instance (the ledger's traced replay does)."""
    build = AdaptSpec.from_dict({"loops": [{"match": "*", "target": [8.0, 12.0]}]}).loop_factory()
    stepped = []

    def factory(name, reading):
        loop = build(name, reading)
        step = loop.step

        def wrapped(*args, **kwargs):
            stepped.append(name)
            return step(*args, **kwargs)

        loop.step = wrapped
        return loop

    engine, tick = scripted_engine(factory)
    decided = tick({"a": (5, 2.0), "b": (5, 2.0)})
    assert stepped == ["a", "b"] and decided.decisions == 2
    assert tick({"a": (6, 2.0), "b": (5, 2.0)}).decisions == 1 and stepped == ["a", "b", "a"]
