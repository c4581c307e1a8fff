"""The tuning objective: score an AdaptSpec against a simulated fleet.

:func:`evaluate_spec` builds one independent simulated plant per stream —
its own :class:`~repro.clock.SimulatedClock`, machine, and execution engine,
so rate windows never see another stream's time — attaches every stream to a
shared :class:`~repro.core.aggregator.HeartbeatAggregator`, and drives the
spec's :class:`~repro.adapt.engine.AdaptationEngine` for a fixed number of
adaptation ticks.  Scoring reads the recorded per-tick rates and the
engine's :class:`~repro.adapt.loop.DecisionTrace` records:

- **settle time** — per stream, the simulated time of the last tick whose
  rate sat outside the target window (a stream that never settles is charged
  twice its whole run); the median across streams is the headline number.
- **overshoot** — worst relative excursion above the window, averaged.
- **in-window fraction** — share of all (stream, tick) samples in-window.
- **actuation cost** — mean absolute knob movement per stream, from traces.

Everything is deterministic given ``EvaluationConfig.seed``:

>>> from repro.tune.presets import scheduler_preset
>>> cfg = EvaluationConfig(streams=2, ticks=4, beats_per_tick=2, seed=7)
>>> a = evaluate_spec(scheduler_preset(), cfg)
>>> b = evaluate_spec(scheduler_preset(), cfg)
>>> a == b
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.adapt.actuator import Actuator, CoreActuator
from repro.adapt.loop import DecisionTrace
from repro.adapt.spec import AdaptSpec
from repro.clock import ManualClock, SimulatedClock
from repro.control import TargetWindow
from repro.core.aggregator import HeartbeatAggregator
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import MonitorReading
from repro.scheduler.allocator import CoreAllocator
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.sim.scaling import LinearScaling
from repro.tune.space import TuneError
from repro.workloads.base import Workload

__all__ = ["EvaluationConfig", "EvalResult", "evaluate_spec", "evaluate_payload", "PROFILES"]

#: Workload profiles the harness can replay.
PROFILES = ("steady", "step-load", "churn", "skewed")

#: Stream-name prefix the bundled presets match against.
STREAM_PREFIX = "sim-"


@dataclass(frozen=True, slots=True)
class EvaluationConfig:
    """How to exercise a candidate spec.

    ``streams`` plants run for ``ticks`` adaptation rounds of
    ``beats_per_tick`` simulated heartbeats each.  The plant is calibrated so
    a stream's heart rate equals its allocated core count times
    ``target_rate / 8`` — with the default ``target_rate`` of 8.0 the rate
    *is* the core count, and the default [10, 12] window demands ten to
    twelve of the sixteen cores.
    """

    streams: int = 16
    ticks: int = 30
    beats_per_tick: int = 4
    profile: str = "steady"
    seed: int = 0
    cores: int = 16
    window: int = 8
    target: tuple[float, float] = (10.0, 12.0)
    target_rate: float = 8.0
    noise: float = 0.02

    def __post_init__(self) -> None:
        if self.streams < 1 or self.ticks < 1 or self.beats_per_tick < 1:
            raise TuneError("streams, ticks and beats_per_tick must all be >= 1")
        if self.profile not in PROFILES:
            raise TuneError(f"unknown profile {self.profile!r}; choose from {PROFILES}")
        if not (0 < self.target[0] < self.target[1]):
            raise TuneError(f"target window must be 0 < min < max, got {self.target}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "streams": self.streams,
            "ticks": self.ticks,
            "beats_per_tick": self.beats_per_tick,
            "profile": self.profile,
            "seed": self.seed,
            "cores": self.cores,
            "window": self.window,
            "target": list(self.target),
            "target_rate": self.target_rate,
            "noise": self.noise,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationConfig":
        kwargs = dict(data)
        if "target" in kwargs:
            low, high = kwargs["target"]
            kwargs["target"] = (float(low), float(high))
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class EvalResult:
    """One evaluation's scores (lower ``score`` is better)."""

    score: float
    settle_median: float
    settle_mean: float
    overshoot: float
    in_window_fraction: float
    actuation_cost: float
    unsettled_streams: int
    duration_median: float
    streams: int
    ticks: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "score": self.score,
            "settle_median": self.settle_median,
            "settle_mean": self.settle_mean,
            "overshoot": self.overshoot,
            "in_window_fraction": self.in_window_fraction,
            "actuation_cost": self.actuation_cost,
            "unsettled_streams": self.unsettled_streams,
            "duration_median": self.duration_median,
            "streams": self.streams,
            "ticks": self.ticks,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvalResult":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})


class _TunedWorkload(Workload):
    """Synthetic plant whose per-beat cost follows the selected profile."""

    NAME = "tuned-plant"
    HEARTBEAT_LOCATION = "every simulated beat"
    PAPER_HEART_RATE = 8.0
    DEFAULT_SCALING = LinearScaling(1.0)

    def __init__(self, *, shift_beat: int | None = None, shift_factor: float = 1.0,
                 **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.shift_beat = shift_beat
        self.shift_factor = float(shift_factor)

    def phase_multiplier(self, beat_index: int) -> float:
        if self.shift_beat is not None and beat_index >= self.shift_beat:
            return self.shift_factor
        return 1.0

    def execute_beat(self, beat_index: int) -> float:
        return float(beat_index)


@dataclass(slots=True)
class _Plant:
    """One stream's isolated simulated stack."""

    name: str
    clock: SimulatedClock
    engine: ExecutionEngine
    process: SimulatedProcess
    heartbeat: Heartbeat
    allocator: CoreAllocator


def _build_plants(config: EvaluationConfig) -> list[_Plant]:
    total_beats = config.ticks * config.beats_per_tick
    base_seed = (config.seed + 1) * 7_919
    spread = np.random.default_rng(base_seed)
    plants: list[_Plant] = []
    for i in range(config.streams):
        target_rate = config.target_rate
        shift_beat: int | None = None
        shift_factor = 1.0
        if config.profile == "step-load":
            shift_beat = total_beats // 2
            shift_factor = 2.0
        elif config.profile == "churn":
            shift_beat = int(spread.integers(total_beats // 4, 3 * total_beats // 4))
            shift_factor = float(spread.uniform(0.5, 2.0))
        elif config.profile == "skewed":
            target_rate = float(np.exp(spread.uniform(np.log(8.0), np.log(16.0))))
        workload = _TunedWorkload(
            target_rate=target_rate,
            noise=config.noise,
            seed=base_seed + i,
            shift_beat=shift_beat,
            shift_factor=shift_factor,
        )
        clock = SimulatedClock()
        name = f"{STREAM_PREFIX}{i:04d}"
        heartbeat = Heartbeat(
            config.window, name=name, clock=clock, history=64, thread_safe=False
        )
        heartbeat.set_target_rate(config.target[0], config.target[1])
        machine = SimulatedMachine(config.cores)
        process = SimulatedProcess(workload, heartbeat, machine, cores=1, pid=i + 1)
        allocator = CoreAllocator(machine, process)
        plants.append(
            _Plant(
                name=name,
                clock=clock,
                engine=ExecutionEngine(clock),
                process=process,
                heartbeat=heartbeat,
                allocator=allocator,
            )
        )
    return plants


def _resolve_window(spec: AdaptSpec, plant: _Plant, config: EvaluationConfig) -> TargetWindow:
    rule = spec.rule_for(plant.name)
    if rule is not None and rule.target is not None:
        return TargetWindow(float(rule.target[0]), float(rule.target[1]))
    return TargetWindow(config.target[0], config.target[1])


def evaluate_spec(spec: AdaptSpec, config: EvaluationConfig) -> EvalResult:
    """Run one deterministic evaluation of ``spec`` under ``config``."""
    plants = _build_plants(config)
    by_name = {plant.name: plant for plant in plants}
    if spec.rule_for(plants[0].name) is None:
        raise TuneError(
            f"spec matches no harness stream (names look like {plants[0].name!r})"
        )

    fleet_clock = ManualClock(0.0)
    aggregator = HeartbeatAggregator(
        clock=fleet_clock,
        window=spec.window,
        liveness_timeout=None,
    )
    for plant in plants:
        aggregator.attach_stream(plant.name, plant.heartbeat)

    def cores_factory(name: str, reading: MonitorReading, options: Mapping[str, Any]) -> Actuator:
        return CoreActuator(by_name[name].allocator)

    engine = spec.build_engine(aggregator=aggregator, actuators={"cores": cores_factory})

    windows = {plant.name: _resolve_window(spec, plant, config) for plant in plants}
    last_out_time = {plant.name: 0.0 for plant in plants}
    settled_once = {plant.name: False for plant in plants}
    overshoot = {plant.name: 0.0 for plant in plants}
    in_window_samples = 0
    total_samples = 0
    traces: list[DecisionTrace] = []

    for _ in range(config.ticks):
        for plant in plants:
            plant.engine.run(plant.process, config.beats_per_tick, rate_window=config.window)
        fleet_clock.time = max(plant.clock.now() for plant in plants)
        tick = engine.tick()
        traces.extend(tick.traces)
        for plant in plants:
            rate = plant.heartbeat.current_rate(config.window)
            window = windows[plant.name]
            total_samples += 1
            if window.contains(rate):
                in_window_samples += 1
                settled_once[plant.name] = True
            else:
                last_out_time[plant.name] = plant.clock.now()
            if rate > window.maximum:
                excursion = (rate - window.maximum) / window.maximum
                overshoot[plant.name] = max(overshoot[plant.name], excursion)

    settle_times = []
    unsettled = 0
    durations = []
    for plant in plants:
        duration = plant.clock.now()
        durations.append(duration)
        rate = plant.heartbeat.current_rate(config.window)
        if windows[plant.name].contains(rate) and settled_once[plant.name]:
            settle_times.append(last_out_time[plant.name])
        else:
            unsettled += 1
            settle_times.append(2.0 * duration)

    settle_median = float(np.median(settle_times))
    settle_mean = float(np.mean(settle_times))
    mean_overshoot = float(np.mean(list(overshoot.values())))
    in_window_fraction = in_window_samples / max(total_samples, 1)
    actuation = sum(abs(t.after - t.before) for t in traces if t.changed)
    actuation_cost = float(actuation) / config.streams
    duration_median = float(np.median(durations))

    score = (
        settle_median
        + 5.0 * mean_overshoot
        + 10.0 * (1.0 - in_window_fraction)
        + 0.05 * actuation_cost
    )
    return EvalResult(
        score=float(score),
        settle_median=settle_median,
        settle_mean=settle_mean,
        overshoot=mean_overshoot,
        in_window_fraction=float(in_window_fraction),
        actuation_cost=actuation_cost,
        unsettled_streams=unsettled,
        duration_median=duration_median,
        streams=config.streams,
        ticks=config.ticks,
    )


def evaluate_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Process-pool entry point: plain dicts in, plain dicts out.

    Workers rebuild the spec and config from mappings so nothing fancier
    than pickleable builtins ever crosses the process boundary.  The result
    dict carries an extra ``elapsed_seconds`` key (worker-side wall time)
    for the tuner's evaluation-duration histogram.
    """
    import time

    spec = AdaptSpec.from_dict(payload["spec"])
    config = EvaluationConfig.from_dict(payload["config"])
    started = time.perf_counter()
    result = evaluate_spec(spec, config).to_dict()
    result["elapsed_seconds"] = time.perf_counter() - started
    return result
