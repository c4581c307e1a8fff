"""Tests for the heartbeat-driven external scheduler."""

from __future__ import annotations

import pytest

from repro.adapt import CoreActuator
from repro.clock import SimulatedClock
from repro.control import PIDController, ProportionalStepController, StepController, TargetWindow
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.scheduler import CoreAllocator, ExternalScheduler
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.sim.scaling import LinearScaling


class LinearWorkload:
    """Rate equals the core count when each beat is one second of work."""

    name = "linear"
    scaling = LinearScaling(1.0)

    def work_per_beat(self, beat_index: int) -> float:
        return 1.0

    def tag(self, beat_index: int) -> int:
        return beat_index


def build(target=(2.5, 3.5), cores=8, start_cores=1, decision_interval=3, rate_window=5):
    clock = SimulatedClock()
    machine = SimulatedMachine(cores)
    heartbeat = Heartbeat(window=rate_window, clock=clock, history=4096)
    heartbeat.set_target_rate(*target)
    process = SimulatedProcess(LinearWorkload(), heartbeat, machine, cores=start_cores)
    monitor = HeartbeatMonitor.attach(heartbeat, window=rate_window)
    allocator = CoreAllocator(machine, process, max_cores=cores)
    scheduler = ExternalScheduler(
        monitor,
        allocator,
        decision_interval=decision_interval,
        rate_window=rate_window,
    )
    engine = ExecutionEngine(clock)
    scheduler.attach(engine)
    return clock, machine, heartbeat, process, scheduler, engine


class TestCoreAllocator:
    def test_set_and_clamp(self):
        machine = SimulatedMachine(8)
        process = SimulatedProcess(LinearWorkload(), Heartbeat(window=5), machine, cores=1)
        allocator = CoreAllocator(machine, process, min_cores=1, max_cores=6)
        assert allocator.set_cores(4) == 4
        assert allocator.set_cores(99) == 6
        assert allocator.set_cores(0) == 1
        assert allocator.current_cores == 1

    def test_adjust_and_history(self):
        machine = SimulatedMachine(8)
        process = SimulatedProcess(LinearWorkload(), Heartbeat(window=5), machine, cores=2)
        allocator = CoreAllocator(machine, process)
        allocator.adjust(+3, beat=10)
        allocator.adjust(-1, beat=20)
        allocator.set_cores(4, beat=30)  # no change -> not recorded
        assert [c.new_cores for c in allocator.history] == [5, 4]
        assert allocator.history[0].delta == 3

    def test_validation(self):
        machine = SimulatedMachine(4)
        process = SimulatedProcess(LinearWorkload(), Heartbeat(window=5), machine)
        with pytest.raises(ValueError):
            CoreAllocator(machine, process, min_cores=0)
        with pytest.raises(ValueError):
            CoreAllocator(machine, process, min_cores=4, max_cores=2)


def next_cores(controller, rate: float, current_cores: int) -> int:
    """One decision applied to a ``current_cores`` allocation on an 8-core machine."""
    machine = SimulatedMachine(8)
    process = SimulatedProcess(LinearWorkload(), Heartbeat(window=5), machine, cores=current_cores)
    actuator = CoreActuator(CoreAllocator(machine, process))
    return int(actuator.apply(controller.decide(rate)))


class TestPolicies:
    """The allocation policies are controllers applied through a CoreActuator."""

    def test_minimize_cores_policy_steps_by_one(self):
        controller = StepController(TargetWindow(2.5, 3.5))
        assert next_cores(controller, rate=1.0, current_cores=2) == 3
        assert next_cores(controller, rate=5.0, current_cores=4) == 3
        assert next_cores(controller, rate=3.0, current_cores=3) == 3

    def test_proportional_policy_can_jump(self):
        controller = ProportionalStepController(TargetWindow(10.0, 12.0), gain=2.0, max_step=4)
        assert next_cores(controller, rate=1.0, current_cores=1) > 2

    def test_pid_policy_returns_absolute_core_counts(self):
        controller = PIDController(
            TargetWindow(4.0, 6.0), kp=2.0, ki=0.5, base_output=1.0, maximum_output=8.0
        )
        decision = controller.decide(1.0)
        assert decision.value is not None and decision.delta is None
        assert 1 <= next_cores(controller, rate=1.0, current_cores=1) <= 8


class TestExternalScheduler:
    def test_reads_target_published_by_the_application(self):
        _, _, _, _, scheduler, _ = build(target=(2.5, 3.5))
        assert scheduler.target.minimum == 2.5
        assert scheduler.target.maximum == 3.5

    def test_requires_some_target(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(4)
        heartbeat = Heartbeat(window=5, clock=clock)  # never publishes a target
        process = SimulatedProcess(LinearWorkload(), heartbeat, machine)
        monitor = HeartbeatMonitor.attach(heartbeat)
        allocator = CoreAllocator(machine, process)
        with pytest.raises(ValueError):
            ExternalScheduler(monitor, allocator)

    def test_converges_into_the_target_window(self):
        clock, _, heartbeat, process, scheduler, engine = build(target=(2.5, 3.5))
        result = engine.run(process, 60, rate_window=5)
        rates = result.heart_rates()
        # The linear workload needs exactly 3 cores for a 3 beat/s rate.
        assert process.allocated_cores == 3
        assert rates[-1] == pytest.approx(3.0)
        assert scheduler.decisions > 0, "the scheduler must have acted"

    def test_reclaims_cores_when_load_drops(self):
        class DroppingWorkload(LinearWorkload):
            def work_per_beat(self, beat_index: int) -> float:
                return 1.0 if beat_index < 40 else 0.34

        clock = SimulatedClock()
        machine = SimulatedMachine(8)
        heartbeat = Heartbeat(window=5, clock=clock, history=4096)
        heartbeat.set_target_rate(2.5, 3.5)
        process = SimulatedProcess(DroppingWorkload(), heartbeat, machine, cores=1)
        monitor = HeartbeatMonitor.attach(heartbeat, window=5)
        allocator = CoreAllocator(machine, process)
        scheduler = ExternalScheduler(monitor, allocator, decision_interval=3, rate_window=5)
        engine = ExecutionEngine(clock)
        scheduler.attach(engine)
        result = engine.run(process, 100, rate_window=5)
        cores = result.cores()
        assert cores[35] == 3          # held the window with 3 cores
        assert cores[-1] == 1          # the cheaper phase needs only one
        assert result.heart_rates()[-1] >= 2.5

    def test_does_not_touch_other_processes(self):
        clock, machine, heartbeat, process, scheduler, engine = build()
        other_hb = Heartbeat(window=5, clock=clock)
        other = SimulatedProcess(LinearWorkload(), other_hb, machine, cores=2, pid=4242)
        engine.run(other, 20, rate_window=5)
        assert other.allocated_cores == 2
        assert scheduler.decisions == 0

    def test_decision_records_and_reset(self):
        _, _, _, process, scheduler, engine = build()
        engine.run(process, 30, rate_window=5)
        assert len(scheduler.traces) == scheduler.decisions > 0
        assert all(t.after >= t.before - 1 for t in scheduler.traces)
        changed = [t for t in scheduler.traces if t.changed]
        assert changed
        scheduler.reset()
        assert scheduler.decisions == 0 and scheduler.traces == []

    def test_effective_window_shrinks_after_a_change(self):
        _, _, _, _, scheduler, _ = build(rate_window=10)
        assert scheduler._effective_window(20) == 10
        scheduler._last_change_beat = 18
        assert scheduler._effective_window(20) == 2
        assert scheduler._effective_window(40) == 10

    def test_reset_forgets_the_settle_window(self):
        _, _, _, _, scheduler, _ = build(rate_window=10)
        scheduler._last_change_beat = 18
        scheduler.reset()
        assert scheduler._effective_window(20) == 10
        assert scheduler.decisions == 0

    def test_controller_replaces_the_default_step(self):
        _, _, heartbeat, process, _, _ = build()
        controller = ProportionalStepController(TargetWindow(2.5, 3.5), gain=2.0, max_step=4)
        scheduler = ExternalScheduler(
            HeartbeatMonitor.attach(heartbeat, window=5),
            CoreAllocator(process.machine, process, max_cores=8),
            decision_interval=3,
            rate_window=5,
            controller=controller,
        )
        assert scheduler.controller is controller

    def test_invalid_decision_interval(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(2)
        heartbeat = Heartbeat(window=5, clock=clock)
        heartbeat.set_target_rate(1.0, 2.0)
        process = SimulatedProcess(LinearWorkload(), heartbeat, machine)
        monitor = HeartbeatMonitor.attach(heartbeat)
        allocator = CoreAllocator(machine, process)
        with pytest.raises(ValueError):
            ExternalScheduler(monitor, allocator, decision_interval=0)
