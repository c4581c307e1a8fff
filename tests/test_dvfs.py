"""Tests for the heartbeat-driven DVFS governor (paper Section 2.1 extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clock import SimulatedClock
from repro.control import TargetWindow
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.scheduler import DVFSGovernor
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.sim.scaling import LinearScaling


class UnitWorkload:
    name = "unit"
    scaling = LinearScaling(1.0)

    def work_per_beat(self, beat_index: int) -> float:
        return 1.0

    def tag(self, beat_index: int) -> int:
        return beat_index


def build(target=(2.0, 2.5), cores=4, frequencies=(0.25, 0.5, 0.75, 1.0)):
    clock = SimulatedClock()
    machine = SimulatedMachine(cores)
    heartbeat = Heartbeat(window=5, clock=clock, history=4096)
    heartbeat.set_target_rate(*target)
    process = SimulatedProcess(UnitWorkload(), heartbeat, machine, cores=cores)
    monitor = HeartbeatMonitor.attach(heartbeat, window=5)
    governor = DVFSGovernor(
        monitor, machine, frequencies=frequencies, decision_interval=3, rate_window=5
    )
    engine = ExecutionEngine(clock)
    governor.attach(engine, process)
    return clock, machine, heartbeat, process, governor, engine


class TestDVFSGovernor:
    def test_reads_published_target(self):
        _, _, _, _, governor, _ = build(target=(2.0, 2.5))
        assert governor.target.minimum == 2.0
        assert governor.target.maximum == 2.5

    def test_requires_a_target(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(4)
        heartbeat = Heartbeat(window=5, clock=clock)
        monitor = HeartbeatMonitor.attach(heartbeat)
        with pytest.raises(ValueError):
            DVFSGovernor(monitor, machine)

    def test_throttles_down_to_the_window(self):
        """At nominal frequency the app runs at 4 beat/s; the governor slows
        the machine until the rate sits inside the 2.0-2.5 beat/s window."""
        _, machine, heartbeat, process, governor, engine = build()
        result = engine.run(process, 80, rate_window=5)
        rates = result.heart_rates()
        assert 1.9 <= np.mean(rates[-20:]) <= 2.6
        assert governor.current_frequency < 1.0
        # The machine is actually running at the governed frequency.
        assert machine.cores[0].frequency == governor.current_frequency

    def test_scales_back_up_when_load_increases(self):
        class TwoPhaseWorkload(UnitWorkload):
            def work_per_beat(self, beat_index: int) -> float:
                return 1.0 if beat_index < 40 else 2.0

        clock = SimulatedClock()
        machine = SimulatedMachine(4)
        heartbeat = Heartbeat(window=5, clock=clock, history=4096)
        heartbeat.set_target_rate(2.0, 2.5)
        process = SimulatedProcess(TwoPhaseWorkload(), heartbeat, machine, cores=4)
        monitor = HeartbeatMonitor.attach(heartbeat, window=5)
        governor = DVFSGovernor(monitor, machine, decision_interval=3, rate_window=5)
        engine = ExecutionEngine(clock)
        governor.attach(engine, process)
        engine.run(process, 40, rate_window=5)
        throttled = governor.current_frequency
        engine.run(process, 60, rate_window=5)
        assert governor.current_frequency > throttled
        assert heartbeat.current_rate(5) >= 1.8

    def test_frequency_stays_within_ladder(self):
        _, _, _, process, governor, engine = build(frequencies=(0.5, 1.0))
        engine.run(process, 60, rate_window=5)
        assert governor.current_frequency in (0.5, 1.0)
        assert governor.mean_frequency() <= 1.0

    def test_decision_records(self):
        _, _, _, process, governor, engine = build()
        engine.run(process, 40, rate_window=5)
        assert len(governor.traces) == governor.decisions > 0
        changed = [t for t in governor.traces if t.changed]
        assert changed, "the governor should have changed frequency at least once"
        assert governor.mean_frequency() == sum(t.after for t in governor.traces) / governor.decisions

    def test_reset_forgets_the_settle_window(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(2)
        heartbeat = Heartbeat(window=5, clock=clock)
        heartbeat.set_target_rate(1.0, 2.0)
        governor = DVFSGovernor(
            HeartbeatMonitor.attach(heartbeat), machine, rate_window=10
        )
        governor.settle_after_change = True  # the scheduler's rule, on the twin loop
        governor._last_change_beat = 18
        assert governor._effective_window(20) == 2
        governor.reset()
        assert governor._effective_window(20) == 10
        assert governor.decisions == 0

    def test_validation(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(2)
        heartbeat = Heartbeat(window=5, clock=clock)
        heartbeat.set_target_rate(1.0, 2.0)
        monitor = HeartbeatMonitor.attach(heartbeat)
        with pytest.raises(ValueError):
            DVFSGovernor(monitor, machine, frequencies=())
        with pytest.raises(ValueError):
            DVFSGovernor(monitor, machine, decision_interval=0)
        governor = DVFSGovernor(monitor, machine, target=TargetWindow(1.0, 2.0))
        assert governor.current_frequency == 1.0
