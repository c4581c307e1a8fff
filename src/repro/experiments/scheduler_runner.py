"""Shared runner for the external-scheduler experiments (Figures 5, 6, 7).

Each figure runs one Heartbeat-enabled PARSEC workload under the external
scheduler: the application starts on a single core, publishes its target
heart-rate window, and the scheduler — observing nothing but the heartbeat
stream — adds and removes cores to keep the rate inside the window with the
minimum number of cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.traces import TraceSet
from repro.clock import SimulatedClock
from repro.control import Controller, TargetWindow
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.scheduler.allocator import CoreAllocator
from repro.scheduler.external import ExternalScheduler
from repro.sim.engine import ExecutionEngine, RunResult
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.workloads.base import Workload

__all__ = ["SchedulerRunConfig", "SchedulerRunOutput", "run_scheduled_workload"]


@dataclass(frozen=True, slots=True)
class SchedulerRunConfig:
    """Configuration of one external-scheduler run."""

    target_min: float
    target_max: float
    beats: int
    cores: int = 8
    start_cores: int = 1
    rate_window: int = 20
    decision_interval: int = 5
    seed: int = 0


@dataclass(slots=True)
class SchedulerRunOutput:
    """Traces plus bookkeeping from one scheduler run."""

    run: RunResult
    traces: TraceSet
    scheduler: ExternalScheduler
    heartbeat: Heartbeat

    def fraction_in_window(self, target: TargetWindow, *, skip: int) -> float:
        rates = self.traces["heart_rate"].values[skip:]
        if rates.size == 0:
            return 0.0
        inside = np.count_nonzero((rates >= target.minimum) & (rates <= target.maximum))
        return inside / rates.size


def run_scheduled_workload(
    workload: Workload,
    config: SchedulerRunConfig,
    *,
    controller: Controller | None = None,
    title: str = "external scheduler run",
) -> SchedulerRunOutput:
    """Run ``workload`` under the external scheduler and collect the traces."""
    clock = SimulatedClock()
    machine = SimulatedMachine(config.cores)
    heartbeat = Heartbeat(
        window=config.rate_window, clock=clock, history=max(2048, config.beats + 16)
    )
    # The application publishes its goal; the scheduler reads it back through
    # the monitor rather than being configured out of band.
    heartbeat.set_target_rate(config.target_min, config.target_max)
    process = SimulatedProcess(workload, heartbeat, machine, cores=config.start_cores)
    engine = ExecutionEngine(clock)
    monitor = HeartbeatMonitor.attach(heartbeat, window=config.rate_window)
    allocator = CoreAllocator(machine, process, max_cores=config.cores)
    scheduler = ExternalScheduler(
        monitor,
        allocator,
        decision_interval=config.decision_interval,
        rate_window=config.rate_window,
        controller=controller,
    )
    scheduler.attach(engine)
    run_result = engine.run(process, config.beats, rate_window=config.rate_window)
    traces = TraceSet(title=title)
    traces.add("heart_rate", run_result.heart_rates())
    traces.add("cores", run_result.cores().astype(float))
    traces.add("target_min", np.full(run_result.beats, config.target_min))
    traces.add("target_max", np.full(run_result.beats, config.target_max))
    return SchedulerRunOutput(
        run=run_result, traces=traces, scheduler=scheduler, heartbeat=heartbeat
    )
