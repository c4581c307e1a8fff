"""Experiment E2 — Figure 2: heart rate of the x264 PARSEC benchmark.

The paper plots a 20-beat moving average of x264's heart rate on the native
input and observes three distinct performance regions: roughly 12–14 beat/s
for the first ~100 frames, 23–29 beat/s between frames ~100 and ~330, then
back to 12–14 beat/s.  This experiment runs the phase-structured x264
workload on the simulated eight-core machine and reports the same series and
the per-phase rate bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.traces import TraceSet
from repro.clock import SimulatedClock
from repro.core.heartbeat import Heartbeat
from repro.core.rate import moving_rate_series
from repro.experiments.base import ExperimentResult
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.workloads.x264 import X264Workload

__all__ = ["Fig2Config", "run"]


@dataclass(frozen=True, slots=True)
class Fig2Config:
    """Configuration of the Figure-2 reproduction."""

    #: Frames encoded (the paper's trace covers a bit over 500 frames).
    beats: int = 530
    #: Moving-average window (the paper uses 20 beats).
    window: int = 20
    #: Cores allocated to the benchmark.
    cores: int = 8
    seed: int = 0


#: The phases of the paper's trace: name, frame span and rate band.
PAPER_PHASES = (
    ("opening", 0, 100, (12.0, 14.0)),
    ("middle", 100, 330, (23.0, 29.0)),
    ("closing", 330, 530, (12.0, 14.0)),
)


def run(config: Fig2Config = Fig2Config()) -> ExperimentResult:
    """Run the phase-structured x264 workload and extract the rate trace."""
    workload = X264Workload.figure2(seed=config.seed)
    clock = SimulatedClock()
    machine = SimulatedMachine(config.cores)
    heartbeat = Heartbeat(window=config.window, clock=clock, history=config.beats + 16)
    process = SimulatedProcess(workload, heartbeat, machine, cores=config.cores)
    engine = ExecutionEngine(clock)
    engine.run(process, config.beats)
    timestamps = heartbeat.get_history_array()["timestamp"]
    rates = moving_rate_series(timestamps, config.window)
    traces = TraceSet(title="Figure 2: x264 heart rate, native-like input")
    traces.add("heart_rate", rates)
    rows = []
    metrics: dict[str, float] = {}
    for name, start, stop, (band_low, band_high) in PAPER_PHASES:
        stop = min(stop, config.beats)
        if stop <= start:
            continue
        section = rates[start + config.window : stop]  # skip window warm-up inside the phase
        measured = float(np.mean(section)) if section.size else 0.0
        metrics[f"{name}_rate"] = measured
        rows.append((f"frames {start}-{stop}", f"{band_low:.0f}-{band_high:.0f}", round(measured, 2)))
    metrics["phases"] = len(rows)
    opening = metrics["opening_rate"] or math.nan  # a phase the run did not reach reads nan
    metrics["middle_over_opening"] = metrics.get("middle_rate", math.nan) / opening
    metrics["closing_vs_opening"] = abs(metrics.get("closing_rate", math.nan) - opening) / opening
    result = ExperimentResult(
        name="fig2",
        description="x264 heart rate phases on the native-like input (paper Figure 2)",
        headers=("Phase", "Paper band (beat/s)", "Measured mean"),
        rows=rows,
        traces=traces,
        metrics=metrics,
    )
    result.notes.append(
        "the three-phase shape (hard opening, easy middle, hard tail) is the "
        "reproduction target; absolute rates track Table 2's 11.32 beat/s average"
    )
    return result
