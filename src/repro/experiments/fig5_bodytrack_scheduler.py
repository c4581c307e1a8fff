"""Experiment E5 — Figure 5: bodytrack under the external scheduler.

The paper starts bodytrack (which sustains over 4 beat/s on all eight cores)
on a single core and lets the external scheduler keep its heart rate between
2.5 and 3.5 beat/s.  The scheduler quickly grows the allocation to about
seven cores, briefly needs the eighth when the rate dips near beat 102, and
reclaims cores after the computational load drops sharply around beat 141 —
eventually the application meets its goal on a single core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.scheduler_runner import SchedulerRunConfig, run_scheduled_workload
from repro.workloads.bodytrack import BodytrackWorkload

__all__ = ["Fig5Config", "run"]


@dataclass(frozen=True, slots=True)
class Fig5Config:
    """Configuration of the Figure-5 reproduction."""

    beats: int = 260
    target_min: float = 2.5
    target_max: float = 3.5
    cores: int = 8
    load_drop_beat: int = 141
    seed: int = 0


def run(config: Fig5Config = Fig5Config()) -> ExperimentResult:
    workload = BodytrackWorkload.figure5(seed=config.seed, load_drop_beat=config.load_drop_beat)
    sched_config = SchedulerRunConfig(
        target_min=config.target_min,
        target_max=config.target_max,
        beats=config.beats,
        cores=config.cores,
    )
    output = run_scheduled_workload(
        workload, sched_config, title="Figure 5: bodytrack with an external scheduler"
    )
    cores = output.traces["cores"].values
    rates = output.traces["heart_rate"].values
    warmup = sched_config.rate_window
    # Steady state starts once the scheduler has finished its initial ramp-up
    # from one core (the paper's trace likewise begins well below the window).
    steady_start = 3 * warmup
    before_drop = slice(steady_start, config.load_drop_beat)
    after_drop = slice(config.load_drop_beat + warmup, None)
    in_window = float(np.mean((rates[before_drop] >= config.target_min) & (rates[before_drop] <= config.target_max)))
    metrics = {
        "cores_before_drop": float(np.max(cores[before_drop])),
        "cores_at_end": int(cores[-1]),
        "fraction_in_window": in_window,
        "mean_rate_before_drop": float(np.mean(rates[before_drop])),
    }
    result = ExperimentResult(
        name="fig5",
        description="bodytrack scheduled into a 2.5-3.5 beat/s window (paper Figure 5)",
        headers=("Quantity", "Paper", "Measured"),
        rows=[
            ("cores needed before the load drop", "7-8", round(metrics["cores_before_drop"], 1)),
            ("cores needed at the end of the run", 1, metrics["cores_at_end"]),
            ("fraction of beats inside the window (steady state, pre-drop)", "most", round(in_window, 3)),
            ("mean rate before the load drop (beat/s)", "2.5-3.5", round(metrics["mean_rate_before_drop"], 2)),
            ("mean rate after the load drop (beat/s)", "2.5-3.5", round(float(np.mean(rates[after_drop])), 2)),
            ("scheduler decisions taken", "n/a", output.scheduler.decisions),
        ],
        traces=output.traces,
        metrics=metrics,
    )
    result.notes.append(
        "the load drop at beat "
        f"{config.load_drop_beat} reproduces the paper's sudden decrease in "
        "computational load, after which the scheduler reclaims cores"
    )
    return result
