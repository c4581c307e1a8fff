"""Experiment E6 — Figure 6: streamcluster under the external scheduler.

The paper registers one heartbeat per 5 000 streamed points (streamcluster
sustains just over 0.75 beat/s on eight cores), starts the benchmark on one
core and asks the scheduler to hold the narrow 0.50–0.55 beat/s window.  The
scheduler reaches the window by roughly the twenty-second heartbeat and keeps
the application inside it for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control import TargetWindow
from repro.experiments.base import ExperimentResult
from repro.experiments.scheduler_runner import SchedulerRunConfig, run_scheduled_workload
from repro.workloads.streamcluster import StreamclusterWorkload

__all__ = ["Fig6Config", "run"]


@dataclass(frozen=True, slots=True)
class Fig6Config:
    """Configuration of the Figure-6 reproduction."""

    beats: int = 90
    target_min: float = 0.50
    target_max: float = 0.55
    cores: int = 8
    rate_window: int = 10
    seed: int = 0


def run(config: Fig6Config = Fig6Config()) -> ExperimentResult:
    workload = StreamclusterWorkload.figure6(seed=config.seed)
    sched_config = SchedulerRunConfig(
        target_min=config.target_min,
        target_max=config.target_max,
        beats=config.beats,
        cores=config.cores,
        rate_window=config.rate_window,
        decision_interval=3,
    )
    output = run_scheduled_workload(
        workload, sched_config, title="Figure 6: streamcluster with an external scheduler"
    )
    target = TargetWindow(config.target_min, config.target_max)
    rates = output.traces["heart_rate"].values
    in_window = np.nonzero((rates >= config.target_min) & (rates <= config.target_max))[0]
    first_in_window = int(in_window[0]) if in_window.size else -1
    metrics = {
        "first_in_window": first_in_window,
        "fraction_in_window": float(output.fraction_in_window(target, skip=max(first_in_window, 0) + 5)),
        "mean_rate": float(np.mean(rates[first_in_window:])) if first_in_window >= 0 else 0.0,
        "max_cores": int(np.max(output.traces["cores"].values)),
    }
    result = ExperimentResult(
        name="fig6",
        description="streamcluster scheduled into a 0.50-0.55 beat/s window (paper Figure 6)",
        headers=("Quantity", "Paper", "Measured"),
        rows=[
            ("first beat inside the window", "~22", first_in_window),
            ("fraction of beats inside the window after reaching it", "most", round(metrics["fraction_in_window"], 3)),
            ("mean steady-state rate (beat/s)", "0.50-0.55", round(metrics["mean_rate"], 3)),
            ("maximum cores used", "<= 8", metrics["max_cores"]),
            ("scheduler decisions taken", "n/a", output.scheduler.decisions),
        ],
        traces=output.traces,
        metrics=metrics,
    )
    result.notes.append(
        "the Figure-6 configuration registers a heartbeat every 5000 points rather "
        "than Table 2's 200000, matching the paper's scheduler experiment"
    )
    return result
