"""Experiment E7 — Figure 7: x264 under the external scheduler.

The paper runs x264 with easier parameters (it can exceed 40 beat/s on eight
cores), starts it on one core and asks the scheduler to hold 30–35 beat/s.
The scheduler keeps the encoder inside the window using four to six cores and
absorbs two brief performance spikes above 45 beat/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control import TargetWindow
from repro.experiments.base import ExperimentResult
from repro.experiments.scheduler_runner import SchedulerRunConfig, run_scheduled_workload
from repro.workloads.x264 import RatePhase, X264Workload

__all__ = ["Fig7Config", "run"]


@dataclass(frozen=True, slots=True)
class Fig7Config:
    """Configuration of the Figure-7 reproduction."""

    beats: int = 600
    target_min: float = 30.0
    target_max: float = 35.0
    cores: int = 8
    seed: int = 0


#: Two brief easy sections reproduce the paper's transient spikes above
#: 45 beat/s (the scheduler reacts and pulls the rate back into the window).
SPIKE_PHASES = (
    RatePhase(start_beat=0, cost_multiplier=1.0),
    RatePhase(start_beat=200, cost_multiplier=0.5),
    RatePhase(start_beat=230, cost_multiplier=1.0),
    RatePhase(start_beat=430, cost_multiplier=0.5),
    RatePhase(start_beat=460, cost_multiplier=1.0),
)


def run(config: Fig7Config = Fig7Config()) -> ExperimentResult:
    workload = X264Workload.figure7(seed=config.seed, phases=SPIKE_PHASES)
    sched_config = SchedulerRunConfig(
        target_min=config.target_min,
        target_max=config.target_max,
        beats=config.beats,
        cores=config.cores,
    )
    output = run_scheduled_workload(
        workload, sched_config, title="Figure 7: x264 with an external scheduler"
    )
    target = TargetWindow(config.target_min, config.target_max)
    rates = output.traces["heart_rate"].values
    cores = output.traces["cores"].values
    warmup = sched_config.rate_window * 2
    typical = [int(np.percentile(cores[warmup:], q)) for q in (25, 75)]
    metrics = {
        "fraction_in_window": float(output.fraction_in_window(target, skip=warmup)),
        "mean_rate": float(np.mean(rates[warmup:])),
        "peak_rate": float(np.max(rates)),
        # From beat 100 on, past the ramp-up from one core.
        "median_cores_from_100": float(np.median(cores[100:])),
    }
    result = ExperimentResult(
        name="fig7",
        description="x264 scheduled into a 30-35 beat/s window (paper Figure 7)",
        headers=("Quantity", "Paper", "Measured"),
        rows=[
            ("typical cores in steady state", "4-6", f"{typical[0]}-{typical[1]}"),
            ("fraction of beats inside the window (steady state)", "most", round(metrics["fraction_in_window"], 3)),
            ("peak rate during spikes (beat/s)", "> 45", round(metrics["peak_rate"], 1)),
            ("mean steady-state rate (beat/s)", "30-35", round(metrics["mean_rate"], 2)),
            ("scheduler decisions taken", "n/a", output.scheduler.decisions),
        ],
        traces=output.traces,
        metrics=metrics,
    )
    result.notes.append(
        "the input's two easy sections reproduce the paper's brief spikes above "
        "45 beat/s that the scheduler then absorbs"
    )
    return result
