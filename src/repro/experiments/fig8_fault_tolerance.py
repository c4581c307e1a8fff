"""Experiment E8 — Figure 8: heartbeats for fault tolerance.

The paper initialises the adaptive encoder with a parameter set that achieves
30 beat/s on the healthy eight-core testbed, then simulates core failures at
frames 160, 320 and 480.  Three traces are compared:

* **Healthy** — the unmodified encoder with no failures (stays above 30);
* **Unhealthy** — the unmodified encoder with the failures (falls below
  25 beat/s);
* **Adaptive** — the Heartbeat-enabled encoder with the failures, which
  detects the rate drops and sheds quality to stay above its target.

The encoder never learns which cores failed — it only observes its own heart
rate, which is the paper's point about the generality of the approach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.traces import TraceSet
from repro.experiments.adaptive_runner import AdaptiveRunConfig, calibrate_work_rate, run_encoder
from repro.experiments.base import ExperimentResult
from repro.faults.injector import FailureEvent, FaultInjector

__all__ = ["Fig8Config", "run"]


@dataclass(frozen=True, slots=True)
class Fig8Config:
    """Configuration of the Figure-8 reproduction."""

    frames: int = 600
    #: Beats at which one core fails (the paper uses 160, 320 and 480).
    failure_beats: tuple[int, ...] = (160, 320, 480)
    total_cores: int = 8
    target_min: float = 30.0
    #: Preset-ladder level that achieves ~30+ beat/s on the healthy machine;
    #: used as the initial (and, for the non-adaptive runs, only) level.
    initial_level: int = 5
    frame_size: int = 48
    check_interval: int = 40
    rate_window: int = 20
    seed: int = 1


def _run_config(config: Fig8Config) -> AdaptiveRunConfig:
    return AdaptiveRunConfig(
        frames=config.frames,
        frame_width=config.frame_size,
        frame_height=config.frame_size,
        target_min=config.target_min,
        check_interval=config.check_interval,
        rate_window=config.rate_window,
        initial_level=config.initial_level,
        seed=config.seed,
        # The healthy machine should give the initial preset a comfortable
        # margin above the 30 beat/s goal, as in the paper's healthy trace.
        calibration_rate=36.0,
    )


def _injector(config: Fig8Config) -> FaultInjector:
    return FaultInjector(
        [FailureEvent(beat=b, cores=1) for b in config.failure_beats],
        total_cores=config.total_cores,
    )


def run(config: Fig8Config = Fig8Config()) -> ExperimentResult:
    run_config = _run_config(config)
    work_rate = calibrate_work_rate(run_config)
    healthy = run_encoder(run_config, adaptive=False, work_rate=work_rate)
    unhealthy = run_encoder(
        run_config, adaptive=False, work_rate=work_rate, injector=_injector(config)
    )
    adaptive = run_encoder(
        run_config, adaptive=True, work_rate=work_rate, injector=_injector(config)
    )
    traces = TraceSet(title="Figure 8: fault tolerance with the adaptive encoder")
    traces.add("healthy", healthy.heart_rates())
    traces.add("unhealthy", unhealthy.heart_rates())
    traces.add("adaptive", adaptive.heart_rates())
    traces.add("adaptive_level", adaptive.levels().astype(float))
    window, last_failure = config.rate_window, max(config.failure_beats)
    tail = slice(last_failure + window, None)
    metrics: dict[str, float] = {}
    # The full run's claims read from one rate window into the run and one
    # window after the last failure; the quick run's ("_half") read half a
    # window later into the run and half a window after the last failure.
    slicings = (("", window, last_failure + window), ("_half", window * 3 // 2, last_failure + window // 2))
    for suffix, warm, after in slicings:
        metrics["healthy_rate" + suffix] = float(np.mean(healthy.heart_rates()[warm:]))
        metrics["unhealthy_rate" + suffix] = unhealthy_rate = float(np.mean(unhealthy.heart_rates()[after:]))
        metrics["adaptive_rate" + suffix] = adaptive_rate = float(np.mean(adaptive.heart_rates()[after:]))
        metrics["adaptive_minus_unhealthy" + suffix] = adaptive_rate - unhealthy_rate
    rows = [
        ("healthy mean rate (beat/s)", "> 30", round(metrics["healthy_rate"], 2)),
        ("unhealthy rate after all failures (beat/s)", "< 25", round(metrics["unhealthy_rate"], 2)),
        ("adaptive rate after all failures (beat/s)", ">= 30", round(metrics["adaptive_rate"], 2)),
        (
            "adaptive quality levels shed",
            "algorithm changes only",
            int(adaptive.levels()[-1] - adaptive.levels()[0]),
        ),
        (
            "fraction of post-failure beats >= goal (adaptive)",
            "~1.0",
            round(float(np.mean(adaptive.heart_rates()[tail] >= config.target_min * 0.95)), 3),
        ),
    ]
    result = ExperimentResult(
        name="fig8",
        description="Adaptive encoder rides through simulated core failures (paper Figure 8)",
        headers=("Quantity", "Paper", "Measured"),
        rows=rows,
        traces=traces,
        metrics=metrics,
    )
    result.notes.append(
        "core failures are applied by scaling the simulated platform capacity to "
        "healthy_cores/total_cores at the scheduled beats; the encoder observes only "
        "its heart rate"
    )
    return result
