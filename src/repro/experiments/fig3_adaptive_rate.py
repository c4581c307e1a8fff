"""Experiment E3 — Figure 3: heart rate of the internally adaptive encoder.

The paper launches x264 with demanding Main-profile parameters (8.8 beat/s on
the eight-core testbed), lets the Heartbeat-enabled encoder check its own
heart rate every 40 frames, and shows it gradually trading quality for speed
until it sustains its 30 beat/s goal (settling a little above 35 beat/s).
This experiment reproduces that trajectory with the block encoder and its
preset ladder on the calibrated simulated platform.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.traces import TraceSet
from repro.experiments.adaptive_runner import AdaptiveRunConfig, run_encoder
from repro.experiments.base import ExperimentResult

__all__ = ["run", "AdaptiveRunConfig"]


def run(config: AdaptiveRunConfig = AdaptiveRunConfig()) -> ExperimentResult:
    """Run the adaptive encoder and extract the Figure-3 series."""
    output = run_encoder(config, adaptive=True)
    rates = output.heart_rates()
    levels = output.levels()
    traces = TraceSet(title="Figure 3: heart rate of adaptive x264")
    traces.add("heart_rate", rates)
    traces.add("level", levels.astype(float))
    traces.add("performance_goal", np.full(len(rates), config.target_min))
    # The first window of beats is warm-up: the intra frame and the first few
    # inter frames are cheap (few references exist yet), so their windowed
    # rate says nothing about the demanding configuration's sustained speed.
    # The opening and final rates are each taken over two spans: the full
    # run's (20 and 50 frames) and the quick run's (10 and 20 frames).
    warmup = config.rate_window
    opening = {n: float(np.mean(rates[warmup : warmup + n])) if len(rates) > warmup + n else 0.0 for n in (10, 20)}
    post_warmup = rates[warmup:]
    hits = np.nonzero(post_warmup >= config.target_min)[0]
    first_at_goal = int(hits[0]) + warmup if hits.size else -1
    fraction_met = (
        float(np.mean(rates[first_at_goal:] >= config.target_min * 0.95))
        if first_at_goal >= 0
        else 0.0
    )
    metrics = {
        "opening_rate": opening[20],
        "opening_rate_10": opening[10],
        "final_rate": float(np.mean(rates[-50:])),
        "final_rate_20": float(np.mean(rates[-20:])),
        "final_level": int(levels[-1]),
    }
    result = ExperimentResult(
        name="fig3",
        description="Adaptive encoder reaches its 30 beat/s goal (paper Figure 3)",
        headers=("Quantity", "Paper", "Measured"),
        rows=[
            ("initial heart rate (beat/s)", 8.8, round(metrics["opening_rate"], 2)),
            ("performance goal (beat/s)", 30.0, config.target_min),
            ("final heart rate (beat/s)", ">= 30 (settles ~35)", round(metrics["final_rate"], 2)),
            ("first beat meeting the goal", "~400", first_at_goal),
            ("fraction of beats >= goal after first crossing", "~1.0", round(fraction_met, 3)),
            ("final preset-ladder level", "diamond-search end of ladder", metrics["final_level"]),
        ],
        traces=traces,
        metrics=metrics,
    )
    result.notes.append(
        f"platform capacity calibrated to {output.work_rate:.0f} work units/s so the "
        f"demanding preset runs at {config.calibration_rate} beat/s, as in the paper"
    )
    return result
