"""Experiment E4 — Figure 4: image-quality cost of adaptation.

The paper compares the PSNR of the adaptive encoder's frames with the
unmodified encoder's frames on the same video: "In the worst case, the
adaptive version of x264 can lose as much as one dB of PSNR, but the average
loss is closer to 0.5 dB."  This experiment encodes the same synthetic
sequence twice — once adaptively, once with the demanding settings held fixed
— and reports the per-frame PSNR difference.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.traces import TraceSet
from repro.encoder.quality import psnr_series_difference
from repro.experiments.adaptive_runner import AdaptiveRunConfig, calibrate_work_rate, run_encoder
from repro.experiments.base import ExperimentResult

__all__ = ["run", "AdaptiveRunConfig"]


def run(config: AdaptiveRunConfig = AdaptiveRunConfig()) -> ExperimentResult:
    """Run adaptive and baseline encoders on the same frames; compare PSNR."""
    work_rate = calibrate_work_rate(config)
    adaptive = run_encoder(config, adaptive=True, work_rate=work_rate)
    baseline = run_encoder(config, adaptive=False, work_rate=work_rate)
    diff = psnr_series_difference(adaptive.psnrs(), baseline.psnrs())
    traces = TraceSet(title="Figure 4: PSNR difference, adaptive minus unmodified")
    traces.add("psnr_difference", diff)
    traces.add("adaptive_psnr", adaptive.psnrs())
    traces.add("baseline_psnr", baseline.psnrs())
    # Quality only diverges once the adaptive encoder has moved off the
    # baseline settings; report the post-adaptation section like the paper's
    # figure (which shows the loss growing as the encoder speeds up).
    levels = adaptive.levels()
    changed = np.nonzero(levels != levels[0])[0]
    start = int(changed[0]) if changed.size else 0
    section = diff[start:] if diff[start:].size else diff
    mean_loss = float(np.mean(section))
    worst_loss = float(np.min(section))
    result = ExperimentResult(
        name="fig4",
        description="PSNR cost of adaptation (paper Figure 4)",
        headers=("Quantity", "Paper", "Measured"),
        rows=[
            ("mean PSNR difference after adaptation (dB)", "about -0.5", round(mean_loss, 3)),
            ("worst-case PSNR difference (dB)", "about -1.0", round(worst_loss, 3)),
            ("adaptive mean PSNR (dB)", "n/a", round(float(np.mean(adaptive.psnrs())), 2)),
            ("baseline mean PSNR (dB)", "n/a", round(float(np.mean(baseline.psnrs())), 2)),
            ("first adapted frame", "~40", start),
        ],
        traces=traces,
        metrics={
            # Over every frame, as both sizes' claims read the Figure-4 series.
            "mean_psnr_difference": float(np.mean(diff)),
            "worst_psnr_difference": float(np.min(diff)),
            "baseline_max_level": int(baseline.levels().max()),
        },
    )
    result.notes.append(
        "quality is measured against the source frames of the same synthetic video "
        "for both encoders; the adaptive encoder may only lose quality relative to "
        "the fixed demanding configuration"
    )
    return result
