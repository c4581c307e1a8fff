"""The paper's claims, each stated once: one table of bands over named metrics.

Every row names an experiment, one number that experiment puts in
:attr:`ExperimentResult.metrics <repro.experiments.base.ExperimentResult>`,
and the band the number must fall in.  A row's size is ``quick`` (the small
config in :data:`QUICK`, checked by tier-1) or ``full`` (the experiment's
defaults, checked by the ``slow`` tests and printed by ``repro-experiments``).
Where one claim's two sizes read a different metric or band, its ``why``
says why.  ``docs/claims.md`` is :func:`claims_reference` verbatim.

>>> claim = next(c for c in CLAIMS if c.id == "table2.rates")
>>> str(claim.band), claim.band.holds(4.9), claim.band.holds(5.0)
('< 5', True, False)
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from repro.experiments import fig2_x264_phases as fig2, fig3_adaptive_rate as fig3, fig4_adaptive_psnr as fig4
from repro.experiments import fig5_bodytrack_scheduler as fig5, fig6_streamcluster_scheduler as fig6
from repro.experiments import fig7_x264_scheduler as fig7, fig8_fault_tolerance as fig8, overhead, table2
from repro.experiments.adaptive_runner import AdaptiveRunConfig
from repro.experiments.base import ExperimentResult

__all__ = [
    "Band", "Claim", "CLAIMS", "EXPERIMENTS", "QUICK", "SIZES", "check", "claims_reference", "measure", "verdict_line",
]

SIZES = ("quick", "full")

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True, slots=True)
class Band:
    """``value <op> bound``, or ``bound <= value <= high`` for op ``"in"``."""

    op: str
    bound: float
    high: float = math.nan

    def holds(self, value: float) -> bool:
        """Whether ``value`` is inside the band (never for ``nan``)."""
        if self.op == "in":
            return self.bound <= value <= self.high
        return _OPS[self.op](value, self.bound)

    def __str__(self) -> str:
        return f"in [{self.bound:g}, {self.high:g}]" if self.op == "in" else f"{self.op} {self.bound:g}"


@dataclass(frozen=True, slots=True)
class Claim:
    """One size of one claim: ``metrics[metric]`` of ``experiment`` must hold ``band``."""

    id: str
    statement: str
    experiment: str
    metric: str
    band: Band
    size: str
    why: str = ""

    def read(self, result: ExperimentResult) -> float:
        """The measured value (``nan``, which no band holds, if the run lacks it)."""
        return result.metrics.get(self.metric, math.nan)


_Row = tuple[str, Band]


def _claim(
    claim_id: str,
    statement: str,
    *,
    both: _Row | None = None,
    quick: _Row | None = None,
    full: _Row | None = None,
    why: str = "",
) -> tuple[Claim, ...]:
    """The rows of one claim (its id starts with the experiment): a ``(metric, band)`` per size, or ``both``."""
    experiment = claim_id.split(".")[0]
    per_size = {"quick": quick or both, "full": full or both}
    return tuple(Claim(claim_id, statement, experiment, *row, size, why) for size, row in per_size.items() if row)


#: Every experiment's ``run(config=defaults)``: ``EXPERIMENTS[name]()`` is the full size.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig2": fig2.run, "fig3": fig3.run, "fig4": fig4.run, "fig5": fig5.run, "fig6": fig6.run,
    "fig7": fig7.run, "fig8": fig8.run, "overhead": overhead.run, "table2": table2.run,
}

#: One small encoder run for Figures 3 and 4.
_SMALL_ENCODER = AdaptiveRunConfig(frames=130, frame_width=32, frame_height=32, check_interval=20, rate_window=20)

#: The quick size of each experiment; the full size is its config's defaults.
QUICK = {
    "table2": table2.Table2Config(beats_per_workload=40),
    "fig2": fig2.Fig2Config(beats=400),
    "fig3": _SMALL_ENCODER,
    "fig4": _SMALL_ENCODER,
    "fig5": fig5.Fig5Config(beats=200, load_drop_beat=110),
    "fig6": fig6.Fig6Config(beats=60),
    "fig7": fig7.Fig7Config(beats=300),
    "fig8": fig8.Fig8Config(frames=180, failure_beats=(60, 100, 140), frame_size=32, check_interval=20, rate_window=20),
    "overhead": overhead.OverheadConfig(blackscholes_batches=2, facesim_frames=4, backend_calls=2_000),
}

#: The 30 beat/s goal of the encoder figures, and the 5 % slack they allow below it.
_GOAL = 30.0
_NEAR_GOAL = _GOAL * 0.95


def _in_phase_band(phase: str) -> Band:
    """Within 20 % of the paper's rate band for one Figure-2 phase."""
    low, high = next(band for name, _, _, band in fig2.PAPER_PHASES if name == phase)
    return Band("in", low * 0.8, high * 1.2)


_OVERHEAD_UNITS = "The quick run times 2 blackscholes batches, the full run 6, against a tighter band."

CLAIMS: tuple[Claim, ...] = (
    *_claim("table2.benchmarks", "Table 2: the ten buildable PARSEC benchmarks each carry a heartbeat",
            both=("benchmarks", Band("==", 10))),
    *_claim("table2.rates", "Table 2: each benchmark's average heart rate matches the paper's (worst error, %)",
            both=("worst_relative_error_pct", Band("<", 5.0))),
    *_claim("fig2.phases", "Figure 2: x264's heart rate shows three distinct phases",
            both=("phases", Band("==", 3))),
    *_claim("fig2.opening", "Figure 2: frames 0-100 run at 12-14 beat/s (mean within 20 % of the band)",
            both=("opening_rate", _in_phase_band("opening"))),
    *_claim("fig2.middle", "Figure 2: frames 100-330 run at 23-29 beat/s (mean within 20 % of the band)",
            both=("middle_rate", _in_phase_band("middle"))),
    *_claim("fig2.closing", "Figure 2: frames 330-530 fall back to 12-14 beat/s (mean within 20 % of the band)",
            both=("closing_rate", _in_phase_band("closing"))),
    *_claim("fig2.speedup", "Figure 2: the easy middle phase runs about twice as fast as the opening",
            both=("middle_over_opening", Band(">", 1.6))),
    *_claim("fig2.return", "Figure 2: the closing phase returns to the opening's rate (relative gap)",
            full=("closing_vs_opening", Band("<", 0.25)),
            why="Full only: the quick run stops at frame 400, so its closing phase has 50 of the paper's 200 frames."),
    *_claim("fig3.opening", "Figure 3: the demanding settings start well below the goal (paper: 8.8 beat/s)",
            quick=("opening_rate_10", Band("<", _GOAL)), full=("opening_rate", Band("<", 15.0)),
            why="The quick run changes its first quality level at frame 20, where the span starts, so it reads 10 "
            "frames and asks only for a start below the goal; the full run reads 20 against a bound nearer 8.8."),
    *_claim("fig3.goal", "Figure 3: after adapting, the encoder ends at or above its 30 beat/s goal",
            quick=("final_rate_20", Band(">=", _NEAR_GOAL)), full=("final_rate", Band(">=", _NEAR_GOAL)),
            why="The 130-frame quick run first meets the goal in its last 20 frames; the 450-frame full run reads 50."),
    *_claim("fig3.shed", "Figure 3: the encoder reaches its goal by shedding quality levels",
            both=("final_level", Band(">", 0))),
    *_claim("fig4.no_gain", "Figure 4: adaptation never improves PSNR over the unmodified encoder (mean dB)",
            both=("mean_psnr_difference", Band("<=", 0.05))),
    *_claim("fig4.mean_loss", "Figure 4: the mean PSNR loss stays bounded (paper: about 0.5 dB)",
            quick=("mean_psnr_difference", Band(">", -3.0)), full=("mean_psnr_difference", Band(">", -2.0)),
            why="The quick run (130 frames of 32x32 video) keeps a looser floor; the full run (450 frames of 48x48) "
            "a tighter one, nearer the paper's 0.5 dB."),
    *_claim("fig4.worst_loss", "Figure 4: the worst frame loses a bounded amount of PSNR (paper: about 1 dB)",
            full=("worst_psnr_difference", Band(">", -4.0)),
            why="Full only: the worst frame is bounded on the paper-sized run; the quick rows bound the mean."),
    *_claim("fig4.baseline", "Figure 4: the unmodified encoder never leaves its demanding settings",
            quick=("baseline_max_level", Band("==", 0)),
            why="Quick only: a check on the comparison's baseline, made once, on the small run."),
    *_claim("fig5.ramp", "Figure 5: the scheduler grows bodytrack to about seven cores before the load drop",
            quick=("cores_before_drop", Band(">=", 5)), full=("cores_before_drop", Band(">=", 6)),
            why="The quick run drops the load at beat 110 instead of 141, leaving the ramp from one core less time."),
    *_claim("fig5.reclaim", "Figure 5: after the load drop the scheduler reclaims cores, down to about one",
            both=("cores_at_end", Band("<=", 2))),
    *_claim("fig5.window", "Figure 5: most pre-drop beats sit inside the 2.5-3.5 beat/s window",
            both=("fraction_in_window", Band(">", 0.5))),
    *_claim("fig5.rate", "Figure 5: the pre-drop mean rate sits in the 2.5-3.5 beat/s window",
            full=("mean_rate_before_drop", Band("in", 2.4, 3.6)),
            why="Full only: the quick rows check the in-window fraction."),
    *_claim("fig6.reach", "Figure 6: streamcluster reaches the 0.50-0.55 beat/s window by about beat 22",
            both=("first_in_window", Band("<=", 30))),
    *_claim("fig6.hold", "Figure 6: once there, the scheduler keeps most beats inside the window",
            both=("fraction_in_window", Band(">", 0.7))),
    *_claim("fig6.rate", "Figure 6: the steady-state mean rate sits in the window",
            both=("mean_rate", Band("in", 0.45, 0.60))),
    *_claim("fig6.cores", "Figure 6: the scheduler never needs more than the machine's eight cores",
            full=("max_cores", Band("<=", 8)),
            why="Full only: the allocator clamps to the machine's eight cores, so one check, at full size, suffices."),
    *_claim("fig7.hold", "Figure 7: the scheduler keeps most of x264's beats inside 30-35 beat/s",
            both=("fraction_in_window", Band(">", 0.6))),
    *_claim("fig7.rate", "Figure 7: the steady-state mean rate sits in the 30-35 beat/s window",
            both=("mean_rate", Band("in", 30.0, 35.0))),
    *_claim("fig7.cores", "Figure 7: the scheduler holds the window with four to six cores (median from beat 100)",
            both=("median_cores_from_100", Band("in", 3, 6))),
    *_claim("fig7.spikes", "Figure 7: two easy sections spike the rate well above the window (paper: > 45 beat/s)",
            full=("peak_rate", Band(">", 40.0)),
            why="Full only: the quick run's 300 beats reach one of the two easy sections (beats 200 and 430)."),
    *_claim("fig8.healthy", "Figure 8: without failures the encoder stays above its 30 beat/s goal",
            quick=("healthy_rate_half", Band(">=", _GOAL)), full=("healthy_rate", Band(">=", _GOAL)),
            why="Quick: 180 frames, failures at 60/100/140; its healthy mean starts half a window later (frame 30), "
            "its post-failure means half a window after the last failure (frame 150). Full: frames 20 and 500."),
    *_claim("fig8.unhealthy", "Figure 8: after three core failures the unmodified encoder falls below 25 beat/s",
            quick=("unhealthy_rate_half", Band("<", _GOAL)), full=("unhealthy_rate", Band("<", 25.0)),
            why="Slices as for `fig8.healthy`; the quick band asks only for a rate below the goal."),
    *_claim("fig8.adaptive", "Figure 8: the adaptive encoder detects the failures and stays at its goal",
            quick=("adaptive_rate_half", Band(">=", _NEAR_GOAL)), full=("adaptive_rate", Band(">=", _NEAR_GOAL)),
            why="Slices as for `fig8.healthy`."),
    *_claim("fig8.recovers", "Figure 8: after the failures the adaptive encoder outruns the unmodified one",
            quick=("adaptive_minus_unhealthy_half", Band(">", 0.0)), full=("adaptive_minus_unhealthy", Band(">", 0.0)),
            why="Slices as for `fig8.healthy`."),
    *_claim("overhead.per_batch", "Section 5.1: a heartbeat per 25 000 blackscholes options costs almost nothing",
            quick=("per_batch_slowdown", Band("<", 1.5)), full=("per_batch_slowdown", Band("<", 1.3)),
            why=_OVERHEAD_UNITS),
    *_claim("overhead.per_option", "Section 5.1: a heartbeat per option is far slower than one per 25 000 options",
            quick=("per_option_over_per_batch", Band(">", 2.0)), full=("per_option_over_per_batch", Band(">", 3.0)),
            why=_OVERHEAD_UNITS),
    *_claim("overhead.facesim", "Section 5.1: facesim's per-frame heartbeat stays cheap (paper: < 5 %)",
            both=("facesim_overhead_pct", Band("<", 10.0))),
)


def measure(experiment: str, size: str) -> ExperimentResult:
    """Run ``experiment`` at ``size``: its :data:`QUICK` config or its defaults."""
    run = EXPERIMENTS[experiment]
    return run(QUICK[experiment]) if size == "quick" else run()


def check(result: ExperimentResult, size: str) -> list[tuple[Claim, float, bool]]:
    """``(claim, measured, holds)`` for every row of ``result``'s experiment at ``size``."""
    verdicts = []
    for claim in CLAIMS:
        if claim.experiment == result.name and claim.size == size:
            value = claim.read(result)
            verdicts.append((claim, value, claim.band.holds(value)))
    return verdicts


def verdict_line(claim: Claim, value: float, holds: bool) -> str:
    """One ``claim / measured / band / verdict`` line."""
    return (
        f"claim {claim.id:<20} {claim.size:<5}  measured {value:<10.4g}  "
        f"band {claim.band!s:<16}  {'PASS' if holds else 'FAIL'}"
    )


def claims_reference() -> str:
    """``docs/claims.md``: every claim with its band per size, rendered from :data:`CLAIMS`."""
    lines = [
        "# The paper's claims",
        "",
        "<!-- Rendered by repro.experiments.claims.claims_reference(); tests/test_experiments.py checks it. -->",
        "",
        "This repository reproduces the evidence of *Application Heartbeats* (Table 2, Figures 2-8 and the overhead",
        "numbers of Section 5.1) on a substitute platform. A deterministic simulated 8-core machine stands in for the",
        "paper's Xeon X5460 testbed, and PARSEC-like workloads have per-beat cost models calibrated to the paper's",
        "rates; only the overhead study times real kernels on the host.",
        "",
        "Each claim is one row of `src/repro/experiments/claims.py` over a metric its experiment reports. The",
        "**quick** size runs the config listed under *Sizes* and is checked by tier-1",
        "(`python -m pytest tests/test_experiments.py`). The **full** size runs each experiment's defaults; it is",
        "checked by `python -m pytest -m slow --runslow tests/test_experiments.py` and printed, one verdict per",
        "row, by the installed `repro-experiments all` command (`python -m repro.experiments.runner all` from a",
        "source tree).",
        "",
        "| claim | statement | quick | full | why the sizes differ |",
        "|---|---|---|---|---|",
    ]
    for claim_id in dict.fromkeys(c.id for c in CLAIMS):
        rows = {c.size: c for c in CLAIMS if c.id == claim_id}
        first = next(iter(rows.values()))
        cells = [f"`{rows[s].metric} {rows[s].band}`" if s in rows else "—" for s in SIZES]
        lines.append(f"| `{claim_id}` | {first.statement} | {' | '.join(cells)} | {first.why} |")
    lines += ["", "## Sizes", "", "| experiment | quick config (full: its defaults) |", "|---|---|"]
    lines += [f"| `{name}` | `{config!r}` |" for name, config in QUICK.items()]
    return "\n".join(lines) + "\n"
