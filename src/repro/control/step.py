"""Incremental step controllers.

The paper's external scheduler "adjusts the number of cores allocated" to
keep the heart rate inside the target window; Figures 5–7 show it moving one
core at a time.  :class:`StepController` reproduces that policy;
:class:`ProportionalStepController` is the natural generalisation used as an
ablation (larger steps when the rate is far from the window).
"""

from __future__ import annotations

import math

from repro.control.base import ControlDecision, Controller, SearchRange, TargetWindow

__all__ = ["StepController", "ProportionalStepController"]


class StepController(Controller):
    """Move the actuator by one unit towards the target window.

    Below the window: +1 unit (more resources / cheaper quality level is the
    caller's interpretation of the sign).  Above the window: -1 unit.  Inside
    the window: no change.
    """

    search_ranges = {"step": SearchRange(1, 16)}

    def __init__(self, target: TargetWindow, *, step: int = 1) -> None:
        super().__init__(target)
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        self.step = int(step)

    def _decide(self, rate: float) -> ControlDecision:
        if self.target.below(rate):
            return ControlDecision(delta=self.step)
        if self.target.above(rate):
            return ControlDecision(delta=-self.step)
        return ControlDecision(delta=0)


class ProportionalStepController(Controller):
    """Step size proportional to the relative distance from the window.

    The delta is ``ceil(|error| / midpoint * gain)`` units in the direction
    of the window, clamped to ``max_step``.  With ``gain`` small this behaves
    like :class:`StepController`; with larger gains it converges in fewer
    decisions at the cost of possible overshoot (explored by the ablation
    benchmark).
    """

    search_ranges = {
        "gain": SearchRange(0.05, 32.0, log=True),
        "max_step": SearchRange(1, 16),
    }

    def __init__(
        self,
        target: TargetWindow,
        *,
        gain: float = 1.0,
        max_step: int = 4,
    ) -> None:
        super().__init__(target)
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        if max_step < 1:
            raise ValueError(f"max_step must be >= 1, got {max_step}")
        self.gain = float(gain)
        self.max_step = int(max_step)

    def _decide(self, rate: float) -> ControlDecision:
        error = self.target.error(rate)
        if error == 0.0:
            return ControlDecision(delta=0)
        reference = self.target.midpoint if self.target.midpoint > 0 else 1.0
        magnitude = math.ceil(abs(error) / reference * self.gain)
        magnitude = max(1, min(magnitude, self.max_step))
        return ControlDecision(delta=magnitude if error < 0 else -magnitude)
