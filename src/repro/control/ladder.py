"""Ordered-knob ladder controller.

The adaptive encoder's knob space is an ordered ladder of presets from "best
quality, most work" to "lowest quality, least work"
(:data:`repro.encoder.settings.PRESET_LADDER`).  The paper's encoder checks
its heart rate every 40 frames and, when below target, "adjusts its encoding
algorithms to get more performance while possibly sacrificing the quality of
the encoded image"; when comfortably above target it can climb back towards
higher quality.  :class:`LadderController` implements that walk for any
discrete ladder.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.control.base import ControlDecision, Controller, SearchRange, TargetWindow

__all__ = ["LadderController"]


class LadderController(Controller):
    """Walks a discrete quality ladder to keep the rate inside the window.

    Level 0 is the highest quality (most work); higher levels are faster.

    Parameters
    ----------
    target:
        Target heart-rate window.
    levels:
        Number of ladder levels.
    initial_level:
        Starting level (0 = best quality, the paper's demanding preset).
    climb_margin:
        Fractional headroom above the target minimum (or above the window
        maximum when one exists) required before moving back towards higher
        quality; prevents oscillation right at the threshold.

    Notes
    -----
    The controller remembers levels it has had to abandon (the rate fell
    below the window while running them) and never climbs back into them.
    Without that memory a ladder whose adjacent levels straddle the window
    oscillates forever between "too slow" and "comfortably fast"; with it the
    controller settles, matching the behaviour described in the paper
    ("finally settles on the computationally light diamond search
    algorithm").  :meth:`reset` clears the memory, which is how a caller
    reacts to a change in the environment that might make rejected levels
    viable again.
    """

    search_ranges = {"climb_margin": SearchRange(0.0, 2.0)}

    @classmethod
    def ranges_for(cls, options: Mapping[str, Any]) -> Mapping[str, SearchRange]:
        """Adds ``initial_level`` once ``levels`` leaves more than one rung."""
        levels = int(options.get("levels", 0))
        start = {"initial_level": SearchRange(0, levels - 1)} if levels >= 2 else {}
        return {**cls.search_ranges, **start}

    def __init__(
        self,
        target: TargetWindow,
        levels: int,
        *,
        initial_level: int = 0,
        climb_margin: float = 0.25,
    ) -> None:
        super().__init__(target)
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if not 0 <= initial_level < levels:
            raise ValueError(
                f"initial_level must be in [0, {levels - 1}], got {initial_level}"
            )
        if climb_margin < 0:
            raise ValueError(f"climb_margin must be >= 0, got {climb_margin}")
        self.levels = int(levels)
        self.level = int(initial_level)
        self._initial_level = int(initial_level)
        self.climb_margin = float(climb_margin)
        self._rejected: set[int] = set()

    def _decide(self, rate: float) -> ControlDecision:
        """Return the ladder *delta* (+1 = drop quality, -1 = raise quality)."""
        if self.target.below(rate):
            self._rejected.add(self.level)
            if self.level < self.levels - 1:
                self.level += 1
                return ControlDecision(delta=+1)
            return ControlDecision(delta=0)
        climb_threshold = (
            self.target.maximum * (1.0 + self.climb_margin)
            if self.target.maximum != float("inf")
            else self.target.minimum * (1.0 + self.climb_margin)
        )
        candidate = self.level - 1
        if rate > climb_threshold and candidate >= 0 and candidate not in self._rejected:
            self.level = candidate
            return ControlDecision(delta=-1)
        return ControlDecision(delta=0)

    @property
    def rejected_levels(self) -> frozenset[int]:
        """Levels abandoned because the rate fell below the target while using them."""
        return frozenset(self._rejected)

    def reset(self) -> None:
        self.level = self._initial_level
        self._rejected.clear()
