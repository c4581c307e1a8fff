"""Controller interfaces and the target-window value object."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, NamedTuple

__all__ = ["TargetWindow", "ControlDecision", "Controller", "SearchRange"]


@dataclass(frozen=True, slots=True)
class TargetWindow:
    """A target heart-rate range ``[minimum, maximum]``.

    ``maximum`` may be infinity for "at least this fast" goals (the adaptive
    encoder's 30 beat/s floor in Figure 3 has no ceiling).
    """

    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        if math.isnan(self.minimum) or math.isnan(self.maximum):
            raise ValueError(f"target window bounds must be numbers, got [{self.minimum}, {self.maximum}]")
        if self.minimum < 0:
            raise ValueError(f"minimum must be >= 0, got {self.minimum}")
        if self.maximum < self.minimum:
            raise ValueError(
                f"maximum ({self.maximum}) must be >= minimum ({self.minimum})"
            )

    @property
    def midpoint(self) -> float:
        if self.maximum == float("inf"):
            return self.minimum
        return 0.5 * (self.minimum + self.maximum)

    def contains(self, rate: float) -> bool:
        return self.minimum <= rate <= self.maximum

    def below(self, rate: float) -> bool:
        """True when ``rate`` is below the window (application too slow)."""
        return rate < self.minimum

    def above(self, rate: float) -> bool:
        """True when ``rate`` is above the window (application faster than needed)."""
        return rate > self.maximum

    def error(self, rate: float) -> float:
        """Signed distance from the window (0 inside, negative below, positive above)."""
        if self.below(rate):
            return rate - self.minimum
        if self.above(rate):
            return rate - self.maximum
        return 0.0


@dataclass(frozen=True, slots=True)
class ControlDecision:
    """One controller decision.

    ``delta`` is the signed change requested of the actuator (cores to add,
    ladder levels to move, ...); ``value`` is the absolute actuator value for
    controllers that produce one (PID); either may be ``None`` when the
    controller has no opinion this round.
    """

    delta: int | None = None
    value: float | None = None

    @property
    def is_noop(self) -> bool:
        return (self.delta in (None, 0)) and self.value is None


class SearchRange(NamedTuple):
    """Bounds ``repro tune`` searches one constructor keyword within; the
    keyword's default starts the search, and an ``int`` default makes it integral."""

    low: float
    high: float
    log: bool = False


class Controller(abc.ABC):
    """Maps an observed heart rate to an actuator adjustment.

    Subclasses implement :meth:`_decide`; the public :meth:`decide` wraps it
    with the shared non-finite guard, so a NaN from a stalled or torn rate
    query (or an infinity from a degenerate timestamp span) can never reach a
    controller's arithmetic — it yields a no-op decision instead of
    propagating through integrators into actuator deltas.

    A spec's controller options are the subclass's constructor keywords.
    """

    #: Constructor keyword → the range :mod:`repro.tune` searches it within.
    search_ranges: ClassVar[Mapping[str, SearchRange]] = {}

    @classmethod
    def ranges_for(cls, options: Mapping[str, Any]) -> Mapping[str, SearchRange]:
        """The search ranges given a spec rule's own options."""
        return cls.search_ranges

    def __init__(self, target: TargetWindow) -> None:
        self.target = target

    def decide(self, rate: float) -> ControlDecision:
        """Return the adjustment for the current observation.

        Non-finite readings (``nan`` from a stalled stream, ``±inf``) are
        treated as "no usable observation this round" and produce a no-op
        decision without touching any controller state.
        """
        if not math.isfinite(rate):
            return ControlDecision()
        return self._decide(rate)

    @abc.abstractmethod
    def _decide(self, rate: float) -> ControlDecision:
        """Map a finite observed rate to an adjustment (subclass hook)."""

    def reset(self) -> None:
        """Clear any internal state (integrators, velocity terms, ...)."""
        return None
