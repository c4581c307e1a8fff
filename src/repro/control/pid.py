"""PI(D) controller on the heart-rate error.

The paper's follow-on work (PTRADE/SEEC) formalises heartbeat-driven
adaptation as classical control; including a PID controller here lets the
ablation benchmark compare the paper's simple step policy with a
control-theoretic one on the same actuator.
"""

from __future__ import annotations

from repro.control.base import ControlDecision, Controller, SearchRange, TargetWindow

__all__ = ["PIDController"]


class PIDController(Controller):
    """Discrete PID controller producing an absolute actuator value.

    The error is measured against the target window's midpoint; the output is
    ``base + kp*e + ki*sum(e) + kd*(e - e_prev)`` clamped to
    ``[minimum_output, maximum_output]``.  The caller rounds/coerces the
    value onto its actuator (e.g. a core count).
    """

    search_ranges = {
        "kp": SearchRange(1e-3, 64.0, log=True),
        "ki": SearchRange(1e-4, 16.0, log=True),
        "kd": SearchRange(0.0, 8.0),
    }

    def __init__(
        self,
        target: TargetWindow,
        *,
        kp: float = 1.0,
        ki: float = 0.2,
        kd: float = 0.0,
        base_output: float = 1.0,
        minimum_output: float = 1.0,
        maximum_output: float = 64.0,
    ) -> None:
        super().__init__(target)
        if maximum_output < minimum_output:
            raise ValueError("maximum_output must be >= minimum_output")
        self.kp = float(kp)
        self.ki = float(ki)
        self.kd = float(kd)
        self.base_output = float(base_output)
        self.minimum_output = float(minimum_output)
        self.maximum_output = float(maximum_output)
        self._integral = 0.0
        self._previous_error: float | None = None

    def _decide(self, rate: float) -> ControlDecision:
        # Error is positive when the application is too slow (needs more of
        # the actuator), matching the sign convention of the step controllers.
        setpoint = self.target.midpoint
        error = (setpoint - rate) / setpoint if setpoint > 0 else 0.0
        if error == 0.0 and self._integral == 0.0 and not self._previous_error:
            # No error and no accumulated correction: the controller has no
            # opinion, so the actuator is left wherever it is rather than
            # being yanked to the base output.
            self._previous_error = 0.0
            return ControlDecision()
        self._integral += error
        derivative = 0.0 if self._previous_error is None else error - self._previous_error
        self._previous_error = error
        raw = (
            self.base_output
            + self.kp * error
            + self.ki * self._integral
            + self.kd * derivative
        )
        value = min(max(raw, self.minimum_output), self.maximum_output)
        # Anti-windup: when saturated, do not keep integrating outwards.
        if value != raw:
            self._integral -= error
        return ControlDecision(value=value)

    def reset(self) -> None:
        self._integral = 0.0
        self._previous_error = None
