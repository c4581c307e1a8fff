"""Decision logic shared by internal and external adaptation.

The paper's two adaptation loops — the encoder adjusting its own knobs and
the OS scheduler adjusting a core allocation — are the same control problem:
observe the heart rate, compare it with the target window, and nudge an
actuator.  This package separates that decision logic from the actuators so
both experiments (and the ablation benchmarks) can swap controllers freely:

* :class:`StepController` — add/remove one actuator unit per decision, the
  policy the paper's external scheduler uses;
* :class:`ProportionalStepController` — step size proportional to the
  relative rate error (reaches the window in fewer decisions, may overshoot);
* :class:`PIDController` — a textbook PI(D) controller producing a continuous
  actuator value;
* :class:`LadderController` — walks an ordered list of discrete quality
  levels, the policy the adaptive encoder uses;
* :mod:`repro.control.hysteresis` — helpers for target windows and decision
  spacing shared by the controllers.

:data:`CONTROLLER_KINDS` is the one table of the kinds a spec may name; a
kind's options are its class's constructor keywords:

>>> sorted(CONTROLLER_KINDS)
['ladder', 'pid', 'proportional', 'step']
>>> CONTROLLER_KINDS["proportional"](TargetWindow(10.0, 20.0), gain=2.0).decide(2.0)
ControlDecision(delta=2, value=None)
>>> CONTROLLER_KINDS["pid"].search_ranges["kd"]
SearchRange(low=0.0, high=8.0, log=False)
"""

from repro.control.base import ControlDecision, Controller, SearchRange, TargetWindow
from repro.control.hysteresis import DecisionSpacer
from repro.control.ladder import LadderController
from repro.control.pid import PIDController
from repro.control.step import ProportionalStepController, StepController

#: Spec controller kind → its class.
CONTROLLER_KINDS: dict[str, type[Controller]] = {
    "step": StepController,
    "proportional": ProportionalStepController,
    "pid": PIDController,
    "ladder": LadderController,
}

__all__ = [
    "CONTROLLER_KINDS",
    "Controller",
    "SearchRange",
    "ControlDecision",
    "TargetWindow",
    "StepController",
    "ProportionalStepController",
    "PIDController",
    "LadderController",
    "DecisionSpacer",
]
