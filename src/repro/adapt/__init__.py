"""The unified adaptation runtime: observe → decide → act, at any scale.

The paper's thesis is that heartbeats are a generic interface between
applications and external adaptive services.  This package is the actuation
counterpart of that interface — one composable runtime binding any heartbeat
source to any controller to any knob:

* :class:`~repro.adapt.actuator.Actuator` — the knob protocol
  (``apply``/``current``/``bounds``, optional ``cost``), with adapters for
  core allocations, frequency ladders, discrete quality ladders, plain
  attributes and advisory dry-runs;
* :class:`~repro.adapt.loop.ControlLoop` — one stream + target window +
  controller + actuator, stepped on a beat cadence or driven on a thread,
  recording uniform :class:`~repro.adapt.loop.DecisionTrace` records;
* :class:`~repro.adapt.engine.AdaptationEngine` — many loops over a fleet
  through one incremental :class:`~repro.core.aggregator.HeartbeatAggregator`
  poll, with dynamic attach/detach as collector streams appear and die;
* :class:`~repro.adapt.spec.AdaptSpec` — declarative dict/TOML/JSON specs
  building whole engines (the ``repro adapt`` CLI subcommand).

The paper's observers are built from these pieces: ``ExternalScheduler`` and
``DVFSGovernor`` are :class:`ControlLoop` subclasses, and the
``AdaptiveEncoder`` and the balancer's slow-VM handling each hold one.
"""

from repro.adapt.actuator import (
    Actuator,
    CoreActuator,
    FrequencyActuator,
    FunctionActuator,
    LadderActuator,
    LogActuator,
    actuator_cost,
)
from repro.adapt.engine import AdaptationEngine, EngineTick, LoopFactory
from repro.adapt.loop import ControlLoop, DecisionTrace
from repro.adapt.spec import ActuatorFactory, AdaptSpec, LoopSpec, SpecError

__all__ = [
    "Actuator",
    "actuator_cost",
    "CoreActuator",
    "FrequencyActuator",
    "LadderActuator",
    "FunctionActuator",
    "LogActuator",
    "ControlLoop",
    "DecisionTrace",
    "AdaptationEngine",
    "EngineTick",
    "LoopFactory",
    "AdaptSpec",
    "LoopSpec",
    "SpecError",
    "ActuatorFactory",
]
