"""Population-based auto-tuning of controller gains and AdaptSpecs.

Controller gains, ladder rungs, and spec target windows were hand-picked
until this subsystem landed.  `repro tune` closes the loop the way the
paper's own experiments suggest: the simulated execution engine is a cheap,
deterministic evaluator, so a population-based search (CMA-ES with
increasing-population restarts) can score candidate gains against simulated
fleets and emit a tuned, validated AdaptSpec TOML.

The pieces:

- :mod:`repro.tune.space` — declarative parameter spaces over the search
  ranges every ``repro.control`` controller kind declares on its class.
- :mod:`repro.tune.objective` — the evaluation harness: a
  ``ControlLoop``/``AdaptationEngine`` fleet over per-stream simulated
  machines, scored from :class:`~repro.adapt.loop.DecisionTrace` records.
- :mod:`repro.tune.cmaes` — dependency-free CMA-ES and the random-search
  baseline.
- :mod:`repro.tune.optimizer` — the search driver: IPOP restarts,
  multiprocess evaluation islands, deterministic per-candidate seeding,
  ``obs`` metrics and the JSONL flight log (a
  :class:`~repro.obs.tracing.FlightRecorder`).
- :mod:`repro.tune.emit` — tuned-spec emission with round-trip validation.
- :mod:`repro.tune.presets` — bundled hand-written baseline specs.
"""

from repro.tune.cmaes import CMAES, RandomSearch
from repro.tune.emit import write_tuned_spec
from repro.tune.objective import EvalResult, EvaluationConfig, evaluate_spec
from repro.tune.optimizer import TuneResult, Tuner
from repro.tune.presets import PRESET_SPECS, scheduler_preset
from repro.tune.space import (
    Param,
    ParamSpace,
    apply_values,
    controller_tunables,
    spec_space,
)

__all__ = [
    "CMAES",
    "EvalResult",
    "EvaluationConfig",
    "PRESET_SPECS",
    "Param",
    "ParamSpace",
    "RandomSearch",
    "TuneResult",
    "Tuner",
    "apply_values",
    "controller_tunables",
    "evaluate_spec",
    "scheduler_preset",
    "spec_space",
    "write_tuned_spec",
]
