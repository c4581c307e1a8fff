"""Simulated multicore substrate.

The paper's experiments run on a dual-socket, eight-core Xeon X5460 server
whose OS can restrict an application to a subset of cores.  This package is
the substitution documented in docs/claims.md: a deterministic simulated machine
with the pieces those experiments actually exercise —

* cores that can change frequency (DVFS) and fail (:mod:`repro.sim.core`);
* a machine that allocates cores to processes (:mod:`repro.sim.machine`);
* parallel-speedup models describing how each workload scales with cores
  (:mod:`repro.sim.scaling`);
* an execution engine that advances a :class:`repro.clock.SimulatedClock` by
  the simulated duration of each unit of work and stamps a heartbeat per
  completed unit (:mod:`repro.sim.engine`).

Because time is simulated, every figure reproduction is exact, repeatable and
finishes in milliseconds regardless of host speed.
"""

from repro.sim.core import SimulatedCore
from repro.sim.engine import BeatEvent, ExecutionEngine, RunResult
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.sim.scaling import (
    AmdahlScaling,
    LinearScaling,
    SaturatingScaling,
    ScalingModel,
    TabulatedScaling,
)

__all__ = [
    "SimulatedCore",
    "SimulatedMachine",
    "SimulatedProcess",
    "ExecutionEngine",
    "RunResult",
    "BeatEvent",
    "ScalingModel",
    "AmdahlScaling",
    "LinearScaling",
    "SaturatingScaling",
    "TabulatedScaling",
]
