"""Regeneration harness: one module per table/figure of the paper.

Every experiment module exposes

* a ``Config`` dataclass with the paper's parameters as defaults (scaled-down
  frame counts are noted where used),
* ``run(config) -> ExperimentResult`` producing the table rows and/or
  beat-indexed traces the corresponding figure plots, and
* ``report(result) -> str`` rendering them as text.

``repro-experiments`` (see :mod:`repro.experiments.runner`) runs any subset
from the command line; the benchmark harness under ``benchmarks/`` calls the
same ``run`` functions so the test suite's quick checks and the benchmark
output come from identical code paths.
"""

from repro.experiments.base import ExperimentResult, EXPERIMENTS, register_experiment

__all__ = ["ExperimentResult", "EXPERIMENTS", "register_experiment"]
