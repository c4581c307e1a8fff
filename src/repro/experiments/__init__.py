"""Regeneration harness: one module per table/figure of the paper.

Every experiment module exposes

* a ``Config`` dataclass with the paper's parameters as defaults (scaled-down
  frame counts are noted where used),
* ``run(config) -> ExperimentResult`` producing the table rows, the
  beat-indexed traces the figure plots, and the named ``metrics`` the
  paper's claims read.

:mod:`repro.experiments.claims` names every experiment (``EXPERIMENTS``)
and states each claim once, as a band over one metric at a quick and/or the
full size (``docs/claims.md``); ``tests/test_experiments.py`` checks every
row and ``repro-experiments`` (:mod:`repro.experiments.runner`) prints the
full rows' verdicts.
"""

from repro.experiments.base import ExperimentResult

__all__ = ["ExperimentResult"]
