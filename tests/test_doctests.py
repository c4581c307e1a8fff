"""Execute the public-API docstring examples.

The one-front-door surface (endpoints, session) and the whole networked
telemetry subsystem keep at least one runnable example per module; this
sweep runs them all with :mod:`doctest` so a drifting API breaks the
documentation loudly instead of silently.  (The prose docs under ``docs/``
are collected directly by pytest via ``--doctest-glob=*.md``.)
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: Public modules whose docstring examples must exist *and* pass.
DOCUMENTED_MODULES = [
    "repro.endpoints",
    "repro.session",
    "repro.specfile",
    "repro.control",
    "repro.core.backends.arena",
    "repro.net.protocol",
    "repro.net.exporter",
    "repro.net.async_collector",
    "repro.net.relay",
    "repro.net.persistence",
    "repro.experiments.claims",
    "repro.faults.timeline",
    "repro.scenario.proxy",
    "repro.scenario.spec",
    "repro.obs",
    "repro.obs.registry",
    "repro.obs.tracing",
    "repro.obs.serve",
    "repro.tune.space",
    "repro.tune.cmaes",
    "repro.tune.objective",
    "repro.tune.optimizer",
    "repro.tune.emit",
    "repro.tune.presets",
]


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_module_docstring_examples_pass(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failure(s)"
    assert result.attempted > 0, f"{module_name} has no runnable docstring examples"
