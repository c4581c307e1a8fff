"""Ablation benchmarks for the reproduction's own design choices (docs/claims.md).

These are not paper figures; they quantify how the reproduction behaves when
its own design knobs change:

* rate-window size — how smooth/laggy the scheduler's view of the application is;
* allocation policy — the paper's one-core-at-a-time step policy vs a
  proportional policy vs a PI controller;
* parallel-scaling model — how strongly the substrate's scaling assumption
  shapes the scheduler outcome.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control import PIDController, ProportionalStepController, StepController, TargetWindow
from repro.experiments.scheduler_runner import SchedulerRunConfig, run_scheduled_workload
from repro.sim.scaling import AmdahlScaling, LinearScaling, SaturatingScaling
from repro.workloads.bodytrack import BodytrackWorkload


def _run(controller=None, rate_window=20, scaling=None, beats=240, load_drop_beat=141):
    kwargs = {"seed": 0, "load_drop_beat": load_drop_beat}
    if scaling is not None:
        kwargs["scaling"] = scaling
    workload = BodytrackWorkload.figure5(**kwargs)
    config = SchedulerRunConfig(
        target_min=2.5, target_max=3.5, beats=beats, cores=8, rate_window=rate_window
    )
    return run_scheduled_workload(workload, config, controller=controller)


@pytest.mark.parametrize("rate_window", [5, 20, 60])
def test_ablation_rate_window(benchmark, rate_window):
    """Scheduler quality as a function of the observation window.

    The steady-load configuration isolates tracking quality from transient
    response (the load-drop response is what Figure 5 itself measures).
    """
    output = benchmark.pedantic(
        _run,
        kwargs={"rate_window": rate_window, "load_drop_beat": None},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    target = TargetWindow(2.5, 3.5)
    fraction = output.fraction_in_window(target, skip=2 * rate_window + 20)
    # Any sensible window keeps the application in its target band most of
    # the time once warmed up; extremely small windows are noticeably noisier.
    assert fraction > 0.3


@pytest.mark.parametrize("policy_name", ["step", "proportional", "pid"])
def test_ablation_allocation_policy(benchmark, policy_name):
    """The paper's step policy vs proportional and PI alternatives."""
    target = TargetWindow(2.5, 3.5)
    if policy_name == "step":
        controller = StepController(target)
    elif policy_name == "proportional":
        controller = ProportionalStepController(target, gain=2.0, max_step=4)
    else:
        controller = PIDController(target, kp=2.0, ki=0.5, base_output=1.0, maximum_output=8.0)
    output = benchmark.pedantic(
        _run, kwargs={"controller": controller}, rounds=1, iterations=1, warmup_rounds=0
    )
    rates = output.traces["heart_rate"].values
    # Every policy must eventually hold the application near its window.
    assert 2.0 <= np.mean(rates[100:140]) <= 4.5


@pytest.mark.parametrize(
    "scaling_name", ["amdahl_10", "amdahl_30", "linear_90", "saturating_4"]
)
def test_ablation_scaling_model(benchmark, scaling_name):
    """How the substrate's parallel-scaling assumption shapes core demand."""
    scaling = {
        "amdahl_10": AmdahlScaling(0.10),
        "amdahl_30": AmdahlScaling(0.30),
        "linear_90": LinearScaling(0.90),
        "saturating_4": SaturatingScaling(max_speedup=4.0),
    }[scaling_name]
    output = benchmark.pedantic(
        _run, kwargs={"scaling": scaling, "beats": 140}, rounds=1, iterations=1, warmup_rounds=0
    )
    cores = output.traces["cores"].values
    assert 1 <= cores.max() <= 8
    # Worse scaling should not require fewer cores than near-linear scaling.
    if scaling_name == "amdahl_30":
        assert cores.max() >= 4
