"""Heartbeat-driven frequency (DVFS) governor.

The paper's Section 2.1 envisions hardware "where decisions about dynamic
frequency and voltage scaling are driven by the performance measurements and
target heart rate mechanisms of the Heartbeats framework": run the core just
fast enough to meet the application's published goal and no faster, saving
energy whenever there is headroom.  :class:`DVFSGovernor` implements that
observer against the simulated machine — it is the frequency-domain analogue
of the core-allocation scheduler and composes with the same execution engine.

The class *is* a :class:`repro.adapt.ControlLoop` binding the monitor to a
:class:`~repro.control.step.StepController` and a
:class:`repro.adapt.FrequencyActuator` over the discrete ladder — see the
README's "how these classes are composed" table.
"""

from __future__ import annotations

from repro.adapt.actuator import FrequencyActuator
from repro.adapt.loop import ControlLoop
from repro.control import StepController, TargetWindow
from repro.core.monitor import HeartbeatMonitor
from repro.scheduler.external import _published_target
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess

__all__ = ["DVFSGovernor"]


class DVFSGovernor(ControlLoop):
    """Adjusts the machine-wide frequency to hold the target heart rate.

    Parameters
    ----------
    monitor:
        Read-only view of the application's heartbeat stream.
    machine:
        The simulated machine whose frequency is governed; it is set to
        nominal frequency (the top of the ladder) on construction.
    target:
        Target heart-rate window; ``None`` reads the range the application
        published via ``HB_set_target_rate``.
    frequencies:
        The discrete frequency ladder (fractions of nominal), lowest first.
        Defaults to the P-state-like ladder 0.4 .. 1.0.
    decision_interval:
        Beats between governor decisions.
    rate_window:
        Window used for the rate query (0 = the application's default).
    """

    actuator: FrequencyActuator

    def __init__(
        self,
        monitor: HeartbeatMonitor,
        machine: SimulatedMachine,
        *,
        target: TargetWindow | None = None,
        frequencies: tuple[float, ...] = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        decision_interval: int = 5,
        rate_window: int = 0,
    ) -> None:
        if target is None:
            target = _published_target(monitor)
        super().__init__(
            monitor,
            StepController(target),
            FrequencyActuator(machine, frequencies, apply_initial=True),
            name="dvfs-governor",
            decision_interval=decision_interval,
            rate_window=rate_window,
        )

    @property
    def current_frequency(self) -> float:
        return self.actuator.frequency

    def mean_frequency(self) -> float:
        """Average frequency over all decisions taken (energy proxy)."""
        if not self.traces:
            return self.current_frequency
        return sum(t.after for t in self.traces) / len(self.traces)

    def attach(self, engine: ExecutionEngine, process: SimulatedProcess) -> None:
        """Register the governor as an after-beat hook for ``process``."""

        def hook(beat_index: int, current: SimulatedProcess, _engine: ExecutionEngine) -> None:
            if current is process:
                self.step(beat_index)

        engine.add_after_beat(hook)
