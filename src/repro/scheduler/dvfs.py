"""Heartbeat-driven frequency (DVFS) governor.

The paper's Section 2.1 envisions hardware "where decisions about dynamic
frequency and voltage scaling are driven by the performance measurements and
target heart rate mechanisms of the Heartbeats framework": run the core just
fast enough to meet the application's published goal and no faster, saving
energy whenever there is headroom.  :class:`DVFSGovernor` implements that
observer against the simulated machine — it is the frequency-domain analogue
of the core-allocation scheduler and composes with the same execution engine.

The class is composed from the unified adaptation runtime: a
:class:`repro.adapt.ControlLoop` (exposed as :attr:`loop`) binds the monitor
to a :class:`~repro.control.step.StepController` and a
:class:`repro.adapt.FrequencyActuator` over the discrete ladder — see the
README's "how these classes are composed" table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapt.actuator import FrequencyActuator
from repro.adapt.loop import ControlLoop
from repro.control import DecisionSpacer, StepController, TargetWindow
from repro.core.monitor import HeartbeatMonitor
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess

__all__ = ["DVFSDecisionRecord", "DVFSGovernor"]


@dataclass(frozen=True, slots=True)
class DVFSDecisionRecord:
    """One governor observation/decision (legacy record shape).

    Superseded by :class:`repro.adapt.DecisionTrace`; kept so existing
    energy-proxy analyses read unchanged.
    """

    beat: int
    observed_rate: float
    frequency_before: float
    frequency_after: float

    @property
    def changed(self) -> bool:
        return self.frequency_after != self.frequency_before


class DVFSGovernor:
    """Adjusts the machine-wide frequency to hold the target heart rate.

    Parameters
    ----------
    monitor:
        Read-only view of the application's heartbeat stream.
    machine:
        The simulated machine whose frequency is governed.
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
        if not frequencies or any(f <= 0 for f in frequencies):
            raise ValueError("frequencies must be a non-empty tuple of positive values")
        if decision_interval < 1:
            raise ValueError(f"decision_interval must be >= 1, got {decision_interval}")
        self.monitor = monitor
        self.machine = machine
        if target is None:
            tmin, tmax = monitor.target_range()
            if tmax <= 0:
                raise ValueError(
                    "the application has not published a target heart-rate range; "
                    "pass target= explicitly"
                )
            target = TargetWindow(tmin, tmax)
        self.target = target
        #: Starts at nominal frequency and applies it to the machine, exactly
        #: like the pre-facade governor did.
        self.actuator = FrequencyActuator(machine, frequencies, apply_initial=True)
        self.frequencies = self.actuator.frequencies
        self.rate_window = int(rate_window)
        #: The unified adaptation loop doing the actual work.
        self.loop = ControlLoop(
            monitor,
            StepController(target),
            self.actuator,
            name="dvfs-governor",
            decision_interval=decision_interval,
            rate_window=rate_window,
        )
        self.decisions: list[DVFSDecisionRecord] = []

    @property
    def spacer(self) -> DecisionSpacer:
        """The loop's decision spacer (legacy accessor)."""
        return self.loop.spacer

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def current_frequency(self) -> float:
        return self.actuator.frequency

    def mean_frequency(self) -> float:
        """Average frequency over all decisions taken (energy proxy)."""
        if not self.decisions:
            return self.current_frequency
        return sum(d.frequency_after for d in self.decisions) / len(self.decisions)

    # ------------------------------------------------------------------ #
    # Decision step
    # ------------------------------------------------------------------ #
    def observe_and_act(self, beat_index: int) -> DVFSDecisionRecord | None:
        """Poll the monitor and, if due, step the frequency up or down."""
        trace = self.loop.step(beat_index)
        if trace is None:
            return None
        record = DVFSDecisionRecord(
            beat=trace.beat,
            observed_rate=trace.observed_rate,
            frequency_before=trace.before,
            frequency_after=trace.after,
        )
        self.decisions.append(record)
        return record

    def attach(self, engine: ExecutionEngine, process: SimulatedProcess) -> None:
        """Register the governor as an after-beat hook for ``process``."""

        def hook(beat_index: int, current: SimulatedProcess, _engine: ExecutionEngine) -> None:
            if current is process:
                self.observe_and_act(beat_index)

        engine.add_after_beat(hook)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DVFSGovernor(frequency={self.current_frequency}, "
            f"target=[{self.target.minimum}, {self.target.maximum}], "
            f"decisions={len(self.decisions)})"
        )
