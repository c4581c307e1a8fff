"""The external scheduler.

:class:`ExternalScheduler` reproduces the observer of the paper's Section
5.3: it polls the application's heart rate through a
:class:`~repro.core.monitor.HeartbeatMonitor` (never through any private
interface) and adjusts the core allocation so the rate stays inside the
target window the application published with ``HB_set_target_rate``.

The scheduler is deliberately ignorant of what the application computes — its
entire view of the world is the heartbeat stream, which is the paper's whole
point: "the decisions the scheduler makes are based directly on the
application's performance instead of being based on priority or some other
indirect measure."

The class *is* a :class:`repro.adapt.ControlLoop`: the monitor, a
:class:`~repro.control.step.StepController` over the published window (the
paper's one-core-at-a-time policy) and a :class:`repro.adapt.CoreActuator`,
with ``settle_after_change`` on — see the README's "how these classes are
composed" table.  Its decisions are the loop's
:class:`~repro.adapt.DecisionTrace` records.
"""

from __future__ import annotations

from repro.adapt.actuator import CoreActuator
from repro.adapt.loop import ControlLoop
from repro.control import Controller, StepController, TargetWindow
from repro.core.monitor import HeartbeatMonitor
from repro.scheduler.allocator import CoreAllocator
from repro.sim.engine import ExecutionEngine
from repro.sim.process import SimulatedProcess

__all__ = ["ExternalScheduler"]


def _published_target(monitor: HeartbeatMonitor) -> TargetWindow:
    """The target window the application published via ``HB_set_target_rate``."""
    tmin, tmax = monitor.target_range()
    if tmax <= 0:
        raise ValueError(
            "the application has not published a target heart-rate range; "
            "pass target= explicitly"
        )
    return TargetWindow(tmin, tmax)


class ExternalScheduler(ControlLoop):
    """Observe-decide-act loop over a heartbeat monitor and a core allocator.

    Parameters
    ----------
    monitor:
        Read-only view of the application's heartbeat stream.
    allocator:
        Actuator that applies core-count changes.
    target:
        Target heart-rate window.  ``None`` reads the window the application
        itself published via ``HB_set_target_rate`` (the paper's flow).
    decision_interval:
        Beats between scheduler decisions; a new allocation is given this
        long to show up in the windowed rate before being judged again.
    rate_window:
        Window (in beats) for the scheduler's rate query; 0 uses the
        application's default window.
    controller:
        Decision logic; defaults to the paper's one-core-at-a-time
        :class:`~repro.control.step.StepController` over ``target``.  A
        controller's ``delta`` adds or removes cores, its ``value`` is ceiled
        onto an absolute core count.
    """

    actuator: CoreActuator

    def __init__(
        self,
        monitor: HeartbeatMonitor,
        allocator: CoreAllocator,
        *,
        target: TargetWindow | None = None,
        decision_interval: int = 5,
        rate_window: int = 0,
        controller: Controller | None = None,
    ) -> None:
        if target is None:
            target = _published_target(monitor)
        super().__init__(
            monitor,
            controller if controller is not None else StepController(target),
            CoreActuator(allocator),
            name="external-scheduler",
            decision_interval=decision_interval,
            rate_window=rate_window,
            settle_after_change=True,
        )

    def attach(self, engine: ExecutionEngine) -> None:
        """Register the scheduler as an after-beat hook of ``engine``.

        The scheduler then observes the application exactly once per
        heartbeat, mirroring an OS daemon that wakes up on heartbeat arrival.
        """
        process = self.actuator.allocator.process

        def hook(beat_index: int, current: SimulatedProcess, _engine: ExecutionEngine) -> None:
            if current is process:
                self.step(beat_index)

        engine.add_after_beat(hook)
