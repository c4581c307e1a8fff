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

The class is the paper's observer under the paper's name, composed from the
unified adaptation runtime: it wires its monitor, policy and allocator into
a :class:`repro.adapt.ControlLoop` (exposed as :attr:`loop`) with a
:class:`repro.adapt.CoreActuator`, and converts the loop's uniform
:class:`~repro.adapt.DecisionTrace` records into the
:class:`SchedulerDecisionRecord` shape the figures read — see the README's
"how these classes are composed" table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapt.actuator import CoreActuator
from repro.adapt.loop import ControlLoop
from repro.control import ControlDecision, Controller, DecisionSpacer, TargetWindow
from repro.core.monitor import HeartbeatMonitor
from repro.scheduler.allocator import CoreAllocator
from repro.scheduler.policies import AllocationPolicy, MinimizeCoresPolicy
from repro.sim.engine import ExecutionEngine
from repro.sim.process import SimulatedProcess

__all__ = ["SchedulerDecisionRecord", "ExternalScheduler"]


@dataclass(frozen=True, slots=True)
class SchedulerDecisionRecord:
    """One scheduler observation/decision (legacy record shape).

    Superseded by :class:`repro.adapt.DecisionTrace`; kept so existing
    experiment figures and analyses read unchanged.
    """

    beat: int
    observed_rate: float
    cores_before: int
    cores_after: int

    @property
    def changed(self) -> bool:
        return self.cores_after != self.cores_before


class _PolicyController(Controller):
    """Adapts an :class:`AllocationPolicy` to the :class:`Controller` surface.

    Policies speak in absolute core counts given the current allocation, so
    the adapter reads the allocator and emits an absolute-value decision the
    :class:`~repro.adapt.CoreActuator` applies verbatim.
    """

    def __init__(self, target: TargetWindow, policy: AllocationPolicy, allocator: CoreAllocator) -> None:
        super().__init__(target)
        self.policy = policy
        self._allocator = allocator

    def _decide(self, rate: float) -> ControlDecision:
        requested = self.policy.next_cores(rate, self._allocator.current_cores)
        return ControlDecision(value=float(requested))

    def reset(self) -> None:
        self.policy.reset()


class ExternalScheduler:
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
    policy:
        Allocation policy; defaults to the paper's one-core-at-a-time
        :class:`MinimizeCoresPolicy`.
    """

    def __init__(
        self,
        monitor: HeartbeatMonitor,
        allocator: CoreAllocator,
        *,
        target: TargetWindow | None = None,
        decision_interval: int = 5,
        rate_window: int = 0,
        policy: AllocationPolicy | None = None,
    ) -> None:
        if decision_interval < 1:
            raise ValueError(f"decision_interval must be >= 1, got {decision_interval}")
        self.monitor = monitor
        self.allocator = allocator
        if target is None:
            tmin, tmax = monitor.target_range()
            if tmax <= 0:
                raise ValueError(
                    "the application has not published a target heart-rate range; "
                    "pass target= explicitly"
                )
            target = TargetWindow(tmin, tmax)
        self.target = target
        self.policy = policy if policy is not None else MinimizeCoresPolicy(target)
        self.rate_window = int(rate_window)
        #: The unified adaptation loop doing the actual work.
        self.loop = ControlLoop(
            monitor,
            _PolicyController(target, self.policy, allocator),
            CoreActuator(allocator),
            name="external-scheduler",
            decision_interval=decision_interval,
            rate_window=rate_window,
            settle_after_change=True,
        )
        self.decisions: list[SchedulerDecisionRecord] = []

    @property
    def spacer(self) -> DecisionSpacer:
        """The loop's decision spacer (legacy accessor)."""
        return self.loop.spacer

    # ------------------------------------------------------------------ #
    # Decision step
    # ------------------------------------------------------------------ #
    def observe_and_act(self, beat_index: int) -> SchedulerDecisionRecord | None:
        """Poll the monitor and, if due, adjust the allocation.

        Returns the decision record when a decision was taken, else ``None``.
        """
        trace = self.loop.step(beat_index)
        if trace is None:
            return None
        record = SchedulerDecisionRecord(
            beat=trace.beat,
            observed_rate=trace.observed_rate,
            cores_before=int(trace.before),
            cores_after=int(trace.after),
        )
        self.decisions.append(record)
        return record

    @property
    def _last_change_beat(self) -> int | None:
        # Legacy private surface, proxied onto the loop (tests poke it).
        return self.loop._last_change_beat

    @_last_change_beat.setter
    def _last_change_beat(self, beat: int | None) -> None:
        self.loop._last_change_beat = beat

    def _effective_window(self, beat_index: int) -> int | None:
        """Rate window restricted to beats produced since the last change."""
        return self.loop._effective_window(beat_index)

    # ------------------------------------------------------------------ #
    # Engine integration
    # ------------------------------------------------------------------ #
    def attach(self, engine: ExecutionEngine) -> None:
        """Register the scheduler as an after-beat hook of ``engine``.

        The scheduler then observes the application exactly once per
        heartbeat, mirroring an OS daemon that wakes up on heartbeat arrival.
        """

        def hook(beat_index: int, process: SimulatedProcess, _engine: ExecutionEngine) -> None:
            if process is self.allocator.process:
                self.observe_and_act(beat_index)

        engine.add_after_beat(hook)

    def reset(self) -> None:
        """Forget decision history and controller state."""
        self.decisions.clear()
        self.loop.traces.clear()
        self.policy.reset()
        self.spacer.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExternalScheduler(target=[{self.target.minimum}, {self.target.maximum}], "
            f"decisions={len(self.decisions)})"
        )
