"""The closed adaptation loop: one stream, one controller, one actuator.

:class:`ControlLoop` is the runtime the paper's two adaptation loops — the
encoder walking its preset ladder (Section 5.2) and the external scheduler
resizing a core allocation (Section 5.3) — turn out to share once the
observe, decide and act stages are named: read the heart rate from a stream
source, hand it to a :class:`~repro.control.base.Controller`, apply the
resulting decision through an :class:`~repro.adapt.actuator.Actuator`, and
record a uniform :class:`DecisionTrace`.  ``ExternalScheduler`` and
``DVFSGovernor`` are subclasses of this class; ``AdaptiveEncoder`` and the
balancer's slow-VM handling each hold one.

A loop can bind any of the stream shapes the observation side knows:

* an in-process :class:`~repro.core.heartbeat.Heartbeat` or a
  :class:`~repro.core.monitor.HeartbeatMonitor` (both expose
  ``current_rate``), passed directly as ``source`` — and a monitor takes any
  stream object through its one door (``HeartbeatMonitor(backend)``,
  ``HeartbeatMonitor(collector.source(stream_id))``), reading O(new beats)
  per poll when the object offers ``snapshot_since`` cursors;
* no source at all (``source=None``) when a fleet engine feeds observed
  rates into :meth:`ControlLoop.step` directly.

Stepping is cadence-aware: a :class:`~repro.control.hysteresis.DecisionSpacer`
gates decisions onto a beat cadence, and :meth:`start`/:meth:`stop` provide a
threaded time-cadence drive for wall-clock loops.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Union

from repro.adapt.actuator import Actuator, LadderActuator
from repro.control.base import ControlDecision, Controller, TargetWindow
from repro.control.hysteresis import DecisionSpacer

__all__ = ["DecisionTrace", "ControlLoop", "RateQuery"]

#: A windowed rate query: ``query(window)`` with ``None`` meaning "the
#: source's configured default window".
RateQuery = Callable[[Union[int, None]], float]


@dataclass(frozen=True, slots=True)
class DecisionTrace:
    """One uniform observe-decide-act record.

    Every loop, whatever its knob, traces the same six fields, so fleet-wide
    analyses can mix scheduler, DVFS and encoder decisions freely.
    """

    #: Name of the loop that took the decision.
    loop: str
    #: Beat (or engine tick) index at which the decision was taken.
    beat: int
    #: The heart rate the controller saw.
    observed_rate: float
    #: The controller's raw decision.
    decision: ControlDecision
    #: Actuator value before the decision was applied.
    before: float
    #: Actuator value the knob actually landed on.
    after: float

    @property
    def changed(self) -> bool:
        """True when the actuator value moved."""
        return self.after != self.before


def _as_rate_query(source: object) -> RateQuery:
    """Normalise the accepted source shapes into one windowed rate query."""
    current_rate = getattr(source, "current_rate", None)
    if current_rate is not None:

        def query(window: int | None) -> float:
            # Heartbeat spells "default window" as 0, HeartbeatMonitor as
            # None; calling with no argument lets each use its own default.
            if window is None:
                return float(current_rate())
            return float(current_rate(window))

        return query
    if callable(source):
        return source  # type: ignore[return-value]
    raise TypeError(
        "source must expose current_rate(window) (Heartbeat, HeartbeatMonitor), "
        f"be a rate callable, or be None; got {type(source).__name__}"
    )


class ControlLoop:
    """Binds a stream source, a controller and an actuator into one loop.

    Parameters
    ----------
    source:
        Where observed rates come from: anything with ``current_rate(window)``
        (a :class:`Heartbeat`, a :class:`HeartbeatMonitor` over any stream
        object), a bare
        ``query(window) -> rate`` callable, or ``None`` when every ``step``
        call supplies ``rate=`` explicitly (the fleet-engine mode).
    controller:
        Decision logic; its :class:`TargetWindow` doubles as the loop's goal.
    actuator:
        The knob decisions are applied to.
    name:
        Label stamped on every :class:`DecisionTrace`.
    decision_interval:
        Beats between decisions (the paper's check cadence).
    warmup:
        Beats before the first decision; defaults to ``decision_interval``.
    rate_window:
        Window for the rate query; 0 uses the source's default window.
    settle_after_change:
        When True the rate window is additionally restricted to the beats
        produced since the actuator last moved (minimum 2), so a fresh
        setting is judged on its own beats instead of the previous setting's
        transient — the external scheduler's anti-oscillation rule.
    trace_limit:
        Maximum traces retained (oldest dropped); ``None`` keeps everything.
        :attr:`decisions` counts every decision taken either way.

    A loop is one row of a fleet: an engine may hold ten thousand of them, so
    it builds no threading primitive until :meth:`start` asks for a thread.
    """

    def __init__(
        self,
        source: object | None,
        controller: Controller,
        actuator: Actuator,
        *,
        name: str = "loop",
        decision_interval: int = 1,
        warmup: int | None = None,
        rate_window: int = 0,
        settle_after_change: bool = False,
        trace_limit: int | None = None,
    ) -> None:
        self.name = str(name)
        self.controller = controller
        self.actuator = actuator
        self.spacer = DecisionSpacer(decision_interval, warmup=warmup)
        self.rate_window = int(rate_window)
        self.settle_after_change = bool(settle_after_change)
        if trace_limit is not None and trace_limit < 1:
            raise ValueError(f"trace_limit must be >= 1, got {trace_limit}")
        self.trace_limit = trace_limit
        self._query: RateQuery | None = None if source is None else _as_rate_query(source)
        #: The retained decision traces, oldest first: never more than
        #: ``trace_limit`` (a reader may ``clear()`` it).
        self.traces: list[DecisionTrace] = []
        #: Decisions taken since construction or :meth:`reset` (unlike
        #: ``len(traces)`` it is not reduced by ``trace_limit``).
        self.decisions = 0
        #: The exception that killed the threaded drive, if one did.
        self.last_error: BaseException | None = None
        self._last_change_beat: int | None = None
        self._next_beat = 0
        self._thread: threading.Thread | None = None
        self._stop: threading.Event | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def target(self) -> TargetWindow:
        """The loop's goal (the controller's target window)."""
        return self.controller.target

    @property
    def last_trace(self) -> DecisionTrace | None:
        """The most recent decision trace, if any."""
        return self.traces[-1] if self.traces else None

    def in_target(self, rate: float) -> bool:
        """Whether ``rate`` sits inside the loop's target window."""
        return self.target.contains(rate)

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self, beat_index: int | None = None, *, rate: float | None = None) -> DecisionTrace | None:
        """Run one observe-decide-act round if the cadence allows it.

        ``beat_index`` defaults to an internal counter (time-cadence drives
        and engines that tick loops in lockstep simply omit it); ``rate``
        short-circuits the source query when the caller already observed the
        stream (a fleet engine polling thousands of streams in one pass).
        Returns the :class:`DecisionTrace` when a decision was taken, else
        ``None``.
        """
        beat = self._next_beat if beat_index is None else int(beat_index)
        self._next_beat = beat + 1
        if not self.spacer.should_decide(beat):
            return None
        if rate is None:
            if self._query is None:
                raise ValueError(f"loop {self.name!r} has no source; pass rate= to step()")
            rate = self._query(self._effective_window(beat))
        before = self.actuator.current()
        decision = self.controller.decide(rate)
        after = self.actuator.apply(decision, beat=beat)
        if after != before:
            self._last_change_beat = beat
        trace = DecisionTrace(
            loop=self.name,
            beat=beat,
            observed_rate=float(rate),
            decision=decision,
            before=before,
            after=after,
        )
        self.decisions += 1
        traces = self.traces
        traces.append(trace)
        if self.trace_limit is not None and len(traces) > self.trace_limit:
            del traces[: -self.trace_limit]
        return trace

    def _effective_window(self, beat_index: int) -> int | None:
        """The rate window for a decision at ``beat_index``.

        With ``settle_after_change`` the window is restricted to the beats
        produced since the actuator last moved (minimum 2): judging a fresh
        setting on a window that still contains the previous setting's beats
        makes the loop chase its own transient and oscillate.
        """
        window = self.rate_window or None
        if not self.settle_after_change or self._last_change_beat is None:
            return window
        since_change = beat_index - self._last_change_beat
        if since_change < 2:
            since_change = 2
        if window is None:
            return since_change
        return min(window, since_change)

    def reset(self) -> None:
        """Forget traces, cadence and controller state.

        Actuators keep their value — a reset must not yank real resources
        (cores, frequency) out from under the application — with one
        exception: a :class:`LadderController`/:class:`LadderActuator` pair
        duplicates the ladder position on both sides, so the actuator is
        realigned to the controller's (reset) level; otherwise the two walk
        different rungs for the rest of the run.
        """
        self.traces.clear()
        self.decisions = 0
        self.controller.reset()
        level = getattr(self.controller, "level", None)
        if isinstance(self.actuator, LadderActuator) and isinstance(level, int):
            self.actuator.apply(ControlDecision(value=float(level)))
        self.spacer.reset()
        self._last_change_beat = None
        self._next_beat = 0

    # ------------------------------------------------------------------ #
    # Threaded drive
    # ------------------------------------------------------------------ #
    def start(self, interval: float) -> None:
        """Step the loop every ``interval`` seconds on a background thread.

        This is the wall-clock drive for loops observing live streams (a
        governor daemon watching a shared-memory segment); simulated
        experiments keep calling :meth:`step` manually on their beat hooks.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if self._thread is not None:
            raise RuntimeError(f"loop {self.name!r} is already running")
        # Each drive gets its own event: a drive stopped by a timed-out join
        # still sees its own stop, whatever a later start() builds.
        stop = self._stop = threading.Event()
        self.last_error = None

        def drive() -> None:
            # A step that raises stops the drive, records the exception in
            # ``last_error`` and flips ``running`` off — a dead thread must
            # never masquerade as a live loop.
            try:
                while not stop.wait(interval):
                    self.step()
            except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
                self.last_error = exc
            finally:
                if self._stop is stop:
                    self._thread = None

        self._thread = threading.Thread(target=drive, name=f"control-loop-{self.name}", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the threaded drive (no-op when not running)."""
        thread, self._thread = self._thread, None
        if thread is None or self._stop is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        """True while the threaded drive is active."""
        return self._thread is not None

    def __enter__(self) -> "ControlLoop":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlLoop(name={self.name!r}, target=[{self.target.minimum}, "
            f"{self.target.maximum}], decisions={self.decisions})"
        )
