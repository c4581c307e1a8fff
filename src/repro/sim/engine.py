"""Beat-granularity execution engine.

The engine is the piece that replaces "run the benchmark on the testbed":
for every heartbeat the instrumented application would produce, it

1. lets registered *before-beat* hooks run (schedulers polling heart rate,
   fault injectors applying their schedule, adaptive applications changing
   their own knobs);
2. asks the process how long the next unit of work takes given its current
   core allocation, core health and scaling model;
3. advances the shared :class:`~repro.clock.SimulatedClock` by that duration;
4. registers the heartbeat (stamped with the simulated time);
5. lets *after-beat* hooks observe the new state and records a
   :class:`BeatEvent` in the run trace.

Because hooks see exactly the same information an external observer of a real
Heartbeat-enabled program would see (the heartbeat stream and its targets),
the scheduler and fault-tolerance experiments compose without the engine
knowing anything about them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.clock import SimulatedClock
from repro.core.rate import global_rate
from repro.sim.process import SimulatedProcess

__all__ = ["BeatEvent", "RunResult", "ExecutionEngine"]

#: Hook signature: ``hook(beat_index, process, engine)``.
BeatHook = Callable[[int, SimulatedProcess, "ExecutionEngine"], None]


@dataclass(frozen=True, slots=True)
class BeatEvent:
    """State captured immediately after one heartbeat was produced."""

    beat: int
    timestamp: float
    duration: float
    allocated_cores: int
    effective_cores: int
    heart_rate: float
    tag: int


@dataclass(slots=True)
class RunResult:
    """Outcome of an :meth:`ExecutionEngine.run` call."""

    workload: str
    events: list[BeatEvent] = field(default_factory=list)

    @property
    def beats(self) -> int:
        return len(self.events)

    @property
    def duration(self) -> float:
        """Total simulated time spanned by the run."""
        if not self.events:
            return 0.0
        return self.events[-1].timestamp - self.events[0].timestamp + self.events[0].duration

    def timestamps(self) -> np.ndarray:
        return np.array([e.timestamp for e in self.events], dtype=np.float64)

    def heart_rates(self) -> np.ndarray:
        """Windowed heart rate observed at each beat (as the app saw it)."""
        return np.array([e.heart_rate for e in self.events], dtype=np.float64)

    def cores(self) -> np.ndarray:
        """Core allocation in effect at each beat."""
        return np.array([e.allocated_cores for e in self.events], dtype=np.int64)

    def effective_cores(self) -> np.ndarray:
        return np.array([e.effective_cores for e in self.events], dtype=np.int64)

    def average_heart_rate(self) -> float:
        """Whole-run average rate (Table 2 metric) from the recorded events."""
        if not self.events:
            return 0.0
        return global_rate(self.events[0].timestamp, self.events[-1].timestamp, len(self.events))


class ExecutionEngine:
    """Runs simulated processes to a beat count on a shared simulated clock.

    Parameters
    ----------
    clock:
        The simulated clock shared with every heartbeat stream involved in
        the experiment.
    per_beat_overhead:
        Fixed simulated seconds added to every beat, modelling the (small)
        cost of the heartbeat API itself and of the surrounding loop.  The
        overhead experiment (Section 5.1) varies this explicitly; the figure
        experiments leave it at zero.
    """

    def __init__(self, clock: SimulatedClock, *, per_beat_overhead: float = 0.0) -> None:
        if per_beat_overhead < 0:
            raise ValueError(f"per_beat_overhead must be >= 0, got {per_beat_overhead}")
        self.clock = clock
        self.per_beat_overhead = float(per_beat_overhead)
        self._before_hooks: list[BeatHook] = []
        self._after_hooks: list[BeatHook] = []

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def add_before_beat(self, hook: BeatHook) -> None:
        """Register a hook invoked before each beat's work is simulated."""
        self._before_hooks.append(hook)

    def add_after_beat(self, hook: BeatHook) -> None:
        """Register a hook invoked right after each heartbeat is registered."""
        self._after_hooks.append(hook)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        process: SimulatedProcess,
        beats: int,
        *,
        rate_window: int = 0,
        stop_when_stalled: bool = True,
        seed: int | None = None,
    ) -> RunResult:
        """Run ``process`` until it has produced ``beats`` more heartbeats.

        ``rate_window`` selects the window used for the per-beat
        :attr:`BeatEvent.heart_rate` sample (0 = the heartbeat's default
        window).  When the process loses all usable cores and
        ``stop_when_stalled`` is True the run ends early — the application
        can no longer make progress, which is precisely the condition a
        liveness monitor would flag.  Passing ``seed`` reseeds the process's
        workload (:meth:`~repro.workloads.base.Workload.reseed`) before the
        first beat, making the run bit-reproducible regardless of prior use.
        """
        if beats < 0:
            raise ValueError(f"beats must be >= 0, got {beats}")
        if seed is not None:
            process.workload.reseed(seed)
        result = RunResult(workload=process.workload.name)
        for i in range(beats):
            beat_index = process.beats_completed
            for hook in self._before_hooks:
                hook(beat_index, process, self)
            duration = process.beat_duration(beat_index)
            if not np.isfinite(duration):
                if stop_when_stalled:
                    break
                raise RuntimeError(
                    f"process {process.pid} has no usable cores and cannot make progress"
                )
            self.clock.advance(duration + self.per_beat_overhead)
            tag = process.workload.tag(beat_index)
            process.heartbeat.heartbeat(tag=tag, thread_id=process.pid)
            process.beats_completed += 1
            event = BeatEvent(
                beat=beat_index,
                timestamp=self.clock.now(),
                duration=duration + self.per_beat_overhead,
                allocated_cores=process.allocated_cores,
                effective_cores=process.effective_cores,
                heart_rate=process.heartbeat.current_rate(rate_window),
                tag=tag,
            )
            result.events.append(event)
            for hook in self._after_hooks:
                hook(beat_index, process, self)
        return result

    def run_concurrent(
        self,
        processes: Sequence[SimulatedProcess],
        beats: int,
        *,
        rate_window: int = 0,
        seed: int | None = None,
    ) -> dict[int, RunResult]:
        """Interleave several processes beat-by-beat on the shared clock.

        Each call simulates ``beats`` heartbeats *per process*, always
        advancing the process whose next beat would complete earliest — a
        simple event-driven interleaving sufficient for the cloud/cluster
        scenarios where several Heartbeat-enabled applications run at once.
        Note that processes contend only through explicit allocations; the
        machine does not model time-slicing within a core.  Passing ``seed``
        reseeds every process's workload with ``seed + position`` (argument
        order, so the derived seeds are stable) before the first beat.
        """
        if seed is not None:
            for k, process in enumerate(processes):
                process.workload.reseed(seed + k)
        remaining = {p.pid: beats for p in processes}
        completion_time = {p.pid: self.clock.now() for p in processes}
        results = {p.pid: RunResult(workload=p.workload.name) for p in processes}
        by_pid = {p.pid: p for p in processes}
        while any(v > 0 for v in remaining.values()):
            candidates = []
            for pid, left in remaining.items():
                if left <= 0:
                    continue
                proc = by_pid[pid]
                duration = proc.beat_duration(proc.beats_completed)
                if not np.isfinite(duration):
                    remaining[pid] = 0  # stalled; drop from the schedule
                    continue
                candidates.append((completion_time[pid] + duration, pid, duration))
            if not candidates:
                break
            candidates.sort()
            finish, pid, duration = candidates[0]
            proc = by_pid[pid]
            for hook in self._before_hooks:
                hook(proc.beats_completed, proc, self)
            if finish > self.clock.now():
                self.clock.advance_to(finish)
            tag = proc.workload.tag(proc.beats_completed)
            proc.heartbeat.heartbeat(tag=tag, thread_id=proc.pid)
            proc.beats_completed += 1
            remaining[pid] -= 1
            completion_time[pid] = finish
            results[pid].events.append(
                BeatEvent(
                    beat=proc.beats_completed - 1,
                    timestamp=self.clock.now(),
                    duration=duration,
                    allocated_cores=proc.allocated_cores,
                    effective_cores=proc.effective_cores,
                    heart_rate=proc.heartbeat.current_rate(rate_window),
                    tag=tag,
                )
            )
            for hook in self._after_hooks:
                hook(proc.beats_completed - 1, proc, self)
        return results
