"""Fleet-scale adaptation: many control loops over one incremental poll.

:class:`AdaptationEngine` closes the loop the fleet observation pipeline
left open: a :class:`~repro.core.aggregator.HeartbeatAggregator` already
turns thousands of heartbeat streams into one O(new-beats) incremental
:meth:`poll`, and the engine reads the sample's *columns* to find the streams
that beat since its previous tick and steps only their
:class:`~repro.adapt.loop.ControlLoop` — decisions are paced by beats, as in
the paper, not by the observer's clock, so a mostly idle 10k-stream fleet
costs a few vector operations plus the loops that had news.

Membership is dynamic.  Streams that appear (a producer dials into an
attached collector, a registry grows) are offered to the ``loop_factory``,
which returns a loop to manage them or ``None`` to leave them observed-only;
streams that vanish from the aggregator have their loops dropped.  Streams
classified STALLED are observed but not stepped — acting on a dead
producer's stale rate is how a balancer migrates a VM into the ground.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, Mapping, Union

import numpy as np

from repro.adapt.loop import ControlLoop, DecisionTrace
from repro.core.aggregator import FleetSample, HeartbeatAggregator
from repro.core.monitor import MonitorReading
from repro.obs.registry import MetricsRegistry

__all__ = ["AdaptationEngine", "EngineTick", "LoopFactory"]

#: Offered one (stream name, first reading) pair per new stream; returns the
#: loop that should manage the stream, or ``None`` to leave it unmanaged.
LoopFactory = Callable[[str, MonitorReading], Union[ControlLoop, None]]


@dataclass(frozen=True, slots=True)
class EngineTick:
    """What one :meth:`AdaptationEngine.tick` observed and decided."""

    #: Monotonic tick index (the beat number loops were stepped with).
    index: int
    #: The fleet sample the decisions were based on.
    sample: FleetSample
    #: Streams that gained a loop this tick.
    attached: tuple[str, ...]
    #: Streams whose loop was dropped this tick (stream vanished).
    detached: tuple[str, ...]
    #: Decisions taken this tick, in sample order.
    traces: tuple[DecisionTrace, ...]
    #: Per-stream factory/step failures this tick (one bad stream never
    #: poisons the rest of the fleet; its error is reported here instead).
    errors: Mapping[str, str]

    @property
    def decisions(self) -> int:
        return len(self.traces)

    @property
    def changes(self) -> int:
        """How many decisions actually moved an actuator."""
        return sum(1 for trace in self.traces if trace.changed)


class AdaptationEngine:
    """Runs many control loops over a fleet through one aggregator.

    A tick steps the loops whose stream has *news*: its total beat count
    differs from the one the previous tick saw (a stream seen for the first
    time, or whose count dropped because its producer restarted, has news).
    A stream without news keeps its controller state, cadence and knob
    exactly as they were.  ``loops`` maps stream name to loop; read it
    freely, but leave adding and removing to the engine.

    Parameters
    ----------
    aggregator:
        The observation fan-in.  Attach local heartbeats, files, segments,
        registries or collectors to it (or through the engine's
        :meth:`attach_collector` convenience) — the engine adapts whatever
        the aggregator observes.
    loop_factory:
        Called once per newly observed stream with its first reading.
        Streams with no published goal are re-offered on later ticks (their
        producer may publish a target after dialling in); a ``None`` for a
        stream that *has* a goal is remembered and the stream stays
        unmanaged.
    min_beats:
        Beats a stream must have produced before its loop is stepped (a
        rate needs two beats to exist at all).
    step_stalled:
        Also step, on every tick, loops whose stream is classified STALLED
        (which by then has no news).  Off by default: a stalled stream's
        rate is stale, and acting on it usually does harm.
    metrics:
        The :class:`~repro.obs.registry.MetricsRegistry` holding the
        engine's tick/decision counters, the rows each tick stepped and
        skipped for want of news, the ticks that re-synced membership, and
        the tick-duration histogram.  A
        private registry is created when omitted.
    """

    def __init__(
        self,
        aggregator: HeartbeatAggregator,
        loop_factory: LoopFactory,
        *,
        min_beats: int = 2,
        step_stalled: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if min_beats < 0:
            raise ValueError(f"min_beats must be >= 0, got {min_beats}")
        self._aggregator = aggregator
        self._factory = loop_factory
        self._min_beats = int(min_beats)
        self._step_stalled = bool(step_stalled)
        self.loops: dict[str, ControlLoop] = {}
        self._declined: set[str] = set()
        self._forget_columns()
        self._ticks = 0
        self.last_tick: EngineTick | None = None
        #: The exception that killed the threaded drive, if one did; the
        #: drive also flips :attr:`running` off, so a silent dead thread
        #: can never masquerade as a live engine.
        self.last_error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._tick_lock = threading.Lock()
        self._listeners: list[Callable[[EngineTick], None]] = []

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_ticks = self.metrics.counter(
            "engine_ticks_total", help="engine rounds run"
        )
        self._m_decisions = self.metrics.counter(
            "engine_decisions_total", help="control decisions taken"
        )
        self._m_changes = self.metrics.counter(
            "engine_changes_total", help="decisions that moved an actuator"
        )
        self._m_stream_errors = self.metrics.counter(
            "engine_stream_errors_total", help="per-stream factory/step failures"
        )
        self._m_rows_stepped = self.metrics.counter(
            "engine_rows_stepped_total", help="managed rows stepped"
        )
        self._m_rows_skipped = self.metrics.counter(
            "engine_rows_skipped_no_news_total",
            help="managed rows left unstepped because they had no new beats",
        )
        self._m_resyncs = self.metrics.counter(
            "engine_membership_resyncs_total",
            help="ticks that re-synced loops with a changed stream membership",
        )
        self._m_tick_duration = self.metrics.histogram(
            "engine_tick_duration_seconds", help="wall time of one engine tick, poll included"
        )
        self.metrics.gauge(
            "engine_loops", help="streams under active management",
            fn=lambda: float(len(self.loops)),
        )

    # ------------------------------------------------------------------ #
    # Observation plumbing
    # ------------------------------------------------------------------ #
    @property
    def aggregator(self) -> HeartbeatAggregator:
        """The underlying fleet observer."""
        return self._aggregator

    def attach_collector(self, collector: object, *, prefix: str = "") -> list[str]:
        """Observe every stream of a network collector (dynamic attachment)."""
        return self._aggregator.attach_collector(collector, prefix=prefix)  # type: ignore[arg-type]

    @property
    def ticks(self) -> int:
        """Ticks run so far."""
        return self._ticks

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self) -> Iterator[ControlLoop]:
        return iter(list(self.loops.values()))

    def subscribe(self, listener: Callable[[EngineTick], None]) -> Callable[[], None]:
        """Call ``listener`` with every :class:`EngineTick`, as it happens.

        Listeners run on the ticking thread, in subscription order, after
        the tick's state is committed (``last_tick`` already updated); a
        listener that raises is skipped for that tick, never unsubscribed,
        and never breaks the tick itself.  Returns an idempotent
        unsubscribe callable.

        This is the engine's export hook: a
        :class:`~repro.obs.tracing.FlightRecorder` streams decisions to
        JSONL through it, and the dashboard streams them over SSE.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    # ------------------------------------------------------------------ #
    # The engine step
    # ------------------------------------------------------------------ #
    def tick(self) -> EngineTick:
        """One engine round: poll the fleet, sync loops, step the loops with news.

        Vector operations over the sample's columns pick the rows to step —
        total changed since the previous tick, at least ``min_beats``, not
        STALLED (``step_stalled=True`` adds the stalled rows back) — and only
        those reach Python, one ``ControlLoop.step`` each.  Membership is
        re-synced only when ``sample.names`` changed or a stream held across
        an erroring poll left ``sample.errors``; otherwise only the goalless
        rows awaiting re-offer are offered again.  Concurrent calls (a
        threaded drive racing a manual tick) are serialised.
        """
        with self._tick_lock:
            return self._tick_locked()

    def _tick_locked(self) -> EngineTick:
        start = time.perf_counter()
        sample = self._aggregator.poll()
        index = self._ticks
        self._ticks += 1

        errors: dict[str, str] = {}
        attached: tuple[str, ...] = ()
        detached: tuple[str, ...] = ()
        if sample.names != self._names or self._held - sample.errors.keys():
            attached, detached = self._sync_membership(sample, errors)
        elif self._awaiting:
            attached = self._reoffer(sample, errors)

        total, stalled = sample.totals(), sample.stalled_mask()
        news = total != self._prev_total
        wanted = (news | stalled) if self._step_stalled else (news & ~stalled)
        eligible = self._managed & (total >= self._min_beats) & wanted
        skipped = int(np.count_nonzero(self._managed & ~(news | eligible)))
        self._prev_total = total

        traces: list[DecisionTrace] = []
        rows = np.nonzero(eligible)[0]
        for i, rate in zip(rows.tolist(), sample.rates()[rows].tolist()):
            loop = self._aligned[i]
            try:
                trace = loop.step(index, rate=rate)  # type: ignore[union-attr]
            except Exception as exc:
                errors[sample.names[i]] = f"step failed: {exc}"
                continue
            if trace is not None:
                traces.append(trace)

        tick = EngineTick(index, sample, attached, detached, tuple(traces), errors)
        self.last_tick = tick
        self._m_ticks.inc()
        self._m_decisions.inc(tick.decisions)
        self._m_changes.inc(tick.changes)
        self._m_stream_errors.inc(len(errors))
        self._m_rows_stepped.inc(len(rows))
        self._m_rows_skipped.inc(skipped)
        self._m_tick_duration.observe(time.perf_counter() - start)
        for listener in list(self._listeners):
            try:
                listener(tick)
            except Exception:  # noqa: BLE001 - a bad exporter must not stop ticking
                pass
        return tick

    def _forget_columns(self) -> None:
        """Empty the state kept position-aligned with the last ``sample.names``."""
        self._names: tuple[str, ...] = ()
        self._aligned: list[ControlLoop | None] = []
        self._managed = np.zeros(0, dtype=bool)
        self._prev_total = np.zeros(0, dtype=np.int64)
        self._held: set[str] = set()
        #: Rows of goalless streams the factory refused: offered again every tick.
        self._awaiting: list[int] = []

    def _sync_membership(
        self, sample: FleetSample, errors: dict[str, str]
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Drop, offer and re-align with ``sample.names``; returns ``(attached, detached)``.

        A stream in ``sample.errors`` is merely unreadable this poll: its
        loop, or the factory's refusal of it, is kept.
        """
        self._m_resyncs.inc()
        names = sample.names
        present = set(names).union(sample.errors)
        detached = tuple(name for name in self.loops if name not in present)
        for name in detached:
            del self.loops[name]
        self._declined &= present

        pending = [i for i, name in enumerate(names) if name not in self.loops and name not in self._declined]
        attached = tuple(names[i] for i in self._offer(sample, pending, errors))

        previous = dict(zip(self._names, self._prev_total.tolist(), strict=True))
        self._names = names
        self._aligned = [self.loops.get(name) for name in names]
        self._managed = np.array([loop is not None for loop in self._aligned], dtype=bool)
        # -1 is no beat count: a stream seen for the first time has news.
        self._prev_total = np.array([previous.get(name, -1) for name in names], dtype=np.int64)
        # Held across an erroring poll; gone for good once it leaves errors too.
        self._held = present.difference(names)
        return attached, detached

    def _reoffer(self, sample: FleetSample, errors: dict[str, str]) -> tuple[str, ...]:
        """Offer the awaiting rows again, with ``sample.names`` unchanged; returns those attached."""
        rows = self._offer(sample, self._awaiting, errors)
        for i in rows:
            self._aligned[i] = self.loops[sample.names[i]]
            self._managed[i] = True
        return tuple(sample.names[i] for i in rows)

    def _offer(self, sample: FleetSample, rows: list[int], errors: dict[str, str]) -> list[int]:
        """Offer ``rows`` of ``sample`` to the loop factory; returns the rows attached.

        A goalless refusal is kept in ``_awaiting`` for the next tick; every
        other refusal, and a factory that raises, declines the stream.
        """
        names = sample.names
        if 4 * len(rows) >= len(names):
            # Many pending (a fleet's first tick): one pass over the bulk
            # rows beats building them one by one.  ``rows`` is ascending,
            # so ``compress`` yields them in its order.
            picked = np.zeros(len(names), dtype=bool)
            picked[rows] = True
            readings = compress(sample.readings, picked.tolist())
        else:
            readings = map(sample.reading_at, rows)
        attached: list[int] = []
        awaiting: list[int] = []
        for i, reading in zip(rows, readings):
            name = names[i]
            try:
                loop = self._factory(name, reading)
            except Exception as exc:
                # One stream with a poisoned goal or a broken factory must
                # not take the fleet down; refuse it and report.
                errors[name] = f"loop factory failed: {exc}"
                self._declined.add(name)
                continue
            if loop is None:
                if reading.target_min > 0.0 or reading.target_max > 0.0:
                    # Goal published and still refused: a definitive "not
                    # managed".  Goalless streams are re-offered later.
                    self._declined.add(name)
                else:
                    awaiting.append(i)
                continue
            self.loops[name] = loop
            attached.append(i)
        self._awaiting = awaiting
        return attached

    def run(
        self,
        ticks: int,
        *,
        interval: float = 0.0,
        between: Callable[[EngineTick], None] | None = None,
    ) -> list[EngineTick]:
        """Run ``ticks`` engine rounds, sleeping ``interval`` between them.

        ``between`` is called after every tick (simulations advance their
        clock and produce the next round of beats there).
        """
        if ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {ticks}")
        results: list[EngineTick] = []
        for i in range(ticks):
            results.append(self.tick())
            if between is not None:
                between(results[-1])
            if interval > 0 and i + 1 < ticks:
                time.sleep(interval)
        return results

    # ------------------------------------------------------------------ #
    # Fleet-level questions
    # ------------------------------------------------------------------ #
    def _managed_rows(self, sample: FleetSample) -> list[tuple[str, ControlLoop, float, int]]:
        """``(name, loop, rate, total)`` for every managed stream in ``sample``."""
        loops = map(self.loops.get, sample.names)
        rows = zip(sample.names, loops, sample.rates().tolist(), sample.totals().tolist())
        return [(name, loop, rate, total) for name, loop, rate, total in rows if loop is not None]

    def converged(self, sample: FleetSample | None = None) -> bool:
        """True when every managed stream's rate sits inside its loop's window.

        Streams still warming up (< ``min_beats``) count as not converged.
        ``sample`` defaults to the last tick's sample.
        """
        if sample is None:
            if self.last_tick is None:
                return False
            sample = self.last_tick.sample
        if not self.loops:
            return False
        rows = self._managed_rows(sample)
        need = max(self._min_beats, 2)
        return len(rows) == len(self.loops) and all(
            total >= need and loop.in_target(rate) for _, loop, rate, total in rows
        )

    def lagging(self, sample: FleetSample | None = None) -> list[str]:
        """Managed streams currently outside their loop's target window."""
        if sample is None:
            sample = self.last_tick.sample if self.last_tick is not None else None
        if sample is None:
            return sorted(self.loops)
        rows = self._managed_rows(sample)
        out = [name for name, loop, rate, _ in rows if not loop.in_target(rate)]
        if len(rows) < len(self.loops):  # managed, but absent from this sample
            seen = {row[0] for row in rows}
            out.extend(name for name in self.loops if name not in seen)
        return out

    # ------------------------------------------------------------------ #
    # Threaded drive and lifecycle
    # ------------------------------------------------------------------ #
    def start(self, interval: float) -> None:
        """Tick the engine every ``interval`` seconds on a background thread.

        A tick that raises stops the drive, records the exception in
        :attr:`last_error` and marks the engine not :attr:`running` — per-
        stream failures are already absorbed into ``EngineTick.errors``, so
        anything reaching here is a systemic fault the owner must see.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if self._thread is not None:
            raise RuntimeError("engine is already running")
        self._stop.clear()
        self.last_error = None

        def drive() -> None:
            try:
                while not self._stop.wait(interval):
                    self.tick()
            except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
                self.last_error = exc
            finally:
                self._thread = None

        self._thread = threading.Thread(target=drive, name="adaptation-engine", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the threaded drive (no-op when not running)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        """True while the threaded drive is alive (False once it errors)."""
        return self._thread is not None

    def close(self, *, close_aggregator: bool = False) -> None:
        """Stop driving and drop every loop; optionally close the aggregator."""
        self.stop()
        for loop in self.loops.values():
            loop.stop()
        self.loops.clear()
        self._declined.clear()
        self._forget_columns()
        self._listeners.clear()
        if close_aggregator:
            self._aggregator.close()

    def __enter__(self) -> "AdaptationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdaptationEngine(loops={len(self.loops)}, ticks={self._ticks})"
