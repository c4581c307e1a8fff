#!/usr/bin/env python
"""Fleet-scale closed-loop adaptation from a declarative spec.

The fleet demo of the unified adaptation runtime (``repro.adapt``): a
simulated fleet mixing two kinds of heartbeat-instrumented services streams
telemetry into a TCP :class:`~repro.net.HeartbeatCollector`, and one
spec-built :class:`~repro.adapt.AdaptationEngine` co-adapts both kinds
through a single incremental fleet poll per tick:

* ``svc-*`` — scheduler-style services: an integer *cores* knob, rate
  proportional to cores, driven by a ``step`` controller through a
  :class:`~repro.adapt.FunctionActuator` (the external scheduler's policy,
  now three lines of spec);
* ``enc-*`` — encoder-style services: a discrete quality ladder whose lower
  levels are cheaper, driven by a ``ladder`` controller through a
  :class:`~repro.adapt.LadderActuator` (the adaptive encoder's policy).

Loops attach *dynamically*: a quarter of the fleet dials in mid-run and is
picked up by the engine with no re-configuration, and one producer is killed
to show the engine stops steering STALLED streams.  The spec, as TOML::

    [engine]
    liveness_timeout = 2.5

    [[loops]]
    match = "svc-*"
    target = "published"
    controller = { kind = "step" }
    actuator = "cores"

    [[loops]]
    match = "enc-*"
    target = "published"
    controller = { kind = "ladder", levels = 5 }
    actuator = "preset"

(The script builds the equivalent dict so it also runs on Python 3.10,
whose stdlib has no TOML parser.)

Environment knobs (used by the test suite to scale the demo):

``ADAPT_FLEET_STREAMS``  total producers (default 24; the acceptance demo
                         runs 1000)
``ADAPT_FLEET_TICKS``    engine ticks (default 14)
"""

from __future__ import annotations

import os
import sys
import time

from repro.adapt import AdaptSpec, FunctionActuator, LadderActuator
from repro.clock import SimulatedClock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.heartbeat import Heartbeat
from repro.net import HeartbeatCollector

STREAMS = int(os.environ.get("ADAPT_FLEET_STREAMS", "24"))
TICKS = int(os.environ.get("ADAPT_FLEET_TICKS", "14"))
DT = 1.0  # simulated seconds per engine tick
LIVENESS = 2.5 * DT

#: svc-* services: rate = 2 beats/s per core, goal 9-15 beats/s.  The
#: reachable speeds (even integers) sit strictly inside the window, so no
#: loop parks on an exact boundary where float rounding could flap it.
SVC_TARGET = (9.0, 15.0)
SVC_PER_CORE = 2.0
#: enc-* services: work per frame at each ladder level; rate = 48 / work.
ENC_WORK = (8.0, 6.0, 4.0, 2.4, 1.6)
ENC_CAPACITY = 48.0
ENC_TARGET = (28.0, 1e9)  # "at least 28 frames/s"

SPEC = {
    "engine": {"liveness_timeout": LIVENESS},
    "loops": [
        {"match": "svc-*", "target": "published", "controller": {"kind": "step"}, "actuator": "cores"},
        {
            "match": "enc-*",
            "target": "published",
            "controller": {"kind": "ladder", "levels": len(ENC_WORK)},
            "actuator": "preset",
        },
    ],
}


class SimProducer:
    """One simulated service: a knob, a heartbeat, a TCP exporter."""

    def __init__(self, name: str, clock: SimulatedClock, endpoint: str, kind: str, seed: int) -> None:
        self.name = name
        self.kind = kind
        self.alive = True
        self._carry = 0.0
        if kind == "svc":
            self.cores = 1 + seed % 12  # some start too slow, some too fast
            self.level = 0
        else:
            self.cores = 0
            self.level = 0  # most demanding preset: far below the rate goal
        # The collector's tcp:// URL plus per-stream query parameters is the
        # whole wiring; Heartbeat opens the network backend from it.
        self.heartbeat = Heartbeat(
            window=4,
            clock=clock,
            backend=f"{endpoint}?stream={name}&capacity=256&flush_interval=0.02",
        )
        target = SVC_TARGET if kind == "svc" else ENC_TARGET
        self.heartbeat.set_target_rate(*target)
        # One beat at spawn time anchors the first batch's interpolation, so
        # the very first tick already measures the true throughput.
        self.heartbeat.heartbeat()

    def rate(self) -> float:
        """The service's true achievable beat rate given its knob."""
        if self.kind == "svc":
            return self.cores * SVC_PER_CORE
        return ENC_CAPACITY / ENC_WORK[self.level]

    def produce(self, dt: float) -> int:
        """Register the tick's beats (the batch path: one frame over TCP)."""
        if not self.alive:
            return 0
        exact = self.rate() * dt + self._carry
        beats = int(exact)
        self._carry = exact - beats
        if beats:
            self.heartbeat.heartbeat_batch(beats)
        return beats

    def close(self) -> None:
        try:
            self.heartbeat.finalize()
        except Exception:
            pass


def wait_for_records(collector: HeartbeatCollector, expected: int, timeout: float = 60.0) -> None:
    """Block until the collector has landed ``expected`` records."""
    deadline = time.monotonic() + timeout
    while collector.stats()["records"] < expected:
        if time.monotonic() >= deadline:
            raise RuntimeError(
                f"collector landed {collector.stats()['records']}/{expected} records in time"
            )
        time.sleep(0.01)


def main() -> int:
    clock = SimulatedClock()
    spec = AdaptSpec.from_dict(SPEC)
    producers: dict[str, SimProducer] = {}

    # Knobs are code; specs only name them.  The factories close over the
    # producer registry, so the engine can steer services it has never been
    # introduced to — exactly how late joiners work below.
    def cores_actuator(name, reading, options):
        producer = producers[name]

        def set_cores(value: float) -> float:
            producer.cores = int(value)
            return float(producer.cores)

        return FunctionActuator(lambda: float(producer.cores), set_cores, bounds=(1, 32))

    def preset_actuator(name, reading, options):
        producer = producers[name]

        def on_change(level: int) -> None:
            producer.level = level

        return LadderActuator(len(ENC_WORK), initial_level=0, on_change=on_change)

    with HeartbeatCollector("127.0.0.1", 0) as collector:
        aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=LIVENESS)
        engine = spec.build_engine(
            aggregator=aggregator,
            actuators={"cores": cores_actuator, "preset": preset_actuator},
        )
        engine.attach_collector(collector)

        def spawn(index: int) -> SimProducer:
            kind = "svc" if index % 2 == 0 else "enc"
            producer = SimProducer(
                f"{kind}-{index:04d}", clock, collector.endpoint_url, kind, seed=index * 7
            )
            producers[producer.name] = producer
            return producer

        initial = max(1, STREAMS - STREAMS // 4)
        for i in range(initial):
            spawn(i)
        print(f"fleet: {initial} producers up, {STREAMS - initial} joining later")
        collector.wait_for_streams(initial, timeout=60.0)

        produced = 0
        late_joined = False
        victim: SimProducer | None = None
        for tick_index in range(TICKS):
            if not late_joined and tick_index == 3 and initial < STREAMS:
                for i in range(initial, STREAMS):
                    spawn(i)
                collector.wait_for_streams(STREAMS, timeout=60.0)
                late_joined = True
                print(f"tick {tick_index}: {STREAMS - initial} late producers dialled in")
            if victim is None and tick_index == max(4, TICKS - 6):
                victim = next(p for p in producers.values() if p.kind == "svc")
                victim.alive = False  # stops beating; the engine must notice
                print(f"tick {tick_index}: killed {victim.name}")
            clock.advance(DT)
            produced += sum(p.produce(DT) for p in producers.values())
            wait_for_records(collector, produced)
            tick = engine.tick()
            print(
                f"tick {tick.index}: loops={len(engine.loops)} decisions={tick.decisions} "
                f"changed={tick.changes} lagging={len(engine.lagging(tick.sample))}"
            )

        sample = engine.last_tick.sample
        stalled = sample.stalled()
        live_loops = {
            name: loop for name, loop in engine.loops.items() if name not in stalled
        }
        out_of_window = [
            name
            for name, loop in live_loops.items()
            if not loop.in_target(sample.reading(name).rate)
        ]

        # The demo's claims, asserted: every live loop converged into its
        # published window, late joiners included, and the killed producer
        # is STALLED rather than being steered on stale data.
        assert len(engine.loops) == STREAMS, (len(engine.loops), STREAMS)
        assert not out_of_window, f"{len(out_of_window)} loops out of window: {out_of_window[:5]}"
        assert victim is not None and victim.name in stalled, stalled[:5]
        victim_decisions = engine.loops[victim.name].decisions
        engine.tick()
        assert engine.loops[victim.name].decisions == victim_decisions, (
            "engine kept steering a stalled stream"
        )

        some_svc = next(p for p in producers.values() if p.kind == "svc" and p.alive)
        some_enc = next(p for p in producers.values() if p.kind == "enc")
        print(
            f"converged: e.g. {some_svc.name} holds {some_svc.cores} cores "
            f"({some_svc.rate():.1f} beat/s in {SVC_TARGET}), {some_enc.name} settled "
            f"on level {some_enc.level} ({some_enc.rate():.1f} frame/s >= {ENC_TARGET[0]})"
        )
        print(f"stalled and un-steered: {victim.name}")

        for producer in producers.values():
            producer.close()
        engine.close(close_aggregator=True)
    print("adaptation engine demo OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
