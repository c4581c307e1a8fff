#!/usr/bin/env python
"""Fleet observation: batched ingestion + the multi-stream aggregator.

Simulates a small "fleet" of instrumented services, each registering progress
with the batched API (``heartbeat_batch`` — one lock acquisition and one
vectorized buffer write per batch of work items), while a single external
observer watches all of them through a :class:`HeartbeatAggregator`: the
paper's Figure 1(b) observer generalized from one stream to many.

Run with::

    python examples/fleet_aggregator.py
"""

from __future__ import annotations

from repro import Heartbeat, TelemetrySession
from repro.clock import SimulatedClock


def main() -> None:
    clock = SimulatedClock()
    session = TelemetrySession(clock=clock)

    # Twelve services, each publishing the same goal but progressing at a
    # different pace; service i completes 120 - 9*i work items per tick.
    # Each service is one mem:// endpoint; the fleet observer attaches the
    # same URLs.
    services: dict[str, Heartbeat] = {}
    for i in range(12):
        service = session.produce(
            f"mem://svc-{i:02d}", window=256, history=4096, target=(60.0, 1000.0)
        )
        services[service.name] = service
    aggregator = session.fleet(*(f"mem://{name}" for name in services), liveness_timeout=5.0)

    # One simulated second per tick; each service ingests its whole tick's
    # worth of completed work items as a single batch.
    for tick in range(30):
        clock.advance(1.0)
        for i, service in enumerate(services.values()):
            completed = 120 - 9 * i
            if tick < 20 or i != 3:  # svc-03 goes silent after tick 20
                service.heartbeat_batch(completed, tag=tick)

    # One poll observes the whole fleet.
    sample = aggregator.poll()
    print(f"fleet of {len(sample)} streams, {sample.total_beats()} beats total")
    for name, reading in sample:
        print(
            f"  {name}: rate={reading.rate:7.1f} beat/s "
            f"target=[{reading.target_min:.0f}, {reading.target_max:.0f}] "
            f"status={reading.status.value}"
        )

    summary = sample.summary()
    print(
        f"summary: mean={summary.mean:.1f} p50={summary.percentiles[50.0]:.1f} "
        f"p90={summary.percentiles[90.0]:.1f} p99={summary.percentiles[99.0]:.1f} "
        f"lagging={summary.lagging} stalled={summary.stalled}"
    )
    print("lagging (worst first):", ", ".join(sample.lagging()) or "none")
    print("stalled:", ", ".join(sample.stalled()) or "none")

    session.close()  # releases the aggregator, then finalises every service


if __name__ == "__main__":
    main()
