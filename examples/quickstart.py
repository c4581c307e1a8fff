#!/usr/bin/env python
"""Quickstart: instrument a loop with Application Heartbeats.

This is the minimal pattern of the paper's Section 3: initialise the
framework with a default rate window, publish a target heart-rate range,
register one heartbeat per unit of work, and read the windowed heart rate
back — both from inside the application (the object API) and from an
external observer (the monitor).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import TelemetrySession


def do_work_unit(i: int) -> float:
    """Stand-in for one unit of real application work (~5 ms)."""
    deadline = time.perf_counter() + 0.005
    acc = 0.0
    while time.perf_counter() < deadline:
        acc += i * 0.5
    return acc


def main() -> None:
    # One session, one time base: the host-wide monotonic clock.
    session = TelemetrySession()
    # HB_initialize(window=20) + HB_set_target_rate(150, 250): a heartbeat
    # stream at the mem:// endpoint with a 20-beat default window and the
    # goal this loop wants to maintain.  The same URL with file://, shm://
    # or tcp:// would publish the stream across processes or machines.
    heartbeat = session.produce("mem://quickstart", window=20, target=(150.0, 250.0))

    # An external observer could live in another thread, another process
    # (file or shared-memory endpoint), the OS, or hardware.  Here it simply
    # shares the process, observing the same endpoint by name.
    monitor = session.observe("mem://quickstart")

    for i in range(200):
        do_work_unit(i)
        heartbeat.heartbeat(tag=i)  # HB_heartbeat(tag)
        if i and i % 50 == 0:
            reading = monitor.read()
            print(
                f"beat {i:3d}: rate={reading.rate:7.1f} beat/s "
                f"target=[{reading.target_min:.0f}, {reading.target_max:.0f}] "
                f"status={reading.status.value}"
            )

    print()
    print(f"total beats            : {heartbeat.count}")
    print(f"whole-run heart rate   : {heartbeat.global_heart_rate():.1f} beat/s")
    print(f"last-20-beat heart rate: {heartbeat.current_rate():.1f} beat/s")
    history = heartbeat.get_history(5)
    print("last five heartbeats    :")
    for record in history:
        print(f"  beat={record.beat} t={record.timestamp:.4f}s tag={record.tag}")
    session.close()  # finalises the stream and detaches the observer


if __name__ == "__main__":
    main()
