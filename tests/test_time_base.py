"""One time base across processes: a producer that passes no clock.

A ``Heartbeat`` stamps beats with its default :class:`~repro.clock.WallClock`
and every observer reads ages with its own default, so the two must be the
same host-wide clock.  A producer in a spawned process beats on ``shm://``
with no clock; each observer door (``TelemetrySession.observe``,
``TelemetrySession.fleet`` and ``HeartbeatMonitor.attach_endpoint``), built
with no clock either, must read the stream as a few milliseconds old and
alive — not as old as the host's uptime, and not as beating in the future.
"""

from __future__ import annotations

import multiprocessing as mp
import os

from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus, HeartbeatMonitor
from repro.session import TelemetrySession

#: Seconds between the producer's beats.
_BEAT_INTERVAL = 0.02


def _producer(name: str, ready, stop) -> None:
    """Beat on ``shm://name`` every ``_BEAT_INTERVAL`` s until ``stop``; no clock passed."""
    hb = Heartbeat(window=10, backend=f"shm://{name}")
    hb.heartbeat()
    ready.set()
    while not stop.wait(_BEAT_INTERVAL):
        hb.heartbeat()
    hb.finalize()


class TestSpawnedProducerTimeBase:
    def test_every_observer_door_reads_a_default_producer_as_fresh(self):
        ctx = mp.get_context("spawn")
        ready, stop = ctx.Event(), ctx.Event()
        name = f"hb-time-base-{os.getpid()}"
        url = f"shm://{name}"
        child = ctx.Process(target=_producer, args=(name, ready, stop))
        child.start()
        try:
            assert ready.wait(60.0), "the producer process never came up"
            with TelemetrySession(liveness_timeout=5.0) as session:
                observed = session.observe(url)
                fleet = session.fleet(url)
                direct = HeartbeatMonitor.attach_endpoint(url, liveness_timeout=5.0)
                try:
                    readings = {
                        "session.observe": observed.read(),
                        "session.fleet": fleet.poll().readings[0],
                        "HeartbeatMonitor.attach_endpoint": direct.read(),
                    }
                finally:
                    direct.close()
        finally:
            stop.set()
            child.join(timeout=60.0)
        assert child.exitcode == 0
        for door, reading in readings.items():
            assert reading.total_beats >= 1, (door, reading)
            assert reading.age is not None and 0.0 <= reading.age < 1.0, (door, reading)
            assert reading.status is not HealthStatus.STALLED, (door, reading)
