"""Integration tests: the adaptation engine over a collector-fed fleet.

The acceptance demo for the unified adaptation runtime: a simulated fleet
streams telemetry into a TCP collector, loops attach dynamically as
producers dial in, and every live loop converges into its published target
window.  The subprocess run reuses the shipped example
(``examples/adaptation_engine.py``) so the demo the docs point at is exactly
what is tested — at 100 streams in tier-1, at the 1000-stream acceptance
scale under ``--runslow``; a smaller in-process test covers the collector
attach path without subprocess indirection.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.adapt import AdaptSpec, FunctionActuator
from repro.clock import SimulatedClock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.heartbeat import Heartbeat
from repro.net import HeartbeatCollector, NetworkBackend

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


class TcpProducer:
    """An in-process producer exporting beats to a collector over TCP."""

    def __init__(self, name: str, clock: SimulatedClock, endpoint: str, speed: float) -> None:
        self.name = name
        self.speed = float(speed)
        backend = NetworkBackend(endpoint, stream=name, capacity=128, flush_interval=0.02)
        self.heartbeat = Heartbeat(window=4, clock=clock, backend=backend)
        self.heartbeat.set_target_rate(9.0, 15.0)
        self.heartbeat.heartbeat()
        self._carry = 0.0

    def produce(self, dt: float) -> int:
        exact = self.speed * dt + self._carry
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


def _wait_records(collector: HeartbeatCollector, expected: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while collector.stats()["records"] < expected:
        assert time.monotonic() < deadline, (
            f"collector landed {collector.stats()['records']}/{expected} records"
        )
        time.sleep(0.01)


class TestCollectorFleetAdaptation:
    def test_loops_attach_as_producers_dial_in_and_converge(self):
        """Collector-fed engine: dynamic attach, spec-built loops, convergence."""
        clock = SimulatedClock()
        producers: dict[str, TcpProducer] = {}
        spec = AdaptSpec.from_dict(
            {
                "engine": {"liveness_timeout": 2.5},
                "loops": [{"match": "svc-*", "target": "published", "actuator": "speed"}],
            }
        )

        def speed_actuator(name, reading, options):
            producer = producers[name]

            def set_speed(value):
                producer.speed = float(value)
                return producer.speed

            return FunctionActuator(lambda: producer.speed, set_speed, bounds=(1.0, 64.0))

        with HeartbeatCollector() as collector:
            aggregator = HeartbeatAggregator(clock=clock, liveness_timeout=2.5)
            engine = spec.build_engine(
                aggregator=aggregator, actuators={"speed": speed_actuator}
            )
            engine.attach_collector(collector)
            with engine:
                produced = 0
                for i in range(10):
                    producers[f"svc-{i:02d}"] = TcpProducer(
                        f"svc-{i:02d}", clock, collector.endpoint, speed=2.0 + 3 * i
                    )
                assert collector.wait_for_streams(10, timeout=30.0)
                for tick_index in range(20):
                    if tick_index == 4:
                        # Half as many again dial in mid-run: nobody
                        # reconfigures anything, the engine just adopts them.
                        for i in range(10, 15):
                            producers[f"svc-{i:02d}"] = TcpProducer(
                                f"svc-{i:02d}", clock, collector.endpoint, speed=24.0
                            )
                        assert collector.wait_for_streams(15, timeout=30.0)
                    clock.advance(1.0)
                    produced += sum(p.produce(1.0) for p in producers.values())
                    _wait_records(collector, produced)
                    tick = engine.tick()
                assert len(engine.loops) == 15
                assert tick.sample.errors == {}
                assert engine.converged()
                for producer in producers.values():
                    assert 9.0 <= producer.speed <= 15.0
                for producer in producers.values():
                    producer.close()
            aggregator.close()

    @pytest.mark.parametrize(
        ("streams", "timeout"),
        [
            pytest.param(100, 300, id="100-streams"),
            pytest.param(1000, 900, id="1000-streams", marks=pytest.mark.slow),
        ],
    )
    def test_fleet_demo(self, streams, timeout):
        """The acceptance run: the shipped example over a fleet of TCP streams.

        Runs the real ``examples/adaptation_engine.py`` (its own assertions
        check convergence of every live loop, dynamic attach of late
        joiners, and that a killed producer goes STALLED un-steered).  Tier-1
        runs it at 100 streams; the 1000-stream acceptance scale spawns a
        thousand sender threads — minutes on a small host, its own 300 s
        timeout a coin flip there — so it is ``slow`` (``--runslow``).
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env.update(ADAPT_FLEET_STREAMS=str(streams), ADAPT_FLEET_TICKS="14")
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "adaptation_engine.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
        assert "adaptation engine demo OK" in result.stdout
        assert f"loops={streams}" in result.stdout
        assert "stalled and un-steered" in result.stdout
