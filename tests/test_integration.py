"""Integration tests exercising several subsystems end to end."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np

from repro.clock import SimulatedClock, WallClock
from repro.core import SharedMemoryBackend
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus, HeartbeatMonitor
from repro.faults import FailureEvent, FaultInjector
from repro.scheduler import CoreAllocator, ExternalScheduler
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.workloads import BodytrackWorkload, FerretWorkload, create_workload


class TestWorkloadUnderScheduler:
    def test_scheduler_and_fault_injector_compose(self):
        """Scheduler adds cores; failures remove them; the rate recovers."""
        clock = SimulatedClock()
        machine = SimulatedMachine(8)
        workload = BodytrackWorkload(seed=0, noise=0.0)
        heartbeat = Heartbeat(window=10, clock=clock, history=4096)
        heartbeat.set_target_rate(2.5, 3.5)
        process = SimulatedProcess(workload, heartbeat, machine, cores=1)
        engine = ExecutionEngine(clock)
        injector = FaultInjector([FailureEvent(beat=80, cores=2)], total_cores=8)
        injector.attach(engine, machine)
        scheduler = ExternalScheduler(
            HeartbeatMonitor.attach(heartbeat, window=10),
            CoreAllocator(machine, process),
            decision_interval=4,
            rate_window=10,
        )
        scheduler.attach(engine)
        result = engine.run(process, 160, rate_window=10)
        rates = result.heart_rates()
        # In the window before the failure and again at the end of the run.
        assert 2.3 <= np.mean(rates[60:80]) <= 3.7
        assert 2.3 <= np.mean(rates[-20:]) <= 3.7
        # The failure actually removed capacity.
        assert machine.alive_cores == 6

    def test_two_instrumented_workloads_one_machine(self):
        """Two applications with separate heartbeats share the simulated clock."""
        clock = SimulatedClock()
        machine = SimulatedMachine(8)
        hb_a = Heartbeat(window=10, clock=clock, history=2048)
        hb_b = Heartbeat(window=10, clock=clock, history=2048)
        a = SimulatedProcess(create_workload("ferret", seed=0), hb_a, machine, cores=4, pid=1)
        b = SimulatedProcess(create_workload("swaptions", seed=0), hb_b, machine, cores=4, pid=2)
        ExecutionEngine(clock).run_concurrent([a, b], beats=40)
        assert hb_a.count == 40 and hb_b.count == 40
        # ferret (40.78 beat/s on 8 cores) is far faster than swaptions (2.27).
        assert hb_a.global_heart_rate() > 5 * hb_b.global_heart_rate()


class TestWallClockInstrumentation:
    def test_real_kernel_with_real_monitor(self):
        """A real (wall-clock) instrumented run is observable while it runs."""
        workload = FerretWorkload(seed=0, database_entries=512, dims=16)
        heartbeat = Heartbeat(window=10, clock=WallClock())
        heartbeat.set_target_rate(1.0, 1e9)
        monitor = HeartbeatMonitor.attach(heartbeat)
        workload.run_instrumented(heartbeat, beats=25)
        reading = monitor.read()
        assert reading.total_beats == 25
        assert reading.rate > 0.0
        assert reading.status is HealthStatus.HEALTHY


def _shared_memory_worker(segment_name: str, beats: int) -> None:
    backend = SharedMemoryBackend(name=segment_name, capacity=512)
    heartbeat = Heartbeat(window=10, backend=backend, clock=WallClock(rebase=False))
    heartbeat.set_target_rate(10.0, 10_000.0)
    for i in range(beats):
        heartbeat.heartbeat(tag=i)
    # Leave the segment alive long enough for the parent to read it.
    import time

    time.sleep(1.0)
    heartbeat.finalize()


class TestCrossProcessObservation:
    def test_monitor_reads_another_process(self):
        """An observer in this process reads beats produced by a child process."""
        segment = f"hb-test-{mp.current_process().pid}"
        ctx = mp.get_context("spawn")
        child = ctx.Process(target=_shared_memory_worker, args=(segment, 200))
        child.start()
        try:
            monitor = None
            for _ in range(100):
                try:
                    monitor = HeartbeatMonitor.attach_endpoint(
                        f"shm://{segment}", clock=WallClock(rebase=False)
                    )
                    break
                except Exception:
                    import time

                    time.sleep(0.05)
            assert monitor is not None, "could not attach to the child's segment"
            reading = None
            for _ in range(100):
                reading = monitor.read()
                if reading.total_beats >= 200:
                    break
                import time

                time.sleep(0.05)
            assert reading is not None
            assert reading.total_beats >= 200
            assert reading.target_min == 10.0
            assert reading.rate > 0.0
            monitor.close()
        finally:
            child.join(timeout=10)
            assert not child.is_alive()
