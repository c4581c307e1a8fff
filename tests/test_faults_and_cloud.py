"""Tests for fault injection and the cloud cluster substrate."""

from __future__ import annotations

import itertools

import pytest

from repro.clock import SimulatedClock
from repro.cloud import CloudCluster, HeartbeatLoadBalancer
from repro.core.heartbeat import Heartbeat
from repro.faults import FailureEvent, FaultInjector, RepairEvent
from repro.sim.engine import ExecutionEngine
from repro.sim.machine import SimulatedMachine
from repro.sim.process import SimulatedProcess
from repro.sim.scaling import LinearScaling


class UnitWorkload:
    name = "unit"
    scaling = LinearScaling(1.0)

    def work_per_beat(self, beat_index: int) -> float:
        return 1.0

    def tag(self, beat_index: int) -> int:
        return beat_index


class TestFaultInjector:
    def test_capacity_fraction_follows_schedule(self):
        injector = FaultInjector(
            [FailureEvent(beat=10), FailureEvent(beat=20, cores=2)], total_cores=8
        )
        assert injector.capacity_fraction(0) == 1.0
        assert injector.capacity_fraction(10) == pytest.approx(7 / 8)
        assert injector.capacity_fraction(25) == pytest.approx(5 / 8)
        assert injector.healthy_cores(25) == 5

    def test_repairs_restore_capacity(self):
        injector = FaultInjector(
            [FailureEvent(beat=5, cores=3)], repairs=[RepairEvent(beat=10, cores=2)], total_cores=4
        )
        assert injector.healthy_cores(7) == 1
        assert injector.healthy_cores(12) == 3

    def test_next_event_beat(self):
        injector = FaultInjector([FailureEvent(beat=10), FailureEvent(beat=30)])
        assert injector.next_event_beat(0) == 10
        assert injector.next_event_beat(10) == 30
        assert injector.next_event_beat(30) is None

    def test_apply_to_machine_is_idempotent(self):
        machine = SimulatedMachine(8)
        injector = FaultInjector([FailureEvent(beat=3, cores=2)], total_cores=8)
        assert injector.apply(machine, 2) is False
        assert injector.apply(machine, 3) is True
        assert machine.alive_cores == 6
        assert injector.apply(machine, 4) is False
        assert machine.alive_cores == 6

    def test_engine_hook_slows_the_application(self):
        clock = SimulatedClock()
        machine = SimulatedMachine(4)
        heartbeat = Heartbeat(window=5, clock=clock, history=512)
        process = SimulatedProcess(UnitWorkload(), heartbeat, machine, cores=4)
        injector = FaultInjector([FailureEvent(beat=10, cores=3)], total_cores=4)
        engine = ExecutionEngine(clock)
        injector.attach(engine, machine)
        result = engine.run(process, 20, rate_window=5)
        assert result.effective_cores()[5] == 4
        assert result.effective_cores()[15] == 1
        assert result.heart_rates()[-1] < result.heart_rates()[8]

    def test_reset_allows_reuse(self):
        machine = SimulatedMachine(4)
        injector = FaultInjector([FailureEvent(beat=0)], total_cores=4)
        injector.apply(machine, 0)
        machine.repair_all()
        injector.reset()
        assert injector.apply(machine, 0) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(beat=-1)
        with pytest.raises(ValueError):
            FailureEvent(beat=0, cores=0)
        with pytest.raises(ValueError):
            FaultInjector([], total_cores=0)


class TestCloudCluster:
    def test_vm_rate_follows_capacity_share(self):
        cluster = CloudCluster()
        node = cluster.add_node(capacity=20.0)
        vm = cluster.add_vm(work_per_beat=2.0, target_min=5.0, target_max=15.0, node=node)
        rates = cluster.step(10.0)
        assert rates[vm.vm_id] == pytest.approx(10.0)
        assert vm.heartbeat.count == 100
        assert vm.heartbeat.current_rate() == pytest.approx(10.0, rel=0.1)

    def test_capacity_shared_between_vms(self):
        cluster = CloudCluster()
        node = cluster.add_node(capacity=20.0)
        a = cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=20.0, node=node)
        b = cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=20.0, node=node)
        rates = cluster.step(1.0)
        assert rates[a.vm_id] == pytest.approx(10.0)
        assert rates[b.vm_id] == pytest.approx(10.0)

    def test_unplaced_or_dead_node_vm_makes_no_progress(self):
        cluster = CloudCluster()
        node = cluster.add_node(capacity=10.0)
        floating = cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=2.0)
        hosted = cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=2.0, node=node)
        node.fail()
        rates = cluster.step(5.0)
        assert rates[floating.vm_id] == 0.0
        assert rates[hosted.vm_id] == 0.0
        assert hosted.heartbeat.count == 0

    def test_fractional_rates_accumulate_via_carry(self):
        cluster = CloudCluster()
        node = cluster.add_node(capacity=1.0)
        vm = cluster.add_vm(work_per_beat=4.0, target_min=0.1, target_max=1.0, node=node)
        for _ in range(8):
            cluster.step(1.0)  # 0.25 beats per tick
        assert vm.heartbeat.count == 2

    def test_validation(self):
        cluster = CloudCluster()
        with pytest.raises(ValueError):
            cluster.add_node(capacity=0.0)
        node = cluster.add_node(capacity=5.0)
        with pytest.raises(ValueError):
            cluster.add_vm(work_per_beat=0.0, target_min=1.0, target_max=2.0, node=node)
        with pytest.raises(KeyError):
            cluster.place(999, node.node_id)
        with pytest.raises(ValueError):
            cluster.step(0.0)


class TestHeartbeatLoadBalancer:
    def test_errored_stream_treated_as_failure_not_crash(self):
        """A VM whose snapshot raises must be failed over, not abort manage()."""
        from repro.core.errors import BackendError

        cluster = CloudCluster()
        node_a = cluster.add_node(capacity=20.0)
        node_b = cluster.add_node(capacity=20.0)
        broken = cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=10.0, node=node_a)
        cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=10.0, node=node_b)
        for _ in range(5):
            cluster.step(1.0)
        balancer = HeartbeatLoadBalancer(cluster)

        def exploding_snapshot(n=None):
            raise BackendError("segment vanished")

        broken.heartbeat.backend.snapshot = exploding_snapshot
        # The incremental poll reads through the delta path; kill it too.
        broken.heartbeat.backend.snapshot_since = lambda cursor=None: exploding_snapshot()
        # A slab row is read in place, past both: make this one no row, so
        # the observer reads it through the failing calls.
        broken.heartbeat.backend.slab_row = lambda: None
        actions = balancer.manage()  # must not raise KeyError
        failovers = [a for a in actions if a.kind == "failover" and a.vm_id == broken.vm_id]
        assert len(failovers) == 1
        assert broken.node_id != node_a.node_id
        # Per-VM queries degrade gracefully too, and reuse this tick's poll
        # even though one stream is errored.
        assert balancer.vm_rate(broken) == 0.0
        assert balancer.vm_alive(broken) is False
        sample_before = balancer._last_sample
        balancer.vm_rate(broken)
        assert balancer._last_sample is sample_before

    def test_same_tick_vm_churn_invalidates_fleet_cache(self):
        """A VM added after this tick's poll must be observed, not defaulted.

        Regression: with the clock unadvanced, one VM removed and one added
        keeps the stream *count* equal, so a count-based cache check would
        serve the stale sample and report the live new VM as dead.
        """
        cluster = CloudCluster()
        node = cluster.add_node(capacity=20.0)
        cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=10.0, node=node)
        for _ in range(5):
            cluster.step(1.0)
        balancer = HeartbeatLoadBalancer(cluster)
        balancer.observe()
        removed = next(iter(cluster.vms))
        del cluster.vms[removed]  # same-tick churn: one out ...
        fresh = cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=10.0, node=node)
        fresh.heartbeat.heartbeat()  # ... one in, beating at this very tick
        assert balancer.vm_alive(fresh)

    def test_consolidates_light_vms_and_powers_down(self):
        cluster = CloudCluster()
        node_a = cluster.add_node(capacity=100.0)
        node_b = cluster.add_node(capacity=100.0)
        cluster.add_vm(work_per_beat=1.0, target_min=5.0, target_max=10.0, node=node_a)
        cluster.add_vm(work_per_beat=1.0, target_min=5.0, target_max=10.0, node=node_b)
        for _ in range(5):
            cluster.step(1.0)
        balancer = HeartbeatLoadBalancer(cluster)
        actions = balancer.manage()
        kinds = {a.kind for a in actions}
        assert "consolidate" in kinds
        assert "power_down" in kinds
        used_nodes = {vm.node_id for vm in cluster.vms.values()}
        assert len(used_nodes) == 1

    def test_migrates_slow_vm_to_node_with_headroom(self):
        cluster = CloudCluster()
        busy = cluster.add_node(capacity=10.0)
        idle = cluster.add_node(capacity=100.0)
        # Two VMs share the small node; each needs more than its share.
        cluster.add_vm(work_per_beat=1.0, target_min=8.0, target_max=12.0, node=busy)
        cluster.add_vm(work_per_beat=1.0, target_min=8.0, target_max=12.0, node=busy)
        for _ in range(5):
            cluster.step(1.0)
        balancer = HeartbeatLoadBalancer(cluster)
        actions = balancer.manage()
        assert any(a.kind == "migrate" for a in actions)
        assert any(vm.node_id == idle.node_id for vm in cluster.vms.values())

    def test_failover_when_heartbeats_stop(self):
        cluster = CloudCluster()
        primary = cluster.add_node(capacity=50.0)
        backup = cluster.add_node(capacity=50.0)
        vm = cluster.add_vm(work_per_beat=1.0, target_min=5.0, target_max=20.0, node=primary)
        for _ in range(5):
            cluster.step(1.0)
        primary.fail()
        for _ in range(10):
            cluster.step(1.0)  # no beats arrive any more
        balancer = HeartbeatLoadBalancer(cluster, liveness_timeout=3.0)
        actions = balancer.manage()
        assert any(a.kind == "failover" and a.vm_id == vm.vm_id for a in actions)
        assert vm.node_id == backup.node_id
        # After failover the VM makes progress again.
        before = vm.heartbeat.count
        cluster.step(1.0)
        assert vm.heartbeat.count > before

    def test_no_actions_when_everything_is_on_target(self):
        cluster = CloudCluster()
        node = cluster.add_node(capacity=10.0)
        cluster.add_vm(work_per_beat=1.0, target_min=8.0, target_max=12.0, node=node)
        for _ in range(5):
            cluster.step(1.0)
        balancer = HeartbeatLoadBalancer(cluster)
        assert balancer.manage() == []

    def test_validation(self):
        cluster = CloudCluster()
        with pytest.raises(ValueError):
            HeartbeatLoadBalancer(cluster, liveness_timeout=0.0)
        with pytest.raises(ValueError):
            HeartbeatLoadBalancer(cluster, headroom=-0.5)


class TestRemoteFleetBalancer:
    """Section-2.6 management driven by collected telemetry, not in-process reads."""

    def _networked_cluster(self, collector, n_vms=4):
        from repro.cloud.cluster import CloudVM
        from repro.net import NetworkBackend

        cluster = CloudCluster()
        node_a = cluster.add_node(capacity=100.0)
        node_b = cluster.add_node(capacity=100.0)
        base = next(_remote_vm_ids)
        for i in range(n_vms):
            vm_id = base + i
            backend = NetworkBackend(
                collector.endpoint, stream=f"vm-{vm_id}", capacity=4096, flush_interval=0.01
            )
            heartbeat = Heartbeat(window=20, clock=cluster.clock, backend=backend, history=4096)
            vm = CloudVM(
                work_per_beat=1.0,
                target_min=5.0,
                target_max=60.0,
                heartbeat=heartbeat,
                vm_id=vm_id,
            )
            cluster.vms[vm.vm_id] = vm
            cluster.place(vm.vm_id, node_a.node_id if i < n_vms // 2 else node_b.node_id)
        return cluster, node_a, node_b

    def test_balancer_manages_fleet_through_collector(self):
        import time

        from repro.net import HeartbeatCollector

        with HeartbeatCollector() as collector:
            cluster, node_a, node_b = self._networked_cluster(collector)
            balancer = HeartbeatLoadBalancer(
                cluster, collector=collector, clock=cluster.clock, liveness_timeout=3.0
            )
            try:
                for _ in range(5):
                    cluster.step(1.0)
                assert collector.wait_for_streams(4, timeout=10.0)
                _wait_for_collector_totals(collector, cluster)
                assert balancer.manage() == []
                for vm in cluster.vms.values():
                    assert balancer.vm_alive(vm)
                    assert balancer.vm_rate(vm) > 0.0

                node_b.fail()  # VMs on it go silent; only telemetry says so
                for _ in range(4):
                    cluster.step(1.0)
                time.sleep(0.3)
                actions = balancer.manage()
                failovers = [a for a in actions if a.kind == "failover"]
                assert len(failovers) == 2
                assert all(a.to_node == node_a.node_id for a in failovers)
                assert all(vm.node_id == node_a.node_id for vm in cluster.vms.values())
            finally:
                balancer.close()
                for vm in cluster.vms.values():
                    vm.heartbeat.finalize()

    def test_unregistered_stream_is_not_attached_yet(self):
        from repro.net import HeartbeatCollector

        with HeartbeatCollector() as collector:
            cluster = CloudCluster()
            cluster.add_node(capacity=10.0)
            cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=5.0)
            balancer = HeartbeatLoadBalancer(
                cluster, collector=collector, clock=cluster.clock, liveness_timeout=3.0
            )
            try:
                # The VM's producer never dialled in: no reading, no crash.
                sample = balancer.observe()
                assert len(sample) == 0
            finally:
                balancer.close()


#: Disjoint vm_id blocks so networked VMs never collide with the global
#: auto-increment other tests rely on.
_remote_vm_ids = itertools.count(5000, 100)


def _wait_for_collector_totals(collector, cluster, timeout: float = 10.0) -> None:
    """Block until every VM's produced beats reached the collector."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done = all(
            collector.snapshot(f"vm-{vm.vm_id}").total_beats == vm.heartbeat.count
            for vm in cluster.vms.values()
            if f"vm-{vm.vm_id}" in collector.stream_ids()
        ) and len(collector.stream_ids()) >= len(cluster.vms)
        if done:
            return
        time.sleep(0.02)
    raise AssertionError("collector never caught up with the cluster's beats")
