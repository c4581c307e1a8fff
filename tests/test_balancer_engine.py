"""The load balancer as an engine client: one liveness rule, one decision log."""

from __future__ import annotations

import io
import json
import time

from repro.cloud import CloudCluster, HeartbeatLoadBalancer
from repro.cloud.cluster import CloudVM
from repro.core.heartbeat import Heartbeat
from repro.obs.tracing import FlightRecorder


def test_failed_over_slow_vm_is_not_migrated_again_on_its_stale_rate():
    """A STALLED stream is never steered: fail-over is the pass's only move.

    Before the balancer ran on the engine, one pass failed the slow VM over
    from its dead host and then migrated it a second time on the 10.45
    beats/s it had there.
    """
    cluster = CloudCluster()
    small = cluster.add_node(capacity=10.0)
    cluster.add_node(capacity=30.0)
    large = cluster.add_node(capacity=100.0)
    slow = cluster.add_vm(work_per_beat=1.0, target_min=20.0, target_max=30.0, node=small)
    cluster.add_vm(work_per_beat=1.0, target_min=1.0, target_max=100.0, node=large)
    for _ in range(5):
        cluster.step(1.0)
    small.fail()
    for _ in range(5):
        cluster.step(1.0)
    balancer = HeartbeatLoadBalancer(cluster, liveness_timeout=3.0)
    actions = balancer.manage()
    assert [(a.kind, a.vm_id, a.from_node, a.to_node) for a in actions] == [
        ("failover", slow.vm_id, small.node_id, large.node_id)
    ]
    assert slow.node_id == large.node_id
    balancer.close()


def test_flight_recorder_logs_the_slow_vm_migration_as_a_decision():
    cluster = CloudCluster()
    busy = cluster.add_node(capacity=10.0)
    spare = cluster.add_node(capacity=100.0)
    vm = cluster.add_vm(work_per_beat=1.0, target_min=20.0, target_max=30.0, node=busy)
    balancer = HeartbeatLoadBalancer(cluster, liveness_timeout=100.0)
    buffer = io.StringIO()
    FlightRecorder(buffer).attach(balancer.engine)
    for _ in range(5):
        cluster.step(1.0)
    [migrate] = balancer.manage()
    assert migrate.kind == "migrate"
    records = [json.loads(line) for line in buffer.getvalue().splitlines()]
    [decision] = [r for r in records if r["kind"] == "decision"]
    assert decision["loop"] == f"vm-{vm.vm_id}"
    assert (decision["before"], decision["after"]) == (busy.node_id, spare.node_id)
    assert f"heart rate {decision['observed_rate']:.2f}" in migrate.reason
    balancer.close()


def test_remote_vm_that_left_the_cluster_is_not_moved():
    """A collector keeps a departed VM's row and loop; the actuator checks membership."""
    from repro.net import HeartbeatCollector, NetworkBackend

    with HeartbeatCollector() as collector:
        cluster = CloudCluster()
        small = cluster.add_node(capacity=10.0)
        cluster.add_node(capacity=100.0)
        backend = NetworkBackend(collector.endpoint, stream="vm-7000", capacity=256, flush_interval=0.01)
        heartbeat = Heartbeat(window=20, clock=cluster.clock, backend=backend, history=256)
        # 1 beat/s against a 20 beats/s minimum: as slow as a VM gets.
        gone = CloudVM(work_per_beat=10.0, target_min=20.0, target_max=30.0, heartbeat=heartbeat, vm_id=7000)
        cluster.vms[gone.vm_id] = gone
        cluster.place(gone.vm_id, small.node_id)
        balancer = HeartbeatLoadBalancer(cluster, collector=collector, clock=cluster.clock, liveness_timeout=3.0)
        try:
            cluster.step(1.0)  # one beat: a loop is built, but a rate needs two
            _wait_for_total(collector, "vm-7000", 1)
            assert balancer.manage() == []
            assert "vm-7000" in balancer.engine.loops

            del cluster.vms[gone.vm_id]
            small.fail()  # would fail it over, were it still in the cluster
            for _ in range(5):
                cluster.clock.advance(1.0)
                heartbeat.heartbeat()
            _wait_for_total(collector, "vm-7000", 6)
            assert balancer.manage() == []
            tick = balancer.engine.last_tick
            assert tick is not None and tick.errors == {}
            [trace] = tick.traces  # its loop was asked to move it, and declined
            assert trace.loop == "vm-7000" and not trace.changed
            assert gone.node_id == small.node_id
        finally:
            balancer.close()
            heartbeat.finalize()


def test_remote_vm_that_joins_after_its_stream_is_migrated_when_slow():
    """The loop is built from the stream's published goal; the VM is looked up when it acts."""
    from repro.net import HeartbeatCollector, NetworkBackend

    with HeartbeatCollector() as collector:
        cluster = CloudCluster()
        small = cluster.add_node(capacity=10.0)
        spare = cluster.add_node(capacity=100.0)
        backend = NetworkBackend(collector.endpoint, stream="vm-7001", capacity=256, flush_interval=0.01)
        heartbeat = Heartbeat(window=20, clock=cluster.clock, backend=backend, history=256)
        late = CloudVM(work_per_beat=10.0, target_min=20.0, target_max=30.0, heartbeat=heartbeat, vm_id=7001)
        balancer = HeartbeatLoadBalancer(cluster, collector=collector, clock=cluster.clock, liveness_timeout=3.0)
        try:
            heartbeat.heartbeat()
            _wait_for_total(collector, "vm-7001", 1)
            assert balancer.manage() == []
            assert "vm-7001" in balancer.engine.loops  # before the VM is a member

            cluster.vms[late.vm_id] = late
            cluster.place(late.vm_id, small.node_id)
            for _ in range(5):
                cluster.step(1.0)  # 1 beat/s against a 20 beats/s minimum
            _wait_for_total(collector, "vm-7001", 6)
            [migrate] = balancer.manage()
            assert (migrate.kind, migrate.vm_id) == ("migrate", late.vm_id)
            assert (migrate.from_node, migrate.to_node) == (small.node_id, spare.node_id)
            assert late.node_id == spare.node_id
        finally:
            balancer.close()
            heartbeat.finalize()


def _wait_for_total(collector, stream: str, total: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if stream in collector.stream_ids() and collector.snapshot(stream).total_beats >= total:
            return
        time.sleep(0.01)
    raise AssertionError(f"collector never saw {total} beats of {stream}")
