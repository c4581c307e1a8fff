#!/usr/bin/env python
"""Cloud management with heartbeats (paper Section 2.6).

A small cluster hosts three heartbeat-instrumented services.  The
heartbeat-driven manager demonstrates the three behaviours the paper
sketches for cloud providers:

1. consolidation — when every service comfortably exceeds its goal, the VMs
   are packed onto fewer nodes and the emptied node is powered down;
2. scale-out — when one service's load rises and its heart rate drops below
   its published minimum, it is migrated to the node where it would beat
   fastest;
3. failure detection — when a node dies, its VMs stop producing heartbeats
   and are failed over to healthy nodes.

Run with::

    python examples/cloud_balancer.py
"""

from __future__ import annotations

from repro.cloud import CloudCluster, HeartbeatLoadBalancer


def describe(cluster: CloudCluster, balancer: HeartbeatLoadBalancer, label: str) -> None:
    print(f"--- {label}")
    for vm in cluster.vms.values():
        rate = balancer.vm_rate(vm)
        node = vm.node_id if vm.placed else "-"
        print(
            f"  vm{vm.vm_id}: node={node} rate={rate:6.2f} "
            f"target=[{vm.target_min:.1f}, {vm.target_max:.1f}]"
        )
    powered = [n.node_id for n in cluster.nodes.values() if n.powered and n.alive]
    print(f"  powered nodes: {powered}")


def main() -> None:
    cluster = CloudCluster()
    node_a = cluster.add_node(capacity=100.0)
    node_b = cluster.add_node(capacity=100.0)
    node_c = cluster.add_node(capacity=100.0)

    # Three light services: sharing one node, each would still beat above its
    # target minimum with the balancer's headroom, so one node can host all.
    web = cluster.add_vm(work_per_beat=1.0, target_min=8.0, target_max=12.0, node=node_a)
    api = cluster.add_vm(work_per_beat=2.0, target_min=4.0, target_max=6.0, node=node_b)
    cluster.add_vm(work_per_beat=5.0, target_min=1.5, target_max=2.5, node=node_c)

    balancer = HeartbeatLoadBalancer(cluster, liveness_timeout=5.0)

    # Phase 1: light load everywhere -> consolidation.
    for _ in range(10):
        cluster.step(1.0)
    describe(cluster, balancer, "after 10s of light load")
    for action in balancer.manage():
        print(f"  action: {action.kind} vm={action.vm_id} {action.from_node}->{action.to_node} ({action.reason})")

    for _ in range(10):
        cluster.step(1.0)
    describe(cluster, balancer, "after consolidation")

    # Phase 2: the web service's work per beat grows sixfold -> its rate collapses.
    web.demand_factor = 6.0
    for _ in range(10):
        cluster.step(1.0)
    describe(cluster, balancer, "after web-load spike")
    for action in balancer.manage():
        print(f"  action: {action.kind} vm={action.vm_id} {action.from_node}->{action.to_node} ({action.reason})")
    for _ in range(10):
        cluster.step(1.0)
    describe(cluster, balancer, "after scale-out")

    # Phase 3: the node hosting the api service fails -> failover.
    api_node = cluster.nodes[api.node_id]
    api_node.fail()
    for _ in range(8):
        cluster.step(1.0)
    describe(cluster, balancer, "after node failure (api silent)")
    for action in balancer.manage():
        print(f"  action: {action.kind} vm={action.vm_id} {action.from_node}->{action.to_node} ({action.reason})")
    for _ in range(10):
        cluster.step(1.0)
    describe(cluster, balancer, "after failover")


if __name__ == "__main__":
    main()
