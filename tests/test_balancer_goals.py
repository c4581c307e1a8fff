"""Placement keeps the goals it manages (the paper's Section 2.6).

The balancer packs "light" VMs onto fewer machines only when every VM keeps
its goal, and places or fails over a VM onto a node where every co-tenant
keeps its goal whenever such a node exists.  The checks here read rates by
the cluster's own rule: a tick of :meth:`CloudCluster.step` returns the rate
each VM made during it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cloud import CloudCluster, HeartbeatLoadBalancer

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "cloud_balancer.py"

_vms = st.lists(
    st.tuples(
        st.floats(1.0, 10.0),  # work per beat
        st.floats(0.1, 10.0),  # target minimum
        st.floats(1.0, 2.0),  # target maximum over minimum
        st.integers(0, 3),  # initial node
    ),
    min_size=2,
    max_size=5,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(capacities=st.lists(st.floats(10.0, 100.0), min_size=2, max_size=4), vms=_vms)
def test_no_consolidation_leaves_a_vm_below_its_minimum(capacities, vms):
    cluster = CloudCluster()
    nodes = [cluster.add_node(capacity) for capacity in capacities]
    placed = [
        cluster.add_vm(work, low, low * ratio, node=nodes[at % len(nodes)])
        for work, low, ratio, at in vms
    ]
    for _ in range(5):
        cluster.step(1.0)
    balancer = HeartbeatLoadBalancer(cluster)
    try:
        actions = balancer.manage()
    finally:
        balancer.close()
    if any(action.kind == "consolidate" for action in actions):
        rates = cluster.step(1.0)
        assert all(rates[vm.vm_id] >= vm.target_min for vm in placed), (actions, rates)


_tenants = st.lists(
    st.tuples(
        st.floats(1.0, 10.0),  # work per beat
        st.floats(0.3, 0.95),  # target minimum over the rate made where it starts
        st.integers(0, 3),  # initial node
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    capacities=st.lists(st.floats(10.0, 100.0), min_size=2, max_size=4),
    tenants=_tenants,
    newcomer=st.tuples(st.floats(1.0, 10.0), st.floats(0.1, 10.0)),
    failover=st.booleans(),
)
# The fastest node for the newcomer halves its tenant's rate; the other fits.
@example(capacities=[10.0, 21.0], tenants=[(1.0, 0.75, 1)], newcomer=(1.0, 1.0), failover=True)
@example(capacities=[10.0, 21.0], tenants=[(1.0, 0.75, 1)], newcomer=(1.0, 1.0), failover=False)
def test_a_moved_vm_leaves_every_co_tenant_at_its_minimum_when_a_node_fits(
    capacities, tenants, newcomer, failover
):
    """A newcomer is placed (or, on its own node that fails, failed over)
    in a pass that moves no other VM: when some alive node fits it — every
    VM there, the newcomer included, predicted at its minimum with the
    balancer's headroom — no VM on the node it lands on beats below its
    minimum in the next tick.  Tenants start below their goals' reach, each
    at a set share of the rate it makes where it starts."""
    cluster = CloudCluster()
    nodes = [cluster.add_node(capacity) for capacity in capacities]
    homes = [nodes[at % len(nodes)] for _, _, at in tenants]
    for (work, share, _), node in zip(tenants, homes):
        low = share * node.capacity / homes.count(node) / work
        cluster.add_vm(work, low, 2.0 * low, node=node)
    own = cluster.add_node(100.0) if failover else None
    vm = cluster.add_vm(newcomer[0], newcomer[1], 2.0 * newcomer[1], node=own)
    for _ in range(5):
        cluster.step(1.0)
    balancer = HeartbeatLoadBalancer(cluster)
    try:
        balancer.manage()
        if own is not None:
            own.fail()
        floor = 1.0 + balancer.headroom

        def fits(node):
            sharers = [v for v in cluster.vms_on(node.node_id) if v is not vm] + [vm]
            return all(cluster.rate_on(v, node, len(sharers)) >= v.target_min * floor for v in sharers)

        some_node_fits = any(fits(n) for n in cluster.nodes.values() if n.alive and n is not own)
        actions = [action for action in balancer.manage() if action.vm_id is not None]
    finally:
        balancer.close()
    if some_node_fits and [(a.vm_id, a.kind) for a in actions] == [(vm.vm_id, "failover" if failover else "migrate")]:
        rates = cluster.step(1.0)
        tenants_there = cluster.vms_on(vm.node_id)
        assert all(rates[v.vm_id] >= v.target_min for v in tenants_there), (actions, rates)


def test_example_ends_with_every_goal_met():
    spec = importlib.util.spec_from_file_location("cloud_balancer_example", EXAMPLE)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    last_table = out.getvalue().rsplit("--- ", 1)[1]
    rows = re.findall(r"rate=\s*([\d.]+) target=\[([\d.]+),", last_table)
    assert len(rows) == 3
    for rate, minimum in rows:
        assert float(rate) >= float(minimum), last_table
