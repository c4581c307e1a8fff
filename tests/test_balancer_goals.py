"""Consolidation keeps the goals it manages (the paper's Section 2.6).

The balancer packs "light" VMs onto fewer machines only when every VM keeps
its goal.  Both checks here read rates by the cluster's own rule: a tick of
:meth:`CloudCluster.step` returns the rate each VM made during it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
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
