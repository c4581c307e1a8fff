"""Heartbeat-driven cluster management (paper Section 2.6).

The paper sketches three cloud uses of heartbeats: scaling resources when an
application's heart rate drops, detecting failed or failing machines by the
absence (or erratic arrival) of heartbeats, and consolidating "light" VMs
whose goals are comfortably met onto fewer physical machines to save energy.
This package implements all three on a simulated cluster so the ideas can be
exercised end to end:

* :class:`CloudCluster` — nodes with capacity, virtual machines whose hosted
  applications register heartbeats against a shared simulated clock;
* :class:`HeartbeatLoadBalancer` — the manager that watches each VM's
  heartbeat stream as one row of an :class:`~repro.adapt.AdaptationEngine`
  (the fleet runtime every other adaptation uses) and migrates, fails over
  and consolidates.
"""

from repro.cloud.balancer import BalancerAction, HeartbeatLoadBalancer, VMPlacementActuator
from repro.cloud.cluster import CloudCluster, CloudNode, CloudVM

__all__ = [
    "CloudNode",
    "CloudVM",
    "CloudCluster",
    "HeartbeatLoadBalancer",
    "BalancerAction",
    "VMPlacementActuator",
]
