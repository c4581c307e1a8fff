"""Simulated cluster: nodes hosting heartbeat-instrumented virtual machines."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.clock import SimulatedClock
from repro.core.heartbeat import Heartbeat

__all__ = ["CloudNode", "CloudVM", "CloudCluster"]

_vm_ids = itertools.count(1)
_node_ids = itertools.count(1)


@dataclass(slots=True)
class CloudNode:
    """A physical machine of the cluster.

    ``capacity`` is expressed in work units per second, shared equally among
    the VMs placed on it (:meth:`CloudCluster.rate_on`).  ``powered`` models
    the consolidation use case (idle nodes are powered down to save energy);
    ``alive`` models hardware failure.
    """

    capacity: float
    node_id: int = field(default_factory=lambda: next(_node_ids))
    alive: bool = True
    powered: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    @property
    def available(self) -> bool:
        return self.alive and self.powered

    def fail(self) -> None:
        self.alive = False

    def power_down(self) -> None:
        self.powered = False

    def power_up(self) -> None:
        self.powered = True


@dataclass(slots=True)
class CloudVM:
    """A virtual machine running one heartbeat-instrumented application.

    ``work_per_beat`` is the work behind one application heartbeat (e.g. one
    served request batch); ``target_min``/``target_max`` is the goal the
    application publishes.  ``demand_factor`` scales the work per beat over
    time, letting scenarios model load spikes.
    """

    work_per_beat: float
    target_min: float
    target_max: float
    heartbeat: Heartbeat
    vm_id: int = field(default_factory=lambda: next(_vm_ids))
    node_id: int | None = None
    demand_factor: float = 1.0
    #: Fractional-beat carry maintained by :meth:`CloudCluster.step`.
    beat_carry: float = 0.0

    def __post_init__(self) -> None:
        if self.work_per_beat <= 0:
            raise ValueError(f"work_per_beat must be positive, got {self.work_per_beat}")
        if self.target_min < 0 or self.target_max < self.target_min:
            raise ValueError("invalid target range")
        self.heartbeat.set_target_rate(self.target_min, self.target_max)

    @property
    def placed(self) -> bool:
        return self.node_id is not None


class CloudCluster:
    """Nodes, VMs and the simulated clock that stamps their heartbeats.

    The cluster advances in fixed ticks (:meth:`step`): during one tick each
    VM placed on an available node produces heartbeats at the rate its share
    of the node's capacity allows, with timestamps spread uniformly across
    the tick.  VMs on failed or powered-down nodes produce nothing — which is
    exactly the signal the load balancer reacts to.
    """

    def __init__(self, clock: SimulatedClock | None = None) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self.nodes: dict[int, CloudNode] = {}
        self.vms: dict[int, CloudVM] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, capacity: float) -> CloudNode:
        node = CloudNode(capacity=capacity)
        self.nodes[node.node_id] = node
        return node

    def add_vm(
        self,
        work_per_beat: float,
        target_min: float,
        target_max: float,
        *,
        window: int = 20,
        node: CloudNode | None = None,
    ) -> CloudVM:
        heartbeat = Heartbeat(window=window, clock=self.clock, history=4096)
        vm = CloudVM(
            work_per_beat=work_per_beat,
            target_min=target_min,
            target_max=target_max,
            heartbeat=heartbeat,
        )
        self.vms[vm.vm_id] = vm
        if node is not None:
            self.place(vm.vm_id, node.node_id)
        return vm

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def place(self, vm_id: int, node_id: int) -> None:
        """Place (or migrate) a VM onto a node."""
        if vm_id not in self.vms:
            raise KeyError(f"unknown VM {vm_id}")
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        self.vms[vm_id].node_id = node_id

    def evict(self, vm_id: int) -> None:
        """Remove a VM from its node (it stops making progress)."""
        self.vms[vm_id].node_id = None

    def vms_on(self, node_id: int) -> list[CloudVM]:
        return [vm for vm in self.vms.values() if vm.node_id == node_id]

    @staticmethod
    def rate_on(vm: CloudVM, node: CloudNode, sharers: int) -> float:
        """The heart rate ``vm`` makes on ``node`` while ``sharers`` VMs, itself
        included, run there: an equal share of the node's capacity over the
        VM's work per beat.  This is the cluster's one rate rule: :meth:`step`
        beats by it and the load balancer predicts placements by it."""
        return node.capacity / sharers / (vm.work_per_beat * vm.demand_factor)

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    def step(self, dt: float = 1.0) -> dict[int, float]:
        """Advance the cluster by ``dt`` simulated seconds.

        Returns the achieved heart rate of every VM over the tick.  Beats are
        spread uniformly inside the tick, and a fractional carry is kept per
        VM so long-run rates are exact even when ``rate * dt`` is not an
        integer.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        start = self.clock.now()
        rates: dict[int, float] = {}
        pending: list[tuple[float, CloudVM]] = []
        for vm in self.vms.values():
            rate = self._achievable_rate(vm)
            rates[vm.vm_id] = rate
            exact = rate * dt + vm.beat_carry
            beats = int(exact)
            vm.beat_carry = exact - beats
            for k in range(beats):
                pending.append((start + (k + 1) * dt / (beats + 1), vm))
        # Register beats in global time order so every stream sees a
        # monotonically advancing shared clock.
        for when, vm in sorted(pending, key=lambda item: item[0]):
            self.clock.advance_to(when)
            vm.heartbeat.heartbeat(tag=vm.vm_id)
        self.clock.advance_to(start + dt)
        return rates

    def _achievable_rate(self, vm: CloudVM) -> float:
        node = None if vm.node_id is None else self.nodes[vm.node_id]
        if node is None or not node.available:
            return 0.0
        return self.rate_on(vm, node, len(self.vms_on(node.node_id)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CloudCluster(nodes={len(self.nodes)}, vms={len(self.vms)})"
