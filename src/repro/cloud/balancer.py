"""Heartbeat-driven load balancer / cluster manager.

Implements the three Section-2.6 behaviours on a :class:`CloudCluster`:

* **scale-out / migration** — a VM whose heart rate sits below its published
  minimum is migrated to the node where it would beat fastest among those
  it fits (powering one up if needed), because "as the heart rate
  decreases, the load balancer would shift traffic to a different server";
* **failure detection and fail-over** — a VM that has produced no heartbeat
  for longer than the liveness timeout is treated as running on a failed (or
  failing) machine and is migrated away;
* **consolidation** — VMs whose rates comfortably exceed their maxima are
  packed onto fewer nodes and emptied nodes are powered down, so "these
  'light' VMs can be consolidated onto a smaller number of physical machines
  to save energy".

Every placement is predicted by the rule the cluster beats by,
:meth:`CloudCluster.rate_on`, and admitted by one rule, ``_fits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection

from repro.adapt.engine import AdaptationEngine
from repro.adapt.loop import ControlLoop
from repro.clock import Clock
from repro.cloud.cluster import CloudCluster, CloudNode, CloudVM
from repro.control import ControlDecision, StepController, TargetWindow
from repro.core.aggregator import CollectorLike, FleetSample, HeartbeatAggregator
from repro.core.monitor import HealthStatus, MonitorReading

if TYPE_CHECKING:
    from repro.net import HeartbeatCollector

__all__ = ["BalancerAction", "VMPlacementActuator", "HeartbeatLoadBalancer"]

@dataclass(frozen=True, slots=True)
class BalancerAction:
    """One action taken by the balancer during a management pass."""

    kind: str  # "migrate", "failover", "consolidate", "power_down", "power_up"
    vm_id: int | None
    from_node: int | None
    to_node: int | None
    reason: str


def _stream_name(vm: CloudVM) -> str:
    """Aggregator stream name for one VM's heartbeat."""
    return f"vm-{vm.vm_id}"


def _vm_id(name: str) -> int | None:
    """The VM id a ``vm-<id>`` stream name carries; ``None`` for other names."""
    digits = name[3:] if name.startswith("vm-") else ""
    vm_id = int(digits) if digits.isdecimal() else None
    return vm_id if vm_id is not None and str(vm_id) == digits else None


class VMPlacementActuator:
    """Placement knob for one VM: a positive delta asks for a better node.

    The "value" of the knob is the VM's current node id; ``apply`` migrates
    the VM to the balancer's best node when its predicted rate there is
    strictly higher than on its current host (the Section-2.6 rule: "as the
    heart rate decreases, the load balancer would shift traffic to a
    different server").  Negative deltas are ignored — fast VMs are handled
    by the balancer's consolidation pass, which needs the whole fleet's
    state, not one VM's.  ``vm`` is the VM or its id; the VM is looked up in
    ``cluster.vms`` at every call, so a collector stream's loop can exist
    before its VM joins the cluster and outlive it, and steers it only
    while it is a member.
    """

    def __init__(self, balancer: "HeartbeatLoadBalancer", vm: CloudVM | int) -> None:
        self._balancer = balancer
        self._vm_id = vm if isinstance(vm, int) else vm.vm_id

    @property
    def bounds(self) -> tuple[float, float]:
        """Node ids are nominal, not ordered; the knob is unbounded."""
        return (-math.inf, math.inf)

    def current(self) -> float:
        vm = self._balancer.cluster.vms.get(self._vm_id)
        return float(vm.node_id) if vm is not None and vm.node_id is not None else -1.0

    def apply(self, decision: ControlDecision, *, beat: int = -1) -> float:
        balancer = self._balancer
        vm = balancer.cluster.vms.get(self._vm_id)
        if not decision.delta or decision.delta <= 0 or vm is None or vm.node_id is None:
            return self.current()
        candidate = balancer._best_node(vm, exclude={vm.node_id})
        host = balancer.cluster.nodes[vm.node_id]
        if candidate is not None and balancer._predicted(vm, candidate) > balancer._predicted(vm, host):
            balancer._place(vm, candidate)
        return self.current()


class HeartbeatLoadBalancer:
    """Observes every VM's heartbeats and manages placement.

    The balancer is a client of one :class:`~repro.adapt.AdaptationEngine`
    (:attr:`engine`): each VM's stream is an engine row, and the engine's
    loop factory gives it a ``StepController → VMPlacementActuator`` loop
    against ``[target_min, inf)``.  One :meth:`manage` pass runs, in order:

    1. the engine tick — one fleet poll, and the slow VMs' loops migrate
       them (a STALLED stream is never stepped, so a dead VM's stale rate
       moves nothing);
    2. fail-over, on the tick's sample, of every VM whose stream is
       STALLED, whose stream errored after the VM had beaten, or whose host
       failed;
    3. placement of unplaced VMs;
    4. consolidation, when every placed VM comfortably exceeds its goal and
       no VM moved in this pass (its sampled rate is its old node's).

    Every action is appended to :attr:`actions` as it is taken, and
    :meth:`manage` returns those its pass took.

    Parameters
    ----------
    cluster:
        The cluster to manage.
    liveness_timeout:
        Seconds without a heartbeat after which a VM's stream is STALLED
        and its host presumed failed.
    headroom:
        Consolidation's margin: it runs only when every VM beats at least
        ``target_max × (1 + headroom)``, and packs only so that every VM is
        predicted to keep ``target_min × (1 + headroom)``.
    collector:
        Remote-fleet mode: a :class:`repro.net.HeartbeatCollector`
        (or anything :class:`~repro.core.aggregator.CollectorLike`) whose
        registered streams — named ``vm-<id>`` by each VM's network backend —
        are observed *instead of* the VMs' in-process heartbeat objects.  This
        is the balancer of the paper's Section 2.6 moved off-box: the VMs
        run anywhere, ship heartbeats over TCP, and the balancer manages
        placement purely from the collected telemetry.  A ``tcp://host:port``
        endpoint URL (or :class:`~repro.endpoints.TcpEndpoint`) may be
        passed instead of an object: the balancer then binds its own
        collector there (port ``0`` for ephemeral; see
        :attr:`collector_endpoint`) and closes it with :meth:`close`.
    clock:
        Observer time base for liveness ages; defaults to the cluster clock.
    """

    def __init__(
        self,
        cluster: CloudCluster,
        *,
        liveness_timeout: float = 5.0,
        headroom: float = 0.2,
        collector: "CollectorLike | str | None" = None,
        clock: Clock | None = None,
    ) -> None:
        if liveness_timeout <= 0:
            raise ValueError(f"liveness_timeout must be positive, got {liveness_timeout}")
        if headroom < 0:
            raise ValueError(f"headroom must be >= 0, got {headroom}")
        self.cluster = cluster
        self.liveness_timeout = float(liveness_timeout)
        self.headroom = float(headroom)
        self.actions: list[BalancerAction] = []
        self._own_collector: HeartbeatCollector | None = None
        if collector is not None and not callable(getattr(collector, "slabs", None)):
            # A tcp:// endpoint URL: bind (and own) the collector ourselves.
            from repro.endpoints import open_collector

            collector = self._own_collector = open_collector(collector)  # type: ignore[arg-type]
        aggregator = HeartbeatAggregator(
            clock=clock if clock is not None else cluster.clock,
            liveness_timeout=self.liveness_timeout,
        )
        #: The engine whose rows are the VM streams and whose loops move slow VMs.
        self.engine = AdaptationEngine(aggregator, self._loop_for)
        self._remote = collector is not None
        if collector is not None:
            self.engine.attach_collector(collector)
        self._last_sample: FleetSample | None = None

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def aggregator(self) -> HeartbeatAggregator:
        """The fleet aggregator observing every VM's heartbeat stream."""
        return self.engine.aggregator

    def observe(self) -> FleetSample:
        """Poll every VM's heartbeats in one fleet pass."""
        self._sync_streams()
        self._last_sample = self.aggregator.poll()
        return self._last_sample

    def vm_rate(self, vm: CloudVM) -> float:
        """The VM's observed heart rate; ``0.0`` when its stream is unreadable."""
        reading = self._reading(vm)
        return reading.rate if reading is not None else 0.0

    def vm_alive(self, vm: CloudVM) -> bool:
        """Whether the VM's stream has beaten and is not STALLED; unreadable counts as dead."""
        reading = self._reading(vm)
        return reading is not None and reading.age is not None and reading.status is not HealthStatus.STALLED

    def _reading(self, vm: CloudVM) -> MonitorReading | None:
        """The VM's reading, from the last sample if it was taken at this instant and holds the VM."""
        name, sample = _stream_name(vm), self._last_sample
        if sample is not None and sample.taken_at == self.cluster.clock.now():
            reading = sample.get(name)
            if reading is not None or name in sample.errors:
                return reading
        return self.observe().get(name)

    def _sync_streams(self) -> None:
        """Attach each local VM's heartbeat and detach the streams of VMs that left.

        In remote-fleet mode the collector is the membership: its rows
        join the engine as they register and are never detached.
        """
        if self._remote:
            return
        aggregator = self.aggregator
        current = {_stream_name(vm): vm for vm in self.cluster.vms.values()}
        for name in aggregator.names:
            if name not in current:
                aggregator.detach(name)
        for name, vm in current.items():
            if name not in aggregator:
                aggregator.attach_stream(name, vm.heartbeat)

    def _vm_named(self, name: str) -> CloudVM | None:
        vm_id = _vm_id(name)
        return None if vm_id is None else self.cluster.vms.get(vm_id)

    def _loop_for(self, name: str, reading: MonitorReading) -> ControlLoop | None:
        """The engine's loop factory: a ``vm-<id>`` stream's slow-handling loop.

        Only "too slow" triggers a placement request, so the controller's
        window is ``[target_min, inf)``, from the goal the stream publishes;
        other streams, and streams with no minimum, get no loop.
        """
        vm_id = _vm_id(name)
        if vm_id is None or reading.target_min <= 0.0:
            return None
        return ControlLoop(
            None,
            StepController(TargetWindow(reading.target_min, math.inf)),
            VMPlacementActuator(self, vm_id),
            name=name,
            decision_interval=1,
            warmup=0,
        )

    # ------------------------------------------------------------------ #
    # Management pass
    # ------------------------------------------------------------------ #
    def manage(self) -> list[BalancerAction]:
        """Run one observe-decide-act pass; returns the actions it took."""
        start = len(self.actions)
        self._sync_streams()
        tick = self.engine.tick()
        sample = self._last_sample = tick.sample
        for trace in tick.traces:
            vm = self._vm_named(trace.loop) if trace.changed else None
            if vm is not None:
                reason = f"heart rate {trace.observed_rate:.2f} below target minimum {vm.target_min:.2f}"
                self._record("migrate", vm.vm_id, int(trace.before), int(trace.after), reason)
        self._fail_over(sample)
        for vm in self.cluster.vms.values():
            target = None if vm.placed else self._best_node(vm)
            if target is not None:
                self._move(vm, target, "migrate", "unplaced VM")
        if all(action.vm_id is None for action in self.actions[start:]):  # power_up moves no VM
            self._consolidate(sample)
        return self.actions[start:]

    # ------------------------------------------------------------------ #
    # Individual behaviours
    # ------------------------------------------------------------------ #
    def _fail_over(self, sample: FleetSample) -> None:
        stalled = set(sample.stalled())
        for vm in self.cluster.vms.values():
            if vm.node_id is None:
                continue
            name = _stream_name(vm)
            # A stream that errored during the poll is as good as silent once
            # the VM has beaten: its producer can no longer be observed.
            silent = name in stalled or (name in sample.errors and vm.heartbeat.count > 0)
            if silent or not self.cluster.nodes[vm.node_id].alive:
                target = self._best_node(vm, exclude={vm.node_id})
                reason = "no heartbeats within the liveness timeout" if silent else "host reported failed"
                if target is not None:
                    self._move(vm, target, "failover", reason)

    def _consolidate(self, sample: FleetSample) -> None:
        # Only consolidate when every placed VM comfortably exceeds its goal.
        placed = [vm for vm in self.cluster.vms.values() if vm.placed]
        nodes = sorted(
            (n for n in self.cluster.nodes.values() if n.available),
            key=lambda n: n.capacity,
            reverse=True,
        )
        if not placed or not nodes:
            return
        for vm in placed:
            reading = sample.get(_stream_name(vm))
            if reading is None or reading.total_beats < 2:
                return
            if reading.rate < vm.target_max * (1.0 + self.headroom):
                return
        # First fit onto the largest nodes, the VM whose floor needs the largest share of a node first.
        assignments: dict[int, CloudNode] = {}
        for vm in sorted(placed, key=lambda v: v.target_min / self.cluster.rate_on(v, nodes[0], 1), reverse=True):
            planned = {n.node_id: [v for v in placed if assignments.get(v.vm_id) is n] for n in nodes}
            node = next((n for n in nodes if self._fits(vm, n, planned[n.node_id])), None)
            if node is None:
                return
            assignments[vm.vm_id] = node
        used_nodes = {node.node_id for node in assignments.values()}
        if len(used_nodes) >= len({vm.node_id for vm in placed}):
            return  # no reduction in node count; leave placement alone
        for vm in placed:
            if assignments[vm.vm_id].node_id != vm.node_id:
                reason = "all goals comfortably met; packing onto fewer nodes"
                self._move(vm, assignments[vm.vm_id], "consolidate", reason)
        for node in nodes:
            if node.node_id not in used_nodes and not self.cluster.vms_on(node.node_id):
                node.power_down()
                self._record("power_down", None, node.node_id, None, "node emptied by consolidation")

    @property
    def collector_endpoint(self) -> str | None:
        """The ``tcp://host:port`` URL of the balancer-owned collector, if any.

        ``None`` in local mode or when the caller supplied (and owns) the
        collector object.  Producers dial this URL.
        """
        if self._own_collector is None:
            return None
        return self._own_collector.endpoint_url

    def close(self) -> None:
        """Release the engine, its aggregator and any owned collector.  Idempotent."""
        self.engine.close(close_aggregator=True)
        if self._own_collector is not None:
            self._own_collector.close()
        self._last_sample = None

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _record(self, kind: str, vm_id: int | None, from_node: int | None, to_node: int | None, reason: str) -> None:
        self.actions.append(BalancerAction(kind, vm_id, from_node, to_node, reason))

    def _move(self, vm: CloudVM, node: CloudNode, kind: str, reason: str) -> None:
        origin = vm.node_id
        self._place(vm, node)
        self._record(kind, vm.vm_id, origin, node.node_id, reason)

    def _place(self, vm: CloudVM, node: CloudNode) -> None:
        """Place ``vm`` on ``node``, powering the node up first if it is down."""
        if not node.powered:
            node.power_up()
            self._record("power_up", None, None, node.node_id, "additional capacity required")
        self.cluster.place(vm.vm_id, node.node_id)

    def _predicted(self, vm: CloudVM, node: CloudNode) -> float:
        """``vm``'s rate on ``node`` beside the other VMs placed there now."""
        others = sum(1 for v in self.cluster.vms_on(node.node_id) if v is not vm)
        return self.cluster.rate_on(vm, node, others + 1)

    def _fits(self, vm: CloudVM, node: CloudNode, others: Collection[CloudVM] | None = None) -> bool:
        """The one admission rule: ``vm`` beside ``others`` (default: the VMs on ``node`` now)
        leaves every one of them predicted at ``target_min × (1 + headroom)`` or more."""
        sharers = [v for v in (self.cluster.vms_on(node.node_id) if others is None else others) if v is not vm] + [vm]
        return all(self.cluster.rate_on(v, node, len(sharers)) >= v.target_min * (1.0 + self.headroom) for v in sharers)

    def _best_node(self, vm: CloudVM, exclude: Collection[int] = ()) -> CloudNode | None:
        """The alive node ranked first by (``vm`` fits there, its predicted rate there, powered)."""
        candidates = (n for n in self.cluster.nodes.values() if n.alive and n.node_id not in exclude)
        return max(candidates, key=lambda n: (self._fits(vm, n), self._predicted(vm, n), n.powered), default=None)
