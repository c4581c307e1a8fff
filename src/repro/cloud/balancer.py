"""Heartbeat-driven load balancer / cluster manager.

Implements the three Section-2.6 behaviours on a :class:`CloudCluster`:

* **scale-out / migration** — a VM whose heart rate sits below its published
  minimum is migrated to the node with the most spare capacity (powering one
  up if needed), because "as the heart rate decreases, the load balancer
  would shift traffic to a different server";
* **failure detection and fail-over** — a VM that has produced no heartbeat
  for longer than the liveness timeout is treated as running on a failed (or
  failing) machine and is migrated away;
* **consolidation** — VMs whose rates comfortably exceed their maxima are
  packed onto fewer nodes and emptied nodes are powered down, so "these
  'light' VMs can be consolidated onto a smaller number of physical machines
  to save energy".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.adapt.loop import ControlLoop
from repro.clock import Clock
from repro.cloud.cluster import CloudCluster, CloudNode, CloudVM
from repro.control import ControlDecision, StepController, TargetWindow
from repro.core.aggregator import CollectorLike, FleetSample, HeartbeatAggregator

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


class VMPlacementActuator:
    """Placement knob for one VM: a positive delta asks for a better node.

    The "value" of the knob is the VM's current node id; ``apply`` migrates
    the VM to the node with the most spare capacity when that node offers
    strictly more headroom than the current host (the Section-2.6 rule: "as
    the heart rate decreases, the load balancer would shift traffic to a
    different server").  Negative deltas are ignored — fast VMs are handled
    by the balancer's consolidation pass, which needs the whole fleet's
    state, not one VM's.
    """

    def __init__(self, balancer: "HeartbeatLoadBalancer", vm: CloudVM) -> None:
        self._balancer = balancer
        self._vm = vm

    @property
    def bounds(self) -> tuple[float, float]:
        """Node ids are nominal, not ordered; the knob is unbounded."""
        return (-math.inf, math.inf)

    def current(self) -> float:
        return float(self._vm.node_id) if self._vm.node_id is not None else -1.0

    def apply(self, decision: ControlDecision, *, beat: int = -1) -> float:
        if not decision.delta or decision.delta <= 0:
            return self.current()
        vm = self._vm
        if vm.node_id is None:
            return self.current()
        balancer = self._balancer
        candidate = balancer._best_node(exclude={vm.node_id})
        if candidate is None:
            return self.current()
        current_node = balancer.cluster.nodes[vm.node_id]
        if balancer._spare_capacity(candidate) > balancer._spare_capacity(current_node):
            balancer.cluster.place(vm.vm_id, candidate.node_id)
        return self.current()


class HeartbeatLoadBalancer:
    """Observes every VM's heartbeats and manages placement.

    Parameters
    ----------
    cluster:
        The cluster to manage.
    liveness_timeout:
        Seconds without a heartbeat after which a VM's host is presumed
        failed.
    headroom:
        Fractional rate above a VM's target maximum regarded as "comfortably
        exceeding" its goal for consolidation purposes.
    collector:
        Remote-fleet mode: a :class:`repro.net.HeartbeatCollector`
        (or anything :class:`~repro.core.aggregator.CollectorLike`) whose
        registered streams — named ``vm-<id>`` by each VM's network backend —
        are polled *instead of* the VMs' in-process heartbeat objects.  This
        is the balancer of the paper's Section 2.6 moved off-box: the VMs
        run anywhere, ship heartbeats over TCP, and the balancer manages
        placement purely from the collected telemetry.  A ``tcp://host:port``
        endpoint URL (or :class:`~repro.endpoints.TcpEndpoint`) may be
        passed instead of an object: the balancer then binds its own
        collector there (port ``0`` for ephemeral; see
        :attr:`collector_endpoint`) and closes it with :meth:`close`.
    clock:
        Observer time base for liveness ages; defaults to the cluster clock.
        Remote fleets stamped with ``WallClock(rebase=False)`` pass the same
        here.
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
        self._own_collector = None
        if collector is not None and not callable(getattr(collector, "stream_ids", None)):
            # A tcp:// endpoint URL: bind (and own) the collector ourselves.
            from repro.endpoints import open_collector

            collector = self._own_collector = open_collector(collector)  # type: ignore[arg-type]
        self._collector = collector
        self._aggregator = HeartbeatAggregator(
            clock=clock if clock is not None else cluster.clock,
            liveness_timeout=self.liveness_timeout,
        )
        self._expected: set[str] = set()
        self._last_sample: FleetSample | None = None
        #: Per-VM slow-handling loops (StepController → VMPlacementActuator),
        #: created lazily and pruned as VMs leave the cluster.
        self._slow_loops: dict[int, ControlLoop] = {}

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def aggregator(self) -> HeartbeatAggregator:
        """The fleet aggregator observing every VM's heartbeat stream."""
        return self._aggregator

    def observe(self) -> FleetSample:
        """Poll every VM's heartbeats in one fleet pass."""
        self._sync_streams()
        self._last_sample = self._aggregator.poll()
        return self._last_sample

    def vm_rate(self, vm: CloudVM) -> float:
        """The VM's observed heart rate; ``0.0`` when its stream is unreadable."""
        reading = self._fleet().get(_stream_name(vm))
        return reading.rate if reading is not None else 0.0

    def vm_alive(self, vm: CloudVM) -> bool:
        """Liveness of the VM's stream; an unreadable stream counts as dead."""
        reading = self._fleet().get(_stream_name(vm))
        if reading is None:
            return False
        return reading.age is not None and reading.age <= self.liveness_timeout

    def _fleet(self) -> FleetSample:
        """The current fleet sample, reusing this tick's poll when possible."""
        sample = self._last_sample
        if sample is not None and sample.taken_at == self.cluster.clock.now():
            # Membership, not count: same-tick VM churn (one added, one
            # removed) must invalidate the cache, and errored streams —
            # absent from the readings but present in errors — must not.
            observed = set(sample.names) | set(sample.errors)
            if self._collector is None:
                expected = {_stream_name(vm) for vm in self.cluster.vms.values()}
            else:
                # Collector registrations only change on a sync, so the last
                # sync's membership is the right cache key for remote mode.
                expected = self._expected & {_stream_name(vm) for vm in self.cluster.vms.values()}
            if observed == expected:
                return sample
        return self.observe()

    def _sync_streams(self) -> None:
        """Reconcile aggregator attachments with the cluster's VM set.

        In local mode every VM's in-process heartbeat is attached directly;
        in remote-fleet mode VM streams are attached from the collector as
        they register, so a VM whose producer has not dialled in yet simply
        has no reading (and is treated as silent by the failure handler once
        it should have beaten).
        """
        current = {_stream_name(vm): vm for vm in self.cluster.vms.values()}
        if self._collector is not None:
            available = set(self._collector.stream_ids())
            expected = set(current) & available
        else:
            expected = set(current)
        for name in self._aggregator.names:
            if name not in expected:
                self._aggregator.detach(name)
        for name, vm in current.items():
            if name in self._aggregator or name not in expected:
                continue
            if self._collector is not None:
                self._aggregator.attach_stream(name, self._collector.source(name))
            else:
                self._aggregator.attach_stream(name, vm.heartbeat)
        self._expected = expected

    # ------------------------------------------------------------------ #
    # Management pass
    # ------------------------------------------------------------------ #
    def manage(self) -> list[BalancerAction]:
        """Run one observe-decide-act pass; returns the actions taken."""
        fleet = self.observe()
        actions: list[BalancerAction] = []
        actions.extend(self._handle_failures(fleet))
        actions.extend(self._handle_slow_vms(fleet))
        actions.extend(self._consolidate(fleet))
        self.actions.extend(actions)
        return actions

    # ------------------------------------------------------------------ #
    # Individual behaviours
    # ------------------------------------------------------------------ #
    def _handle_failures(self, fleet: FleetSample) -> list[BalancerAction]:
        actions: list[BalancerAction] = []
        for vm in self.cluster.vms.values():
            if not vm.placed:
                continue
            reading = fleet.get(_stream_name(vm))
            node = self.cluster.nodes[vm.node_id]
            node_failed = not node.alive
            # A stream that errored during the poll (reading is None) is as
            # good as silent: its producer can no longer be observed.
            silent = reading is None or (
                reading.total_beats > 0
                and not (reading.age is not None and reading.age <= self.liveness_timeout)
            )
            if reading is None and vm.heartbeat.count == 0:
                silent = False  # never-started VM, not a failure signal
            if node_failed or silent:
                target = self._best_node(exclude={vm.node_id})
                if target is None:
                    continue
                origin = vm.node_id
                self.cluster.place(vm.vm_id, target.node_id)
                actions.append(
                    BalancerAction(
                        kind="failover",
                        vm_id=vm.vm_id,
                        from_node=origin,
                        to_node=target.node_id,
                        reason="no heartbeats within the liveness timeout"
                        if silent
                        else "host reported failed",
                    )
                )
        return actions

    def _slow_loop_for(self, vm: CloudVM) -> ControlLoop:
        """The VM's slow-handling control loop (lazily created).

        One :class:`~repro.adapt.loop.ControlLoop` per VM: a
        :class:`StepController` against ``[target_min, inf)`` — only "too
        slow" triggers a placement request — driving a
        :class:`VMPlacementActuator`.  The balancer feeds the fleet sample's
        observed rate in, so the whole fleet still costs one aggregator poll.
        """
        loop = self._slow_loops.get(vm.vm_id)
        if loop is None:
            loop = ControlLoop(
                None,
                StepController(TargetWindow(vm.target_min, math.inf)),
                VMPlacementActuator(self, vm),
                name=_stream_name(vm),
                decision_interval=1,
                warmup=0,
            )
            self._slow_loops[vm.vm_id] = loop
        return loop

    def _handle_slow_vms(self, fleet: FleetSample) -> list[BalancerAction]:
        actions: list[BalancerAction] = []
        if len(self._slow_loops) > len(self.cluster.vms):
            self._slow_loops = {
                vm_id: loop for vm_id, loop in self._slow_loops.items() if vm_id in self.cluster.vms
            }
        for vm in self.cluster.vms.values():
            if not vm.placed:
                target = self._best_node()
                if target is not None:
                    self.cluster.place(vm.vm_id, target.node_id)
                    actions.append(
                        BalancerAction(
                            kind="migrate",
                            vm_id=vm.vm_id,
                            from_node=None,
                            to_node=target.node_id,
                            reason="unplaced VM",
                        )
                    )
                continue
            reading = fleet.get(_stream_name(vm))
            if reading is None or reading.total_beats < 2:
                continue
            trace = self._slow_loop_for(vm).step(rate=reading.rate)
            if trace is not None and trace.changed:
                actions.append(
                    BalancerAction(
                        kind="migrate",
                        vm_id=vm.vm_id,
                        from_node=int(trace.before),
                        to_node=int(trace.after),
                        reason=(
                            f"heart rate {trace.observed_rate:.2f} below target "
                            f"minimum {vm.target_min:.2f}"
                        ),
                    )
                )
        return actions

    def _consolidate(self, fleet: FleetSample) -> list[BalancerAction]:
        actions: list[BalancerAction] = []
        # Only consolidate when every placed VM comfortably exceeds its goal.
        placed = [vm for vm in self.cluster.vms.values() if vm.placed]
        if not placed:
            return actions
        for vm in placed:
            reading = fleet.get(_stream_name(vm))
            if reading is None or reading.total_beats < 2:
                return actions
            if reading.rate < vm.target_max * (1.0 + self.headroom):
                return actions
        # Pack VMs onto the fewest nodes whose capacity covers their demand.
        nodes = sorted(
            (n for n in self.cluster.nodes.values() if n.available),
            key=lambda n: n.capacity,
            reverse=True,
        )
        demand_of = {
            vm.vm_id: 0.5 * (vm.target_min + vm.target_max) * vm.work_per_beat * vm.demand_factor
            for vm in placed
        }
        assignments: dict[int, int] = {}
        remaining = {n.node_id: n.capacity for n in nodes}
        for vm in sorted(placed, key=lambda v: demand_of[v.vm_id], reverse=True):
            for node in nodes:
                if remaining[node.node_id] >= demand_of[vm.vm_id]:
                    assignments[vm.vm_id] = node.node_id
                    remaining[node.node_id] -= demand_of[vm.vm_id]
                    break
        if not assignments or len(assignments) < len(placed):
            return actions
        used_nodes = set(assignments.values())
        if len(used_nodes) >= len({vm.node_id for vm in placed}):
            return actions  # no reduction in node count; leave placement alone
        for vm in placed:
            target = assignments[vm.vm_id]
            if target != vm.node_id:
                origin = vm.node_id
                self.cluster.place(vm.vm_id, target)
                actions.append(
                    BalancerAction(
                        kind="consolidate",
                        vm_id=vm.vm_id,
                        from_node=origin,
                        to_node=target,
                        reason="all goals comfortably met; packing onto fewer nodes",
                    )
                )
        for node in nodes:
            if node.node_id not in used_nodes and not self.cluster.vms_on(node.node_id):
                node.power_down()
                actions.append(
                    BalancerAction(
                        kind="power_down",
                        vm_id=None,
                        from_node=node.node_id,
                        to_node=None,
                        reason="node emptied by consolidation",
                    )
                )
        return actions

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
        """Release the fleet aggregator (and any owned collector).  Idempotent."""
        self._aggregator.close()
        if self._own_collector is not None:
            self._own_collector.close()
        self._last_sample = None
        self._slow_loops.clear()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _spare_capacity(self, node: CloudNode) -> float:
        if not node.available:
            return float("-inf")
        return node.capacity - self.cluster.node_load(node.node_id)

    def _best_node(self, exclude: set[int | None] | None = None) -> CloudNode | None:
        """The available node with the most spare capacity (powering up if needed)."""
        exclude = exclude or set()
        candidates = [
            n for n in self.cluster.nodes.values() if n.alive and n.node_id not in exclude
        ]
        if not candidates:
            return None
        best = max(candidates, key=self._spare_capacity_or_powered)
        if not best.powered:
            best.power_up()
            self.actions.append(
                BalancerAction(
                    kind="power_up",
                    vm_id=None,
                    from_node=None,
                    to_node=best.node_id,
                    reason="additional capacity required",
                )
            )
        return best

    def _spare_capacity_or_powered(self, node: CloudNode) -> float:
        # Powered-down nodes are usable (after power-up) but rank below
        # already-powered nodes with the same spare capacity.
        spare = node.capacity - self.cluster.node_load(node.node_id)
        return spare - (0.001 if not node.powered else 0.0)
