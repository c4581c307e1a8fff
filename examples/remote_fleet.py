#!/usr/bin/env python
"""Remote fleet observation: producers → TCP collector → aggregator → balancer.

The paper's external observer (Figure 1b) reads heartbeats from a shared
location; :mod:`repro.net` makes that location a TCP endpoint, so the
observer can sit on a different machine from every producer.  This example
wires the whole pipeline end to end:

1. **Producers** — several *subprocesses*, each opened through
   ``TelemetrySession.produce("tcp://host:port?stream=...")``: beats are
   batched and shipped to the collector, and the beat path never blocks on
   the socket.  One producer is deliberately slower than its published goal.
2. **Collector** — a :class:`~repro.net.HeartbeatCollector` bound to
   ``tcp://127.0.0.1:0`` (the OS picks a free port; producers dial the
   propagated ``tcp://`` endpoint URL).
3. **Aggregator** — ``HeartbeatAggregator.attach_collector()`` turns the
   collected streams into fleet rate / lagging / percentile queries, checked
   here against each producer's self-reported ground truth.
4. **Balancer** — a :class:`~repro.cloud.balancer.HeartbeatLoadBalancer` in
   remote-fleet mode manages a simulated cluster purely from the collected
   telemetry, failing VMs over when their heartbeats go silent.

Run with::

    python examples/remote_fleet.py

Environment knobs (used by the test-suite to shrink the run):
``REMOTE_FLEET_PRODUCERS`` (default 4), ``REMOTE_FLEET_TICKS`` (default 25),
``REMOTE_FLEET_BATCH`` (default 32).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

from repro import Heartbeat, HeartbeatAggregator, TelemetrySession
from repro.cloud.balancer import HeartbeatLoadBalancer
from repro.cloud.cluster import CloudCluster, CloudVM
from repro.net import HeartbeatCollector

PRODUCERS = max(4, int(os.environ.get("REMOTE_FLEET_PRODUCERS", "4")))
TICKS = int(os.environ.get("REMOTE_FLEET_TICKS", "25"))
BATCH = int(os.environ.get("REMOTE_FLEET_BATCH", "32"))
FAST_INTERVAL = 0.02  # → ~BATCH/0.02 beats/s
SLOW_INTERVAL = 0.08  # the last producer misses the shared goal
TARGET_MIN = 0.6 * (BATCH / FAST_INTERVAL)


def producer(endpoint_url: str, name: str, interval: float, report) -> None:
    """One remote service: `BATCH` work items per tick, one batched beat call.

    ``endpoint_url`` is the collector's ``tcp://host:port`` URL; the session
    appends the stream identity and local-mirror sizing as query parameters
    and stamps beats on the host-wide monotonic clock — the time base the
    collector's observers use for liveness ages.
    """
    with TelemetrySession() as session:
        heartbeat = session.produce(
            f"{endpoint_url}?stream={name}&capacity=4096&flush_interval=0.02",
            window=256,
            history=4096,
            target=(TARGET_MIN, 1e9),
        )
        for tick in range(TICKS):
            time.sleep(interval)
            heartbeat.heartbeat_batch(BATCH, tag=tick)
        # Self-reported ground truth the parent checks the fleet view against.
        report.put((name, heartbeat.count, heartbeat.global_heart_rate()))
        # Leaving the session finalises the stream: the pending queue is
        # flushed, then a CLOSE frame is sent.


def run_producers(collector: HeartbeatCollector) -> dict[str, tuple[int, float]]:
    """Act 1: subprocess producers stream to the collector; verify the view."""
    ctx = mp.get_context("spawn")
    report = ctx.Queue()
    names = [f"producer-{i:02d}" for i in range(PRODUCERS)]
    workers = [
        ctx.Process(
            target=producer,
            args=(collector.endpoint_url, name, SLOW_INTERVAL if i == PRODUCERS - 1 else FAST_INTERVAL, report),
        )
        for i, name in enumerate(names)
    ]
    for worker in workers:
        worker.start()
    if not collector.wait_for_streams(PRODUCERS, timeout=30.0):
        raise SystemExit(f"only {len(collector.stream_ids())}/{PRODUCERS} producers registered")

    aggregator = HeartbeatAggregator(liveness_timeout=30.0)
    aggregator.attach_collector(collector)
    sample = aggregator.poll()
    print(f"mid-run: {len(sample)} streams, {sample.total_beats()} beats collected so far")

    for worker in workers:
        worker.join(timeout=60.0)
    truth = {}
    for _ in names:
        name, count, rate = report.get(timeout=10.0)
        truth[name] = (count, rate)
    time.sleep(0.3)  # let the last CLOSE frames land

    sample = aggregator.poll()
    print(f"{'stream':<14} {'beats':>7} {'rate':>9} {'truth':>9} status")
    for name in names:
        reading = sample.reading(name)
        count, true_rate = truth[name]
        print(
            f"{name:<14} {reading.total_beats:>7d} {reading.rate:>9.1f} "
            f"{true_rate:>9.1f} {reading.status.value}"
        )
        assert reading.total_beats == count == TICKS * BATCH, (
            f"{name}: collected {reading.total_beats}, produced {count}"
        )
        assert 0.5 * true_rate <= reading.rate <= 2.0 * true_rate, (
            f"{name}: fleet rate {reading.rate:.1f} vs ground truth {true_rate:.1f}"
        )
    lagging = sample.lagging()
    percentiles = sample.percentiles()
    print(f"lagging (worst first): {', '.join(lagging) or 'none'}")
    print(
        f"rate percentiles: p50={percentiles[50.0]:.1f} "
        f"p90={percentiles[90.0]:.1f} p99={percentiles[99.0]:.1f}"
    )
    assert names[-1] in lagging, "the slow producer must be flagged as lagging"
    assert all(name not in lagging for name in names[:-1])
    aggregator.close()
    return truth


def run_balancer(collector: HeartbeatCollector) -> None:
    """Act 2: a balancer manages a cluster purely from collected telemetry.

    The cluster's VMs live in this process but publish their beats over TCP
    like any remote producer; the balancer never touches their heartbeat
    objects — it polls the collector, exactly as it would across machines.
    """
    cluster = CloudCluster()
    node_a = cluster.add_node(100.0)
    node_b = cluster.add_node(100.0)
    for i in range(4):
        vm_id = 1000 + i
        # The VM's heartbeat publishes straight to the collector's endpoint
        # URL; the simulated cluster clock stamps the beats.
        heartbeat = Heartbeat(
            window=20,
            clock=cluster.clock,
            backend=f"{collector.endpoint_url}?stream=vm-{vm_id}&capacity=4096&flush_interval=0.02",
            history=4096,
        )
        vm = CloudVM(
            work_per_beat=1.0, target_min=5.0, target_max=60.0, heartbeat=heartbeat, vm_id=vm_id
        )
        cluster.vms[vm.vm_id] = vm
        cluster.place(vm.vm_id, node_a.node_id if i < 2 else node_b.node_id)

    balancer = HeartbeatLoadBalancer(
        cluster, collector=collector, clock=cluster.clock, liveness_timeout=3.0
    )
    for _ in range(5):
        cluster.step(1.0)
    time.sleep(0.3)  # beats travel over real TCP even though time is simulated
    actions = balancer.manage()
    print(f"healthy cluster: {len(actions)} balancer action(s)")

    node_b.fail()  # its VMs stop beating; the telemetry goes silent
    for _ in range(4):
        cluster.step(1.0)
    time.sleep(0.3)
    actions = balancer.manage()
    for action in actions:
        print(f"  {action.kind}: vm={action.vm_id} {action.from_node}->{action.to_node} ({action.reason})")
    failovers = [a for a in actions if a.kind == "failover"]
    assert len(failovers) == 2, f"expected 2 failovers, got {actions}"
    assert all(a.to_node == node_a.node_id for a in failovers)
    balancer.close()
    for vm in cluster.vms.values():
        vm.heartbeat.finalize()


def main() -> None:
    with HeartbeatCollector() as collector:
        print(f"collector listening on {collector.endpoint_url}")
        run_producers(collector)
        run_balancer(collector)
        stats = collector.stats()
        print(
            f"collector totals: {stats['records']} records in {stats['frames']} frames "
            f"from {stats['connections_accepted']} connections, "
            f"{stats['protocol_errors']} protocol errors"
        )
    print("remote fleet demo OK")


if __name__ == "__main__":
    main()
