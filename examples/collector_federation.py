#!/usr/bin/env python
"""Collector federation: producers → edge collectors → root collector.

One collector process holds a host's fleet; a *tree* of collectors holds a
region's.  This example builds the smallest interesting tree — two edge
collectors forwarding into one root — and shows that the root's observation
surface is indistinguishable from direct collection:

1. **Edges** — two :class:`~repro.net.HeartbeatCollector` instances bound
   with ``upstream=<root>``: each absorbs its own producers' fan-in and a
   background relay, woken whenever a stream has news, batches those
   streams' new records into RELAY frames shipped upstream
   (reconnect/backoff and drop-oldest discipline included).
2. **Root** — a plain collector; relayed streams register exactly like
   dialled-in producers, so ``HeartbeatAggregator.attach_collector()`` gives
   fleet rate / percentile / health queries over the whole tree.
3. **Fault propagation** — one producer is killed mid-stream; its silence
   travels edge → root and classifies as STALLED at the top, two hops from
   the death.

Run with::

    python examples/collector_federation.py

Environment knobs (used by the test-suite to shrink the run):
``FEDERATION_PRODUCERS`` (per edge, default 3), ``FEDERATION_TICKS``
(default 20), ``FEDERATION_BATCH`` (default 16).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time

from repro import HeartbeatAggregator, TelemetrySession
from repro.core.monitor import HealthStatus
from repro.net import HeartbeatCollector

PRODUCERS_PER_EDGE = int(os.environ.get("FEDERATION_PRODUCERS", "3"))
TICKS = int(os.environ.get("FEDERATION_TICKS", "20"))
BATCH = int(os.environ.get("FEDERATION_BATCH", "16"))
INTERVAL = 0.02


def producer(endpoint_url: str, name: str, doomed: bool) -> None:
    """One remote service beating against its edge collector."""
    with TelemetrySession() as session:
        heartbeat = session.produce(
            f"{endpoint_url}?stream={name}&flush_interval=0.01",
            window=64,
            history=4096,
        )
        for tick in range(TICKS):
            time.sleep(INTERVAL)
            heartbeat.heartbeat_batch(BATCH, tag=tick)
        if doomed:
            # Die abruptly: no CLOSE frame, no session teardown.  The stream
            # must survive at the edge and read STALLED at the root.
            os._exit(0)


def wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def main() -> int:
    ctx = mp.get_context("spawn")
    with HeartbeatCollector() as root:
        edges = [
            HeartbeatCollector(upstream=root.endpoint)
            for _ in range(2)
        ]
        try:
            workers = []
            names = []
            for e, edge in enumerate(edges):
                for p in range(PRODUCERS_PER_EDGE):
                    name = f"edge{e}-svc{p}"
                    doomed = e == 0 and p == 0  # exactly one mid-stream death
                    names.append(name)
                    workers.append(
                        ctx.Process(
                            target=producer,
                            args=(edge.endpoint_url, name, doomed),
                            daemon=True,
                        )
                    )
            for worker in workers:
                worker.start()

            expected = 2 * PRODUCERS_PER_EDGE
            if not root.wait_for_streams(expected, timeout=60.0):
                print(
                    f"only {len(root.stream_ids())}/{expected} streams reached the root",
                    file=sys.stderr,
                )
                return 1
            print(f"root sees {expected} streams across {len(edges)} edges")

            for worker in workers:
                worker.join(timeout=60.0)

            total = TICKS * BATCH
            surviving = [n for n in names if n != "edge0-svc0"]
            # The doomed producer dies without flushing its last batch, so
            # only the survivors owe an exact count; the victim just has to
            # have left a trace to classify.
            ok = wait_until(
                lambda: all(root.snapshot(n).total_beats == total for n in surviving)
                and root.snapshot("edge0-svc0").total_beats > 0
            )
            if not ok:
                got = {n: root.snapshot(n).total_beats for n in names}
                print(f"delivery incomplete: {got}", file=sys.stderr)
                return 1
            print(f"every surviving stream delivered {total} beats through its edge")

            aggregator = HeartbeatAggregator(liveness_timeout=1.0)
            try:
                aggregator.attach_collector(root)
                if not wait_until(
                    lambda: aggregator.poll().reading("edge0-svc0").status
                    is HealthStatus.STALLED
                ):
                    print("killed producer never read STALLED at the root", file=sys.stderr)
                    return 1
                print("stalled at the root, two hops from the death: ['edge0-svc0']")
                # A graceful finish (CLOSE) and a death both go quiet; the
                # liveness flags keep them apart at the root: the victim is
                # the only stream that disconnected *without* closing.
                dead = [
                    info.stream_id
                    for info in root.streams()
                    if not info.connected and not info.closed
                ]
                assert dead == ["edge0-svc0"], dead
            finally:
                aggregator.close()

            for e, edge in enumerate(edges):
                stats = edge.relay_stats()
                print(
                    f"edge{e}: forwarded {stats['records_sent']} records "
                    f"in {stats['frames_sent']} frames ({stats['connects']} connects)"
                )
            print("collector federation demo OK")
            return 0
        finally:
            for edge in edges:
                edge.close()


if __name__ == "__main__":
    raise SystemExit(main())
