"""The five named workloads and the parameters both processes agree on.

Names are normative: later issues cite them.  Why each workload exists, its
loop discipline, window or rate and connection count are stated once, in
``BENCHMARK.json`` and the README tables; this module holds what the code
needs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    #: What the observer attaches: ``shm`` | ``arena`` | ``collector`` |
    #: ``durable`` (collector with ``journal=``) | ``tree`` (edge → root).
    attach: str
    #: Engine tick cadence: ``fixed`` (10 Hz), ``jitter`` (seeded-uniform
    #: 20–80 ms gaps) or ``back_to_back``.
    tick: str
    #: True when the beats a sample newly covers share one stamp (arena
    #: bursts); False when they are spread evenly since the previous sample.
    burst: bool


#: wire-tree: beats in flight per stream between stamp and root ``records``.
#: Below the exporter's 65 536-record pending bound, so the closed loop never
#: makes the producer shed beats.
TREE_WINDOW = 49_152
#: wire-tree phase B: fixed open-loop rate over both producers, beats/s
#: (about an eighth of what the tree sustains, so latencies are queue-free).
TREE_PACED_RATE = 100_000
#: ``heartbeat_batch`` size on the wire-tree producers.
TREE_BATCH = 64
#: Records per BATCH frame on the wire-small workloads (the smallest regime).
SMALL_FRAME_RECORDS = 4
#: Frames encoded and sent per ``sendall`` on the wire-small workloads.
SMALL_CHUNK_FRAMES = 256
#: wire-small phase B: fixed open-loop rate over both connections, beats/s
#: (about an eighth of what the default collector sustains).
SMALL_PACED_RATE = 80_000
#: fleet-observe geometry and pacing.
FLEET_ROWS = 10_000
FLEET_DEPTH = 64
FLEET_HOT_ROWS = 1_000
FLEET_BURST_BEATS = 4
FLEET_PERIOD_S = 0.1
#: The generator writes each period's hot set as this many bursts, a quarter of
#: the rows a quarter of the period apart: the same beats per second, rows per
#: period and revisit time, and four times the stamps a latency is taken from
#: (one burst has one stamp; with 200 of them in a run the sampling error of a
#: median alone spread by a tenth).
FLEET_BURSTS_PER_PERIOD = 4
FLEET_BURST_ROWS = FLEET_HOT_ROWS // FLEET_BURSTS_PER_PERIOD
FLEET_BURST_GAP_S = FLEET_PERIOD_S / FLEET_BURSTS_PER_PERIOD

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="beat-local",
        attach="shm",
        tick="fixed",
        burst=False,
    ),
    Workload(
        name="wire-tree",
        attach="tree",
        tick="jitter",
        burst=False,
    ),
    Workload(
        name="wire-small-frames",
        attach="collector",
        tick="jitter",
        burst=False,
    ),
    Workload(
        name="wire-small-durable",
        attach="durable",
        tick="jitter",
        burst=False,
    ),
    Workload(
        name="fleet-observe",
        attach="arena",
        tick="back_to_back",
        burst=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

