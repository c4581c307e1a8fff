"""Benchmark — fleet-scale incremental polling (the O(new-beats) observer).

Measures :class:`repro.core.aggregator.HeartbeatAggregator` poll latency and
aggregate ingest throughput at fleet sizes 100 / 1 000 / 10 000 across every
stream source — in-process memory backends, shared-memory segments, log
files and a live TCP collector — comparing the aggregator's cursored-delta
poll against a full-snapshot reference loop (:func:`full_snapshot_poll`),
which re-reads and re-classifies every stream's whole retained history each
time.

Three regimes per fleet:

* ``full``      — the reference arm: every poll copies/parses every record.
* ``idle``      — incremental poll of a quiet fleet: change-token probes
  only, no delta reads at all.
* ``trickle``   — incremental poll with a few new beats per stream per
  poll: the steady state of a live fleet, and where the aggregate
  beats-per-second ingest figure comes from.

A fourth source — ``arena`` — provisions one columnar
:class:`~repro.core.backends.arena.Arena` slab and observes the *same* fleet
both ways: every row attached as its own per-object source (the dispatch the
slab path replaces) versus the whole slab attached as one vectorized shard
(``attach_arena``).  This regime is where the 100k- and 1M-stream fleets
live: one slab, no per-stream objects, no per-stream Python dispatch.

Two further regimes exercise the event-loop ingest tier itself
(``--sources concurrent,tree``):

* ``concurrent`` — one collector process holding thousands of *live
  producer connections at once* (client fleets run in subprocesses, so the
  per-process FD table bounds neither side): connection count actually
  reached, connect time, and ingest beats/sec through the event loop.
* ``tree``       — the same producer fleet split across two edge
  collectors relaying into one root (collector federation): delivered
  beats/sec at the root, replay/dedup counters, and a stalled-detection
  check after every producer dies abruptly.

Run standalone to produce ``BENCH_fleet.json`` (the repo's fleet-scale perf
trajectory artifact)::

    python benchmarks/bench_fleet.py [--quick] [--sources memory,shm,...]

``--quick`` (or ``BENCH_QUICK=1``) selects CI-sized fleets and shallow
histories.  The full run uses 65 536-deep histories for the memory source at
10 000 streams — the acceptance configuration for the >=10x incremental
speedup.  Non-memory sources are capped at sizes their real resources
(segments, log files, sockets) support on a CI host; the caps are recorded
in the artifact, never silently.

Under pytest only the threshold checks run (CI's benchmark-smoke gate).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.aggregator import HeartbeatAggregator
from repro.core.backends import FileBackend, MemoryBackend, SharedMemoryBackend
from repro.core.backends.arena import NAME_SIZE, Arena
from repro.core.rate import windowed_rate
from repro.core.record import RECORD_DTYPE

#: Beat spacing of the synthetic histories (100 beats/s per stream).
DT = 0.01
#: New beats appended per stream per poll in the trickle regime.
TRICKLE = 4


def _quick() -> bool:
    return bool(os.environ.get("BENCH_QUICK"))


def synth_records(depth: int, start_beat: int = 0, start_ts: float = 0.0) -> np.ndarray:
    records = np.empty(depth, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(start_beat, start_beat + depth)
    records["timestamp"] = start_ts + DT * np.arange(1, depth + 1)
    records["tag"] = 0
    records["thread_id"] = 1
    return records


class _FrozenClock:
    """A fixed observer clock: keeps both arms' classification identical."""

    def __init__(self, now: float) -> None:
        self._now = now

    def advance(self, dt: float) -> None:
        self._now += dt

    def now(self) -> float:
        return self._now


# --------------------------------------------------------------------- #
# Fleet builders: (aggregator attach, per-stream trickle writer, teardown)
# --------------------------------------------------------------------- #
class _Fleet:
    """One provisioned fleet: backends plus how to attach and trickle them."""

    def __init__(self, source: str, streams: int, depth: int) -> None:
        self.source = source
        self.streams = streams
        self.depth = depth
        self.backends: list = []
        self._cleanup: list = []
        self._next_beat = depth
        self._next_ts = depth * DT

    def attach_all(self, agg: HeartbeatAggregator) -> None:
        for i, backend in enumerate(self.backends):
            agg.attach_stream(f"{self.source}-{i}", backend)

    def trickle(self, beats: int) -> None:
        """Append ``beats`` new records to every stream."""
        for _ in range(beats):
            beat, ts = self._next_beat, self._next_ts + DT
            for backend in self.backends:
                backend.append(beat, ts, 0, 1)
            self._next_beat, self._next_ts = beat + 1, ts
        for backend in self.backends:
            flush = getattr(backend, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for fn in self._cleanup:
            fn()
        for backend in self.backends:
            backend.close()


def build_memory_fleet(streams: int, depth: int) -> _Fleet:
    """Memory-backed fleet with a *shared* deep synthetic history.

    10 000 streams x 65 536 records would need ~21 GB of private buffers;
    since the baseline arm's cost is copying/parsing records out — not
    owning them — every stream adopts the same prefilled storage array.
    Trickled appends land in the shared ring (each stream advances its own
    counter over identical slots), which preserves exactly the read work a
    private buffer would cause.
    """
    fleet = _Fleet("memory", streams, depth)
    template = synth_records(depth)
    for _ in range(streams):
        backend = MemoryBackend(depth, storage=template, total=depth)
        backend.set_default_window(20)
        fleet.backends.append(backend)
    return fleet


def build_shm_fleet(streams: int, depth: int) -> _Fleet:
    fleet = _Fleet("shm", streams, depth)
    history = synth_records(depth)
    for _ in range(streams):
        backend = SharedMemoryBackend(capacity=depth)
        backend.append_many(history)
        backend.set_default_window(20)
        fleet.backends.append(backend)
    return fleet


def build_file_fleet(streams: int, depth: int, tmp_dir) -> _Fleet:
    fleet = _Fleet("file", streams, depth)
    history = synth_records(depth)
    for i in range(streams):
        backend = FileBackend(os.path.join(tmp_dir, f"fleet-{i}.log"), capacity=depth)
        backend.set_default_window(20)
        backend.append_many(history)
        backend.flush()
        fleet.backends.append(backend)
    return fleet


def build_collector_fleet(streams: int, depth: int) -> tuple[_Fleet, object]:
    """Real TCP producers streaming into a live collector."""
    from repro.net import HeartbeatCollector, NetworkBackend

    collector = HeartbeatCollector(default_capacity=depth)
    fleet = _Fleet("collector", streams, depth)
    history = synth_records(depth)
    exporters = []
    for i in range(streams):
        exporter = NetworkBackend(
            collector.endpoint, stream=f"collector-{i}", capacity=depth
        )
        exporter.set_default_window(20)
        exporter.append_many(history)
        exporters.append(exporter)
    deadline = time.monotonic() + 120.0
    expected = streams * depth
    while time.monotonic() < deadline:
        stats = collector.stats()
        if stats["streams"] >= streams and stats["records"] >= expected:
            break
        time.sleep(0.05)
    else:
        raise RuntimeError(
            f"collector ingested {collector.stats()['records']}/{expected} records in time"
        )
    fleet.backends = exporters  # trickle writes go through the producers
    fleet._cleanup.append(collector.close)
    return fleet, collector


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #
def full_snapshot_poll(sources, now: float) -> list:
    """The reference arm: every stream's whole retained history read and its
    windowed rate and age computed from scratch, inline like the measured
    aggregator's poll."""
    readings = []
    for source in sources:
        snap = source.snapshot()
        stamps = snap.records["timestamp"]
        window = min(max(snap.default_window, 1), stamps.shape[0])
        rate = windowed_rate(stamps[stamps.shape[0] - window :]) if window >= 2 else 0.0
        readings.append((rate, now - stamps[-1] if window else None))
    return readings


def _median_poll_seconds(poll, polls: int, before=None) -> float:
    samples = []
    for _ in range(polls):
        if before is not None:
            before()
        start = time.perf_counter()
        poll()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def measure_fleet(
    fleet: _Fleet,
    attach,
    sources,
    *,
    full_polls: int,
    idle_polls: int,
    trickle_polls: int,
    trickle=None,
) -> dict:
    """Measure the three regimes over one provisioned fleet.

    ``attach`` wires the fleet into the measured aggregator; ``sources()``
    yields the same streams as objects for the full-snapshot reference arm.
    ``trickle`` is the between-polls beat generator; it defaults to
    appending :data:`TRICKLE` beats to every stream directly.  The collector
    arm substitutes a generator that also waits for the beats to land over
    TCP, so the poll measures delta consumption rather than socket latency.
    """
    if trickle is None:
        def trickle() -> None:
            fleet.trickle(TRICKLE)

    clock = _FrozenClock(now=fleet.depth * DT)
    result = {"streams": fleet.streams, "depth": fleet.depth}

    def full() -> None:
        full_snapshot_poll(sources(), clock.now())

    full()  # warm caches (page cache, numpy) outside the timing
    result["full_poll_ms"] = _median_poll_seconds(full, full_polls) * 1e3

    incr = HeartbeatAggregator(clock=clock)
    try:
        attach(incr)
        incr.poll()  # builds every stream's cursor state
        result["idle_poll_ms"] = _median_poll_seconds(incr.poll, idle_polls) * 1e3
        trickle_seconds = _median_poll_seconds(incr.poll, trickle_polls, before=trickle)
        result["trickle_poll_ms"] = trickle_seconds * 1e3
        result["trickle_beats_per_poll"] = TRICKLE * fleet.streams
        result["ingested_beats_per_sec"] = (
            (TRICKLE * fleet.streams) / trickle_seconds if trickle_seconds > 0 else 0.0
        )
    finally:
        incr.close()

    result["speedup_vs_full"] = result["full_poll_ms"] / max(result["trickle_poll_ms"], 1e-9)
    result["idle_speedup_vs_full"] = result["full_poll_ms"] / max(result["idle_poll_ms"], 1e-9)
    return result


def run_memory(streams: int, depth: int, *, full_polls=3, idle_polls=9, trickle_polls=9) -> dict:
    fleet = build_memory_fleet(streams, depth)
    try:
        return measure_fleet(
            fleet,
            fleet.attach_all,
            lambda: fleet.backends,
            full_polls=full_polls,
            idle_polls=idle_polls,
            trickle_polls=trickle_polls,
        )
    finally:
        fleet.close()


def run_shm(streams: int, depth: int) -> dict:
    fleet = build_shm_fleet(streams, depth)
    try:
        return measure_fleet(
            fleet,
            fleet.attach_all,
            lambda: fleet.backends,
            full_polls=3,
            idle_polls=9,
            trickle_polls=9,
        )
    finally:
        fleet.close()


def run_file(streams: int, depth: int, tmp_dir) -> dict:
    fleet = build_file_fleet(streams, depth, tmp_dir)
    try:
        return measure_fleet(
            fleet,
            fleet.attach_all,
            lambda: fleet.backends,
            full_polls=2,
            idle_polls=9,
            trickle_polls=9,
        )
    finally:
        fleet.close()


def run_collector(streams: int, depth: int) -> dict:
    fleet, collector = build_collector_fleet(streams, depth)
    views = [collector.source(stream_id) for stream_id in collector.stream_ids()]

    def attach(agg: HeartbeatAggregator) -> None:
        agg.attach_collector(collector)

    def trickle_and_settle() -> None:
        # Producer appends travel over TCP; wait for the collector to land
        # them so the poll measures delta consumption, not socket latency.
        expected = collector.stats()["records"] + TRICKLE * fleet.streams
        fleet.trickle(TRICKLE)
        deadline = time.monotonic() + 30.0
        while collector.stats()["records"] < expected and time.monotonic() < deadline:
            time.sleep(0.002)

    try:
        return measure_fleet(
            fleet,
            attach,
            lambda: views,
            full_polls=3,
            idle_polls=9,
            trickle_polls=9,
            trickle=trickle_and_settle,
        )
    finally:
        fleet.close()


# --------------------------------------------------------------------- #
# Arena regime: one columnar slab, per-object rows vs the vectorized shard
# --------------------------------------------------------------------- #
class _ArenaFleet:
    """One provisioned arena slab plus the two ways to observe it."""

    def __init__(self, arena: Arena) -> None:
        self.arena = arena
        self.source = "arena"
        self.streams = arena.rows_in_use
        self.depth = arena.depth

    def attach_slab(self, agg: HeartbeatAggregator) -> None:
        agg.attach_arena(self.arena)

    def rows(self):
        """Every row as its own source object (made on demand: 1M of them)."""
        return (self.arena.row(i) for i in range(self.streams))

    def attach_rows(self, agg: HeartbeatAggregator) -> None:
        """The per-object arm: every row its own source, probe and cursor."""
        for i, row in enumerate(self.rows()):
            agg.attach_stream(f"arena-row-{i}", row)

    def trickle(self, beats: int) -> None:
        # Columnar writer: every row advances by the same ``beats`` records
        # under one seqlock cycle per row, written as whole-slab numpy
        # passes.  The arena analogue of build_memory_fleet's shared
        # storage: per-row Python appends would dominate a 1M-stream run
        # while leaving the observers' read work exactly the same.
        arena = self.arena
        rows = arena._rows
        n = self.streams
        total = int(rows["total"][0])  # rows advance in lockstep
        records = synth_records(beats, start_beat=total, start_ts=total * DT)
        slots = (total + np.arange(beats)) % self.depth
        rows["sequence"][:n] += 1  # odd: write in progress
        arena._records[:n, slots] = records
        rows["total"][:n] += beats
        rows["sequence"][:n] += 1  # even: write published

    def close(self) -> None:
        self.arena.close()


def build_arena_fleet(streams: int, depth: int) -> _ArenaFleet:
    """An anonymous arena with every row allocated and prefilled.

    Provisioning writes the same fields ``allocate()``/``append_many()``
    would, in the same publication order (row fields and records before the
    ``rows_in_use`` publication word) — but as columnar passes, because the
    public per-row calls are Python-rate and a 1M-row build must not be.
    """
    arena = Arena(streams=streams, depth=depth)
    rows = arena._rows
    history = synth_records(depth)
    rows["name"][:streams] = np.array(
        [f"arena-{i:07d}".encode("ascii") for i in range(streams)],
        dtype=f"S{NAME_SIZE}",
    )
    rows["default_window"][:streams] = 20
    rows["state"][:streams] = 1  # _ROW_IN_USE
    arena._records[:streams] = history  # identical ring in every row
    rows["total"][:streams] = depth
    arena._header["rows_in_use"] = streams
    return _ArenaFleet(arena)


def run_arena(
    streams: int,
    depth: int,
    *,
    per_object: bool = True,
    full_polls: int = 1,
    idle_polls: int = 5,
    trickle_polls: int = 5,
) -> dict:
    """Both observation arms over one provisioned arena slab.

    The ``arena`` arm attaches the whole slab as one vectorized shard; the
    ``per_object`` arm attaches every row as its own source — the exact
    per-stream dispatch the slab path replaces.  Both arms' ``full`` regime
    is the same per-row reference loop.  ``per_object=False`` (the
    1M-stream configuration) records why the arm was skipped instead of
    spending minutes proving Python-rate dispatch does not scale.
    """
    fleet = build_arena_fleet(streams, depth)
    try:
        result: dict = {
            "streams": streams,
            "depth": depth,
            "slab_bytes": fleet.arena.nbytes,
        }
        result["arena"] = measure_fleet(
            fleet,
            fleet.attach_slab,
            fleet.rows,
            full_polls=full_polls,
            idle_polls=idle_polls,
            trickle_polls=trickle_polls,
        )
        if per_object:
            result["per_object"] = measure_fleet(
                fleet,
                fleet.attach_rows,
                fleet.rows,
                full_polls=full_polls,
                idle_polls=idle_polls,
                trickle_polls=trickle_polls,
            )
            for regime in ("full", "idle", "trickle"):
                key = f"{regime}_poll_ms"
                result[f"arena_{regime}_speedup"] = result["per_object"][key] / max(
                    result["arena"][key], 1e-9
                )
        else:
            result["per_object"] = None
            result["per_object_skipped"] = (
                f"per-row dispatch at {streams} streams is measured at the "
                "100k row; only the slab arm scales to this fleet"
            )
        return result
    finally:
        fleet.close()


# --------------------------------------------------------------------- #
# Concurrent-connection and federation-tree regimes (the ingest tier)
# --------------------------------------------------------------------- #
#: Records per BATCH frame and frames per connection in the beat phase.
CONN_BATCH = 20
CONN_ROUNDS = 5


def _probe_fd_limit(need: int) -> int:
    """Raise RLIMIT_NOFILE toward ``need`` and report what was achieved.

    Returns the soft limit actually in effect after the attempt.  Callers
    compare it against what their fleet needs and *skip with a reason*
    when the host cannot deliver, instead of erroring mid-run once the
    accept loop starts failing with EMFILE.
    """
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(need, hard), hard))
        except (OSError, ValueError):
            pass  # the probe reports whatever survived
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    return int(soft)


def _client_fleet_worker(
    address, names, rounds, batch, start, drain, acks
) -> None:
    """One subprocess's share of the producer fleet (raw sockets).

    Holds every connection open across the whole run: connect + HELLO all,
    ack, wait for ``start``, ship ``rounds`` preencoded BATCH frames per
    connection, ack, then hold until ``drain`` and die *abruptly* (no CLOSE
    frame) — which the tree regime uses for its stalled-detection check.
    """
    import socket as socketlib

    from repro.net import protocol

    limit = _probe_fd_limit(len(names) + 512)
    if limit < len(names) + 64:
        acks.put(
            ("error", f"worker fd limit {limit} too low for {len(names)} connections")
        )
        return
    socks = []
    try:
        for i, name in enumerate(names):
            for _attempt in range(400):
                try:
                    sock = socketlib.create_connection(address, timeout=10.0)
                    break
                except OSError:
                    time.sleep(0.025)
            else:
                acks.put(("error", f"worker could not connect {name}"))
                return
            sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
            sock.sendall(protocol.encode_hello(name, pid=os.getpid(), default_window=20))
            socks.append(sock)
            if i % 250 == 249:
                time.sleep(0.01)  # ease the accept burst
        acks.put(("connected", len(socks)))
        if not start.wait(timeout=600):
            return
        beat = 0
        sent = 0
        for _round in range(rounds):
            records = synth_records(batch, start_beat=beat, start_ts=beat * DT)
            header, payload = protocol.frame_buffers(
                protocol.FRAME_BATCH, protocol.batch_payload(records)
            )
            frame = bytes(header) + bytes(payload)
            beat += batch
            for sock in socks:
                sock.sendall(frame)
                sent += batch
        acks.put(("sent", sent))
        drain.wait(timeout=600)
    finally:
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass


def _spawn_client_fleet(ctx, address, connections, workers, rounds, batch, prefix, start, drain, acks):
    """Start ``workers`` subprocesses covering ``connections`` producers."""
    procs = []
    offset = 0
    for w in range(workers):
        count = connections // workers + (1 if w < connections % workers else 0)
        names = [f"{prefix}-{offset + i:05d}" for i in range(count)]
        offset += count
        proc = ctx.Process(
            target=_client_fleet_worker,
            args=(address, names, rounds, batch, start, drain, acks),
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs


def _await_acks(acks, kind, workers, timeout=600.0):
    total = 0
    for _ in range(workers):
        got_kind, value = acks.get(timeout=timeout)
        if got_kind == "error":
            raise RuntimeError(value)
        assert got_kind == kind, f"expected {kind} ack, got {got_kind}"
        total += value
    return total


def run_concurrent(
    connections: int, *, workers: int = 4, rounds: int = CONN_ROUNDS, batch: int = CONN_BATCH
) -> dict:
    """One collector, ``connections`` live producer links, ingest rate."""
    import multiprocessing as mp

    from repro.net import HeartbeatCollector

    limit = _probe_fd_limit(connections + 4096)
    if limit < connections + 512:
        return {
            "connections_requested": connections,
            "skipped": (
                f"RLIMIT_NOFILE is {limit} after probing; "
                f"~{connections + 512} descriptors needed"
            ),
        }
    ctx = mp.get_context("spawn")
    start, drain = ctx.Event(), ctx.Event()
    acks = ctx.Queue()
    collector = HeartbeatCollector(
        backlog=4096, default_capacity=max(64, rounds * batch)
    )
    try:
        t_connect = time.monotonic()
        procs = _spawn_client_fleet(
            ctx, collector.address, connections, workers, rounds, batch,
            "conn", start, drain, acks,
        )
        connected = _await_acks(acks, "connected", workers)
        deadline = time.monotonic() + 300.0
        while (
            collector.stats()["open_connections"] < connections
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        connect_seconds = time.monotonic() - t_connect
        stats = collector.stats()
        peak_open = stats["open_connections"]
        expected = connections * rounds * batch

        t0 = time.monotonic()
        start.set()
        sent = _await_acks(acks, "sent", workers)
        while collector.stats()["records"] < expected and time.monotonic() < deadline:
            time.sleep(0.02)
        ingest_seconds = time.monotonic() - t0
        stats = collector.stats()
        drain.set()
        for proc in procs:
            proc.join(timeout=120.0)
        return {
            "connections_requested": connections,
            "connections_connected": connected,
            "peak_open_connections": peak_open,
            "connect_seconds": connect_seconds,
            "records_sent": sent,
            "records_ingested": stats["records"],
            "ingest_seconds": ingest_seconds,
            "ingest_beats_per_sec": stats["records"] / ingest_seconds if ingest_seconds > 0 else 0.0,
            "streams": stats["streams"],
            "protocol_errors": stats["protocol_errors"],
        }
    finally:
        collector.close()


def run_tree(
    streams: int,
    *,
    edges: int = 2,
    workers_per_edge: int = 2,
    rounds: int = CONN_ROUNDS,
    batch: int = CONN_BATCH,
) -> dict:
    """Producers → ``edges`` edge collectors → one root (federation).

    The same client fleet as :func:`run_concurrent`, split across edge
    collectors that relay into a root.  Measures delivered beats/sec *at
    the root*, then kills every producer abruptly and checks the root
    observes the deaths (disconnected streams classifying as STALLED).
    """
    import multiprocessing as mp

    from repro.net import HeartbeatCollector

    limit = _probe_fd_limit(streams + 4096)
    if limit < streams + 512:
        return {
            "streams": streams,
            "skipped": (
                f"RLIMIT_NOFILE is {limit} after probing; "
                f"~{streams + 512} descriptors needed"
            ),
        }
    ctx = mp.get_context("spawn")
    start, drain = ctx.Event(), ctx.Event()
    acks = ctx.Queue()
    root = HeartbeatCollector(backlog=4096, default_capacity=max(64, rounds * batch))
    edge_nodes = [
        HeartbeatCollector(
            upstream=root.endpoint,
            backlog=4096,
            default_capacity=max(64, rounds * batch),
        )
        for _ in range(edges)
    ]
    procs = []
    try:
        per_edge = streams // edges
        total_workers = 0
        for e, edge in enumerate(edge_nodes):
            count = per_edge + (streams % edges if e == edges - 1 else 0)
            procs.extend(
                _spawn_client_fleet(
                    ctx, edge.address, count, workers_per_edge, rounds, batch,
                    f"tree{e}", start, drain, acks,
                )
            )
            total_workers += workers_per_edge
        _await_acks(acks, "connected", total_workers)
        expected = streams * rounds * batch

        t0 = time.monotonic()
        start.set()
        sent = _await_acks(acks, "sent", total_workers)
        deadline = time.monotonic() + 600.0
        while root.stats()["records"] < expected and time.monotonic() < deadline:
            time.sleep(0.02)
        deliver_seconds = time.monotonic() - t0
        root_stats = root.stats()
        delivered = root_stats["records"]

        # Stalled detection: every producer dies abruptly (no CLOSE); the
        # edges observe the hangups and the relay propagates them, so the
        # root must end with every stream disconnected-but-not-closed and an
        # aggregator must classify the silence as STALLED.
        drain.set()
        for proc in procs:
            proc.join(timeout=120.0)
        while time.monotonic() < deadline:
            infos = root.streams()
            if len(infos) >= streams and all(not i.connected for i in infos):
                break
            time.sleep(0.05)
        infos = root.streams()
        deaths_seen = sum(1 for i in infos if not i.connected and not i.closed)

        clock = _FrozenClock(now=rounds * batch * DT + 60.0)
        agg = HeartbeatAggregator(clock=clock, liveness_timeout=5.0)
        try:
            agg.attach_collector(root)
            sample = agg.poll()
            stalled = sum(
                1 for _name, reading in sample if reading.status.value == "stalled"
            )
        finally:
            agg.close()

        return {
            "streams": streams,
            "edges": edges,
            "records_sent": sent,
            "records_delivered_to_root": delivered,
            "deliver_seconds": deliver_seconds,
            "delivered_beats_per_sec": delivered / deliver_seconds if deliver_seconds > 0 else 0.0,
            "relay_duplicates": root_stats["relay_duplicates"],
            "deaths_observed_at_root": deaths_seen,
            "stalled_at_root": stalled,
            "stalled_detection_ok": deaths_seen == streams and stalled == streams,
        }
    finally:
        for edge in edge_nodes:
            edge.close()
        root.close()


# --------------------------------------------------------------------- #
# Pytest threshold checks (CI's benchmark-smoke gate)
# --------------------------------------------------------------------- #
def test_incremental_poll_beats_full_snapshot_1k() -> None:
    """The 1 000-stream acceptance gate: incremental must beat full-snapshot.

    Best of three, like the other benchmark gates, so scheduler noise on a
    shared CI host cannot fail a real speedup; an actual regression (the
    incremental poll re-reading whole histories) fails all three by an
    order of magnitude.  Depth 65 536 — the README table's regime: a ring
    snapshot is a byte copy, so at depth 1 024 a whole 32 KiB history costs
    no more than either poll's per-stream Python and the ratio says nothing.
    """
    best = 0.0
    for _ in range(3):
        row = run_memory(1000, 65536, full_polls=2, idle_polls=5, trickle_polls=5)
        best = max(best, row["speedup_vs_full"])
        if best >= 2.0:
            break
    assert best > 1.5, f"incremental poll only {best:.2f}x the full-snapshot poll at 1k streams"


def test_collector_sustains_concurrent_connection_fleet() -> None:
    """The ingest-tier gate: one collector, a whole client fleet at once.

    CI-sized (1 000 live connections — the full 5k/10k regime runs in the
    standalone artifact mode): every connection must register, stay open
    concurrently, and every sent record must land, with zero protocol
    errors.
    """
    import pytest

    connections = 250 if _quick() else 1000
    row = run_concurrent(connections, workers=2)
    if "skipped" in row:
        pytest.skip(row["skipped"])
    assert row["peak_open_connections"] >= connections, row
    assert row["records_ingested"] == row["records_sent"], row
    assert row["protocol_errors"] == 0, row
    assert row["ingest_beats_per_sec"] > 0, row


def test_tree_delivers_every_beat_and_detects_stalls() -> None:
    """The federation gate: 2 edges → 1 root, full delivery + stall fan-in.

    Every beat produced at the edges must reach the root exactly once
    (dedup keeps replays idempotent), and every abrupt producer death must
    be observed at the root as a disconnected stream classifying STALLED.
    """
    import pytest

    streams = 100 if _quick() else 200
    row = run_tree(streams, workers_per_edge=1)
    if "skipped" in row:
        pytest.skip(row["skipped"])
    assert row["records_delivered_to_root"] == row["records_sent"], row
    assert row["stalled_detection_ok"], row


def test_arena_slab_poll_10x_faster_than_per_object_100k() -> None:
    """The 100 000-stream arena acceptance gate.

    One slab of 100k rows observed both ways: the slab attached whole
    must deliver at least 10x the per-object poll throughput in the
    trickle regime (the steady state of a live fleet, and where the
    ingest beats/sec figure comes from).  The real margin is around two
    orders of magnitude, so the 10x floor only trips when the slab path
    has lost its vectorization (per-row Python dispatch sneaking back
    into ``Arena._columns``, the column pass both arms share) — CI scheduler noise
    cannot produce that.  Idle polls race the per-object arm's own fast
    path (100k inline change-token probes, no reads): ≈ 36 ms against the
    slab's ≈ 15–17 ms on a 2-vCPU host, a 2.2–2.4x margin.  The idle floor
    of 1.5x sits under that margin; per-row Python in the slab's idle path
    would cost more than the probes themselves and trip it.
    """
    row = run_arena(100_000, 32, full_polls=1, idle_polls=7, trickle_polls=3)
    assert row["arena_trickle_speedup"] >= 10, row
    assert row["arena_idle_speedup"] >= 1.5, row


def test_idle_fleet_polls_in_near_constant_time() -> None:
    """An all-idle fleet polls without any per-stream history reads.

    Regression gate for the skip-idle fast path: after the warm-up poll the
    change-token probes must answer every subsequent poll — zero delta
    reads — so idle polls stay near-constant-cost regardless of history
    depth (asserted by call-counting in tests/test_delta.py; here the
    latency view: deep histories must not make idle polls slower than a
    loose absolute bound that a full-snapshot poll of the same fleet
    massively exceeds).
    """
    row = run_memory(500, 8192, full_polls=1, idle_polls=7, trickle_polls=3)
    assert row["idle_poll_ms"] < row["full_poll_ms"], row


# --------------------------------------------------------------------- #
# Standalone artifact mode
# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    import argparse
    import pathlib
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized fleets")
    parser.add_argument(
        "--sources",
        default="memory,shm,file,collector,arena,concurrent,tree",
        help="comma-separated subset of memory,shm,file,collector,arena,concurrent,tree",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="artifact path (default: $BENCH_OUTPUT or BENCH_fleet.json)",
    )
    args = parser.parse_args(argv)
    quick = args.quick or _quick()
    sources = [s.strip() for s in args.sources.split(",") if s.strip()]
    out_path = pathlib.Path(args.output or os.environ.get("BENCH_OUTPUT", "BENCH_fleet.json"))

    if quick:
        sizes = (100, 1000)
        memory_depth = 4096
        caps = {"shm": (128, 2048), "file": (64, 1024), "collector": (64, 512)}
        # (streams, depth, measure the per-object arm too)
        arena_configs = ((10_000, 32, True),)
        concurrent_sizes = (1000,)
        tree_sizes = (200,)
    else:
        sizes = (100, 1000, 10000)
        memory_depth = 65536
        caps = {"shm": (512, 8192), "file": (256, 8192), "collector": (128, 2048)}
        arena_configs = ((100_000, 64, True), (1_000_000, 16, False))
        concurrent_sizes = (5000, 10000)
        tree_sizes = (1000, 5000)

    results: dict = {
        "timestamp": time.time(),
        "quick": quick,
        "trickle_beats_per_stream": TRICKLE,
        "sources": {},
    }

    def emit(source: str, row: dict) -> None:
        print(
            f"{source:>9} n={row['streams']:>6} depth={row['depth']:>6}: "
            f"full {row['full_poll_ms']:>10.2f} ms   idle {row['idle_poll_ms']:>8.3f} ms   "
            f"trickle {row['trickle_poll_ms']:>8.3f} ms   "
            f"ingest {row['ingested_beats_per_sec']:>12,.0f} beats/s   "
            f"speedup {row['speedup_vs_full']:>8.1f}x"
        )

    for source in sources:
        rows = []
        if source == "memory":
            results["sources"]["memory"] = {"depth": memory_depth, "fleets": rows}
            for n in sizes:
                row = run_memory(n, memory_depth)
                rows.append(row)
                emit(source, row)
        elif source == "shm":
            cap_n, depth = caps["shm"]
            results["sources"]["shm"] = {
                "depth": depth, "max_streams": cap_n, "fleets": rows,
            }
            for n in sorted({min(n, cap_n) for n in sizes}):
                row = run_shm(n, depth)
                rows.append(row)
                emit(source, row)
        elif source == "file":
            cap_n, depth = caps["file"]
            results["sources"]["file"] = {
                "depth": depth, "max_streams": cap_n, "fleets": rows,
            }
            with tempfile.TemporaryDirectory() as tmp:
                for n in sorted({min(n, cap_n) for n in sizes}):
                    row = run_file(n, depth, tmp)
                    rows.append(row)
                    emit(source, row)
        elif source == "collector":
            cap_n, depth = caps["collector"]
            results["sources"]["collector"] = {
                "depth": depth, "max_streams": cap_n, "fleets": rows,
            }
            for n in sorted({min(n, cap_n) for n in sizes}):
                row = run_collector(n, depth)
                rows.append(row)
                emit(source, row)
        elif source == "arena":
            results["sources"]["arena"] = {"fleets": rows}
            for n, depth, per_object in arena_configs:
                row = run_arena(n, depth, per_object=per_object)
                rows.append(row)
                a = row["arena"]
                line = (
                    f"{source:>9} n={row['streams']:>7} depth={row['depth']:>5}: "
                    f"full {a['full_poll_ms']:>10.2f} ms   "
                    f"idle {a['idle_poll_ms']:>8.3f} ms   "
                    f"trickle {a['trickle_poll_ms']:>8.3f} ms   "
                    f"ingest {a['ingested_beats_per_sec']:>12,.0f} beats/s"
                )
                if row["per_object"] is not None:
                    line += (
                        f"   vs per-object trickle "
                        f"{row['per_object']['trickle_poll_ms']:>10.2f} ms "
                        f"({row['arena_trickle_speedup']:.0f}x)"
                    )
                else:
                    line += "   (per-object arm skipped)"
                print(line)
        elif source == "concurrent":
            results["sources"]["concurrent"] = {
                "rounds": CONN_ROUNDS, "batch": CONN_BATCH, "fleets": rows,
            }
            for n in concurrent_sizes:
                row = run_concurrent(n)
                rows.append(row)
                if "skipped" in row:
                    print(f"{source:>9} n={n:>6}: skipped — {row['skipped']}")
                    continue
                print(
                    f"{source:>9} n={row['connections_requested']:>6}: "
                    f"open {row['peak_open_connections']:>6} conns "
                    f"(connected in {row['connect_seconds']:>6.1f} s)   "
                    f"ingest {row['ingest_beats_per_sec']:>12,.0f} beats/s   "
                    f"{row['records_ingested']:,}/{row['records_sent']:,} records"
                )
        elif source == "tree":
            results["sources"]["tree"] = {
                "rounds": CONN_ROUNDS, "batch": CONN_BATCH, "fleets": rows,
            }
            for n in tree_sizes:
                row = run_tree(n)
                rows.append(row)
                if "skipped" in row:
                    print(f"{source:>9} n={n:>6}: skipped — {row['skipped']}")
                    continue
                print(
                    f"{source:>9} n={row['streams']:>6} via {row['edges']} edges: "
                    f"deliver {row['delivered_beats_per_sec']:>12,.0f} beats/s   "
                    f"{row['records_delivered_to_root']:,}/{row['records_sent']:,} records   "
                    f"stalled-detection {'OK' if row['stalled_detection_ok'] else 'FAILED'}"
                )
        else:
            raise SystemExit(f"unknown source {source!r}")

    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
