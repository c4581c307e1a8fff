"""Per-layer probes: each times one layer's public calls, alone, in this process.

Every probe declares the ``<module>.<metric>`` names it produces and runs
isolated: one that cannot import or call its target reports ``null`` with the
reason for each of its names instead of failing the run.  Inputs come from
``--seed``.  Collector probes keep the collector in this process (it runs on
its own thread and the probe only sleeps while it works), which is enough to
split one layer's cost from another's; end-to-end numbers never come from
here.
"""

from __future__ import annotations

import itertools
import os
import socket
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import common  # noqa: F401  (puts src/ on sys.path before repro is imported)
import numpy as np
from common import ALWAYS_DECIDE, Owner, cell_actuator, encode_frames, hello, now, percentile
from spec import FLEET_BURST_BEATS, FLEET_DEPTH, FLEET_HOT_ROWS, FLEET_ROWS

#: Target wall time of one timing repeat, and how many repeats' median is kept.
_REPEAT_S = 0.02
_REPEATS = 5

Probe = Callable[["Fixtures"], dict[str, float]]
PROBES: list[tuple[tuple[str, ...], Probe]] = []


def probe(*names: str) -> Callable[[Probe], Probe]:
    def register(fn: Probe) -> Probe:
        PROBES.append((names, fn))
        return fn

    return register


def per_call(fn: Callable[[], Any], *, between: Callable[[], Any] | None = None) -> float:
    """Median seconds per call of ``fn`` over ``_REPEATS`` timed repeats.

    With ``between`` the calls are timed one at a time and ``between`` runs
    untimed before each (to put new input in place).
    """
    if between is not None:
        samples = []
        deadline = now() + _REPEAT_S * _REPEATS
        while len(samples) < 5 or (now() < deadline and len(samples) < 2000):
            between()
            start = now()
            fn()
            samples.append(now() - start)
        return statistics.median(samples)
    start = now()
    fn()
    once = max(now() - start, 1e-9)
    calls = max(1, int(_REPEAT_S / once))
    repeats = []
    for _ in range(_REPEATS):
        start = now()
        for _ in range(calls):
            fn()
        repeats.append((now() - start) / calls)
    return statistics.median(repeats)


def wait_until(condition: Callable[[], bool], timeout: float = 5.0) -> None:
    deadline = now() + timeout
    while not condition():
        if now() > deadline:
            raise TimeoutError("probe condition not reached")
        time.sleep(0.0005)


class Fixtures(Owner):
    """Seeded inputs and shared, lazily built objects for one probe pass."""

    def __init__(self, seed: int, scratch: Path) -> None:
        from repro.core.record import RECORD_DTYPE

        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.dtype = RECORD_DTYPE
        self._fleet: tuple[Any, list[Any]] | None = None
        self._names = itertools.count()
        self.beats = 0

    def name(self, prefix: str) -> str:
        return f"{prefix}-{os.getpid()}-{next(self._names)}"

    def records(self, n: int) -> np.ndarray:
        """``n`` fresh records: increasing beats, current stamps, seeded tags."""
        out = np.empty(n, dtype=self.dtype)
        out["beat"] = np.arange(self.beats, self.beats + n)
        out["timestamp"] = now()
        out["tag"] = self.rng.integers(0, 1 << 31, size=n)
        out["thread_id"] = 1
        self.beats += n
        return out

    def tempdir(self) -> str:
        return tempfile.mkdtemp(dir=self.scratch)

    def fleet(self) -> tuple[Any, list[Any]]:
        """fleet-observe's slab geometry as an in-process arena, and its row views (built once)."""
        if self._fleet is None:
            from repro.endpoints import open_arena, open_backend

            url = f"mem-arena://{self.name('fleet')}?streams={FLEET_ROWS}&depth={FLEET_DEPTH}"
            arena = self.owned(open_arena(url))
            rows = [open_backend(f"{url}&stream=r{i:05d}") for i in range(FLEET_ROWS)]
            burst = self.records(FLEET_BURST_BEATS)
            for row in rows:
                row.append_many(burst)
            self._fleet = (arena, rows)
        return self._fleet

    def trickle(self) -> Callable[[], None]:
        """Writes one burst to the next hot set of the fleet per call."""
        _, rows = self.fleet()
        state = {"turn": 0}

        def write() -> None:
            burst = self.records(FLEET_BURST_BEATS)
            start = (state["turn"] * FLEET_HOT_ROWS) % FLEET_ROWS
            for row in rows[start : start + FLEET_HOT_ROWS]:
                row.append_many(burst)
            state["turn"] += 1

        return write

    def collector(self, **query: Any) -> Any:
        from repro import open_collector
        from repro.endpoints import TcpEndpoint

        return self.owned(open_collector(TcpEndpoint(host="127.0.0.1", port=0, **query)))

    def connect(self, collector: Any, stream: str | None, capacity: int = 4096) -> socket.socket:
        """A blocking socket to ``collector``; HELLO sent when ``stream`` is named."""
        from repro.net import protocol

        sock = self.owned(socket.create_connection(collector.address, timeout=10.0))
        if stream is not None:
            sock.sendall(protocol.encode_hello(stream, pid=1, nonce=next(self._names) + 1, capacity=capacity))
        return sock

    def frames(self, count: int, per_frame: int) -> bytes:
        """``count`` encoded BATCH frames of ``per_frame`` fresh records each."""
        return encode_frames(self.records(count * per_frame), per_frame)


# --------------------------------------------------------------------- #
# core
# --------------------------------------------------------------------- #
@probe("core.heartbeat.beat_ns", "core.heartbeat.batch64_ns_per_beat", "core.heartbeat.current_rate_us")
def heartbeat(fx: Fixtures) -> dict[str, float]:
    from repro import Heartbeat, WallClock, open_backend

    hb = fx.owned(Heartbeat(clock=WallClock(rebase=False), backend=open_backend("mem://?capacity=2048")))
    bare = fx.owned(open_backend("mem://?capacity=2048"))
    tags = fx.rng.integers(0, 1 << 31, size=64)
    whole = per_call(lambda: hb.heartbeat(7))
    append = per_call(lambda: bare.append(1, 1.0, 7, 1))
    return {
        "core.heartbeat.beat_ns": (whole - append) * 1e9,
        "core.heartbeat.batch64_ns_per_beat": per_call(lambda: hb.heartbeat_batch(64, tags)) / 64 * 1e9,
        "core.heartbeat.current_rate_us": per_call(hb.current_rate) * 1e6,
    }


def _append_costs(backend: Any, fx: Fixtures) -> tuple[float, float]:
    batch = fx.records(64)
    single = per_call(lambda: backend.append(1, 1.0, 7, 1)) * 1e9
    return single, per_call(lambda: backend.append_many(batch)) / 64 * 1e9


@probe("core.backends.memory.append_ns", "core.backends.memory.append_many64_ns_per_beat")
def memory_backend(fx: Fixtures) -> dict[str, float]:
    from repro import open_backend

    single, many = _append_costs(fx.owned(open_backend("mem://?capacity=4096")), fx)
    return {"core.backends.memory.append_ns": single, "core.backends.memory.append_many64_ns_per_beat": many}


@probe(
    "core.backends.shared_memory.append_ns",
    "core.backends.shared_memory.append_many64_ns_per_beat",
    "core.backends.shared_memory.snapshot_since_us",
)
def shared_memory_backend(fx: Fixtures) -> dict[str, float]:
    from repro import open_backend, open_source

    name = fx.name("probe")
    backend = fx.owned(open_backend(f"shm://{name}?depth=65536"))
    single, many = _append_costs(backend, fx)
    reader = fx.owned(open_source(f"shm://{name}"))
    batch = fx.records(64)
    state: dict[str, Any] = {"cursor": reader.snapshot_since(None)[1]}

    def read() -> None:
        state["cursor"] = reader.snapshot_since(state["cursor"])[1]

    return {
        "core.backends.shared_memory.append_ns": single,
        "core.backends.shared_memory.append_many64_ns_per_beat": many,
        "core.backends.shared_memory.snapshot_since_us": per_call(
            read, between=lambda: backend.append_many(batch)
        )
        * 1e6,
    }


@probe(
    "core.backends.file.append_ns",
    "core.backends.file.append_many64_ns_per_beat",
    "core.backends.file.append_writethrough_ns",
    "core.backends.file.snapshot_ms_at_100k",
)
def file_backend(fx: Fixtures) -> dict[str, float]:
    from repro import open_backend

    directory = fx.tempdir()
    buffered = fx.owned(open_backend(f"file://{directory}/buffered.hblog"))
    single, many = _append_costs(buffered, fx)
    through = fx.owned(open_backend(f"file://{directory}/through.hblog?buffered=0"))
    history = fx.owned(open_backend(f"file://{directory}/history.hblog"))
    history.append_many(fx.records(100_000))
    return {
        "core.backends.file.append_ns": single,
        "core.backends.file.append_many64_ns_per_beat": many,
        "core.backends.file.append_writethrough_ns": per_call(lambda: through.append(1, 1.0, 7, 1)) * 1e9,
        # The O(history) read behind current_rate() on file://.
        "core.backends.file.snapshot_ms_at_100k": per_call(lambda: history.snapshot(20)) * 1e3,
    }


@probe(
    "core.backends.arena.append_ns",
    "core.backends.arena.append_many64_ns_per_beat",
    "core.backends.arena.snapshot_since_all_ms_trickle",
    "core.backends.arena.snapshot_since_all_ms_idle",
)
def arena_backend(fx: Fixtures) -> dict[str, float]:
    from repro import open_backend
    from repro.endpoints import open_arena

    url = f"mem-arena://{fx.name('row')}?streams=4&depth=4096"
    fx.owned(open_arena(url))  # closed with the pass, so the next pass gets a fresh slab
    single, many = _append_costs(open_backend(f"{url}&stream=probe"), fx)
    arena, _ = fx.fleet()
    state: dict[str, Any] = {"cursors": arena.snapshot_since_all(None).cursors}

    def read() -> None:
        state["cursors"] = arena.snapshot_since_all(state["cursors"]).cursors

    return {
        "core.backends.arena.append_ns": single,
        "core.backends.arena.append_many64_ns_per_beat": many,
        "core.backends.arena.snapshot_since_all_ms_trickle": per_call(read, between=fx.trickle()) * 1e3,
        "core.backends.arena.snapshot_since_all_ms_idle": per_call(read) * 1e3,
    }


@probe("core.monitor.read_us")
def monitor(fx: Fixtures) -> dict[str, float]:
    from repro import HeartbeatMonitor, WallClock, open_backend

    name = fx.name("probe")
    backend = fx.owned(open_backend(f"shm://{name}?depth=4096"))
    watcher = fx.owned(HeartbeatMonitor.attach_endpoint(f"shm://{name}", clock=WallClock(rebase=False)))
    batch = fx.records(64)
    return {"core.monitor.read_us": per_call(watcher.read, between=lambda: backend.append_many(batch)) * 1e6}


@probe(
    "core.aggregator.poll_ms_collector_2",
    "core.aggregator.poll_us_per_stream_object",
    "core.aggregator.poll_ms_arena_trickle",
    "core.aggregator.poll_ms_arena_idle",
    "core.aggregator.classify_codes_us_per_kstream",
)
def aggregator(fx: Fixtures) -> dict[str, float]:
    from repro import HeartbeatAggregator, WallClock, open_backend
    from repro.core.aggregator import classify_codes

    clock = WallClock(rebase=False)
    out: dict[str, float] = {}

    collector = fx.collector()
    socks = [fx.connect(collector, f"agg{i}") for i in range(2)]
    over_wire = fx.owned(HeartbeatAggregator(clock=clock))
    over_wire.attach_collector(collector)

    def feed() -> None:
        want = collector.stats()["records"] + 128
        for sock in socks:
            sock.sendall(fx.frames(1, 64))
        wait_until(lambda: collector.stats()["records"] >= want)

    feed()
    out["core.aggregator.poll_ms_collector_2"] = per_call(over_wire.poll, between=feed) * 1e3

    backends = [fx.owned(open_backend("mem://?capacity=256")) for _ in range(1000)]
    per_object = fx.owned(HeartbeatAggregator(clock=clock))
    for i, backend in enumerate(backends):
        per_object.attach_stream(f"s{i}", backend)

    def touch() -> None:
        burst = fx.records(4)
        for backend in backends[:100]:
            backend.append_many(burst)

    touch()
    out["core.aggregator.poll_us_per_stream_object"] = per_call(per_object.poll, between=touch) * 1e6 / 1000

    arena, _ = fx.fleet()
    over_slab = fx.owned(HeartbeatAggregator(clock=clock))
    over_slab.attach_arena(arena)
    over_slab.poll()
    out["core.aggregator.poll_ms_arena_trickle"] = per_call(over_slab.poll, between=fx.trickle()) * 1e3
    out["core.aggregator.poll_ms_arena_idle"] = per_call(over_slab.poll) * 1e3

    n = FLEET_ROWS
    rate = fx.rng.uniform(1.0, 100.0, size=n)
    retained = np.full(n, 64)
    tmin, tmax = np.full(n, 10.0), np.full(n, 50.0)
    age = fx.rng.uniform(0.0, 2.0, size=n)
    out["core.aggregator.classify_codes_us_per_kstream"] = (
        per_call(lambda: classify_codes(rate, retained, tmin, tmax, age, 1.0)) * 1e6 / (n / 1000)
    )
    return out


# --------------------------------------------------------------------- #
# adapt
# --------------------------------------------------------------------- #
@probe(
    "adapt.engine.tick_ms",
    "adapt.engine.tick_us_per_stream",
    "adapt.loop.step_us",
    "adapt.actuator.apply_us",
)
def adapt(fx: Fixtures) -> dict[str, float]:
    from observer import TimedAggregator

    from repro import AdaptSpec, HealthStatus, MonitorReading, WallClock
    from repro.control import ControlDecision

    spec = AdaptSpec.from_dict(ALWAYS_DECIDE)
    arena, _ = fx.fleet()
    polls: list[float] = []
    timed = TimedAggregator(clock=WallClock(rebase=False))
    timed.attach_arena(arena)
    engine = fx.owned(spec.build_engine(aggregator=timed, actuators={"ledger": cell_actuator}))

    def tick() -> None:
        engine.tick()
        polls.append(timed.last_poll_s)
        for loop in engine.loops.values():
            loop.traces.clear()

    tick()
    polls.clear()
    tick_s = per_call(tick, between=fx.trickle())

    reading = MonitorReading(
        rate=5.0, total_beats=10, target_min=0.0, target_max=0.0,
        last_timestamp=1.0, age=0.0, status=HealthStatus.HEALTHY,
    )
    loop = spec.loop_factory({"ledger": cell_actuator})("probe", reading)
    assert loop is not None
    state = {"beat": 0}

    def step() -> None:
        loop.step(state["beat"], rate=5.0)
        state["beat"] += 1
        if state["beat"] % 4096 == 0:
            loop.traces.clear()

    knob = cell_actuator()
    decision = ControlDecision(delta=1)
    return {
        "adapt.engine.tick_ms": tick_s * 1e3,
        "adapt.engine.tick_us_per_stream": (tick_s - statistics.median(polls)) / FLEET_ROWS * 1e6,
        "adapt.loop.step_us": per_call(step) * 1e6,
        "adapt.actuator.apply_us": per_call(lambda: knob.apply(decision)) * 1e6,
    }


# --------------------------------------------------------------------- #
# net
# --------------------------------------------------------------------- #
@probe(
    "net.protocol.frame_encode_us_4",
    "net.protocol.frame_encode_us_64",
    "net.protocol.decoder_feed_us_per_frame_4",
    "net.protocol.decoder_feed_us_per_frame_64",
    "net.protocol.decode_batch_us_4",
    "net.protocol.encode_relay_us_per_entry",
    "net.protocol.decode_relay_us_per_entry",
)
def protocol_codec(fx: Fixtures) -> dict[str, float]:
    from repro.net import protocol

    out: dict[str, float] = {}
    for size in (4, 64):
        records = fx.records(size)
        out[f"net.protocol.frame_encode_us_{size}"] = (
            per_call(lambda r=records: protocol.frame_buffers(protocol.FRAME_BATCH, protocol.batch_payload(r)))
            * 1e6
        )
        blob = fx.frames(256, size)
        decoder = protocol.FrameDecoder()
        out[f"net.protocol.decoder_feed_us_per_frame_{size}"] = (
            per_call(lambda b=blob, d=decoder: d.feed(b)) / 256 * 1e6
        )
    payload = bytes(protocol.batch_payload(fx.records(4)))
    out["net.protocol.decode_batch_us_4"] = per_call(lambda: protocol.decode_batch(payload)) * 1e6
    entries = [
        protocol.RelayEntry(stream_id=f"s{i:04d}", pid=1, nonce=i + 1, records=fx.records(4)) for i in range(1000)
    ]
    out["net.protocol.encode_relay_us_per_entry"] = per_call(lambda: protocol.encode_relay(entries)) / 1000 * 1e6
    body = protocol.strip_header(protocol.encode_relay(entries))
    out["net.protocol.decode_relay_us_per_entry"] = (
        per_call(lambda: protocol.decode_relay_frame(body)) / 1000 * 1e6
    )
    return out


@probe(
    "net.exporter.append_many64_ns_per_beat",
    "net.exporter.drain_records_per_s",
    "net.exporter.pending_records_peak",
    "net.exporter.dropped_records",
)
def exporter(fx: Fixtures) -> dict[str, float]:
    from repro import open_backend

    collector = fx.collector()
    backend = fx.owned(open_backend(f"{collector.endpoint_url}?capacity=65536&stream=probe"))
    batch = fx.records(64)
    enqueue = []
    for _ in range(_REPEATS):
        start = now()
        for _ in range(256):  # 16 384 records: well inside the pending bound
            backend.append_many(batch)
        enqueue.append((now() - start) / (256 * 64))
        wait_until(lambda: backend.stats()["pending_records"] == 0)
    before = backend.stats()["sent_records"]
    peak = 0
    start = now()
    for i in range(900):  # 57 600 records, as fast as one thread can queue them
        backend.append_many(batch)
        if i % 16 == 0:
            peak = max(peak, backend.stats()["pending_records"])
    while backend.stats()["sent_records"] - before < 900 * 64:
        time.sleep(0.0002)
        if now() - start > 10.0:
            raise TimeoutError("exporter did not drain")
    elapsed = now() - start
    return {
        "net.exporter.append_many64_ns_per_beat": statistics.median(enqueue) * 1e9,
        "net.exporter.drain_records_per_s": 900 * 64 / elapsed,
        "net.exporter.pending_records_peak": float(peak),
        "net.exporter.dropped_records": float(backend.stats()["dropped_records"]),
    }


@probe(
    "net.async_collector.ingest_us_per_frame_4",
    "net.async_collector.ingest_us_per_frame_64",
    "net.async_collector.relay_ingest_us_per_entry",
    "net.async_collector.busy_share",
    "net.async_collector.protocol_errors",
)
def collector_ingest(fx: Fixtures) -> dict[str, float]:
    from repro.net import protocol

    collector = fx.collector()
    out: dict[str, float] = {}

    def ingest(sock: socket.socket, blob: bytes, records: int) -> tuple[float, float]:
        want = collector.stats()["records"] + records
        cpu, start = time.process_time(), now()
        sock.sendall(blob)
        wait_until(lambda: collector.stats()["records"] >= want)
        return now() - start, time.process_time() - cpu

    for size, count in ((4, 20_000), (64, 4_000)):
        sock = fx.connect(collector, f"ingest{size}")
        blob = fx.frames(count, size)
        ingest(sock, blob[: len(blob) // 10], count // 10 * size)  # warm the path
        wall, cpu = ingest(sock, blob[len(blob) // 10 :], (count - count // 10) * size)
        frames = count - count // 10
        decoder = protocol.FrameDecoder()
        chunk = blob[: len(blob) // 10]
        payload = bytes(protocol.batch_payload(fx.records(size)))
        codec = per_call(lambda c=chunk, d=decoder: d.feed(c)) / (count // 10) + per_call(
            lambda p=payload: protocol.decode_batch(p)
        )
        # Bytes written → records visible, minus decode: the demux's own time.
        out[f"net.async_collector.ingest_us_per_frame_{size}"] = (wall / frames - codec) * 1e6
        if size == 4:
            out["net.async_collector.busy_share"] = cpu / wall

    link = fx.connect(collector, None)
    frames = []
    for _ in range(12):
        entries = [
            protocol.RelayEntry(stream_id=f"relay{i:04d}", pid=1, nonce=i + 1, records=fx.records(4))
            for i in range(1000)
        ]
        frames.append(protocol.encode_relay(entries))
    ingest(link, frames[0], 4000)
    wall, _ = ingest(link, b"".join(frames[1:]), 11 * 4000)
    out["net.async_collector.relay_ingest_us_per_entry"] = wall / (11 * 1000) * 1e6
    out["net.async_collector.protocol_errors"] = float(collector.stats()["protocol_errors"])
    return out


@probe(
    "net.persistence.append_frame_us_4",
    "net.persistence.append_records_us_64",
    "net.persistence.journal_bytes_per_beat",
    "net.persistence.replay_s_per_mbeat",
)
def persistence(fx: Fixtures) -> dict[str, float]:
    from repro.net import protocol
    from repro.net.persistence import StreamJournal

    directory = fx.tempdir()
    journal = fx.owned(StreamJournal(directory))
    registration = hello("probe", capacity=4096)
    small = journal.writer("small", registration)
    payload = bytes(protocol.batch_payload(fx.records(4)))
    append_frame = per_call(lambda: small.append_frame(protocol.FRAME_BATCH, payload))
    large = journal.writer("large", registration)
    batch = fx.records(64)
    append_records = per_call(lambda: large.append_records(batch))
    journal.close()
    written = Path(journal.path_for("small")).stat().st_size
    start = now()
    replayed = StreamJournal(directory).replay()
    elapsed = now() - start
    records = sum(int(r.records.shape[0]) for r in replayed)
    beats_small = next(int(r.records.shape[0]) for r in replayed if r.stream_id == "small")
    return {
        "net.persistence.append_frame_us_4": append_frame * 1e6,
        "net.persistence.append_records_us_64": append_records * 1e6,
        "net.persistence.journal_bytes_per_beat": written / beats_small,
        "net.persistence.replay_s_per_mbeat": elapsed / records * 1e6,
    }


@probe("net.relay.forward_lag_ms_p50", "net.relay.records_per_frame", "net.relay.root_duplicates")
def relay(fx: Fixtures) -> dict[str, float]:
    root = fx.collector()
    edge = fx.collector(upstream=root.endpoint)
    # A ring the 50 ms sweep cannot lap even when this process stalls.
    sock = fx.connect(edge, "relay-probe", capacity=65536)
    times: list[float] = []
    at_edge: list[int] = []
    at_root: list[int] = []
    sent = 0
    end = now() + 1.0
    due = now()
    while due < end:  # one 64-record frame per millisecond, open loop
        while now() < due:
            times.append(now())
            at_edge.append(edge.stats()["records"])
            at_root.append(root.stats()["records"])
            time.sleep(0.0002)
        sock.sendall(fx.frames(1, 64))
        sent += 64
        due += 0.001
    wait_until(lambda: root.stats()["records"] >= sent)
    t, e, r = np.asarray(times), np.asarray(at_edge, dtype=float), np.asarray(at_root, dtype=float)
    moving = r > 0
    # When did the edge hold what the root holds now?
    lag = t[moving] - np.interp(r[moving], e, t)
    stats = edge.relay_stats()
    return {
        "net.relay.forward_lag_ms_p50": percentile(lag, 50) * 1e3,
        "net.relay.records_per_frame": stats["records_sent"] / max(stats["frames_sent"], 1),
        "net.relay.root_duplicates": float(root.stats()["relay_duplicates"]),
    }


# --------------------------------------------------------------------- #
# obs, endpoints
# --------------------------------------------------------------------- #
@probe("obs.registry.counter_inc_ns", "obs.registry.render_text_ms_1k")
def registry(fx: Fixtures) -> dict[str, float]:
    from repro.obs import MetricsRegistry

    counter = MetricsRegistry().counter("probe_total")
    wide = MetricsRegistry()
    for i in range(1000):
        wide.counter("probe_wide_total", labels={"stream": f"s{i}"}).inc(i)
    return {
        "obs.registry.counter_inc_ns": per_call(counter.inc) * 1e9,
        "obs.registry.render_text_ms_1k": per_call(wide.render_text) * 1e3,
    }


@probe(
    "endpoints.open_backend_ms_shm",
    "endpoints.open_backend_ms_tcp",
    "endpoints.open_backend_ms_arena_row",
    "endpoints.open_collector_ms",
)
def endpoints(fx: Fixtures) -> dict[str, float]:
    from repro import open_backend, open_collector
    from repro.endpoints import open_arena

    def opening(make: Callable[[], Any], repeats: int = 20) -> float:
        samples = []
        for _ in range(repeats):
            start = now()
            thing = make()
            samples.append(now() - start)
            thing.close()
        return statistics.median(samples) * 1e3

    collector = fx.collector()
    arena_url = f"mem-arena://{fx.name('rows')}?streams=64&depth=64"
    fx.owned(open_arena(arena_url))
    rows = iter(range(64))
    return {
        "endpoints.open_backend_ms_shm": opening(lambda: open_backend(f"shm://{fx.name('open')}?depth=65536")),
        "endpoints.open_backend_ms_tcp": opening(
            lambda: open_backend(f"{collector.endpoint_url}?stream={fx.name('open')}")
        ),
        "endpoints.open_backend_ms_arena_row": opening(
            lambda: open_backend(f"{arena_url}&stream=r{next(rows)}")
        ),
        "endpoints.open_collector_ms": opening(open_collector),
    }


def run_probes(seed: int, scratch: Path) -> dict[str, dict[str, Any]]:
    """Every probe's metrics as ``{name: {"value": ...}}``; ``null`` carries a reason."""
    results: dict[str, dict[str, Any]] = {}
    fixtures = Fixtures(seed, scratch)
    try:
        for names, fn in PROBES:
            try:
                values = fn(fixtures)
                for name in names:
                    results[name] = {"value": float(values[name])}
            except Exception as exc:  # noqa: BLE001 - a broken probe reports null, the run goes on
                for name in names:
                    results[name] = {"value": None, "reason": f"{type(exc).__name__}: {exc}"}
    finally:
        try:
            fixtures.close()
        except Exception:  # noqa: BLE001 - tearing down after a probe that already failed and was reported
            pass
    return results
