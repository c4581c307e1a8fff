"""The traced chain replay: one process, synchronous, a span per public call.

``--trace 1`` replays a workload's generated inputs through the same public
calls the multi-process run drives — ``heartbeat_batch`` → ``batch_payload`` /
``frame_buffers`` → ``FrameDecoder.feed`` → ``decode_batch`` → backend
``append_many`` → ``JournalWriter.append_frame`` → ``encode_relay`` →
``decode_relay_frame`` → ``append_many`` → ``poll`` → ``tick`` — and records
a span around each call from the benchmark's side (spans inside ``src/`` are
a later issue).  A span is ``(name, start, end, parent, batch)``; a layer is
a span name without its last component; a layer's self time is its spans'
durations minus the parts their child spans cover.  The replay runs once with
spans off and once with them on; the difference is ``trace.overhead_share``.
The sockets, the event loop and the threads of the real run are not in the
replay: the probes and the multi-process run measure those.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import common  # noqa: F401  (puts src/ on sys.path before repro is imported)
import numpy as np
import spec
from common import ALWAYS_DECIDE, OUT_DIR, Owner, cell_actuator, encode_frames, hello

_ns = time.perf_counter_ns

#: Layers a trace can attribute self time to (span name minus its last part).
LAYERS = (
    "core.heartbeat",
    "core.backends.shared_memory",
    "core.backends.memory",
    "core.backends.arena",
    "net.protocol",
    "net.persistence",
    "core.aggregator",
    "adapt.engine",
    "adapt.loop",
    "adapt.actuator",
)
#: Largest socket read the collector makes; the replay feeds in the same slices.
_RECV_SIZE = 1 << 16


class Tracer:
    """In-memory span and count recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.batch = 0

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        token = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, self.batch])
        self._stack.append(token)
        self.spans[token][1] = _ns()
        return token

    def end(self, token: int, count: int = 1) -> None:
        if token < 0:
            return
        span = self.spans[token]
        span[2] = _ns()
        self._stack.pop()
        self.counts[span[0]] += count

    def call(self, name: str, fn: Callable[..., Any], *args: Any, count: int = 1) -> Any:
        token = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(token, count)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        return traced

    def self_times(self) -> dict[str, float]:
        """Self nanoseconds per layer: durations minus what children cover.

        Most calls in the chain take a microsecond or two, the same order as
        recording a span, so the recorder's own cost is calibrated (see
        :func:`span_cost`) and taken out: ``inside`` from every span, and
        ``outside`` more from the parent of every child span.
        """
        inside, outside = span_cost()
        own = [span[2] - span[1] - inside for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1] + outside
        layers: dict[str, float] = defaultdict(float)
        for span, nanos in zip(self.spans, own):
            layers[span[0].rsplit(".", 1)[0]] += max(nanos, 0.0)
        return layers

    def write(self, path: Path, header: dict[str, Any]) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({**header, "counts": dict(self.counts)}) + "\n")
            for token, (name, start, end, parent, batch) in enumerate(self.spans):
                out.write(
                    f'{{"id":{token},"name":"{name}","start_ns":{start},"end_ns":{end},'
                    f'"parent":{parent},"batch":{batch}}}\n'
                )


def span_cost(spans: int = 20_000) -> tuple[float, float]:
    """Nanoseconds one empty span adds inside itself and outside, in its parent."""
    tracer = Tracer(True)
    parent = tracer.begin("calibrate.parent")
    for _ in range(spans):
        tracer.call("calibrate.child", int)
    tracer.end(parent)
    inside = statistics.median(span[2] - span[1] for span in tracer.spans[1:])
    whole = tracer.spans[0][2] - tracer.spans[0][1]
    return inside, max(whole / spans - inside, 0.0)


class SpanBackend:
    """A storage backend with a span around every call the chain makes into it."""

    def __init__(self, inner: Any, tracer: Tracer, layer: str) -> None:
        self.inner = inner
        self.capacity = inner.capacity
        self.last_batch: np.ndarray | None = None
        for method in ("append", "snapshot", "snapshot_since", "version"):
            setattr(self, method, tracer.wrap(f"{layer}.{method}", getattr(inner, method)))
        self._append_many = tracer.wrap(f"{layer}.append_many", inner.append_many)
        self.set_targets = inner.set_targets
        self.set_default_window = inner.set_default_window
        self.close = inner.close

    def append_many(self, records: np.ndarray) -> None:
        self.last_batch = records
        self._append_many(records)


class Replay(Owner):
    """Shared scaffolding: seeded inputs, an engine whose calls are spanned."""

    def __init__(self, seed: int, tracer: Tracer, scratch: Path) -> None:
        from repro import AdaptSpec, HeartbeatAggregator, WallClock
        from repro.adapt import AdaptationEngine

        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.scratch = scratch
        self.clock = WallClock(rebase=False)

        aggregator = HeartbeatAggregator(clock=self.clock)
        aggregator.poll = tracer.wrap("core.aggregator.poll", aggregator.poll)  # type: ignore[method-assign]
        self.aggregator = aggregator

        def actuator(*_: object) -> Any:
            knob = cell_actuator()
            knob.apply = tracer.wrap("adapt.actuator.apply", knob.apply)
            return knob

        build = AdaptSpec.from_dict(ALWAYS_DECIDE).loop_factory({"ledger": actuator})

        def factory(name: str, reading: Any) -> Any:
            loop = build(name, reading)
            if loop is not None:
                loop.step = tracer.wrap("adapt.loop.step", loop.step)
            return loop

        self.engine = AdaptationEngine(aggregator, factory)
        self.defer(lambda: self.engine.close(close_aggregator=True))

    def tick(self) -> None:
        self.tracer.call("adapt.engine.tick", self.engine.tick)
        for loop in self.engine.loops.values():
            loop.traces.clear()

    def run(self) -> None:
        raise NotImplementedError


class BeatLocalReplay(Replay):
    BLOCKS = 900
    #: The real observer ticks at 10 Hz against ~150 blocks of 100 beats.
    BLOCKS_PER_TICK = 150

    def run(self) -> None:
        import os

        from repro import Heartbeat, open_backend, open_source

        name = f"ledger-replay-{os.getpid()}"
        shm = self.owned(open_backend(f"shm://{name}?depth=65536"))
        backend = SpanBackend(shm, self.tracer, "core.backends.shared_memory")
        hb = Heartbeat(name="local", clock=self.clock, backend=backend)
        self.aggregator.attach_stream("local", self.owned(open_source(f"shm://{name}")))
        tags = [int(t) for t in self.rng.integers(0, 1 << 31, size=100)]
        call = self.tracer.call
        for block in range(self.BLOCKS):
            self.tracer.batch = block
            for tag in tags:
                call("core.heartbeat.heartbeat", hb.heartbeat, tag)
            call("core.heartbeat.current_rate", hb.current_rate)
            if (block + 1) % self.BLOCKS_PER_TICK == 0:
                self.tick()


class WireSmallReplay(Replay):
    """Small frames through the collector's per-frame steps, journal optional."""

    CHUNKS = 160
    CHUNKS_PER_TICK = 16
    durable = False

    def run(self) -> None:
        from repro import open_backend
        from repro.core.record import RECORD_DTYPE
        from repro.net import protocol
        from repro.net.persistence import StreamJournal

        call, tracer = self.tracer.call, self.tracer
        n = spec.SMALL_CHUNK_FRAMES * spec.SMALL_FRAME_RECORDS
        records = np.empty(n, dtype=RECORD_DTYPE)
        records["tag"] = self.rng.integers(0, 1 << 31, size=n)
        records["thread_id"] = 0
        offsets = np.arange(n, dtype=np.int64)
        registration = hello("s0", capacity=4096)
        backend = SpanBackend(self.owned(open_backend("mem://?capacity=4096")), tracer, "core.backends.memory")
        self.aggregator.attach_stream("s0", backend)
        writer = None
        if self.durable:
            journal = self.owned(StreamJournal(self.scratch / "replay-journal"))
            writer = journal.writer("s0", registration)
        decoder = protocol.FrameDecoder()

        for chunk in range(self.CHUNKS):
            tracer.batch = chunk
            records["beat"] = offsets + chunk * n
            records["timestamp"] = self.clock.now()
            blob = call(
                "net.protocol.frame_buffers", encode_frames, records, spec.SMALL_FRAME_RECORDS,
                count=spec.SMALL_CHUNK_FRAMES,
            )
            for start in range(0, len(blob), _RECV_SIZE):
                frames = call("net.protocol.feed", decoder.feed, blob[start : start + _RECV_SIZE])
                for frame in frames:
                    decoded = call("net.protocol.decode_batch", protocol.decode_batch, frame.payload)
                    backend.append_many(decoded)
                    if writer is not None:
                        call("net.persistence.append_frame", writer.append_frame, protocol.FRAME_BATCH, frame.payload)
                        if writer.oversized:  # what the collector does behind ingest
                            retained = backend.inner.snapshot().records
                            call("net.persistence.rewrite", writer.rewrite, registration, retained)
            if (chunk + 1) % self.CHUNKS_PER_TICK == 0:
                self.tick()


class WireDurableReplay(WireSmallReplay):
    durable = True


class WireTreeReplay(Replay):
    """Producer → edge (journal) → RELAY → root, coalesced like the exporter does."""

    ROUNDS = 400
    BATCHES_PER_FRAME = 32  # the exporter coalesces queued batches into one frame
    FRAMES_PER_SWEEP = 4
    SWEEPS_PER_TICK = 1

    def run(self) -> None:
        from repro import Heartbeat, open_backend
        from repro.net import protocol
        from repro.net.persistence import StreamJournal

        call, tracer = self.tracer.call, self.tracer
        tags = self.rng.integers(0, 1 << 31, size=spec.TREE_BATCH)
        mirror = SpanBackend(self.owned(open_backend("mem://?capacity=65536")), tracer, "core.backends.memory")
        hb = Heartbeat(window=4096, name="p0", clock=self.clock, backend=mirror)
        edge = SpanBackend(self.owned(open_backend("mem://?capacity=65536")), tracer, "core.backends.memory")
        root = SpanBackend(self.owned(open_backend("mem://?capacity=4096")), tracer, "core.backends.memory")
        root.set_default_window(4096)
        self.aggregator.attach_stream("p0", root)
        registration = hello("p0", capacity=65536, default_window=4096)
        journal = self.owned(StreamJournal(self.scratch / "replay-journal"))
        writer = journal.writer("p0", registration)
        edge_decoder, root_decoder = protocol.FrameDecoder(), protocol.FrameDecoder()
        cursor = None

        for round_index in range(self.ROUNDS):
            tracer.batch = round_index
            queued = []
            for _ in range(self.BATCHES_PER_FRAME):
                call("core.heartbeat.heartbeat_batch", hb.heartbeat_batch, spec.TREE_BATCH, tags, count=spec.TREE_BATCH)
                queued.append(mirror.last_batch)
            coalesced = np.concatenate(queued)  # one frame, as the exporter's sender would make it
            blob = call("net.protocol.frame_buffers", encode_frames, coalesced, coalesced.shape[0])
            for start in range(0, len(blob), _RECV_SIZE):
                for frame in call("net.protocol.feed", edge_decoder.feed, blob[start : start + _RECV_SIZE]):
                    decoded = call("net.protocol.decode_batch", protocol.decode_batch, frame.payload)
                    edge.append_many(decoded)
                    call("net.persistence.append_frame", writer.append_frame, protocol.FRAME_BATCH, frame.payload)
                    if writer.oversized:
                        retained = edge.inner.snapshot().records
                        call("net.persistence.rewrite", writer.rewrite, registration, retained)
            if (round_index + 1) % self.FRAMES_PER_SWEEP:
                continue
            delta, cursor = edge.snapshot_since(cursor)
            entry = protocol.RelayEntry(stream_id="p0", pid=1, nonce=1, default_window=4096, records=delta.records)
            relay = call("net.protocol.encode_relay", protocol.encode_relay, [entry])
            for start in range(0, len(relay), _RECV_SIZE):
                for frame in call("net.protocol.feed", root_decoder.feed, relay[start : start + _RECV_SIZE]):
                    decoded_relay = call("net.protocol.decode_relay_frame", protocol.decode_relay_frame, frame.payload)
                    for received in decoded_relay.entries:
                        root.append_many(received.records)
            self.tick()


class FleetObserveReplay(Replay):
    BURSTS = 12
    BURSTS_PER_TICK = 1  # ticks run back to back against a 100 ms burst period

    def run(self) -> None:
        import os

        from repro import open_backend
        from repro.core.record import RECORD_DTYPE
        from repro.endpoints import open_arena

        tracer = self.tracer
        url = f"mem-arena://ledger-replay-{os.getpid()}-{id(self)}?streams={spec.FLEET_ROWS}&depth={spec.FLEET_DEPTH}"
        arena = self.owned(open_arena(url))
        rows = [
            SpanBackend(open_backend(f"{url}&stream=r{i:05d}"), tracer, "core.backends.arena")
            for i in range(spec.FLEET_ROWS)
        ]
        self.aggregator.attach_arena(arena)
        order = self.rng.permutation(spec.FLEET_ROWS).reshape(-1, spec.FLEET_HOT_ROWS)
        record = np.zeros(spec.FLEET_BURST_BEATS, dtype=RECORD_DTYPE)
        record["tag"] = self.rng.integers(0, 1 << 31, size=spec.FLEET_BURST_BEATS)
        offsets = np.arange(spec.FLEET_BURST_BEATS, dtype=np.int64)
        for burst in range(self.BURSTS):
            tracer.batch = burst
            visit, hot = divmod(burst, order.shape[0])
            record["beat"] = offsets + visit * spec.FLEET_BURST_BEATS
            record["timestamp"] = self.clock.now()
            for i in order[hot]:
                rows[i].append_many(record)
            self.tick()


REPLAYS: dict[str, type[Replay]] = {
    "beat-local": BeatLocalReplay,
    "wire-tree": WireTreeReplay,
    "wire-small-frames": WireSmallReplay,
    "wire-small-durable": WireDurableReplay,
    "fleet-observe": FleetObserveReplay,
}


def _timed(workload: str, seed: int, tracer: Tracer, scratch: Path) -> float:
    import shutil

    replay = REPLAYS[workload](seed, tracer, scratch)
    try:
        start = _ns()
        replay.run()
        return (_ns() - start) / 1e9
    finally:
        replay.close()
        shutil.rmtree(scratch / "replay-journal", ignore_errors=True)


def run_replay(workload: str, seed: int, scratch: Path) -> dict[str, dict[str, Any]]:
    """Replay ``workload`` untraced, then traced; per-layer self-time shares."""
    names = [f"trace.self_share.{layer}" for layer in LAYERS]
    names += ["trace.overhead_share", "trace.spans", "trace.replay_s"]
    try:
        _timed(workload, seed, Tracer(False), scratch)  # imports and caches warm, not timed
        untraced_s = _timed(workload, seed, Tracer(False), scratch)
        tracer = Tracer(True)
        traced_s = _timed(workload, seed, tracer, scratch)
        OUT_DIR.mkdir(exist_ok=True)
        header = {"workload": workload, "seed": seed, "untraced_s": untraced_s, "traced_s": traced_s}
        tracer.write(OUT_DIR / f"trace-{workload}.jsonl", header)
        layers = tracer.self_times()
        total = sum(layers.values()) or 1
        values = {f"trace.self_share.{layer}": layers.get(layer, 0) / total for layer in LAYERS}
        values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        values["trace.spans"] = float(len(tracer.spans))
        values["trace.replay_s"] = untraced_s
        return {name: {"value": float(values[name])} for name in names}
    except Exception as exc:  # noqa: BLE001 - a replay that cannot reach its target reports null
        reason = f"{type(exc).__name__}: {exc}"
        return {name: {"value": None, "reason": reason} for name in names}
