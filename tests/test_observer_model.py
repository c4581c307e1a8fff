"""Every observer route against ``tests/model.py``.

One state machine drives eight streams — a ``mem://`` backend, an ``shm://``
segment seen through a ``SharedMemoryReader``, a ``file://`` log seen
through a ``FileReader``, a row of an attached ``mem-arena`` slab, a
``Heartbeat``, two wire streams sent as raw-socket frames (``tcp://`` into a
collector with a journal, and ``relay`` into an edge whose root is the
collector observed) and ``net``, a real ``NetworkBackend`` into its own
collector — through beats, batches, backwards stamps, goal and
window changes (past the observer's row depth and past the source's
capacity), laps, log truncation and rotation, CLOSE and redial, a restart
of the journaled collector, and detach / re-attach.  After every poll each
``FleetSample`` row and each ``HeartbeatMonitor.read()``, at the default
window and at an explicit one, must equal :class:`StreamModel`, and so must
each wire collector's ``streams()`` (total, CLOSE state, reported total),
and after every step the ``Heartbeat``'s own ``current_rate()`` must equal
the model's rate.
The wire changes a window only with a HELLO, so a wire stream redials to
change one (the exporter by its own rule), and each poll first waits at
most :data:`DELIVERY_S` for the collected streams to show what was sent.

``shm`` and ``arena`` read one byte layout (an ``shm://`` segment is a
one-row arena) and stay two kinds because their writers and attachments
differ: ``shm`` is the segment creator's sole-writer ``Ring``, attached per
object through a ``SharedMemoryReader``; ``arena`` writes through a row view
that reloads the row's words before each write, and its slab is attached
whole with ``attach_arena``.

Tier-1 runs a fixed-seed profile; the ``slow`` twin explores.  Two fixed
cases pin what the machine cannot schedule: a read a writer overlaps (the
source's ``retained`` shrinks mid-read), and rows filling their slabs.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import socket
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from model import BACKWARDS, StreamModel

from repro.clock import ManualClock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.backends import Arena, FileBackend, MemoryBackend, SharedMemoryBackend
from repro.core.backends.file import FileReader
from repro.core.backends.shared_memory import SharedMemoryReader
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, NetworkBackend, protocol

LIVENESS = 5.0
KINDS = ("mem", "shm", "file", "arena", "hb", "tcp", "relay", "net")
#: Raw-frame wire kinds, every kind read off a collector, and kinds
#: attached one stream at a time (a slab's or a collector's rows are not).
WIRES = ("tcp", "relay")
COLLECTED = WIRES + ("net",)
DETACHABLE = ("mem", "shm", "file", "hb")
#: Retained beats per kind (``None``: a log keeps every line).  The
#: ``tcp://`` stream asks for the collector's smallest capacity; the relay
#: root's rows are that deep, behind an edge that never laps.  The exporter's
#: ring is its HELLO's capacity hint, so the collector's row is as deep.
CAPACITY = {"mem": 8, "shm": 16, "file": None, "arena": 8, "hb": 8, "tcp": 16, "relay": 16, "net": 16}
EDGE_CAPACITY = 4096
#: The wire streams' first HELLO window, and the bound on one delivery.
WIRE_WINDOW = 5
DELIVERY_S = 2.0
#: Published windows: inside the row, past a row's depth, past every capacity.
WINDOWS = st.sampled_from([1, 2, 3, 4, 5, 9, 17, 40])


def _bounded(done, what: str) -> None:
    """Wait at most :data:`DELIVERY_S` for ``done()``."""
    deadline = time.monotonic() + DELIVERY_S
    while not done():
        assert time.monotonic() < deadline, f"{what} not delivered in time"
        time.sleep(0.0005)


class _Wire:
    """A wire producer as raw frames, one connection per HELLO.

    ``collector`` ingests the frames; ``observed`` is the collector the
    stream is read from — the same one for ``tcp://``, the root behind the
    edge for ``relay``.  The HELLO carries the model's goals and window.
    """

    def __init__(self, name: str, collector: HeartbeatCollector, observed: HeartbeatCollector,
                 model: StreamModel, capacity: int) -> None:
        self.name = name
        self.collector, self.observed = collector, observed
        self.model = model
        self.capacity = capacity
        self.frames = 0  # frames sent to ``collector`` so far
        self.sock: socket.socket | None = None
        self.dial()

    def dial(self) -> None:
        """(Re)register the stream with a HELLO on a new connection."""
        self.sock = socket.create_connection(self.collector.address, timeout=5.0)
        model = self.model
        self._send(
            protocol.encode_hello(
                self.name, pid=4242, nonce=7, default_window=model.window, capacity=self.capacity,
                target_min=model.target_min, target_max=model.target_max,
            )
        )
        model.resume()

    def _send(self, frame: bytes) -> None:
        if self.sock is None:  # the producer closed the stream: a write redials
            self.dial()
        self.sock.sendall(frame)
        self.frames += 1

    def append(self, beat: int, stamp: float, tag: int, thread_id: int) -> None:
        records = np.zeros(1, dtype=RECORD_DTYPE)
        records[0] = (beat, stamp, tag, thread_id)
        self.append_many(records)

    def append_many(self, records: np.ndarray) -> None:
        self._send(protocol.encode_frame(protocol.FRAME_BATCH, protocol.batch_payload(records)))

    def set_targets(self, target_min: float, target_max: float) -> None:
        self._send(protocol.encode_targets(target_min, target_max))

    def set_default_window(self, window: int) -> None:
        self.hang_up()
        self.model.window = window
        self.dial()

    def finish(self) -> None:
        """CLOSE the stream with the total produced and hang up."""
        if self.sock is not None:
            self._send(protocol.encode_close(self.model.total))
            self.model.close()
            self.hang_up()

    def hang_up(self) -> None:
        """Close the connection once its frames landed, so no redial overtakes them."""
        if self.sock is not None:
            _bounded(lambda: self.collector.stats()["frames"] >= self.frames, self.name)
            self.sock.close()
            self.sock = None

    def restart(self, journal: str) -> None:
        """Stop the collector, reopen it on its journal, and redial an open stream."""
        redial = self.sock is not None
        self.hang_up()
        self.collector.close()
        self.collector = self.observed = HeartbeatCollector(journal=journal)
        self.frames = 0
        assert self.state() == self.expected()  # restored as it was, nothing re-sent yet
        if redial:
            self.dial()

    def state(self) -> tuple:
        """The observed stream's counters, goals and CLOSE state."""
        snap = self.observed.snapshot(self.name)
        [info] = self.observed.streams()
        return (snap.total_beats, snap.target_min, snap.target_max, snap.default_window,
                info.total_beats, info.closed, info.reported_total)

    def expected(self) -> tuple:
        model = self.model
        return (model.total, model.target_min, model.target_max, model.window,
                model.total, model.closed, model.reported_total)

    def delivered(self) -> None:
        """Wait, at most :data:`DELIVERY_S`, until the observed stream shows the model.

        The frame counter moves as a frame's ingest starts, so the stream
        must also show the beats, goals and CLOSE state the last frame carried.
        """
        _bounded(lambda: self.collector.stats()["frames"] >= self.frames, self.name)
        deadline = time.monotonic() + DELIVERY_S
        while self.state() != self.expected() and time.monotonic() < deadline:
            time.sleep(0.0005)
        assert self.state() == self.expected(), self.name

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.collector.close()
        self.observed.close()


class _Exporter(_Wire):
    """A real ``NetworkBackend`` into its own collector; reads are :class:`_Wire`'s.

    A closed-loop producer: each write first waits, at most
    :data:`DELIVERY_S`, until the exporter's ring has room for it beyond
    the records not yet sent, so the exporter drops nothing and the
    collector's row laps as the model does.  A window change is the
    exporter's own redial.
    """

    def __init__(self, model: StreamModel) -> None:
        self.name, self.model, self.frames = "net", model, 0
        self.collector = self.observed = HeartbeatCollector()
        self.backend = NetworkBackend(self.collector.endpoint, stream=self.name, capacity=CAPACITY["net"])
        self.backend.set_default_window(model.window)
        self.backend.set_targets(model.target_min, model.target_max)  # the sender dials: HELLO carries both
        assert self.collector.wait_for_streams(1, timeout=DELIVERY_S)

    def _room(self, count: int) -> None:
        backend = self.backend
        _bounded(lambda: backend.stats()["pending_records"] + count <= backend.capacity, "exporter backlog")

    def append(self, beat: int, stamp: float, tag: int, thread_id: int) -> None:
        self._room(1)
        self.backend.append(beat, stamp, tag, thread_id)

    def append_many(self, records: np.ndarray) -> None:
        for start in range(0, records.shape[0], self.backend.capacity):
            chunk = records[start : start + self.backend.capacity]
            self._room(chunk.shape[0])
            self.backend.append_many(chunk)

    def set_targets(self, target_min: float, target_max: float) -> None:
        self.backend.set_targets(target_min, target_max)

    def set_default_window(self, window: int) -> None:
        self.backend.set_default_window(window)

    def close(self) -> None:
        self.backend.close()
        self.collector.close()


class _Route:
    """One stream: what the test writes through, what observers attach to."""

    def __init__(self, kind: str, machine: "ObserverMachine") -> None:
        self.kind = kind
        self.name = kind
        self.model = StreamModel(CAPACITY[kind])
        self.beat = 0
        self.rotations = 0
        self.attached = True
        self.clock, directory = machine.clock, machine.directory
        if kind == "mem":
            self.writer = self.source = MemoryBackend(8)
        elif kind == "shm":
            self.writer = SharedMemoryBackend(capacity=16)
            self.source = SharedMemoryReader(self.writer.name)
        elif kind == "file":
            self.path = os.path.join(directory, "stream.hblog")
            self.writer = FileBackend(self.path, buffered=False)
            self.source = FileReader(self.path)
        elif kind == "arena":
            self.arena = Arena(streams=2, depth=8)
            self.writer = self.arena.allocate("row")
            self.source = self.arena.row(0)
            self.name = "arena/row"
        elif kind == "hb":
            self.hb = Heartbeat(window=4, clock=self.clock, history=8, name="hb")
            self.writer, self.source = self.hb.backend, self.hb
            self.model.window = 4
        elif kind == "net":
            self.model.window = WIRE_WINDOW
            self.writer = _Exporter(self.model)
            self.collector = self.writer.observed
            self.source = self.collector.source(kind)
        else:
            self.model.window = WIRE_WINDOW
            if kind == "tcp":
                self.journal = os.path.join(directory, "journal")
                collector = observed = HeartbeatCollector(journal=self.journal)
                capacity = CAPACITY["tcp"]
            else:
                observed = HeartbeatCollector(default_capacity=CAPACITY["relay"])
                collector = HeartbeatCollector(upstream=observed.endpoint)
                capacity = EDGE_CAPACITY
            self.writer = _Wire(kind, collector, observed, self.model, capacity)
            assert observed.wait_for_streams(1, timeout=DELIVERY_S)
            self.collector = observed
            self.source = observed.source(kind)
        self.monitor = HeartbeatMonitor(self.source, clock=self.clock, liveness_timeout=LIVENESS)

    def restart(self) -> None:
        """The journaled collector stops and comes back on its journal."""
        self.writer.restart(self.journal)
        self.collector = self.writer.observed
        self.source = self.collector.source(self.kind)
        self.monitor = HeartbeatMonitor(self.source, clock=self.clock, liveness_timeout=LIVENESS)

    def append(self, stamp: float, clock: ManualClock) -> None:
        if stamp > clock.now():
            clock.time = stamp  # the clock follows the writes; a Heartbeat stamps with it
        if self.kind == "hb":
            self.hb.heartbeat()
        else:
            self.writer.append(self.beat, stamp, 0, 1)
        self.beat += 1
        self.model.beat(stamp)

    def append_many(self, stamps: list[float], clock: ManualClock) -> None:
        if self.kind == "hb":
            for stamp in stamps:
                self.append(stamp, clock)
            return
        clock.time = max(clock.now(), stamps[-1])
        records = np.zeros(len(stamps), dtype=RECORD_DTYPE)
        records["beat"] = np.arange(self.beat, self.beat + len(stamps))
        records["timestamp"] = stamps
        records["thread_id"] = 1
        self.writer.append_many(records)
        self.beat += len(stamps)
        for stamp in stamps:
            self.model.beat(stamp)

    def close(self) -> None:
        if self.kind == "shm":
            self.source.close()
        if self.kind == "arena":
            self.arena.close()
        elif self.kind != "hb":
            self.writer.close()


class ObserverMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = ManualClock(100.0)
        self.directory = tempfile.mkdtemp(prefix="hb-model-")
        self.routes = {kind: _Route(kind, self) for kind in KINDS}
        self._attach()

    def _attach(self) -> None:
        """A fresh aggregator observing every attached route."""
        self.aggregator = HeartbeatAggregator(clock=self.clock, liveness_timeout=LIVENESS)
        for route in self.routes.values():
            if route.kind == "arena":
                self.aggregator.attach_arena(route.arena, prefix="arena/")
            elif route.kind in COLLECTED:
                self.aggregator.attach_collector(route.collector)
            elif route.attached:
                self.aggregator.attach_stream(route.name, route.source)

    @initialize()
    def seed_goals(self) -> None:
        for route in self.routes.values():
            self._targets(route, 2.0, 50.0)

    @invariant()
    def producer_reads_its_own_rate(self) -> None:
        """``Heartbeat.current_rate``, what ``HB_current_rate`` calls, is the
        model's rate at the producer's own window (``set_window`` rewrites
        only the copy its backend publishes to observers)."""
        route = self.routes["hb"]
        model = dataclasses.replace(route.model, window=route.hb.window)
        for requested in (0, 1, 3, 12):
            want = model.rate(requested)
            if want == BACKWARDS:
                with pytest.raises(ValueError, match="not sorted"):
                    route.hb.current_rate(requested)
            else:
                assert route.hb.current_rate(requested) == want, requested

    def teardown(self) -> None:
        self.aggregator.close()
        for route in self.routes.values():
            route.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # What producers do
    # ------------------------------------------------------------------ #
    def _stamps(self, count: int, dt: float) -> list[float]:
        """``count`` stamps ``dt`` apart after now."""
        now = self.clock.now()
        return [now + dt * (i + 1) for i in range(count)]

    @rule(kind=st.sampled_from(KINDS), dt=st.sampled_from([0.0, 0.05, 0.1, 0.5, 2.0]))
    def beat(self, kind: str, dt: float) -> None:
        self.routes[kind].append(self._stamps(1, dt)[0], self.clock)

    @rule(kind=st.sampled_from(KINDS), count=st.integers(1, 12), dt=st.sampled_from([0.01, 0.1]))
    def batch(self, kind: str, count: int, dt: float) -> None:
        self.routes[kind].append_many(self._stamps(count, dt), self.clock)

    @rule(kind=st.sampled_from(("mem", "shm", "file", "arena") + COLLECTED), back=st.sampled_from([0.5, 3.0]))
    def backwards(self, kind: str, back: float) -> None:
        """A stamp older than the last one (a stepped wall clock)."""
        route = self.routes[kind]
        last = route.model.last
        route.append(self.clock.now() - back if last is None else last - back, self.clock)

    @rule(kind=st.sampled_from(("mem", "shm", "arena", "hb") + COLLECTED), extra=st.integers(1, 20))
    def lap(self, kind: str, extra: int) -> None:
        """More beats than the storage holds, all between two polls."""
        route = self.routes[kind]
        route.append_many(self._stamps(route.model.capacity + extra, 0.02), self.clock)

    def _targets(self, route: _Route, low: float, high: float) -> None:
        route.writer.set_targets(low, high)
        route.model.target_min, route.model.target_max = low, high

    @rule(
        kind=st.sampled_from(KINDS),
        goal=st.sampled_from([(0.0, 0.0), (2.0, 50.0), (20.0, 0.0), (0.0, 3.0), (5.0, 8.0)]),
    )
    def set_targets(self, kind: str, goal: tuple[float, float]) -> None:
        self._targets(self.routes[kind], *goal)

    @rule(kind=st.sampled_from(KINDS), window=WINDOWS)
    def set_window(self, kind: str, window: int) -> None:
        route = self.routes[kind]
        route.writer.set_default_window(window)
        route.model.window = window

    @rule(rotate=st.booleans(), beats=st.integers(0, 6))
    def restart_log(self, rotate: bool, beats: int) -> None:
        """Truncate the log in place, or rotate it away, and write afresh.

        Beat numbers keep counting across the restart: a reader tells an
        in-place restart from a continuation by the beat number ending at its
        cursor (``tail_heartbeat_log``), so a log that regrew byte for byte
        to the same beat number is, by that rule, a continuation.
        """
        route = self.routes["file"]
        route.writer.close()
        if rotate:  # the old inode lives on under another name
            route.rotations += 1
            os.rename(route.path, f"{route.path}.{route.rotations}")
        route.writer = FileBackend(route.path, buffered=False)
        route.model.restart()
        for stamp in self._stamps(beats, 0.1):
            route.append(stamp, self.clock)

    @rule(kind=st.sampled_from(WIRES), redial=st.booleans())
    def finish(self, kind: str, redial: bool) -> None:
        """A wire producer sends CLOSE and hangs up; it redials now or at its next write."""
        wire = self.routes[kind].writer
        wire.finish()
        if redial:
            wire.dial()

    @rule()
    def restart_collector(self) -> None:
        """The journaled collector stops and restarts; observers attach afresh."""
        self.aggregator.close()
        self.routes["tcp"].restart()
        self._attach()

    @rule(dt=st.sampled_from([0.5, 3.0, 6.0]))
    def idle(self, dt: float) -> None:
        self.clock.time = self.clock.now() + dt

    # ------------------------------------------------------------------ #
    # What observers do
    # ------------------------------------------------------------------ #
    @precondition(lambda self: any(r.attached for r in self.routes.values() if r.kind in DETACHABLE))
    @rule(data=st.data())
    def detach(self, data: st.DataObject) -> None:
        names = sorted(r.kind for r in self.routes.values() if r.attached and r.kind in DETACHABLE)
        route = self.routes[data.draw(st.sampled_from(names))]
        self.aggregator.detach(route.name)
        route.attached = False

    @precondition(lambda self: any(not r.attached for r in self.routes.values()))
    @rule(data=st.data())
    def reattach(self, data: st.DataObject) -> None:
        names = sorted(r.kind for r in self.routes.values() if not r.attached)
        route = self.routes[data.draw(st.sampled_from(names))]
        self.aggregator.attach_stream(route.name, route.source)
        route.monitor = HeartbeatMonitor(route.source, clock=self.clock, liveness_timeout=LIVENESS)
        route.attached = True

    @rule(requested=st.sampled_from([1, 2, 3, 6, 12]))
    def poll(self, requested: int) -> None:
        for kind in COLLECTED:
            self.routes[kind].writer.delivered()
        now = self.clock.now()
        sample = self.aggregator.poll()
        expected = {
            route.name: route.model.reading(now, liveness=LIVENESS)
            for route in self.routes.values()
            if route.attached
        }
        assert set(sample.names) == {n for n, r in expected.items() if r != BACKWARDS}
        assert set(sample.errors) == {n for n, r in expected.items() if r == BACKWARDS}
        for name in sample.names:
            assert sample.reading(name) == expected[name], name
        for route in self.routes.values():
            if not route.attached:
                continue
            for window in (0, requested):
                want = route.model.reading(now, requested=window, liveness=LIVENESS)
                if want == BACKWARDS:
                    with pytest.raises(ValueError, match="not sorted"):
                        route.monitor.read(window)
                else:
                    assert route.monitor.read(window) == want, (route.name, window)


def test_a_read_a_writer_overlapped_keeps_only_what_the_source_still_held(monkeypatch):
    """An ``shm://`` read that a writer laps mid-copy reports a shortened
    ``retained``: the observer's rate window must shrink with it, never
    reach into row slots the delta did not fill."""
    from repro.core.backends.ring import Ring

    clock = ManualClock(100.0)
    writer = SharedMemoryBackend(capacity=16)
    reader = SharedMemoryReader(writer.name)
    try:
        writer.set_default_window(10)
        stamps = [100.0 + 0.1 * i for i in range(34)]
        for beat, stamp in enumerate(stamps[:20]):
            writer.append(beat, stamp, 0, 1)
        real = Ring._copy_last

        def overlapped(ring, total, count):
            copied = real(ring, total, count)
            monkeypatch.setattr(Ring, "_copy_last", real)
            for beat in range(20, 34):  # 14 beats land while the read settles
                writer.append(beat, stamps[beat], 0, 1)
            return copied

        monkeypatch.setattr(Ring, "_copy_last", overlapped)
        clock.time = stamps[33]
        reading = HeartbeatMonitor(reader, clock=clock).read()
        model = StreamModel(None, stamps[18:20], 20, window=10)  # 2 of 16 left intact
        assert reading == model.reading(clock.now())
    finally:
        reader.close()
        writer.close()


def test_rows_sit_in_their_window_class_and_full_slabs_chain():
    """A mirrored stream's row is as deep as the smallest power of two
    holding its published window, whatever the fleet's largest; a full slab
    chains one with twice the rows; every row still reads as the model.
    (Each backend is attached as its bound ``snapshot``, a source that is
    no slab row.)"""
    clock = ManualClock(100.0)
    backends = [MemoryBackend(64) for _ in range(150)]
    with HeartbeatAggregator(clock=clock) as aggregator:
        for i, backend in enumerate(backends):
            backend.set_default_window(40 if i % 3 == 0 else 3)
            for beat in range(i % 7 + 1):
                backend.append(beat, 100.0 + 0.1 * beat + 0.001 * i, 0, 1)
            aggregator.attach_stream(f"s{i}", backend.snapshot)
        sample = aggregator.poll()
        for i, backend in enumerate(backends):
            model = StreamModel.of(backend.snapshot())
            assert sample.reading(f"s{i}") == model.reading(clock.now())
        depths = [stream.ring.capacity for stream in aggregator._streams.values()]
        assert depths == [64 if i % 3 == 0 else 4 for i in range(150)]
        chains = aggregator._pool.chains
        assert sorted(chains) == [4, 64]
        for chain in chains.values():
            rows = [slab.arena.streams for slab in chain]
            assert rows == [rows[0] << k for k in range(len(rows))]
        assert len(chains[64]) > 1  # fifty 64-deep rows outgrew the first slab


def _run(**profile: object) -> None:
    machine = ObserverMachine
    machine.TestCase.settings = settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **profile,  # type: ignore[arg-type]
    )
    machine.TestCase().runTest()


def test_every_local_route_matches_the_model():
    _run(max_examples=60, stateful_step_count=40, derandomize=True, database=None)


@pytest.mark.slow
def test_every_local_route_matches_the_model_exploring():
    _run(max_examples=300, stateful_step_count=50)
