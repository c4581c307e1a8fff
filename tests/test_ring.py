"""The single-writer ring kernel behind every ring the tree keeps.

Four kinds stand on :mod:`repro.core.backends.ring` — ``shm://`` segments,
arena rows, the in-process ``MemoryBackend`` and the network exporter's
local mirror — and the same evidence is collected for each:

* the clobbered-prefix arithmetic, deterministically, against a plain-list
  oracle — a writer is advanced by a chosen number of records exactly
  between a read's copy and its settle step;
* writer-side coherence — whichever object writes, the header it leaves is
  one any reader agrees with;
* a real concurrent writer beating as fast as it can — a second process for
  the cross-process kinds, a second thread for the in-process ones — while
  this one hammers every read the backends offer.

``shm://`` segments and arena rows share one byte layout (a segment is a
one-row arena), yet they stay two kinds here because their writers and
attachments differ: ``shm`` is the segment creator's sole-writer ``Ring``,
which never reloads its words, read through a reader attached per object;
``arena-row`` writes through row views that reload the row's words before
every write, read through a slab attached whole.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest
from model import StreamModel

import repro.core.backends.arena as arena_module
from repro.clock import ManualClock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.backends import Arena, BackendSnapshot, MemoryBackend, SharedMemoryBackend, SnapshotCursor
from repro.core.backends.arena import _ROW_POOL, ArenaRowView
from repro.core.backends.ring import Ring
from repro.core.backends.shared_memory import SharedMemoryReader
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HeartbeatMonitor
from repro.core.record import RECORD_DTYPE
from repro.net import NetworkBackend

CAPACITY = 16
KINDS = ["shm", "arena-row", "memory", "exporter"]


def _local_backend(kind: str, capacity: int):
    """An in-process ring: a ``MemoryBackend``, or an exporter nobody answers."""
    if kind == "memory":
        return MemoryBackend(capacity)
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # bound then closed: a loopback port with no listener
    return NetworkBackend(
        f"127.0.0.1:{port}", stream="ring", capacity=capacity, close_deadline=0.2
    )


class _Pair:
    """One ring with its writer and an independent reader attachment."""

    def __init__(self, kind: str, capacity: int = CAPACITY) -> None:
        if kind == "shm":
            self.writer = SharedMemoryBackend(capacity=capacity)
            self.reader = SharedMemoryReader(self.writer.name)
            self._owned = [self.reader, self.writer]
        elif kind == "arena-row":
            arena = Arena(streams=2, depth=capacity)
            self.writer = arena.allocate("ring")
            self.reader = arena.row(0)
            self._owned = [arena]
        else:  # in-process: observers read the very object the producer writes
            self.writer = self.reader = _local_backend(kind, capacity)
            self._owned = [self.writer]
        self.written: list[tuple[int, float, int, int]] = []

    def write(self, count: int, batch: bool = False) -> None:
        """Advance the writer by ``count`` records, mirrored into the oracle."""
        first = len(self.written)
        rows = [(b, b * 0.5, b % 7, 3) for b in range(first, first + count)]
        self.written.extend(rows)
        if batch:
            self.writer.append_many(np.array(rows, dtype=RECORD_DTYPE))
        else:
            for row in rows:
                self.writer.append(*row)

    def expect(self, low: int, high: int) -> np.ndarray:
        return np.array(self.written[low:high], dtype=RECORD_DTYPE)

    def close(self) -> None:
        for thing in self._owned:
            thing.close()


@pytest.fixture(params=KINDS)
def pair(request):
    made = _Pair(request.param)
    yield made
    made.close()


def _racing(monkeypatch, pair: _Pair, advance: int, batch: bool, read):
    """Run ``read()`` with the writer advanced between its copy and its settle."""
    real = Ring._copy_last
    copies: list[int] = []

    def copy_then_write(ring, total, count):
        copied = real(ring, total, count)
        copies.append(count)
        if len(copies) == 1:
            pair.write(advance, batch)
        return copied

    with monkeypatch.context() as patched:
        patched.setattr(Ring, "_copy_last", copy_then_write)
        result = read()
    assert len(copies) == 1, "a read copies records exactly once"
    return result, copies[0]


class TestClobberedPrefix:
    """Which records a read keeps when a write overlaps it, vs a list oracle."""

    @pytest.mark.parametrize("batch", [False, True], ids=["appends", "one-batch"])
    @pytest.mark.parametrize("advance", [0, 1, CAPACITY - 1, CAPACITY, CAPACITY + 5])
    @pytest.mark.parametrize("prefill", [5, CAPACITY + 3], ids=["filling", "wrapped"])
    def test_reads_keep_exactly_the_untouched_records(
        self, pair, monkeypatch, prefill, advance, batch
    ):
        pair.write(prefill)
        for n in (None, 0, 1, 4, CAPACITY, CAPACITY + 9):
            before = len(pair.written)
            held = min(before, CAPACITY)
            snap, copied = _racing(
                monkeypatch, pair, advance, batch, lambda n=n: pair.reader.snapshot(n)
            )
            wanted = held if n is None else min(n, held)
            assert copied == wanted, "snapshot(n) copies min(n, retained), not the ring"
            # Slots of beats older than ``total_after - capacity`` were rewritten.
            low = max(before - wanted, len(pair.written) - CAPACITY)
            assert snap.total_beats == before
            assert np.array_equal(snap.records, pair.expect(min(low, before), before))

        for back in (None, 0, 3, CAPACITY, CAPACITY + 4):
            before = len(pair.written)
            held = min(before, CAPACITY)
            cursor = None if back is None else SnapshotCursor(total=max(before - back, 0))
            (delta, new_cursor), _ = _racing(
                monkeypatch, pair, advance, batch,
                lambda cursor=cursor: pair.reader.snapshot_since(cursor),
            )
            retained = max(min(held, CAPACITY - advance), 0)
            start = before - retained if cursor is None else max(cursor.total, before - retained)
            assert new_cursor.total == delta.total_beats == before
            assert delta.retained == retained
            assert np.array_equal(delta.records, pair.expect(start, before))
            assert delta.gap == (0 if cursor is None else start - cursor.total)
            assert delta.resync == (cursor is None or delta.gap > 0)

    def test_undisturbed_reads_are_whole(self, pair):
        pair.write(CAPACITY + 3)
        snap = pair.reader.snapshot()
        assert np.array_equal(snap.records, pair.expect(3, CAPACITY + 3))
        delta, _ = pair.reader.snapshot_since(SnapshotCursor(total=CAPACITY))
        assert (delta.gap, delta.resync, delta.retained) == (0, False, CAPACITY)
        assert np.array_equal(delta.records, pair.expect(CAPACITY, CAPACITY + 3))

    def test_fleet_read_repairs_a_raced_row_with_the_same_arithmetic(self, monkeypatch):
        """``snapshot_since_all`` settles a row its gather raced by the ring's
        rule: the row's slice, ``retained``, ``new``, ``gap`` and ``resync``
        are what a ring read lapped by the same writer reports.  The last
        stamp and the rate were read with the header, under its sequence
        check, so the settle leaves them as read.  (A loop over the writer's
        advance, not a parametrization, so the test keeps its one id.)"""
        for advance in (1, CAPACITY - 1, CAPACITY, CAPACITY + 5):
            made = _Pair("arena-row")
            try:
                arena = made._owned[0]
                made.write(CAPACITY + 3)
                cursor = len(made.written)
                cursors = arena.snapshot_since_all(None).cursors
                made.write(4)
                before = len(made.written)
                real = Arena._gather
                gathers: list[int] = []

                def gather_then_write(self, *args):
                    copied = real(self, *args)
                    gathers.append(copied.shape[0])
                    made.write(advance)  # the writer moves between the copy and the settle
                    return copied

                with monkeypatch.context() as patched:
                    patched.setattr(Arena, "_gather", gather_then_write)
                    fleet = arena.snapshot_since_all(cursors, window=4)
                assert gathers == [before - cursor], "a fleet read copies records exactly once"
                retained = max(min(before, CAPACITY - advance), 0)
                start = max(cursor, before - retained)
                new, gap = before - start, start - cursor
                assert int(fleet.totals[0]) == int(fleet.cursors[0]) == before, advance
                assert int(fleet.retained[0]) == retained, advance
                assert np.array_equal(fleet.records_for(0), made.expect(start, before)), advance
                assert (int(fleet.new[0]), int(fleet.gap[0]), bool(fleet.resync[0])) == (new, gap, gap > 0)
                assert list(fleet.offsets) == [0, new]
                assert fleet.last_timestamp[0] == made.written[before - 1][1]
                assert fleet.rate[0] == 2.0  # 3 intervals of 0.5 s in the 4-beat window
            finally:
                made.close()

    def test_a_row_read_alone_reads_again_when_its_window_is_lapped_to_one_stamp(self, monkeypatch):
        """One stamp gives no rate: a hot row must not read rate 0 for a poll."""
        depth = 64
        with Arena(streams=1, depth=depth) as arena:
            clock = ManualClock()
            hb = Heartbeat(window=20, clock=clock, backend=arena.allocate("lapped"))
            written = [0]

            def beat(n: int) -> None:
                for _ in range(n):
                    written[0] += 1
                    clock.time = written[0] * 0.5
                    hb.heartbeat()

            beat(depth + 3)
            real = Ring._copy_last
            copies: list[int] = []

            def copy_then_lap(ring, total, count):
                copied = real(ring, total, count)
                copies.append(count)
                if len(copies) == 1:
                    beat(depth - 1)  # overwrites all but the newest copied record
                return copied

            monkeypatch.setattr(Ring, "_copy_last", copy_then_lap)
            rate, total, _, _, last, retained, _ = arena_module._read_alone(arena._ring(0), 0, depth)
        assert copies == [20, 20]
        assert total == 2 * depth + 2 and last == total * 0.5
        assert rate == 2.0 and retained == depth


class TestOneRing:
    def test_removed_spellings_are_not_importable(self):
        """The tree keeps one circular buffer; its older spellings are gone."""
        import importlib

        import repro
        import repro.core

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.buffer")
        for module in (repro, repro.core):
            for name in ("CircularBuffer", "circular_batch_slices", "buffer"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in module.__all__
        # Every sole-writer ring is the kernel itself, and says so.
        assert issubclass(MemoryBackend, Ring)
        assert issubclass(SharedMemoryBackend, Ring)


class TestWriterCoherence:
    def test_segment_writer_cache_matches_what_readers_see(self):
        pair = _Pair("shm", capacity=8)
        try:
            backend, reader = pair.writer, pair.reader
            versions = [reader.version()]
            steps = [
                lambda: pair.write(1),
                lambda: backend.set_targets(2.0, 5.0),
                lambda: pair.write(3, batch=True),
                lambda: backend.set_default_window(4),
                lambda: pair.write(11, batch=True),  # larger than the ring
                lambda: pair.write(2),
                lambda: backend.set_targets(1.0, 9.0),
                lambda: backend.append_many(np.empty(0, dtype=RECORD_DTYPE)),  # no-op
            ]
            for step in steps * 2:
                step()
                total, sequence = reader.version()
                assert (total, sequence) == backend.version()
                assert sequence % 2 == 0
                assert total == len(pair.written)
                assert sequence >= versions[-1][1]
                versions.append((total, sequence))
                snap = reader.snapshot()
                assert snap.total_beats == total
                low = max(total - 8, 0)
                assert np.array_equal(snap.records, pair.expect(low, total))
            assert len({sequence for _, sequence in versions}) == len(versions) - 2
            snap = reader.snapshot(1)
            assert (snap.target_min, snap.target_max, snap.default_window) == (1.0, 9.0, 4)
        finally:
            pair.close()

    def test_two_views_of_one_row_interleave_without_losing_beats(self):
        """Row writers read the slab's words on every write — two views of
        one row stay coherent, which a per-view cache could not."""
        arena = Arena(streams=1, depth=8)
        try:
            first = arena.allocate("shared")
            second = arena.row(0)
            for beat in range(0, 20, 4):
                first.append(beat, beat * 1.0, 0, 1)
                second.append(beat + 1, beat + 1.0, 0, 2)
                batch = np.zeros(2, dtype=RECORD_DTYPE)
                batch["beat"] = (beat + 2, beat + 3)
                (second if beat % 8 else first).append_many(batch)
                assert first.version() == second.version()
            snap = arena.row(0).snapshot()
            assert snap.total_beats == 20
            assert list(snap.records["beat"]) == list(range(12, 20))
            assert first.version()[1] % 2 == 0
        finally:
            arena.close()

    def test_a_rejected_record_leaves_the_ring_readable(self, pair):
        pair.write(3)
        before = pair.reader.version()
        # Arena rows and the exporter check before they store; a bare ring
        # leaves the check to its caller (``Heartbeat.heartbeat``).
        checked = isinstance(pair.writer, (ArenaRowView, NetworkBackend))
        with pytest.raises(OverflowError if checked else struct.error):
            pair.writer.append(3, 1.5, 1 << 63, 0)  # tag does not fit an int64
        total, sequence = pair.reader.version()
        assert total == before[0] and sequence % 2 == 0
        pair.write(2)
        snap = pair.reader.snapshot()
        assert snap.total_beats == 5
        assert np.array_equal(snap.records, pair.expect(0, 5))


# --------------------------------------------------------------------- #
# A real second process
# --------------------------------------------------------------------- #
_DT = 0.001
_THREAD = 7
_STRESS_SECONDS = 1.0
#: Slots of the fleet kinds' one row: a flat-out writer laps it inside one
#: vectorized header capture, so a raced capture adopted as it stands shows.
_FLEET_DEPTH = 64


def _tags(beats):
    """The tag every beat must carry: a function of its number alone."""
    return (beats * 2654435761) % (1 << 31)


def _stress_writer(kind, name, batch, ready, stop, written, done) -> None:
    """Beat as fast as possible with payloads derived from the beat number."""
    arena = None
    if kind == "shm":
        backend = SharedMemoryBackend(name=name, capacity=65536)
    else:
        arena = Arena.attach(name)
        backend = arena.row(0)
    clock = ManualClock()
    hb = Heartbeat(window=20, clock=clock, backend=backend)
    clock.time = _DT
    hb.heartbeat(0, thread_id=_THREAD)  # a batch spreads stamps from the previous beat
    ready.set()
    count = 1
    offsets = np.arange(batch)
    while not stop.is_set():
        for _ in range(64):
            clock.time = (count + batch) * _DT
            if batch == 1:
                hb.heartbeat(_tags(count), thread_id=_THREAD)
            else:
                hb.heartbeat_batch(batch, _tags(count + offsets), thread_id=_THREAD)
            count += batch
    written.put(count)
    done.wait(60.0)  # the parent's final reads need the segment alive
    hb.finalize()
    if arena is not None:
        arena.close()


def _check_records(records: np.ndarray, total: int) -> None:
    """Untorn, in order, contiguous, and ending at the read's ``total - 1``."""
    if records.shape[0] == 0:
        return
    beats = records["beat"]
    assert int(beats[-1]) == total - 1
    assert np.all(np.diff(beats) == 1)
    assert np.array_equal(records["tag"], _tags(beats))
    assert np.all(records["thread_id"] == _THREAD)
    assert np.allclose(records["timestamp"], (beats + 1) * _DT, rtol=1e-9, atol=0.0)


class _Follower:
    """Hammers every read a ring offers and checks each against the payload rule."""

    def __init__(self, reader) -> None:
        self.reader = reader
        self.state = np.empty(0, dtype=RECORD_DTYPE)
        self.cursor = None
        self.reads = self.shortened = 0

    def consume(self) -> None:
        reader, previous = self.reader, self.cursor
        delta, self.cursor = reader.snapshot_since(previous)
        _check_records(delta.records, delta.total_beats)
        assert delta.retained <= reader.capacity
        if previous is not None:
            assert delta.new + delta.gap == delta.total_beats - previous.total
            assert delta.resync == (delta.gap > 0)
        self.shortened += delta.retained < min(delta.total_beats, reader.capacity)
        state = delta.records if delta.resync else np.concatenate((self.state, delta.records))
        self.state = state[max(state.shape[0] - delta.retained, 0) :]
        _check_records(self.state, delta.total_beats)

    def follow(self, seconds: float) -> None:
        """At least ``seconds``, and (bounded) until the race is one worth the
        name: a wrapped ring and a read a write overlapped."""
        start = time.monotonic()
        while (elapsed := time.monotonic() - start) < seconds or (
            elapsed < 30.0 and not (self.shortened and self.cursor.total > self.reader.capacity)
        ):
            for n in (None, 20):
                snap = self.reader.snapshot(n)
                _check_records(snap.records, snap.total_beats)
                assert snap.retained <= (self.reader.capacity if n is None else n)
            self.consume()
            self.reads += 1

    def finish(self, total: int) -> None:
        """The writer stopped at ``total``: the replay converges on the ring."""
        self.consume()
        final = self.reader.snapshot()
        assert final.total_beats == total == self.cursor.total
        _check_records(final.records, total)
        assert final.retained == min(total, self.reader.capacity)
        assert np.array_equal(self.state, final.records)
        assert total > self.reader.capacity, "the writer never wrapped the ring"
        assert self.shortened > 0, "no read ever overlapped a write"
        assert self.reads > 20


def _check_columns(fleet) -> None:
    """Row 0's columns against the payload rule: beat ``i`` is stamped ``(i + 1) * _DT``."""
    total = int(fleet.totals[0])
    assert 0 <= fleet.retained[0] <= min(total, _FLEET_DEPTH)
    assert fleet.last_timestamp[0] == pytest.approx(total * _DT, rel=1e-9)
    assert fleet.rate[0] == (pytest.approx(1 / _DT, rel=1e-6) if total > 1 else 0.0)


class _FleetRow:
    """Row 0 of a slab read as the aggregator reads it: the whole-slab
    ``snapshot_since_all``, each read's columns checked as well."""

    capacity = _FLEET_DEPTH

    def __init__(self, arena: Arena) -> None:
        self.arena = arena

    def snapshot_since(self, cursor=None):
        fleet = self.arena.snapshot_since_all(None if cursor is None else [cursor.total])
        _check_columns(fleet)
        return fleet.delta_for(0)

    def snapshot(self, n=None):
        delta, _ = self.snapshot_since()
        records = delta.records if n is None else delta.records[max(delta.records.shape[0] - n, 0) :]
        return BackendSnapshot(records, delta.total_beats, delta.target_min, delta.target_max, delta.default_window)


class _ColumnFollower:
    """Hammers the columns-only fleet read, which the aggregator's poll makes."""

    def __init__(self, arena: Arena) -> None:
        self.arena, self.total, self.reads = arena, 0, 0

    def read(self) -> int:
        fleet = self.arena.snapshot_since_all(include_records=False)
        _check_columns(fleet)
        assert int(fleet.totals[0]) >= self.total
        self.total = int(fleet.totals[0])
        return self.total

    def follow(self, seconds: float) -> None:
        """At least ``seconds``, and (bounded) until the writer has wrapped the ring."""
        start = time.monotonic()
        while (elapsed := time.monotonic() - start) < seconds or (elapsed < 30.0 and self.total <= _FLEET_DEPTH):
            self.read()
            self.reads += 1

    def finish(self, total: int) -> None:
        assert self.read() == total
        assert total > _FLEET_DEPTH, "the writer never wrapped the ring"
        assert self.reads > 20


class TestCrossProcessStress:
    """A writer process beating flat out, read through every cross-process
    door: the ``shm://`` reader, an arena row view, and the whole-slab fleet
    read with records (``arena-fleet``) and columns only
    (``arena-fleet-header``)."""

    @pytest.mark.parametrize("batch", [1, 64], ids=["heartbeat", "heartbeat_batch64"])
    @pytest.mark.parametrize("kind", ["shm", "arena-row", "arena-fleet", "arena-fleet-header"])
    def test_hot_writer_never_starves_or_tears_a_reader(self, kind, batch):
        ctx = mp.get_context("spawn")
        ready, stop, done = ctx.Event(), ctx.Event(), ctx.Event()
        written = ctx.Queue()
        arena = None
        if kind == "shm":
            name = f"hb-ring-{os.getpid()}-{batch}"
        else:
            arena = Arena.create(streams=1, depth=_FLEET_DEPTH if kind.startswith("arena-fleet") else 4096)
            arena.allocate("stress")
            name = arena.name
        child = ctx.Process(
            target=_stress_writer, args=(kind, name, batch, ready, stop, written, done)
        )
        child.start()
        reader = None
        try:
            assert ready.wait(60.0), "the writer process never came up"
            if kind == "arena-fleet-header":
                follower = _ColumnFollower(arena)
            elif kind == "arena-fleet":
                follower = _Follower(_FleetRow(arena))
            else:
                reader = SharedMemoryReader(name) if kind == "shm" else arena.row(0)
                follower = _Follower(reader)
            follower.follow(_STRESS_SECONDS)
            stop.set()
            follower.finish(written.get(timeout=60.0))
        finally:
            stop.set()
            done.set()
            child.join(timeout=60.0)
            if reader is not None and kind == "shm":
                reader.close()
            if arena is not None:
                arena.close()
        assert not child.is_alive()
        assert child.exitcode == 0


class TestThreadStress:
    """The in-process twin: the observer is a thread of the producer's own
    process reading the object the producer writes — the default
    ``Heartbeat`` and a ``tcp://`` producer's local mirror."""

    @pytest.mark.parametrize("batch", [1, 64], ids=["heartbeat", "heartbeat_batch64"])
    @pytest.mark.parametrize("kind", ["memory", "exporter"])
    def test_hot_writer_thread_never_tears_a_reader(self, kind, batch):
        backend = _local_backend(kind, 512)
        clock = ManualClock()
        hb = Heartbeat(window=20, clock=clock, backend=backend)
        clock.time = _DT
        hb.heartbeat(0, thread_id=_THREAD)  # a batch spreads stamps from the previous beat
        stop = threading.Event()
        outcome: list = []

        def beat_until_stopped() -> None:
            count, offsets = 1, np.arange(batch)
            try:
                while not stop.is_set():
                    clock.time = (count + batch) * _DT
                    if batch == 1:
                        hb.heartbeat(_tags(count), thread_id=_THREAD)
                    else:
                        hb.heartbeat_batch(batch, _tags(count + offsets), thread_id=_THREAD)
                    count += batch
                outcome.append(count)
            except BaseException as exc:  # surfaced by the assertion below
                outcome.append(exc)
                raise

        writer = threading.Thread(target=beat_until_stopped, name="ring-stress-writer")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-read as often as possible
        try:
            writer.start()
            follower = _Follower(backend)
            follower.follow(0.35)
            stop.set()
            writer.join(timeout=60.0)
            assert not writer.is_alive()
            assert len(outcome) == 1 and isinstance(outcome[0], int), outcome
            follower.finish(outcome[0])
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            writer.join(timeout=60.0)
            hb.finalize()


class TestInPlaceHotWriter:
    """A writer process beats flat out into ``shm://`` while this process
    polls an aggregator that reads the segment's row where it lies, and a
    monitor of the same reader.  A row the writer raced costs its poll at
    most two vectorized captures, and when it raced both, exactly one read
    alone through its ring."""

    def test_polls_under_a_hot_writer_read_the_ring_once(self, monkeypatch):
        ctx = mp.get_context("spawn")
        ready, stop, done = ctx.Event(), ctx.Event(), ctx.Event()
        written = ctx.Queue()
        name = f"hb-in-place-{os.getpid()}"
        child = ctx.Process(target=_stress_writer, args=("shm", name, 1, ready, stop, written, done))
        child.start()
        reader = None
        rings: list[int] = []
        captures: list[int] = []
        real_ring, real_rates = Arena._ring, arena_module.interval_rates
        monkeypatch.setattr(Arena, "_ring", lambda arena, i: rings.append(i) or real_ring(arena, i))
        monkeypatch.setattr(
            arena_module, "interval_rates", lambda *args: captures.append(1) or real_rates(*args)
        )
        try:
            assert ready.wait(60.0), "the writer process never came up"
            reader = SharedMemoryReader(name)
            with HeartbeatAggregator() as agg:
                agg.attach_stream("local", reader)
                monitor = HeartbeatMonitor(reader)
                total = monitored = raced = polls = 0
                start = time.monotonic()
                while time.monotonic() - start < _STRESS_SECONDS or (time.monotonic() - start < 30.0 and not raced):
                    del rings[:], captures[:]
                    sample = agg.poll()
                    assert (len(captures), len(rings)) in ((1, 0), (2, 0), (2, 1)), (captures, rings)
                    assert sample.names == ("local",) and sample.errors == {}
                    raced += len(rings)
                    polls += 1
                    assert int(sample.totals()[0]) >= total
                    total = int(sample.totals()[0])
                    reading = monitor.read()
                    assert reading.total_beats >= monitored
                    monitored = reading.total_beats
                stop.set()
                final = written.get(timeout=60.0)
                quiet = StreamModel.of(reader.snapshot()).rate()
                sample = agg.poll()
                assert int(sample.totals()[0]) == monitor.read().total_beats == final
                assert sample.reading("local").rate == monitor.read().rate == quiet
                assert raced > 0 and polls > 20, (raced, polls)
        finally:
            stop.set()
            done.set()
            child.join(timeout=60.0)
            if reader is not None:
                reader.close()
        assert not child.is_alive()
        assert child.exitcode == 0


class TestPooledRowStress:
    """Writer threads beat into pooled ``MemoryBackend`` rows while this
    thread takes new rows from the same chain — so the pool adds slabs under
    the writers — and reads every writer's row in place."""

    def test_writers_keep_their_rows_while_the_pool_grows(self):
        capacity = 4099  # a depth no other test uses: its chain is this test's
        backends = [MemoryBackend(capacity) for _ in range(3)]
        rows = [backend.slab_row() for backend in backends]
        stop = threading.Event()
        outcome: dict[int, object] = {}

        def beat_until_stopped(i: int) -> None:
            clock = ManualClock()
            hb = Heartbeat(window=20, clock=clock, backend=backends[i])
            count = 0
            try:
                while not stop.is_set():
                    clock.time = (count + 1) * _DT
                    hb.heartbeat(_tags(count), thread_id=_THREAD)
                    count += 1
                outcome[i] = count
            except BaseException as exc:  # surfaced by the assertion below
                outcome[i] = exc
                raise

        writers = [threading.Thread(target=beat_until_stopped, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-write as often as possible
        grown: list[MemoryBackend] = []
        try:
            with HeartbeatAggregator() as agg:
                for i, backend in enumerate(backends):
                    agg.attach_stream(f"w{i}", backend)
                for writer in writers:
                    writer.start()
                slabs = len(_ROW_POOL.chains[capacity])
                totals = np.zeros(3, dtype=np.int64)
                start = time.monotonic()
                while time.monotonic() - start < _STRESS_SECONDS or len(grown) < 80:
                    if len(grown) < 80:
                        grown.append(MemoryBackend(capacity))
                    sample = agg.poll()
                    assert sample.errors == {}
                    assert np.all(sample.totals() >= totals)
                    totals = sample.totals().copy()
                    for backend in backends:
                        snap = backend.snapshot(20)
                        _check_records(snap.records, snap.total_beats)
                stop.set()
                for writer in writers:
                    writer.join(timeout=60.0)
                assert len(_ROW_POOL.chains[capacity]) > slabs, "the pool never added a slab"
                assert [backend.slab_row() for backend in backends] == rows
                assert len({backend.slab_row() for backend in backends + grown}) == 83
                sample = agg.poll()
                for i, backend in enumerate(backends):
                    assert outcome[i] == backend.snapshot().total_beats > capacity, outcome
                    snap = backend.snapshot()
                    _check_records(snap.records, snap.total_beats)
                    expected = StreamModel.of(snap).reading(sample.taken_at)
                    assert sample.reading(f"w{i}")[:5] == expected[:5]  # rate, total, goals, last stamp
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for writer in writers:
                writer.join(timeout=60.0)
