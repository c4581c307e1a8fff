"""Tests for the multi-stream heartbeat aggregator.

Streams attach through the object door (``attach_stream``) or the URL door
(``attach_endpoint``); one ``poll`` drains every per-object stream inline.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.clock import ManualClock
from repro.core import api
from repro.core.aggregator import HeartbeatAggregator
from repro.core.backends import Arena, FileBackend, MemoryBackend, SharedMemoryBackend
from repro.core.errors import HeartbeatError, MonitorAttachError
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import HealthStatus


def build_fleet(clock, agg, n=6, *, window=10, target=(5.0, 100.0)):
    """Attach ``n`` heartbeats beating at 10/(i+1) beats/s for 10 seconds."""
    streams = {}
    for i in range(n):
        hb = Heartbeat(window=window, clock=clock, name=f"s{i}")
        hb.set_target_rate(*target)
        agg.attach_stream(f"s{i}", hb)
        streams[f"s{i}"] = hb
    for tick in range(100):
        clock.advance(0.1)
        for i, hb in enumerate(streams.values()):
            if tick % (i + 1) == 0:
                hb.heartbeat()
    return streams


class TestAttachment:
    def test_attach_and_names_in_order(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        for i in range(5):
            agg.attach_stream(f"s{i}", Heartbeat(window=10, clock=sim_clock))
        assert agg.names == [f"s{i}" for i in range(5)]
        assert len(agg) == 5
        assert "s3" in agg and "nope" not in agg

    def test_duplicate_name_rejected(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.attach_stream("dup", Heartbeat(window=10, clock=sim_clock))
        with pytest.raises(MonitorAttachError):
            agg.attach_stream("dup", Heartbeat(window=10, clock=sim_clock))

    def test_rejected_shared_memory_attach_closes_reader(self, sim_clock):
        backend = SharedMemoryBackend(capacity=16)
        hb = Heartbeat(window=5, clock=sim_clock, backend=backend)
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.attach_stream("dup", Heartbeat(window=5, clock=sim_clock))
        try:
            with pytest.raises(MonitorAttachError):
                agg.attach_endpoint(f"shm://{backend.name}", name="dup")  # name collision
            # The rejected reader must not keep a mapping open: the writer can
            # still close and unlink its segment without a dangling attach.
        finally:
            agg.close()
            hb.finalize()

    def test_detach(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.attach_stream("a", Heartbeat(window=10, clock=sim_clock))
        agg.detach("a")
        assert len(agg) == 0
        with pytest.raises(MonitorAttachError):
            agg.detach("a")

    def test_attach_file_stream(self, tmp_path, sim_clock):
        backend = FileBackend(tmp_path / "stream.log")
        hb = Heartbeat(window=5, clock=sim_clock, backend=backend)
        for _ in range(6):
            sim_clock.advance(0.5)
            hb.heartbeat()
        backend.flush()  # file appends are buffered; publish to observers
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.attach_endpoint(f"file://{tmp_path / 'stream.log'}", name="logged")
        assert agg.rates()["logged"] == pytest.approx(2.0)
        hb.finalize()

    def test_attach_file_missing_rejected(self, tmp_path):
        agg = HeartbeatAggregator()
        with pytest.raises(MonitorAttachError):
            agg.attach_endpoint(f"file://{tmp_path / 'nope.log'}", name="missing")

    def test_attach_shared_memory_stream(self, sim_clock):
        backend = SharedMemoryBackend(capacity=64)
        hb = Heartbeat(window=5, clock=sim_clock, backend=backend)
        for _ in range(10):
            sim_clock.advance(0.25)
            hb.heartbeat()
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.attach_endpoint(f"shm://{backend.name}", name="shm")
        try:
            assert agg.rates()["shm"] == pytest.approx(4.0)
        finally:
            agg.close()  # must close the reader before the writer unlinks
            hb.finalize()

    def test_attach_monitor(self, sim_clock):
        from repro.core.monitor import HeartbeatMonitor

        hb = Heartbeat(window=5, clock=sim_clock)
        monitor = HeartbeatMonitor.attach(hb)
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.attach_stream("adopted", monitor)  # a monitor is itself a StreamSource
        for _ in range(6):
            sim_clock.advance(0.5)
            hb.heartbeat()
        assert agg.rates()["adopted"] == pytest.approx(monitor.current_rate())

    def test_attach_registry(self, sim_clock):
        api.reset_registry()
        try:
            api.HB_initialize(window=10, clock=sim_clock)
            api.HB_initialize(window=10, local=True, clock=sim_clock)
            agg = HeartbeatAggregator(clock=sim_clock)
            names = agg.attach_registry()
            assert "global" in names and any(n.startswith("local-") for n in names)
            assert len(agg) == 2
        finally:
            api.reset_registry()

    def test_closed_aggregator_rejects_attach(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.close()
        with pytest.raises(MonitorAttachError):
            agg.attach_stream("late", Heartbeat(window=10, clock=sim_clock))


class TestFleetQueries:
    def test_rates_match_per_stream_monitors(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        streams = build_fleet(sim_clock, agg)
        from repro.core.monitor import HeartbeatMonitor

        rates = agg.rates()
        for name, hb in streams.items():
            assert rates[name] == pytest.approx(HeartbeatMonitor.attach(hb).current_rate())

    def test_lagging_sorted_worst_first(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        build_fleet(sim_clock, agg, n=6)  # rates 10, 5, 3.3, 2.5, 2, 1.7
        lagging = agg.lagging()  # published target_min is 5.0
        assert lagging == ["s5", "s4", "s3", "s2"]

    def test_lagging_with_explicit_target(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        build_fleet(sim_clock, agg, n=4)  # rates 10, 5, 3.33, 2.5
        assert agg.lagging(4.0) == ["s3", "s2"]

    def test_percentiles_and_summary(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        build_fleet(sim_clock, agg, n=5)
        sample = agg.poll()
        rates = sample.rates()
        assert rates.shape == (5,)
        pct = sample.percentiles((0.0, 50.0, 100.0))
        assert pct[0.0] == pytest.approx(float(np.min(rates)))
        assert pct[100.0] == pytest.approx(float(np.max(rates)))
        summary = sample.summary()
        assert summary.streams == summary.measurable == 5
        assert summary.minimum <= summary.mean <= summary.maximum
        assert summary.lagging == 3  # s2, s3, s4 sit below target_min=5
        assert sample.total_beats() == sum(r.total_beats for r in sample.readings)

    def test_stalled_streams_flagged(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock, liveness_timeout=2.0)
        fast = Heartbeat(window=5, clock=sim_clock, name="fast")
        dead = Heartbeat(window=5, clock=sim_clock, name="dead")
        agg.attach_stream("fast", fast)
        agg.attach_stream("dead", dead)
        for _ in range(10):
            sim_clock.advance(0.5)
            fast.heartbeat()
            dead.heartbeat()
        for _ in range(10):
            sim_clock.advance(0.5)
            fast.heartbeat()  # dead stops beating
        sample = agg.poll()
        assert sample.stalled() == ["dead"]
        assert "dead" in sample.lagging()
        assert sample.summary().stalled == 1
        assert sample.by_status()[HealthStatus.STALLED] == ["dead"]

    def test_empty_fleet(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        sample = agg.poll()
        assert len(sample) == 0
        assert sample.rates().shape == (0,)
        assert sample.lagging() == []
        assert sample.summary().streams == 0
        assert sample.percentiles() == {50.0: 0.0, 90.0: 0.0, 99.0: 0.0}

    def test_warming_up_streams_excluded_from_percentiles(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        warm = Heartbeat(window=5, clock=sim_clock)
        cold = Heartbeat(window=5, clock=sim_clock)
        agg.attach_stream("warm", warm)
        agg.attach_stream("cold", cold)
        for _ in range(5):
            sim_clock.advance(1.0)
            warm.heartbeat()
        summary = agg.summary()
        assert summary.streams == 2
        assert summary.measurable == 1
        assert summary.mean == pytest.approx(1.0)


class TestFailureIsolation:
    def test_dead_stream_reported_not_fatal(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        healthy = Heartbeat(window=5, clock=sim_clock)
        agg.attach_stream("healthy", healthy)

        def broken():
            raise HeartbeatError("writer went away")

        agg.attach_stream("broken", broken)
        for _ in range(3):
            sim_clock.advance(1.0)
            healthy.heartbeat()
        sample = agg.poll()
        assert list(sample.names) == ["healthy"]
        assert "broken" in sample.errors
        assert "writer went away" in sample.errors["broken"]

    def test_an_out_of_range_log_line_poisons_only_its_own_stream(self, sim_clock, tmp_path):
        from repro.endpoints import FileEndpoint

        path = tmp_path / "poisoned.hblog"
        log = FileBackend(path, buffered=False)
        log.append(0, 1.0, 0, 1)
        log.close()
        with open(path, "ab") as fh:
            fh.write(b"1 2.0 %d 1\n" % (1 << 70))  # a tag no record can hold
        with HeartbeatAggregator(clock=sim_clock) as agg:
            healthy = Heartbeat(window=5, clock=sim_clock)
            agg.attach_stream("healthy", healthy)
            agg.attach_endpoint(FileEndpoint(path=str(path)), name="log")
            for _ in range(3):
                sim_clock.advance(1.0)
                healthy.heartbeat()
            sample = agg.poll()
            assert list(sample.names) == ["healthy"]
            assert "malformed" in sample.errors["log"]

    @pytest.mark.parametrize(
        ("healthy", "route"),
        [
            pytest.param(1, "object", id="1"),
            pytest.param(2, "object", id="2"),
            pytest.param(1, "arena", id="arena-1"),
            pytest.param(2, "arena", id="arena-2"),
        ],
    )
    def test_backwards_timestamp_poisons_only_its_own_stream(self, healthy, route):
        """A backwards stamp inside one stream's rate window (wall-clock
        step, clock-skewed relay) lands that stream in ``errors``; the rest
        of the fleet is still sampled, and the stream recovers by a full
        resync once the bad stamp has left its window.  With two healthy
        streams the poisoned one sits between them, so the sample's columns
        must close over the gap it leaves.  The rule is the same whether the
        streams are per-object sources or rows of an attached slab."""
        from repro.clock import ManualClock
        from repro.core.backends import Arena, MemoryBackend

        names = ["good0", "bad", "good1"][: healthy + 1]
        if route == "arena":
            arena = Arena(streams=4, depth=16)
            backends = {name: arena.allocate(name) for name in names}
        else:
            backends = {name: MemoryBackend(16) for name in names}
        goods = {name: backend for name, backend in backends.items() if name != "bad"}
        bad = backends["bad"]
        for backend in backends.values():
            backend.set_default_window(4)
        for good in goods.values():
            for beat, stamp in enumerate((10.0, 11.0, 12.0, 13.0)):
                good.append(beat, stamp, 0, 1)
        for beat, stamp in enumerate((10.0, 11.0, 12.0, 3.0)):
            bad.append(beat, stamp, 0, 1)
        with HeartbeatAggregator(clock=ManualClock(13.0)) as agg:
            if route == "arena":
                agg.attach_arena(arena, own=True)
            else:
                for name, backend in backends.items():
                    agg.attach_stream(name, backend)
            for _ in range(2):  # the poisoned state is not kept between polls
                sample = agg.poll()
                assert sample.names == tuple(goods)
                for name in goods:
                    assert sample.reading(name).rate == pytest.approx(1.0)
                assert "not sorted" in sample.errors["bad"]
            for beat, stamp in enumerate((14.0, 15.0, 16.0, 17.0), start=4):
                bad.append(beat, stamp, 0, 1)
            sample = agg.poll()
            assert sample.errors == {}
            assert sample.reading("bad").rate == pytest.approx(1.0)
            assert sample.reading("bad").total_beats == 8

    def test_a_move_whose_resync_fails_frees_its_row_once(self, sim_clock):
        """A window that outgrew its row moves the stream with a full
        re-read; when that re-read fails the stream is an error, and its
        old row is freed exactly once — no two streams ever share a row."""
        from repro.core.backends import MemoryBackend

        class Flaky:
            def __init__(self, backend):
                self.backend, self.fail_full_reads = backend, False
                self.snapshot, self.version = backend.snapshot, backend.version

            def snapshot_since(self, cursor=None):
                if cursor is None and self.fail_full_reads:
                    raise HeartbeatError("full re-read failed")
                return self.backend.snapshot_since(cursor)

        backends = {name: MemoryBackend(64) for name in ("flaky", "b", "c", "d")}
        # A wrapper is no slab row, so every stream here is mirrored.
        flaky, b, c, d = (Flaky(backends[name]) for name in ("flaky", "b", "c", "d"))
        with HeartbeatAggregator(clock=sim_clock) as agg:
            agg.attach_stream("flaky", flaky)
            agg.attach_stream("b", b)
            for name, backend in backends.items():
                backend.set_default_window(4)
                for beat in range(10):
                    backend.append(beat, float(beat), 0, 1)
            agg.poll()
            backends["flaky"].set_default_window(40)  # past the 4-deep row
            flaky.fail_full_reads = True
            for _ in range(2):
                assert "full re-read failed" in agg.poll().errors["flaky"]
            agg.detach("flaky")
            agg.attach_stream("c", c)
            agg.attach_stream("d", d)
            sample = agg.poll()
            assert sample.names == ("b", "c", "d") and sample.errors == {}
            rows = {(id(s.slab), s.index) for s in agg._streams.values()}
            assert len(rows) == 3

    def test_contains_agrees_with_names_and_len_for_arena_rows(self, sim_clock):
        from repro.core.backends import Arena

        arena = Arena(streams=4, depth=8)
        arena.allocate("row-name")
        with HeartbeatAggregator(clock=sim_clock) as agg:
            agg.attach_stream("object", Heartbeat(window=5, clock=sim_clock))
            agg.attach_arena(arena, prefix="slab/", own=True)
            assert agg.names == ["object", "slab/row-name"]
            assert len(agg) == 2
            assert "object" in agg and "slab/row-name" in agg
            assert "row-name" not in agg and "nope" not in agg
            arena.allocate("late")  # the slab header is the membership
            assert "slab/late" in agg and len(agg) == 3

    def test_reading_lookup(self, sim_clock):
        agg = HeartbeatAggregator(clock=sim_clock)
        build_fleet(sim_clock, agg, n=2)
        sample = agg.poll()
        assert sample.reading("s0").rate > 0
        with pytest.raises(KeyError):
            sample.reading("absent")


#: Seconds between the spawned writer's beat stamps (its clock is manual).
_WRITER_DT = 0.001


def _row_writer(name: str, ready, stop, written) -> None:
    """Beat flat out, round robin, into every allocated row of the slab ``name``."""
    arena = Arena.attach(name)
    clock = ManualClock()
    beats = [Heartbeat(window=8, clock=clock, backend=arena.row(i)) for i in range(arena.rows_in_use)]
    for i, hb in enumerate(beats):
        hb.set_target_rate(100.0 * (i + 1), 1000.0)
    ready.set()
    count = 0
    while not stop.is_set():
        for _ in range(64):
            count += 1
            clock.time = count * _WRITER_DT
            beats[count % len(beats)].heartbeat(count)
    written.put(count)
    arena.close()


class TestOneLoop:
    """A whole slab and per-object rows are groups of one read loop."""

    def test_a_slab_read_whole_equals_its_rows_read_one_by_one(self):
        """A writer in another process beats flat out into three rows of an
        ``shm-arena://`` slab.  One aggregator attaches the slab whole, the
        other each row as its own stream: under the writer no poll errs and
        no total falls, and once it stops both read every row alike."""
        ctx = mp.get_context("spawn")
        ready, stop = ctx.Event(), ctx.Event()
        written = ctx.Queue()
        arena = Arena.create(streams=4, depth=256)
        names = ("w0", "w1", "w2")
        for name in names:
            arena.allocate(name)
        child = ctx.Process(target=_row_writer, args=(arena.name, ready, stop, written))
        child.start()
        attached = None
        clock = ManualClock()
        try:
            assert ready.wait(60.0), "the writer process never came up"
            attached = Arena.attach(arena.name)
            with HeartbeatAggregator(clock=clock, liveness_timeout=5.0) as whole, HeartbeatAggregator(
                clock=clock, liveness_timeout=5.0
            ) as rows:
                whole.attach_arena(attached)
                for i, name in enumerate(names):
                    rows.attach_stream(name, arena.row(i))
                last = {id(whole): np.zeros(3, dtype=np.int64), id(rows): np.zeros(3, dtype=np.int64)}
                polls, start = 0, time.monotonic()
                while time.monotonic() - start < 1.0:
                    for agg in (whole, rows):
                        sample = agg.poll()
                        assert sample.errors == {} and sample.names == names
                        assert (sample.totals() >= last[id(agg)]).all()
                        last[id(agg)] = sample.totals().copy()
                    polls += 1
                stop.set()
                final = written.get(timeout=60.0)
                clock.time = final * _WRITER_DT + 0.5
                by_slab, by_row = whole.poll(), rows.poll()
                assert by_slab.names == by_row.names == names
                assert by_slab.total_beats() == by_row.total_beats() == final
                for name in names:
                    assert by_slab.reading(name) == by_row.reading(name)
                    assert by_slab.reading(name).status is HealthStatus.HEALTHY
                assert polls > 5 and int(last[id(whole)].sum()) > 0
        finally:
            stop.set()
            child.join(timeout=60.0)
            if attached is not None:
                attached.close()
            arena.close()
        assert child.exitcode == 0

    def test_a_closed_slab_fails_alone_in_a_mixed_poll(self, sim_clock, tmp_path):
        """A slab closed mid-run reports ``arena:<label>`` for its whole
        attachment and its own name for a per-object row in it; rows of
        other slabs, a mirrored ``file://`` stream among them, still read."""
        from repro.endpoints import FileEndpoint

        closing, other, local = Arena(streams=4, depth=16), Arena(streams=2, depth=16), MemoryBackend(16)
        log = FileBackend(tmp_path / "log.hblog", buffered=False)
        writers = [closing.allocate("a"), closing.allocate("b"), other.allocate("c"), local, log]
        for writer in writers:
            writer.set_default_window(4)
        for beat in range(3):
            for writer in writers:
                writer.append(beat, float(beat), 0, 1)
        try:
            with HeartbeatAggregator(clock=sim_clock) as agg:
                agg.attach_arena(closing, prefix="slab/")
                agg.attach_stream("mine", closing.row(1))
                agg.attach_stream("theirs", other.row(0))
                agg.attach_stream("local", local)
                agg.attach_endpoint(FileEndpoint(path=str(log.path)), name="log")
                sample = agg.poll()
                assert sample.names == ("mine", "theirs", "local", "log", "slab/a", "slab/b")
                assert sample.errors == {}
                closing.close()
                for writer in writers[2:]:
                    writer.append(3, 3.0, 0, 1)
                sample = agg.poll()
                assert sample.names == ("theirs", "local", "log")
                assert set(sample.errors) == {"arena:arena-0", "mine"}
                assert sample.totals().tolist() == [4, 4, 4]
                assert sample.rates().tolist() == pytest.approx([1.0, 1.0, 1.0])
        finally:
            log.close()
            other.close()


class TestMetrics:
    def test_streams_gauge_counts_every_stream_of_a_mixed_fleet(self, sim_clock):
        """``aggregator_streams`` is ``len(aggregator)``: per-object streams
        and attached slab rows alike, as ``/metrics`` renders it."""
        from repro.core.backends import Arena

        arena = Arena(streams=4, depth=8)
        for name in ("r0", "r1", "r2"):
            arena.allocate(name)
        with HeartbeatAggregator(clock=sim_clock) as agg:
            agg.attach_stream("object", Heartbeat(window=5, clock=sim_clock))
            agg.attach_arena(arena, prefix="slab/", own=True)
            agg.poll()
            assert len(agg) == 4
            gauge = [
                line for line in agg.metrics.render_text().splitlines()
                if line.startswith("aggregator_streams ")
            ]
            assert len(gauge) == 1 and float(gauge[0].split()[1]) == 4.0


class TestLifecycle:
    def test_close_idempotent_and_context_manager(self, sim_clock):
        with HeartbeatAggregator(clock=sim_clock) as agg:
            agg.attach_stream("s", Heartbeat(window=5, clock=sim_clock))
        agg.close()  # second close is a no-op

    def test_close_releases_shared_memory_readers(self, sim_clock):
        backend = SharedMemoryBackend(capacity=16)
        hb = Heartbeat(window=5, clock=sim_clock, backend=backend)
        agg = HeartbeatAggregator(clock=sim_clock)
        agg.attach_endpoint(f"shm://{backend.name}", name="shm")
        agg.close()
        hb.finalize()  # unlink succeeds because the reader already closed
