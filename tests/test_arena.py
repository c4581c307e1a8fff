"""Arena slab tests: geometry, vectorized fleet reads, registry, wiring.

The per-row ``Backend`` conformance of ``ArenaRowView`` runs through the
shared delta/replay contract in ``test_delta.py``; this module covers what is
*new* about the arena — the single-slab layout, the vectorized
``snapshot_since_all`` fleet pass (and its exact equivalence with the scalar
per-stream read), the process-level endpoint registry, the aggregator /
collector fast paths, and a cross-process producer writing rows while an
observer polls the slab.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.clock import WallClock
from repro.core.aggregator import HeartbeatAggregator
from repro.core.backends import Arena, ArenaRowView
from repro.core.backends.arena import (
    ARENA_HEADER_SIZE,
    ROW_HEADER_SIZE,
    arena_size,
)
from repro.core.errors import BackendError, InvalidWindowError
from repro.core.heartbeat import Heartbeat
from repro.core.monitor import StreamDeltaState
from repro.core.record import RECORD_DTYPE
from repro.endpoints import (
    Endpoint,
    EndpointError,
    MemArenaEndpoint,
    ShmArenaEndpoint,
    open_arena,
    open_backend,
    open_source,
    stream_name_for,
)
from repro.net import HeartbeatCollector


def fill(row: ArenaRowView, beats: int, *, start: int = 0, dt: float = 0.5) -> None:
    for i in range(start, start + beats):
        row.append(i, i * dt, i % 3, 7)


class TestGeometry:
    def test_arena_size_formula(self):
        assert arena_size(10, 64) == (
            ARENA_HEADER_SIZE + 10 * ROW_HEADER_SIZE + 10 * 64 * RECORD_DTYPE.itemsize
        )

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(BackendError):
            Arena(streams=0, depth=16)
        with pytest.raises(BackendError):
            Arena(streams=4, depth=0)

    def test_allocate_until_full(self):
        with Arena(streams=2, depth=8) as arena:
            arena.allocate("a")
            arena.allocate("b")
            assert arena.occupancy == 1.0
            with pytest.raises(BackendError, match="full"):
                arena.allocate("c")

    def test_allocate_writes_the_whole_row_header(self):
        from repro.core.backends.arena import NAME_SIZE

        name = "é" * NAME_SIZE  # 2 * NAME_SIZE UTF-8 bytes: the header keeps the first NAME_SIZE
        with Arena(streams=3, depth=8) as arena:
            arena.allocate("first").append(1, 0.5, 0, 0)
            arena.allocate(name)
            header = arena._rows[1]
            words = ("total", "sequence", "default_window", "state")
            assert [header[field].tolist() for field in words] == [0, 0, 0, 1]
            assert header["target_min"] == header["target_max"] == 0.0 and header["reserved"].tolist() == [0, 0]
            assert header["name"] == name.encode()[:NAME_SIZE] and arena.row_names()[1] == name[: NAME_SIZE // 2]
            assert arena.rows_in_use == 2 and arena._rows[2]["state"] == 0 and arena.row(0).snapshot().total_beats == 1

    def test_row_names_and_views(self):
        with Arena(streams=4, depth=8) as arena:
            arena.allocate("x")
            arena.allocate()  # anonymous row
            assert arena.row_names() == ["x", ""]
            assert arena.row(0).name == "x"
            assert arena.rows_in_use == 2
            with pytest.raises(BackendError):
                arena.row(2)  # not allocated yet


class TestSnapshotSinceAll:
    def test_matches_scalar_reads_exactly(self):
        """The one equivalence that matters: fleet columns == per-row reads.

        Rate, totals, targets and last timestamps from the vectorized pass
        must match a ``StreamDeltaState`` consuming each row individually —
        same window-resolution rule, same cursor arithmetic — including rows
        that wrapped, rows still warming up, and empty rows.
        """
        with Arena(streams=6, depth=8) as arena:
            rows = [arena.allocate(f"s{i}") for i in range(5)]
            beats = [0, 1, 5, 8, 30]  # empty, warming, partial, full, lapped
            for row, n in zip(rows, beats):
                row.set_default_window(4)
                row.set_targets(1.0, 9.0)
                fill(row, n)
            fleet = arena.snapshot_since_all(None, window=0)
            for i, row in enumerate(rows):
                state = StreamDeltaState(0)
                state.consume(row.snapshot_since)
                assert fleet.totals[i] == state.total
                assert fleet.retained[i] == state.retained
                assert fleet.rate[i] == pytest.approx(state.rate, abs=1e-12)
                if state.last_ts is None or np.isnan(state.last_ts):
                    assert np.isnan(fleet.last_timestamp[i])
                else:
                    assert fleet.last_timestamp[i] == state.last_ts
                assert fleet.target_min[i] == state.tmin
                assert fleet.target_max[i] == state.tmax

    def test_cursor_delta_and_lap_resync(self):
        with Arena(streams=2, depth=8) as arena:
            row = arena.allocate("s")
            fill(row, 5)
            first = arena.snapshot_since_all(None)
            assert bool(first.resync[0]) and int(first.new[0]) == 5
            assert list(first.records_for(0)["beat"]) == [0, 1, 2, 3, 4]

            fill(row, 2, start=5)
            second = arena.snapshot_since_all(first.cursors)
            assert not bool(second.resync[0])
            assert list(second.records_for(0)["beat"]) == [5, 6]

            # 20 more beats into an 8-slot ring: the writer lapped the
            # cursor, so the delta declares gap + resync like any backend.
            fill(row, 20, start=7)
            third = arena.snapshot_since_all(second.cursors)
            assert bool(third.resync[0])
            assert int(third.gap[0]) == 27 - 7 - 8
            assert list(third.records_for(0)["beat"]) == list(range(19, 27))

    def test_new_rows_resync_with_short_cursor_vector(self):
        with Arena(streams=3, depth=8) as arena:
            fill(arena.allocate("a"), 3)
            fleet = arena.snapshot_since_all(None)
            fill(arena.allocate("b"), 2)
            # The old (length-1) cursor vector covers only row 0; row 1 is
            # brand new to this observer and must resync in full.
            fleet2 = arena.snapshot_since_all(fleet.cursors)
            assert fleet2.rows == 2
            assert int(fleet2.new[0]) == 0 and not bool(fleet2.resync[0])
            assert bool(fleet2.resync[1]) and int(fleet2.new[1]) == 2

    def test_include_records_false_skips_the_gather(self):
        with Arena(streams=2, depth=8) as arena:
            fill(arena.allocate("a"), 4)
            fleet = arena.snapshot_since_all(None, include_records=False)
            assert fleet.records.shape[0] == 0
            assert int(fleet.totals[0]) == 4  # columns still live

    def test_delta_for_bridges_to_per_stream_shapes(self):
        with Arena(streams=2, depth=8) as arena:
            fill(arena.allocate("a"), 3)
            fleet = arena.snapshot_since_all(None)
            delta, cursor = fleet.delta_for(0)
            assert delta.total_beats == 3 and delta.resync
            assert cursor.total == 3

    def test_window_validation(self):
        with Arena(streams=1, depth=8) as arena:
            with pytest.raises(InvalidWindowError):
                arena.snapshot_since_all(None, window=-1)
            with pytest.raises(InvalidWindowError):
                arena.snapshot_since_all(None, window=True)

    def test_closed_arena_raises(self):
        arena = Arena(streams=1, depth=8)
        arena.close()
        with pytest.raises(BackendError):
            arena.snapshot_since_all(None)


class TestEndpoints:
    def test_parse_roundtrip(self):
        ep = Endpoint.parse("shm-arena://fleet?streams=1000&depth=256&stream=svc")
        assert isinstance(ep, ShmArenaEndpoint)
        assert (ep.name, ep.streams, ep.depth, ep.stream) == ("fleet", 1000, 256, "svc")
        assert Endpoint.parse(str(ep)) == ep
        assert isinstance(Endpoint.parse("mem-arena://f"), MemArenaEndpoint)

    def test_shm_arena_requires_a_name(self):
        with pytest.raises(EndpointError):
            Endpoint.parse("shm-arena://?streams=8")

    def test_stream_name_for(self):
        assert stream_name_for("mem-arena://f?stream=svc") == "svc"
        assert stream_name_for("mem-arena://f") == "arena:f"

    def test_registry_shares_one_slab_per_url(self):
        a = open_arena("mem-arena://reg-test?streams=4&depth=8")
        assert open_arena("mem-arena://reg-test") is a
        with pytest.raises(BackendError, match="already open"):
            open_arena("mem-arena://reg-test?streams=64")

    def test_open_backend_allocates_named_rows(self):
        backend = open_backend("mem-arena://be-test?streams=4&depth=8", stream="svc-a")
        assert isinstance(backend, ArenaRowView)
        assert backend.name == "svc-a"
        arena = open_arena("mem-arena://be-test")
        assert arena.row_names() == ["svc-a"]

    def test_open_source_finds_rows_and_rejects_fleets(self):
        hb = Heartbeat(name="src-svc", backend="mem-arena://src-test?streams=4&depth=8")
        hb.heartbeat()
        source = open_source("mem-arena://src-test?stream=src-svc")
        assert source.snapshot().total_beats == 1
        with pytest.raises(EndpointError, match="fleet"):
            open_source("mem-arena://src-test")
        hb.finalize()


class TestAggregatorArenaPath:
    def test_slab_shard_classifies_like_per_object(self):
        with Arena(streams=8, depth=32) as arena:
            clock = WallClock(rebase=False)
            now = clock.now()
            for i in range(4):
                row = arena.allocate(f"svc-{i}")
                row.set_default_window(8)
                row.set_targets(5.0, 50.0)
                for b in range(10):
                    row.append(b, now - (9 - b) * 0.1, 0, 0)
            agg = HeartbeatAggregator(clock=clock, liveness_timeout=60.0)
            agg.attach_arena(arena, prefix="fleet/")
            try:
                sample = agg.poll()
                assert sorted(sample.names) == [f"fleet/svc-{i}" for i in range(4)]
                assert all(r.total_beats == 10 for _, r in sample)
                assert sample.reading("fleet/svc-0").rate == pytest.approx(10.0, rel=0.2)

                # A row allocated after attachment appears on the next poll.
                arena.allocate("late").append(0, clock.now(), 0, 0)
                assert "fleet/late" in agg.poll().names
            finally:
                agg.close()

    def test_attach_endpoint_routes_fleet_and_row_shapes(self):
        hb = Heartbeat(name="agg-svc", backend="mem-arena://agg-test?streams=4&depth=16")
        hb.heartbeat_batch(3)
        fleet_agg = HeartbeatAggregator()
        row_agg = HeartbeatAggregator()
        try:
            assert fleet_agg.attach_endpoint("mem-arena://agg-test") == ""
            assert row_agg.attach_endpoint("mem-arena://agg-test?stream=agg-svc") == "agg-svc"
            assert fleet_agg.poll().reading("agg-svc").total_beats == 3
            assert row_agg.poll().reading("agg-svc").total_beats == 3
        finally:
            fleet_agg.close()
            row_agg.close()
            hb.finalize()

    def test_dead_slab_lands_in_errors_not_exceptions(self):
        arena = Arena(streams=2, depth=8)
        arena.allocate("svc").append(0, 0.0, 0, 0)
        agg = HeartbeatAggregator()
        agg.attach_arena(arena)
        try:
            assert len(agg.poll().names) == 1
            arena.close()
            sample = agg.poll()
            assert sample.names == ()
            assert any(key.startswith("arena:") for key in sample.errors)
        finally:
            agg.close()

    def test_arena_metrics_registered(self):
        with Arena(streams=4, depth=8) as arena:
            arena.allocate("svc")
            agg = HeartbeatAggregator()
            agg.attach_arena(arena)
            try:
                agg.poll()
                rendered = agg.metrics.render_text()
                assert "aggregator_arena_streams" in rendered
                assert "aggregator_arena_occupancy" in rendered
                assert 'aggregator_poll_duration_seconds_count{path="arena"}' in rendered
            finally:
                agg.close()


class TestCollectorArenaMode:
    def test_streams_demux_into_slab_with_overflow_fallback(self):
        with Arena(streams=2, depth=64) as arena:
            with HeartbeatCollector(arena=arena) as collector:
                clock = WallClock(rebase=False)
                hbs = [
                    Heartbeat(name=f"svc-{i}", backend=collector.endpoint_url, clock=clock)
                    for i in range(3)
                ]
                try:
                    for hb in hbs:
                        for _ in range(5):
                            hb.heartbeat()
                    assert collector.wait_for_streams(3)
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        if sum(info.total_beats for info in collector.streams()) == 15:
                            break
                        time.sleep(0.01)
                    assert arena.rows_in_use == 2  # slab full after two streams
                    assert len(collector.unpooled_stream_ids()) == 1

                    agg = HeartbeatAggregator(clock=clock, liveness_timeout=60.0)
                    try:
                        agg.attach_collector(collector)
                        sample = agg.poll()
                        assert sorted(sample.names) == ["svc-0", "svc-1", "svc-2"]
                        assert all(r.total_beats == 5 for _, r in sample)
                    finally:
                        agg.close()
                finally:
                    for hb in hbs:
                        hb.finalize()


def _cross_process_producer(name: str, beats: int, done: object) -> None:
    arena = Arena.attach(name)
    try:
        # Rows were allocated by the creator; this process only appends.
        for b in range(beats):
            for i in range(arena.rows_in_use):
                arena.row(i).append(b, b * 0.25, 0, 0)
    finally:
        arena.close()
        done.put(True)  # type: ignore[attr-defined]


class TestCrossProcess:
    def test_producer_process_writes_while_observer_polls(self):
        """A producer process appends into slab rows while this process
        polls ``snapshot_since_all`` — cursors must advance monotonically,
        deltas must replay without loss, and the final totals must equal
        what the producer wrote."""
        beats, nrows = 200, 3
        arena = Arena.create(streams=nrows, depth=64)
        try:
            for i in range(nrows):
                arena.allocate(f"svc-{i}")
            done: multiprocessing.Queue = multiprocessing.Queue()
            proc = multiprocessing.Process(
                target=_cross_process_producer, args=(arena.name, beats, done)
            )
            proc.start()
            try:
                cursors = None
                seen = np.zeros(nrows, dtype=np.int64)
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    fleet = arena.snapshot_since_all(cursors)
                    assert fleet.rows == nrows
                    for i in range(nrows):
                        # No writer lap at depth 64 vs poll cadence, so every
                        # delta is an increment (or the first resync).
                        if bool(fleet.resync[i]):
                            seen[i] = int(fleet.new[i])
                        else:
                            seen[i] += int(fleet.new[i])
                        assert seen[i] + int(fleet.gap[i]) <= beats
                    cursors = fleet.cursors
                    assert np.all(cursors == fleet.totals)
                    if int(fleet.totals.min()) >= beats:
                        break
                assert done.get(timeout=60.0)
                final = arena.snapshot_since_all(cursors)
                assert list(final.totals) == [beats] * nrows
                assert int(final.new.sum()) == 0
            finally:
                proc.join(timeout=60.0)
        finally:
            arena.close()
