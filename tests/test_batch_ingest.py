"""Tests for the batched heartbeat ingestion path.

Covers the ring's batched write (``MemoryBackend.append_many``),
``Backend.append_many`` on every backend, ``Heartbeat.heartbeat_batch`` edge
cases (empty, negative, oversized, closed) and the cross-process torn-read
retry guarantee under concurrent batched writes.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.clock import ManualClock
from repro.core import api
from repro.core.backends import FileBackend, MemoryBackend, SharedMemoryBackend
from repro.core.backends.shared_memory import SharedMemoryReader
from repro.core.errors import HeartbeatClosedError
from repro.core.heartbeat import Heartbeat
from repro.core.record import RECORD_DTYPE


def make_records(start: int, n: int, *, dt: float = 0.5, tag: int = 0) -> np.ndarray:
    records = np.empty(n, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(start, start + n)
    records["timestamp"] = np.arange(start, start + n) * dt
    records["tag"] = tag
    records["thread_id"] = 42
    return records


class TestPushMany:
    @pytest.mark.parametrize("capacity", [1, 3, 8, 64])
    @pytest.mark.parametrize("sizes", [(5,), (2, 3, 5), (8, 1), (3, 3, 3, 3), (70,)])
    def test_equivalent_to_sequential_appends(self, capacity, sizes):
        batched = MemoryBackend(capacity)
        sequential = MemoryBackend(capacity)
        start = 0
        for size in sizes:
            records = make_records(start, size)
            batched.append_many(records)
            for beat, timestamp, tag, thread_id in records.tolist():
                sequential.append(beat, timestamp, tag, thread_id)
            start += size
            assert batched.version()[0] == sequential.version()[0] == start
            assert np.array_equal(batched.snapshot().records, sequential.snapshot().records)

    def test_empty_batch_is_noop(self):
        backend = MemoryBackend(4)
        before = backend.version()
        backend.append_many(make_records(0, 0))
        assert backend.version() == before
        assert backend.snapshot().total_beats == 0

    def test_batch_larger_than_capacity_keeps_tail(self):
        backend = MemoryBackend(4)
        backend.append_many(make_records(0, 11))
        snap = backend.snapshot()
        assert snap.total_beats == 11
        assert list(snap.records["beat"]) == [7, 8, 9, 10]

    def test_wraparound_split_into_two_slices(self):
        backend = MemoryBackend(8)
        backend.append_many(make_records(0, 6))
        backend.append_many(make_records(6, 5))  # wraps: 2 at the end, 3 at the front
        assert list(backend.snapshot().records["beat"]) == list(range(3, 11))

    def test_strided_batch_lands_like_a_contiguous_one(self):
        backend = MemoryBackend(8)
        backend.append_many(make_records(0, 12)[::2])  # every other record: not contiguous
        assert list(backend.snapshot().records["beat"]) == [0, 2, 4, 6, 8, 10]

    def test_wrong_dtype_rejected(self):
        backend = MemoryBackend(4)
        with pytest.raises(ValueError):
            backend.append_many(np.zeros(3, dtype=np.float64))
        assert backend.snapshot().total_beats == 0


class TestAppendMany:
    @pytest.mark.parametrize("backend_kind", ["memory", "file", "shared_memory"])
    def test_batch_matches_sequential(self, backend_kind, tmp_path):
        def build(suffix):
            if backend_kind == "memory":
                return MemoryBackend(16)
            if backend_kind == "file":
                return FileBackend(tmp_path / f"batch-{suffix}.log")
            return SharedMemoryBackend(capacity=16)

        batched, sequential = build("a"), build("b")
        try:
            records = make_records(0, 10)
            batched.append_many(records)
            for beat, timestamp, tag, thread_id in records.tolist():
                sequential.append(beat, timestamp, tag, thread_id)
            snap_a, snap_b = batched.snapshot(), sequential.snapshot()
            assert snap_a.total_beats == snap_b.total_beats == 10
            assert np.array_equal(snap_a.records, snap_b.records)
        finally:
            batched.close()
            sequential.close()

    def test_shared_memory_oversized_batch_wraps(self):
        backend = SharedMemoryBackend(capacity=8)
        try:
            backend.append_many(make_records(0, 20))
            snap = backend.snapshot()
            assert snap.total_beats == 20
            assert list(snap.records["beat"]) == list(range(12, 20))
        finally:
            backend.close()

    def test_shared_memory_batch_is_one_seqlock_cycle(self):
        backend = SharedMemoryBackend(capacity=64)
        try:
            _, seq_before = backend.version()
            backend.append_many(make_records(0, 50))
            _, seq_after = backend.version()
            assert seq_after == seq_before + 2  # one odd/even pair for 50 records
        finally:
            backend.close()

    def test_base_fallback_loops_over_append(self):
        calls: list[int] = []

        class Recording(MemoryBackend):
            def append(self, beat, timestamp, tag, thread_id):
                calls.append(beat)
                super().append(beat, timestamp, tag, thread_id)

            append_many = None  # force the abstract-base implementation

        backend = Recording(16)
        from repro.core.backends.base import Backend

        Backend.append_many(backend, make_records(0, 4))
        assert calls == [0, 1, 2, 3]


class TestHeartbeatBatch:
    def test_batch_of_one_matches_heartbeat(self, manual_clock):
        a = Heartbeat(window=10, clock=manual_clock)
        b = Heartbeat(window=10, clock=manual_clock)
        manual_clock.time = 5.0
        assert a.heartbeat_batch(1, tag=3) == b.heartbeat(tag=3)
        ra, rb = a.get_history()[0], b.get_history()[0]
        assert (ra.beat, ra.timestamp, ra.tag) == (rb.beat, rb.timestamp, rb.tag)

    def test_returns_first_sequence_number(self, heartbeat):
        assert heartbeat.heartbeat_batch(5) == 0
        assert heartbeat.heartbeat_batch(3) == 5
        assert heartbeat.count == 8
        assert [r.beat for r in heartbeat.get_history()] == list(range(8))

    def test_zero_is_noop(self, heartbeat):
        assert heartbeat.heartbeat_batch(0) == 0
        assert heartbeat.count == 0
        heartbeat.heartbeat()
        assert heartbeat.heartbeat_batch(0) == 1
        assert heartbeat.count == 1

    @pytest.mark.parametrize("bad", [-1, -100])
    def test_negative_rejected(self, heartbeat, bad):
        with pytest.raises(ValueError):
            heartbeat.heartbeat_batch(bad)
        assert heartbeat.count == 0

    @pytest.mark.parametrize("bad", [1.5, "3", None])
    def test_non_int_rejected(self, heartbeat, bad):
        with pytest.raises(ValueError):
            heartbeat.heartbeat_batch(bad)

    def test_batch_larger_than_history_capacity(self, manual_clock):
        hb = Heartbeat(window=10, clock=manual_clock, history=16)
        manual_clock.time = 1.0
        assert hb.heartbeat_batch(100) == 0
        assert hb.count == 100
        history = hb.get_history()
        assert len(history) == 16
        assert [r.beat for r in history] == list(range(84, 100))

    def test_closed_heartbeat_rejected(self, heartbeat):
        heartbeat.finalize()
        with pytest.raises(HeartbeatClosedError):
            heartbeat.heartbeat_batch(4)

    def test_per_record_tags(self, heartbeat, manual_clock):
        manual_clock.time = 1.0
        heartbeat.heartbeat_batch(3, tag=[7, 8, 9])
        assert [r.tag for r in heartbeat.get_history()] == [7, 8, 9]

    def test_scalar_tag_broadcast(self, heartbeat, manual_clock):
        manual_clock.time = 1.0
        heartbeat.heartbeat_batch(3, tag=5)
        assert [r.tag for r in heartbeat.get_history()] == [5, 5, 5]

    def test_thread_id_override(self, heartbeat, manual_clock):
        manual_clock.time = 1.0
        heartbeat.heartbeat_batch(2, thread_id=77)
        assert {r.thread_id for r in heartbeat.get_history()} == {77}

    def test_first_batch_records_share_one_timestamp(self, heartbeat, manual_clock):
        manual_clock.time = 2.5
        heartbeat.heartbeat_batch(4)  # no preceding beat: nothing to spread over
        assert {r.timestamp for r in heartbeat.get_history()} == {2.5}
        assert heartbeat.last_timestamp() == 2.5

    def test_batch_timestamps_interpolated_since_last_beat(self, heartbeat, manual_clock):
        manual_clock.time = 1.0
        heartbeat.heartbeat()
        manual_clock.time = 3.0
        heartbeat.heartbeat_batch(4)
        ts = [r.timestamp for r in heartbeat.get_history()]
        assert ts == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])
        assert heartbeat.last_timestamp() == 3.0

    def test_rate_window_inside_one_batch_measures_throughput(self, manual_clock):
        """A window smaller than the batch must not read a zero span.

        Regression for the fast-producer-misclassified-as-SLOW scenario: a
        service batching 64 beats once per second really produces 64 beats/s
        and a 20-beat window must say so.
        """
        hb = Heartbeat(window=20, clock=manual_clock, history=1024)
        for second in range(5):
            manual_clock.time = float(second)
            hb.heartbeat_batch(64)
        assert hb.current_rate() == pytest.approx(64.0)

    def test_global_rate_counts_batched_beats(self, manual_clock):
        hb = Heartbeat(window=10, clock=manual_clock)
        manual_clock.time = 0.0
        hb.heartbeat_batch(50)
        manual_clock.time = 1.0
        hb.heartbeat_batch(51)
        # 101 beats spanning one second -> (101 - 1) / 1.0
        assert hb.global_heart_rate() == pytest.approx(100.0)

    def test_rate_across_batches(self, manual_clock):
        hb = Heartbeat(window=8, clock=manual_clock)
        for t in range(4):
            manual_clock.time = float(t)
            hb.heartbeat_batch(2)
        # Window of 8 spans timestamps 0,0,1,1,2,2,3,3 -> 7 intervals / 3 s.
        assert hb.current_rate() == pytest.approx(7.0 / 3.0)


class TestFunctionalBatchAPI:
    def test_hb_heartbeat_n(self):
        api.reset_registry()
        try:
            api.HB_initialize(window=20)
            assert api.HB_heartbeat_n(10) == 0
            assert api.HB_heartbeat() == 10
            assert api.HB_heartbeat_n(5, tag=2) == 11
            history = api.HB_get_history()
            assert len(history) == 16
            assert history[-1].tag == 2
        finally:
            api.reset_registry()

    def test_hb_heartbeat_n_local(self):
        api.reset_registry()
        try:
            api.HB_initialize(window=20)
            api.HB_initialize(window=20, local=True)
            assert api.HB_heartbeat_n(4, local=True) == 0
            assert api.HB_heartbeat_n(4, local=False) == 0
        finally:
            api.reset_registry()


class TestConcurrentBatchedWrites:
    def test_reader_never_sees_torn_batches(self):
        """A reader polling during batched writes sees only whole batches.

        The writer publishes each batch under a single seqlock cycle, so any
        consistent snapshot must contain a contiguous beat sequence whose
        newest record is ``total - 1`` — a snapshot catching half a batch
        would break one of those invariants.
        """
        backend = SharedMemoryBackend(capacity=256)
        clock = ManualClock()
        hb = Heartbeat(window=10, clock=clock, backend=backend)
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            t = 0.0
            while not stop.is_set():
                t += 0.001
                clock.time = t
                hb.heartbeat_batch(17)

        def reader():
            attached = SharedMemoryReader(backend.name)
            try:
                for _ in range(2000):
                    try:
                        snap = attached.snapshot()
                    except Exception as exc:  # starved or torn: a real failure
                        failures.append(f"snapshot raised: {exc!r}")
                        return
                    beats = snap.records["beat"]
                    if beats.shape[0] == 0:
                        continue
                    if int(beats[-1]) != snap.total_beats - 1:
                        failures.append(
                            f"newest beat {int(beats[-1])} != total-1 {snap.total_beats - 1}"
                        )
                    diffs = np.diff(beats)
                    if beats.shape[0] > 1 and not np.all(diffs == 1):
                        failures.append(f"non-contiguous beats: {beats.tolist()}")
                    # Whole-batch publication: the retained history always
                    # holds a multiple of the batch size (until eviction).
                    if snap.total_beats % 17 != 0:
                        failures.append(f"partial batch visible: {snap.total_beats}")
            finally:
                attached.close()

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        writer_thread.start()
        reader_thread.start()
        reader_thread.join()
        stop.set()
        writer_thread.join()
        hb.finalize()
        assert failures == []
