"""The producer half moves bytes: in-place batch records, frames copied out of the ring.

``Heartbeat.heartbeat_batch`` used to build its records from temporaries and
``NetworkBackend`` used to queue array copies and coalesce them with
``np.concatenate``; its send queue is now a cursor into the mirror ring.
The old bodies survive here only as oracles — ``reference_heartbeat_batch``
and the mirror's own ``snapshot()`` — and the tests hold the byte path to
them bit for bit: every batch size and tag shape, every interleaving of
appends, target updates and link flaps, frame coalescing, drop-oldest
trimming inside a batch and under a lapped copy, and arrays of any stride.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
import waiting
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import ManualClock
from repro.core.heartbeat import Heartbeat
from repro.core.record import RECORD_DTYPE
from repro.net import HeartbeatCollector, NetworkBackend, protocol
from repro.scenario import ChaosProxy


wait_until = partial(waiting.wait_until, timeout=10.0, interval=0.002)


def make_batch(n: int, start: int = 0) -> np.ndarray:
    records = np.empty(n, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(start, start + n)
    records["timestamp"] = 1.0 + 0.001 * np.arange(start, start + n)
    records["tag"] = np.arange(start, start + n) * 7
    records["thread_id"] = 1
    return records


# ---------------------------------------------------------------------- #
# (a) heartbeat_batch ≡ the body it replaced
# ---------------------------------------------------------------------- #
def reference_heartbeat_batch(first, n, previous, now, tag, tid) -> np.ndarray:
    """``heartbeat_batch``'s record construction as it was: temporaries, then fields."""
    records = np.empty(n, dtype=RECORD_DTYPE)
    records["beat"] = np.arange(first, first + n, dtype=np.int64)
    if previous is None or previous >= now:
        records["timestamp"] = now
    else:
        step = (now - previous) / n
        timestamps = previous + step * np.arange(1, n + 1)
        timestamps[-1] = now
        records["timestamp"] = timestamps
    records["tag"] = tag
    records["thread_id"] = tid
    return records


class KeepingBackend:
    """A sink that keeps every array it is handed (as the ledger's traced replay does)."""

    capacity = 1 << 20

    def __init__(self) -> None:
        self.batches: list[np.ndarray] = []

    def append_many(self, records: np.ndarray) -> None:
        self.batches.append(records)

    def set_default_window(self, window: int) -> None:
        pass

    def close(self) -> None:
        pass


class TestBatchRecordsEquivalence:
    def test_every_size_and_tag_shape_is_bitwise_the_old_body(self):
        clock = ManualClock()
        sink = KeepingBackend()
        hb = Heartbeat(window=10, clock=clock, backend=sink, thread_safe=False)
        rng = np.random.default_rng(7)
        expected: list[np.ndarray] = []
        first, previous = 0, None
        # n = 1..200 twice over: scalar tags, then per-record tags (array and list).
        for round_no, n in enumerate(list(range(1, 201)) * 2):
            # Irregular, sometimes zero, gaps: the first-ever batch and every
            # "previous >= now" batch take the all-at-now branch.
            if round_no % 5:
                clock.time = clock.time + float(rng.uniform(1e-6, 3.0))
            now = clock.time
            if round_no < 200:
                tag = int(rng.integers(-(1 << 40), 1 << 40))
            else:
                tag = rng.integers(0, 1 << 31, size=n)
                if n % 2:
                    tag = tag.tolist()
            tid = None if n % 3 else int(rng.integers(1, 1 << 40))
            assert hb.heartbeat_batch(n, tag, thread_id=tid) == first
            used_tid = sink.batches[-1]["thread_id"][0] if tid is None else tid
            expected.append(reference_heartbeat_batch(first, n, previous, now, tag, used_tid))
            first += n
            previous = now
            assert hb.count == first and hb.last_timestamp() == now
        assert len(sink.batches) == len(expected) == 400
        for got, want in zip(sink.batches, expected):
            assert got.dtype == RECORD_DTYPE and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
            assert got["timestamp"][-1] == want["timestamp"][-1]

    def test_batches_beyond_the_cached_ramps(self):
        clock = ManualClock()
        sink = KeepingBackend()
        hb = Heartbeat(clock=clock, backend=sink)
        hb.heartbeat_batch(3, thread_id=5)
        clock.time = 2.5
        hb.heartbeat_batch(10_000, 9, thread_id=5)
        want = reference_heartbeat_batch(3, 10_000, 0.0, 2.5, 9, 5)
        assert sink.batches[-1].tobytes() == want.tobytes()

    def test_backend_sees_a_distinct_array_every_call(self):
        sink = KeepingBackend()
        hb = Heartbeat(clock=ManualClock(), backend=sink)
        for _ in range(50):
            hb.heartbeat_batch(64)
        assert len({id(batch) for batch in sink.batches}) == 50
        for i, a in enumerate(sink.batches):
            assert list(a["beat"][[0, -1]]) == [64 * i, 64 * i + 63]  # none was overwritten
            assert not any(np.shares_memory(a, b) for b in sink.batches[i + 1 :])

    def test_wrong_length_tags_raise_before_anything_is_appended_or_counted(self):
        clock = ManualClock()
        sink = KeepingBackend()
        hb = Heartbeat(clock=clock, backend=sink)
        hb.heartbeat_batch(2)
        clock.time = 1.0
        with pytest.raises(ValueError):
            hb.heartbeat_batch(4, [1, 2, 3])
        assert len(sink.batches) == 1 and hb.count == 2 and hb.last_timestamp() == 0.0
        clock.time = 2.0
        hb.heartbeat_batch(4, [1, 2, 3, 4])
        got = sink.batches[-1]
        want = reference_heartbeat_batch(2, 4, 0.0, 2.0, [1, 2, 3, 4], got["thread_id"][0])
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------- #
# (b) any interleaving: collector ≡ mirror, and the books balance
# ---------------------------------------------------------------------- #
_OPS = st.lists(
    st.one_of(
        st.just(("append",)),
        st.tuples(st.just("many"), st.integers(1, 300)),
        st.tuples(st.just("targets"), st.floats(0.0, 50.0), st.floats(50.0, 100.0)),
        st.just(("flap",)),
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.network
class TestInterleavings:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS, max_batch=st.sampled_from([7, 64, 8192]))
    def test_collector_holds_the_mirrors_bytes(self, ops, max_batch):
        with HeartbeatCollector() as collector, ChaosProxy(collector.endpoint) as proxy:
            backend = NetworkBackend(
                proxy.endpoint, stream="mix", capacity=8192, max_batch_records=max_batch,
                flush_interval=0.005, backoff_initial=0.005, backoff_max=0.02,
            )
            appended = flaps = 0
            targets = (0.0, 0.0)
            link_up = False  # the exporter dials only when it has something to send

            def arrived() -> int:
                return next((s.total_beats for s in collector.streams() if s.stream_id == "mix"), 0)

            def books_balance() -> bool:
                stats = backend.stats()
                return stats["sent_records"] + stats["dropped_records"] + stats["pending_records"] == appended

            try:
                # The closing append redials after a trailing flap, and its
                # HELLO carries whatever targets a severed link swallowed.
                for op in [*ops, ("append",)]:
                    if op[0] == "append":
                        backend.append(appended, 1.0 + appended * 0.001, appended * 7, 1)
                        appended += 1
                        link_up = True
                    elif op[0] == "many":
                        backend.append_many(make_batch(op[1], start=appended))
                        appended += op[1]
                        link_up = True
                    elif op[0] == "targets":
                        targets = op[1:]
                        backend.set_targets(*targets)
                    elif link_up:
                        # At-most-once per in-flight frame: flap a quiet link.
                        assert wait_until(lambda: arrived() == appended)
                        flaps += 1
                        proxy.flap()
                        assert wait_until(lambda: proxy.stats()["links_severed"] >= flaps)
                        link_up = False
                    # A frame being sent is in neither tally for a moment.
                    assert wait_until(books_balance), backend.stats()
                assert wait_until(lambda: arrived() == appended), (arrived(), appended, backend.stats())
                assert backend.stats()["dropped_records"] == 0
                assert backend.stats()["connects"] >= flaps + 1
                got, want = collector.snapshot("mix"), backend.snapshot()
                assert got.records.tobytes() == want.records.tobytes()
                assert np.array_equal(got.records["beat"], np.arange(appended))
                assert wait_until(
                    lambda: (collector.snapshot("mix").target_min, collector.snapshot("mix").target_max) == targets
                )
            finally:
                backend.close()


# ---------------------------------------------------------------------- #
# (c)-(e) what reaches the wire, read off a raw socket
# ---------------------------------------------------------------------- #
class LateListener:
    """A bound port that refuses connections until :meth:`accept_frames` listens."""

    def __init__(self) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.endpoint = "127.0.0.1:%d" % self.sock.getsockname()[1]

    def accept_frames(self, records: int) -> list[np.ndarray]:
        """Listen, accept one producer, return its BATCH frames up to ``records`` records."""
        self.sock.listen(1)
        self.sock.settimeout(10.0)
        conn, _ = self.sock.accept()
        conn.settimeout(10.0)
        decoder = protocol.FrameDecoder()
        batches: list[np.ndarray] = []
        with conn:
            while sum(b.shape[0] for b in batches) < records:
                data = conn.recv(1 << 16)
                assert data, "producer hung up early"
                batches += [
                    protocol.decode_batch(frame.payload)
                    for frame in decoder.feed(data)
                    if frame.type == protocol.FRAME_BATCH
                ]
        return batches

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def listener():
    late = LateListener()
    yield late
    late.close()


def outage_backend(endpoint: str, **kwargs) -> NetworkBackend:
    options = dict(stream="raw", capacity=16384, flush_interval=0.005, backoff_initial=0.005, backoff_max=0.01)
    return NetworkBackend(endpoint, **{**options, **kwargs})


@pytest.mark.network
class TestWhatReachesTheWire:
    @pytest.mark.parametrize("max_batch", [100, 8192, 20_000])
    def test_backlog_coalesces_up_to_max_batch_records(self, listener, max_batch):
        backend = outage_backend(listener.endpoint, max_batch_records=max_batch)
        try:
            for i in range(200):
                backend.append_many(make_batch(64, start=64 * i))
            assert wait_until(lambda: backend.stats()["connect_failures"] >= 1)
            assert backend.stats()["pending_records"] == 12_800
            batches = listener.accept_frames(12_800)
            assert batches[0].shape[0] == min(12_800, max_batch)
            assert max(b.shape[0] for b in batches) <= max_batch
            assert np.concatenate(batches).tobytes() == make_batch(12_800).tobytes()
            assert wait_until(lambda: backend.stats()["sent_records"] == 12_800)
            assert backend.stats()["sent_batches"] == len(batches)
        finally:
            backend.close()

    def test_drop_oldest_trims_inside_a_chunk_on_record_boundaries(self, listener):
        backend = outage_backend(listener.endpoint, capacity=100)
        try:
            for i in range(3):
                backend.append_many(make_batch(64, start=64 * i))
            stats = backend.stats()
            assert (stats["pending_records"], stats["dropped_records"]) == (100, 92)
            batches = listener.accept_frames(100)
            assert np.concatenate(batches).tobytes() == make_batch(192)[92:].tobytes()
        finally:
            backend.close()

    def test_beats_that_lap_the_sender_s_copy_are_dropped_not_sent(self, listener, monkeypatch):
        """Beats landing between the sender's capture and its copy overwrite
        the oldest slots it is about to copy: those records count as dropped,
        and what reaches the wire is intact and in order."""
        from repro.core.backends.ring import Ring

        backend = outage_backend(listener.endpoint, capacity=16)
        real = Ring._copy_last

        def lap_then_copy(ring, total, count):
            monkeypatch.setattr(Ring, "_copy_last", real)
            backend.append_many(make_batch(10, start=16))
            return real(ring, total, count)

        try:
            backend.append_many(make_batch(16))
            monkeypatch.setattr(Ring, "_copy_last", lap_then_copy)
            batches = listener.accept_frames(16)
            assert np.concatenate(batches).tobytes() == make_batch(26)[10:].tobytes()
            assert wait_until(lambda: backend.stats()["sent_records"] == 16)
            assert backend.stats()["dropped_records"] == 10
        finally:
            backend.close()

    def test_single_beats_and_any_stride_arrive_intact(self, listener):
        backend = outage_backend(listener.endpoint)
        base = make_batch(90)
        columns = np.empty((30, 2), dtype=RECORD_DTYPE)
        columns[:, 0] = base[30:60]
        columns[:, 1] = base[60:90]  # never sent: the gaps of the non-contiguous column
        try:
            backend.append_many(base[0:20:2])  # a strided view
            backend.append_many(base[29:19:-1])  # a reversed one
            backend.append_many(columns[:, 0])  # a non-contiguous column
            backend.append(90, 1.09, 630, 1)
            want = np.concatenate([base[0:20:2], base[29:19:-1], base[30:60], make_batch(1, start=90)])
            batches = listener.accept_frames(want.shape[0])
            assert np.concatenate(batches).tobytes() == want.tobytes()
            assert backend.snapshot().records.tobytes() == want.tobytes()
        finally:
            backend.close()


# ---------------------------------------------------------------------- #
# An outage costs the beat path no thread hand-offs
# ---------------------------------------------------------------------- #
@pytest.mark.network
def test_sender_passes_track_time_not_appends_while_the_collector_is_down(listener):
    flush_interval = backoff = 0.05
    backend = NetworkBackend(
        listener.endpoint, stream="outage", capacity=1500,
        flush_interval=flush_interval, backoff_initial=backoff, backoff_max=4 * backoff,
    )
    passes = 0
    wait = backend._wake.wait

    def counting_wait(timeout=None):
        nonlocal passes
        passes += 1
        return wait(timeout)

    backend._wake.wait = counting_wait  # every pass of the sender loop starts here
    try:
        start = time.monotonic()
        for beat in range(2000):
            backend.append(beat, beat * 0.001, 0, 1)
            if beat % 20 == 0:
                time.sleep(0.002)  # ≈ 0.2 s of outage: time for hundreds of hand-offs
            stats = backend.stats()
            assert stats["pending_records"] + stats["dropped_records"] == beat + 1
            assert stats["sent_records"] == 0
        elapsed = time.monotonic() - start
        assert backend.stats()["dropped_records"] == 500
        assert passes <= elapsed / flush_interval + 3, f"{passes} sender passes in {elapsed:.2f} s"
        assert 1 <= backend.stats()["connect_failures"] <= elapsed / backoff + 2
    finally:
        backend.close()


@pytest.mark.network
def test_no_wake_up_is_lost_between_the_beat_thread_and_the_sender():
    """Wake-on-idle under contention: nothing may wait for the 30 s time-out."""
    per_producer, producers = 3000, 4  # eight threads with the senders, on two cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with HeartbeatCollector() as collector:
            backends = [
                NetworkBackend(collector.endpoint, stream=f"wake{i}", flush_interval=30.0, max_batch_records=16)
                for i in range(producers)
            ]

            def produce(backend: NetworkBackend) -> None:
                for beat in range(per_producer):
                    backend.append(beat, beat * 0.001, 0, 1)
                    if beat % 7 == 0:
                        time.sleep(0)  # let the queue run empty now and then

            threads = [threading.Thread(target=produce, args=(backend,)) for backend in backends]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=20.0)
                    assert not thread.is_alive()
                assert wait_until(
                    lambda: all(b.stats()["sent_records"] == per_producer for b in backends), timeout=5.0
                ), [b.stats() for b in backends]
                assert wait_until(
                    lambda: [info.total_beats for info in collector.streams()] == [per_producer] * producers,
                    timeout=5.0,
                ), collector.streams()
            finally:
                for backend in backends:
                    backend.close()
    finally:
        sys.setswitchinterval(interval)
