"""The paper's one call: ``Heartbeat.heartbeat()`` against the body it replaced.

``heartbeat()`` binds its backend's ``append`` on the first single beat,
swaps in a raiser on ``finalize()``, takes its lock with ``acquire``/
``release`` and checks its values before anything is stored.  The body it
had before lives here as ``reference_heartbeat``, the oracle: any
interleaving of single beats, batches and target updates leaves the ring's
bytes, header words and the stream's counters exactly where the oracle twin
leaves them.  The remaining tests pin what the rebinding must keep: a batch
before the first single beat, sinks with only ``append_many``, the closed
errors, ``thread_safe=False``, and that a rejected beat stores nothing.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import ManualClock
from repro.core.backends import Arena, MemoryBackend, SharedMemoryBackend
from repro.core.backends.ring import Ring
from repro.core.backends.shared_memory import SharedMemoryReader
from repro.core.errors import BackendError, HeartbeatClosedError
from repro.core.heartbeat import Heartbeat
from repro.core.record import RECORD_DTYPE
from repro.net import NetworkBackend

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def reference_heartbeat(hb: Heartbeat, tag: int = 0, *, thread_id: int | None = None) -> int:
    """``Heartbeat.heartbeat``'s body as it was: closed test, ``with`` lock, first-stamp test."""
    if hb._closed:
        raise HeartbeatClosedError(f"heartbeat {hb.name!r} is finalized")
    tid = threading.get_ident() if thread_id is None else int(thread_id)
    with hb._lock:
        now = hb._clock.now()
        beat = hb._count
        hb._backend.append(beat, now, int(tag), tid)
        hb._count += 1
        if hb._first_timestamp is None:
            hb._first_timestamp = now
        hb._last_timestamp = now
        return beat


def _ring_state(hb: Heartbeat) -> tuple[bytes, bytes]:
    """The ring's header words and every byte of its slots (the whole segment on shm)."""
    ring = hb.backend
    return ring.words.tobytes(), ring.slots.tobytes()


def _backend(kind: str, capacity: int):
    return MemoryBackend(capacity) if kind == "mem" else SharedMemoryBackend(capacity=capacity)


_TAGS = st.one_of(st.integers(INT64_MIN, INT64_MAX), st.integers(-5, 5))
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("beat"), st.floats(0.0, 2.0), _TAGS,
            st.one_of(st.none(), st.integers(INT64_MIN, INT64_MAX)),
        ),
        st.tuples(st.just("batch"), st.floats(0.0, 2.0), st.integers(0, 12), _TAGS),
        st.tuples(st.just("targets"), st.floats(0.0, 50.0), st.floats(50.0, 100.0)),
    ),
    min_size=1,
    max_size=40,
)


class TestOracle:
    @pytest.mark.parametrize("thread_safe", [True, False], ids=["locked", "unlocked"])
    @pytest.mark.parametrize("kind", ["mem", "shm"])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_any_interleaving_matches_the_old_body(self, kind, thread_safe, ops):
        clock = ManualClock()
        hb, twin = (
            Heartbeat(window=4, clock=clock, backend=_backend(kind, 8), thread_safe=thread_safe)
            for _ in range(2)
        )
        try:
            for op in ops:
                if op[0] == "targets":
                    hb.set_target_rate(op[1], op[2])
                    twin.set_target_rate(op[1], op[2])
                    continue
                clock.time = clock.time + op[1]
                if op[0] == "beat":
                    _, _, tag, tid = op
                    assert hb.heartbeat(tag, thread_id=tid) == reference_heartbeat(twin, tag, thread_id=tid)
                else:
                    _, _, n, tag = op
                    assert hb.heartbeat_batch(n, tag) == twin.heartbeat_batch(n, tag)
                assert _ring_state(hb) == _ring_state(twin)
                assert hb.count == twin.count
                assert hb.last_timestamp() == twin.last_timestamp()
                assert hb.global_heart_rate() == twin.global_heart_rate()
        finally:
            hb.finalize()
            twin.finalize()


class TestBinding:
    def test_a_batch_first_keeps_the_first_timestamp(self):
        clock = ManualClock(1.0)
        hb = Heartbeat(clock=clock)
        hb.heartbeat_batch(4)
        clock.time = 3.0
        hb.heartbeat()
        clock.time = 5.0
        hb.heartbeat()
        assert hb.global_heart_rate() == pytest.approx(5 / 4.0)  # (6 - 1) beats over 1.0 .. 5.0

    def test_a_batch_only_sink_still_works(self):
        class BatchOnly:
            capacity = 64

            def __init__(self) -> None:
                self.records = np.empty(0, dtype=RECORD_DTYPE)

            def append_many(self, records: np.ndarray) -> None:
                self.records = np.concatenate([self.records, records])

            def set_default_window(self, window: int) -> None:
                pass

            def close(self) -> None:
                pass

        sink = BatchOnly()
        hb = Heartbeat(clock=ManualClock(), backend=sink)
        assert hb.heartbeat_batch(3, 5) == 0
        with pytest.raises(AttributeError):  # nothing to bind: counted as nothing
            hb.heartbeat()
        assert hb.count == 3
        assert hb.heartbeat_batch(2) == 3
        assert list(sink.records["beat"]) == [0, 1, 2, 3, 4]
        hb.finalize()

    @pytest.mark.parametrize("beats_first", [0, 1, 5])
    @pytest.mark.parametrize("kind", ["mem", "shm"])
    def test_finalize_makes_every_beat_a_closed_error(self, kind, beats_first):
        hb = Heartbeat(clock=ManualClock(), backend=_backend(kind, 8))
        for _ in range(beats_first):
            hb.heartbeat()
        hb.finalize()
        for _ in range(2):
            with pytest.raises(HeartbeatClosedError):
                hb.heartbeat()
            with pytest.raises(HeartbeatClosedError):
                hb.heartbeat_batch(2)
        assert hb.count == beats_first
        hb.finalize()

    def test_a_beat_on_shm_binds_the_rings_own_append(self):
        """An ``shm://`` writer is the one-row arena's ``Ring`` itself: no row
        view's reload or record check sits on the beat path."""
        hb = Heartbeat(clock=ManualClock(), backend="shm://?depth=64")
        try:
            hb.heartbeat()
            assert isinstance(hb.backend, Ring)
            assert hb._append.__func__ is Ring.append
        finally:
            hb.finalize()

    def test_a_closed_segment_raises_from_every_method(self):
        backend = SharedMemoryBackend(capacity=8)
        reader = SharedMemoryReader(backend.name)
        bound = backend.append  # what a Heartbeat holds after its first beat
        bound(0, 0.0, 0, 1)
        reader.close()
        for call in (reader.snapshot, lambda: reader.snapshot_since(None), reader.version, reader.writer_pid):
            with pytest.raises(BackendError):
                call()
        reader.close()
        assert backend.snapshot().total_beats == 1  # the writer is untouched by a reader's close
        backend.close()
        calls = [
            lambda: bound(1, 1.0, 0, 1),
            lambda: backend.append(1, 1.0, 0, 1),
            lambda: backend.append_many(np.zeros(2, dtype=RECORD_DTYPE)),
            lambda: backend.set_targets(1.0, 2.0),
            lambda: backend.set_default_window(4),
            lambda: backend.snapshot(),
            lambda: backend.snapshot_since(None),
            lambda: backend.version(),
        ]
        for call in calls:
            with pytest.raises(BackendError):
                call()
        backend.close()

    def test_thread_safe_false_beats_batches_and_reads(self):
        clock = ManualClock()
        hb = Heartbeat(window=4, clock=clock, thread_safe=False)
        for step in range(6):
            clock.time = float(step)
            assert hb.heartbeat(step) == step
        clock.time = 9.0
        assert hb.heartbeat_batch(4) == 6  # stamped 6.0, 7.0, 8.0, 9.0
        assert hb.count == 10
        assert hb.current_rate() == pytest.approx(1.0)
        assert hb.global_heart_rate() == pytest.approx(1.0)
        assert [r.tag for r in hb.get_history(5)] == [5, 0, 0, 0, 0]
        hb.finalize()
        with pytest.raises(HeartbeatClosedError):
            hb.heartbeat()


# ---------------------------------------------------------------------- #
# A value a record cannot hold is rejected before anything is stored
# ---------------------------------------------------------------------- #
def _dead_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # bound then closed: a loopback port with no listener
    return port


@pytest.fixture(params=["mem", "shm", "mem-arena-row", "tcp-mirror"])
def wrapped(request):
    """A 4-slot ring that has wrapped: six beats, tags 0-5."""
    owned = []
    if request.param in ("mem", "shm"):
        backend = _backend(request.param, 4)
    elif request.param == "mem-arena-row":
        arena = Arena(streams=2, depth=4)
        owned.append(arena)
        backend = arena.allocate("row")
    else:
        backend = NetworkBackend(
            f"127.0.0.1:{_dead_port()}", stream="mirror", capacity=4, close_deadline=0.2
        )
    clock = ManualClock()
    hb = Heartbeat(clock=clock, backend=backend)
    for tag in range(6):
        clock.time = float(tag)
        hb.heartbeat(tag)
    clock.time = 6.0
    yield hb
    hb.finalize()
    for thing in owned:
        thing.close()


_BAD = [
    ({"tag": 1 << 70}, "tag-huge"),
    ({"tag": INT64_MAX + 1}, "tag-max+1"),
    ({"tag": INT64_MIN - 1}, "tag-min-1"),
    ({"tag": 0, "thread_id": 1 << 64}, "thread-id"),
]


class TestRejectedBeat:
    @pytest.mark.parametrize("bad", [b for b, _ in _BAD], ids=[i for _, i in _BAD])
    def test_the_ring_is_byte_identical_after_a_rejected_beat(self, wrapped, bad):
        hb = wrapped
        before = hb.get_history_array().tobytes(), hb.backend.version()
        with pytest.raises(OverflowError):
            hb.heartbeat(**bad)
        assert (hb.get_history_array().tobytes(), hb.backend.version()) == before
        assert hb.count == 6 and hb.last_timestamp() == 5.0
        assert [(r.beat, r.tag) for r in hb.get_history()] == [(2, 2), (3, 3), (4, 4), (5, 5)]
        hb.heartbeat(6)
        assert hb.current_rate() > 0  # still sorted: the rate reads fine
        assert [(r.beat, r.tag) for r in hb.get_history()] == [(3, 3), (4, 4), (5, 5), (6, 6)]

    @pytest.mark.parametrize("field", [2, 3], ids=["tag", "thread_id"])
    @pytest.mark.parametrize("wrapped", ["mem-arena-row", "tcp-mirror"], indirect=True)
    def test_checked_backends_reject_before_they_store(self, wrapped, field):
        """Arena rows and the exporter take values from any caller, so they
        check too; a bare ring leaves the check to its caller."""
        backend = wrapped.backend
        record = [6, 6.0, 0, 1]
        record[field] = 1 << 64
        before = backend.snapshot().records.tobytes(), backend.version()
        with pytest.raises(OverflowError):
            backend.append(*record)
        assert (backend.snapshot().records.tobytes(), backend.version()) == before
