"""Tests for the circular heartbeat history, driven through ``MemoryBackend``.

The paper's circular buffer is :mod:`repro.core.backends.ring`; its plainest
owner is :class:`~repro.core.backends.MemoryBackend`, so the buffer's
behaviours (capacity validation, storage used in place, wrap and eviction,
last-``n`` clipping, copies not views) are pinned through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import MemoryBackend
from repro.core.errors import InvalidWindowError
from repro.core.record import RECORD_DTYPE


def fill(backend: MemoryBackend, count: int) -> None:
    for i in range(count):
        backend.append(i, float(i), i % 5, 1)


def beats(backend: MemoryBackend, n: int | None = None) -> list[int]:
    return list(backend.snapshot(n).records["beat"])


class TestConstruction:
    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidWindowError):
            MemoryBackend(0)
        with pytest.raises(InvalidWindowError):
            MemoryBackend(-3)

    def test_capacity_must_be_int(self):
        with pytest.raises(InvalidWindowError):
            MemoryBackend(2.5)  # type: ignore[arg-type]
        with pytest.raises(InvalidWindowError):
            MemoryBackend(True)  # type: ignore[arg-type]

    def test_external_storage_must_match(self):
        storage = np.zeros(8, dtype=RECORD_DTYPE)
        backend = MemoryBackend(8, storage=storage)
        assert backend.capacity == 8
        with pytest.raises(ValueError):
            MemoryBackend(4, storage=storage)
        with pytest.raises(ValueError):
            MemoryBackend(8, storage=np.zeros(8, dtype=np.float64))
        with pytest.raises(ValueError):
            MemoryBackend(8, storage=storage, total=-1)
        with pytest.raises(ValueError):
            MemoryBackend(8, total=3)  # a total needs the storage it counts

    def test_external_storage_is_used_in_place(self):
        storage = np.zeros(4, dtype=RECORD_DTYPE)
        backend = MemoryBackend(4, storage=storage)
        backend.append(0, 9.0, 0, 0)
        assert storage[0]["timestamp"] == 9.0
        batch = np.zeros(2, dtype=RECORD_DTYPE)
        batch["timestamp"] = (10.0, 11.0)
        backend.append_many(batch)
        assert list(storage["timestamp"][:3]) == [9.0, 10.0, 11.0]

    def test_prepopulated_storage_is_adopted_at_its_total(self):
        storage = np.zeros(4, dtype=RECORD_DTYPE)
        storage["beat"] = (4, 5, 2, 3)  # six appends into four slots
        backend = MemoryBackend(4, storage=storage, total=6)
        assert backend.snapshot().total_beats == 6
        assert beats(backend) == [2, 3, 4, 5]
        backend.append(6, 6.0, 0, 0)
        assert beats(backend) == [3, 4, 5, 6]


class TestAppendAndLength:
    def test_empty(self):
        snap = MemoryBackend(4).snapshot()
        assert snap.retained == 0
        assert snap.total_beats == 0
        assert snap.records.dtype == RECORD_DTYPE

    def test_partial_fill(self):
        backend = MemoryBackend(4)
        fill(backend, 3)
        snap = backend.snapshot()
        assert snap.retained == 3
        assert snap.total_beats == 3

    def test_wraps_and_evicts_oldest(self):
        backend = MemoryBackend(4)
        fill(backend, 10)
        snap = backend.snapshot()
        assert snap.retained == 4
        assert snap.total_beats == 10
        assert beats(backend) == [6, 7, 8, 9]


class TestReads:
    def test_last_orders_oldest_first(self):
        backend = MemoryBackend(8)
        fill(backend, 5)
        assert beats(backend) == [0, 1, 2, 3, 4]

    def test_last_n_clips_to_retained(self):
        backend = MemoryBackend(4)
        fill(backend, 3)
        assert backend.snapshot(100).retained == 3

    def test_last_n_after_wrap(self):
        backend = MemoryBackend(4)
        fill(backend, 7)
        assert beats(backend, 2) == [5, 6]

    def test_last_zero(self):
        backend = MemoryBackend(4)
        fill(backend, 3)
        snap = backend.snapshot(0)
        assert snap.retained == 0 and snap.total_beats == 3

    def test_last_negative_rejected(self):
        backend = MemoryBackend(4)
        with pytest.raises(InvalidWindowError):
            backend.snapshot(-1)

    def test_latest(self):
        backend = MemoryBackend(4)
        fill(backend, 6)
        assert beats(backend, 1) == [5]

    def test_timestamps(self):
        backend = MemoryBackend(8)
        fill(backend, 4)
        stamps = backend.snapshot().records["timestamp"]
        assert stamps.dtype == np.float64
        assert list(stamps) == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_wrap_boundary_exact_capacity(self):
        backend = MemoryBackend(4)
        fill(backend, 4)
        assert beats(backend) == [0, 1, 2, 3]
        backend.append(4, 4.0, 0, 0)
        assert beats(backend) == [1, 2, 3, 4]

    def test_last_array_is_a_copy(self):
        backend = MemoryBackend(4)
        fill(backend, 4)
        records = backend.snapshot().records
        records["timestamp"][:] = -1.0
        assert backend.snapshot(1).records["timestamp"][0] == 3.0


class TestPooledRow:
    """A backend's ring is a row of a private slab from one process-wide pool."""

    def test_a_row_outlives_close_and_goes_back_only_when_collected(self):
        import gc

        capacity = 4111  # a depth no other test uses: its chain is this test's
        backend = MemoryBackend(capacity)
        slab_row = backend.slab_row()
        assert slab_row is not None and slab_row[0].depth == capacity
        backend.set_default_window(7)
        backend.set_targets(1.0, 2.0)
        fill(backend, capacity + 5)
        backend.close()
        assert beats(backend, 3) == [capacity + 2, capacity + 3, capacity + 4]  # a closed backend serves its history
        other = MemoryBackend(capacity)
        assert other.slab_row() != slab_row  # the closed backend's row is still its own
        del backend
        gc.collect()
        reused = MemoryBackend(capacity)
        assert reused.slab_row() == slab_row  # given back when collected, and taken again
        snap = reused.snapshot()
        assert (snap.total_beats, snap.retained, snap.default_window) == (0, 0, 0)
        assert (snap.target_min, snap.target_max) == (0.0, 0.0)
        # The freed row's whole record pages went back to the OS: they read as zeros.
        middle = reused._copy_last(capacity // 2 + 64, 128)
        assert not middle["beat"].any() and not middle["timestamp"].any()
        fill(reused, 3)
        assert beats(reused) == [0, 1, 2]
        assert other.slab_row() != reused.slab_row()

    def test_caller_storage_is_no_row(self):
        assert MemoryBackend(4, storage=np.zeros(4, dtype=RECORD_DTYPE)).slab_row() is None
