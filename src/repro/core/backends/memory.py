"""In-process heartbeat storage."""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.backends.arena import _ROW_POOL, Arena
from repro.core.backends.base import Backend
from repro.core.backends.ring import Ring
from repro.core.errors import InvalidWindowError
from repro.core.record import RECORD_DTYPE

__all__ = ["MemoryBackend"]

#: The private header, in an arena row's field order: ``total``, ``sequence``,
#: default window, ``target_min``, ``target_max``.
_TOTAL_AT, _SEQUENCE_AT, _WINDOW_AT, _HEADER_WORDS = 0, 1, 2, 5


class MemoryBackend(Ring, Backend):
    """Heartbeat storage private to the current process.

    This is the default backend: it has the lowest overhead and is sufficient
    whenever the observer lives in the same process as the producer (the
    "self-optimising application" configuration of the paper's Figure 1a, and
    all simulated-machine experiments).  It is a
    :class:`~repro.core.backends.ring.Ring` over a row of a private
    ``mem-arena`` slab, taken from one process-wide pool — the same writer,
    reader and layout a ``shm://`` segment and an arena row use — so observer
    threads read it lock-free while the producer keeps beating, and the
    observers read that row where it lies (:meth:`slab_row`).  The row goes
    back to the pool when the backend is garbage-collected, not at
    :meth:`close`: a closed backend keeps serving its final history.

    Parameters
    ----------
    capacity:
        Maximum number of records retained.  Must be a positive integer.
    storage:
        Optional pre-allocated contiguous structured array of dtype
        :data:`repro.core.record.RECORD_DTYPE` and length ``capacity``, used
        in place as the record slots (such a backend is no slab row, so
        observers mirror it).  When omitted the ring is a pooled row.
    total:
        Number of records ``storage`` already holds (in append order).  Lets
        a backend adopt pre-populated storage — e.g. the fleet benchmark
        sharing one deep synthetic history across thousands of streams —
        without replaying every append.  Requires ``storage``.
    """

    def __init__(
        self,
        capacity: int,
        *,
        storage: "np.ndarray | None" = None,
        total: int = 0,
    ) -> None:
        if not isinstance(capacity, (int, np.integer)) or isinstance(capacity, bool):
            raise InvalidWindowError(f"capacity must be an int, got {capacity!r}")
        if capacity <= 0:
            raise InvalidWindowError(f"capacity must be positive, got {capacity}")
        self._row: tuple[Arena, int] | None = None
        if storage is None:
            if total != 0:
                raise ValueError("total requires pre-populated storage")
            slab, index = _ROW_POOL.take(int(capacity))
            Ring.__init__(self, *slab.arena._ring_args(index))
            self._row = (slab.arena, index)
            weakref.finalize(self, _ROW_POOL.give, slab, index)
            return
        if storage.dtype != RECORD_DTYPE:
            raise ValueError(f"storage dtype must be {RECORD_DTYPE}, got {storage.dtype}")
        if len(storage) != capacity:
            raise ValueError(f"storage length {len(storage)} does not match capacity {capacity}")
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        header = memoryview(bytearray(_HEADER_WORDS * 8))
        words = header.cast("q")
        words[_TOTAL_AT] = int(total)
        Ring.__init__(
            self,
            words,
            header.cast("d"),
            _SEQUENCE_AT,
            _TOTAL_AT,
            _WINDOW_AT,
            memoryview(storage.view(np.uint8)),
            0,
            int(capacity),
        )

    def slab_row(self) -> tuple[Arena, int] | None:
        """The slab and row index this ring is (``None`` over caller storage)."""
        return self._row

    def close(self) -> None:
        # Nothing to release: the row outlives close (see the class docstring).
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryBackend(capacity={self.capacity}, total={self.total})"
