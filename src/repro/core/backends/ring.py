"""The single-writer ring kernel behind ``shm://`` segments and arena rows.

Both cross-process backends are the same object seen through different
headers: one writer, a 128-byte header carrying ``total`` (the publication
word), ``sequence`` (odd while a write is in progress), the default window
and the target range, and ``capacity`` record slots where beat *i* lives in
slot ``i % capacity``.  A :class:`Ring` is a reader's view of one such
object; the segment and the arena row each say where their header words are
and share everything else.

Reader protocol — *copy once, then bound the damage*:

1. **Capture** the header under the sequence word: read ``sequence``, copy
   the header fields, re-read ``sequence``.  Only this ~40-byte copy is ever
   retried, so a hot writer cannot starve it.
2. **Copy** the records wanted — the newest ``count`` ending at the captured
   ``total`` — exactly once, whatever the writer does meanwhile.
3. **Settle**: wait for an even ``sequence`` (every write that overlapped the
   copy is now published), re-read ``total``.  A write can only have landed
   in slots of beats older than ``total_after - capacity``, so just that
   prefix of the copy is dropped and ``retained`` is shortened to match.  A
   delta that lost records this way reports them as ``gap`` with
   ``resync=True``; the kept records are always contiguous and end at the
   captured ``total - 1``.

A reader therefore pays one copy of what it asked for, and a writer that laps
it costs it some of the oldest records — never a re-copy and never an error.
The writer still bumps ``sequence`` odd/even around every write: step 1 and
step 3 wait on it, :meth:`Ring.version` uses it as the change token, and
:meth:`repro.core.backends.arena.Arena.snapshot_since_all` and readers
built from the published byte layout validate against it.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.backends.base import (
    BackendSnapshot,
    DeltaSnapshot,
    SnapshotCursor,
    delta_bounds,
)
from repro.core.errors import BackendError
from repro.core.record import RECORD_DTYPE

__all__ = ["Ring"]

#: Polls of the sequence word before a read gives up on a writer that died
#: (or is stuck) mid-write: milliseconds to tens of them, by the host's
#: ``sleep(0)``, with the escalating sleeps below.
_ATTEMPTS = 256
_EMPTY = np.empty(0, dtype=RECORD_DTYPE)
_RECORD_SIZE = RECORD_DTYPE.itemsize


class Ring:
    """A reader's view of one single-writer ring (see the module docstring).

    ``words`` indexes the header as int64 words (``sequence_at`` and
    ``total_at`` name the two the protocol needs), ``header()`` makes one
    copy of ``(total, default_window, target_min, target_max)``, and
    ``slots`` is the byte view of the record slots.  Holds views only —
    whoever owns the mapping drops its rings before closing it.
    """

    __slots__ = ("words", "sequence_at", "total_at", "header", "slots", "capacity")

    def __init__(
        self,
        words: memoryview,
        sequence_at: int,
        total_at: int,
        header: Callable[[], tuple[int, int, float, float]],
        slots: memoryview,
    ) -> None:
        self.words = words
        self.sequence_at = sequence_at
        self.total_at = total_at
        self.header = header
        self.slots = slots
        self.capacity = len(slots) // _RECORD_SIZE

    def _copy_last(self, total: int, count: int) -> np.ndarray:
        """Copy the ``count`` records ending at beat ``total`` out of the slots.

        A byte copy (one ``memcpy``, two when the span wraps), which numpy
        then views as records — several times cheaper than a structured
        array copy, and the result owns its memory either way.
        """
        if count == 0:
            return _EMPTY[:0]
        slots, size = self.slots, _RECORD_SIZE
        start = (total - count) % self.capacity
        stop = start + count
        raw = bytearray(slots[start * size : stop * size])
        if stop > self.capacity:  # wrapped: the slice above stopped at the ring's end
            raw += slots[: (stop - self.capacity) * size]
        return np.frombuffer(raw, dtype=RECORD_DTYPE)

    def _quiet_sequence(self) -> int:
        """The sequence word once no write is in progress."""
        words, at = self.words, self.sequence_at
        for attempt in range(_ATTEMPTS):
            sequence = words[at]
            if not sequence & 1:
                return sequence
            # A single-record write is over in a few polls; after that yield
            # so a writer mid-batch (possibly sharing our GIL) can publish,
            # escalating to a real sleep if it stays odd.
            if attempt > 3:
                time.sleep(0.0001 if attempt % 32 == 31 else 0)
        raise BackendError("ring writer stayed mid-write; no consistent read")

    def capture(self) -> tuple[int, int, float, float]:
        """Consistent ``(total, default_window, target_min, target_max)``."""
        for _ in range(_ATTEMPTS):
            sequence = self._quiet_sequence()
            fields = self.header()
            if self.words[self.sequence_at] == sequence:
                return fields
        raise BackendError("could not capture a consistent ring header")

    def copy_newest(self, total: int, count: int) -> tuple[np.ndarray, int]:
        """Copy the ``count`` records ending at a captured ``total``, once.

        Returns ``(records, retained)``: what of the copy no overlapping
        write can have touched, and how many beats ending at ``total`` the
        ring still held once the copy was done.
        """
        records = self._copy_last(total, count)
        self._quiet_sequence()
        advanced = self.words[self.total_at] - total
        retained = max(min(total, self.capacity - advanced), 0)
        if count > retained:
            records = records[count - retained :]
        return records, retained

    def snapshot(self, n: int | None = None) -> BackendSnapshot:
        """The newest ``n`` retained records (all when ``None``)."""
        total, default_window, tmin, tmax = self.capture()
        retained = min(total, self.capacity)
        records, _ = self.copy_newest(total, retained if n is None else min(n, retained))
        return BackendSnapshot(
            records=records,
            total_beats=total,
            target_min=tmin,
            target_max=tmax,
            default_window=default_window,
        )

    def snapshot_since(
        self, cursor: SnapshotCursor | None = None
    ) -> tuple[DeltaSnapshot, SnapshotCursor]:
        """Delta read: copies only the records unseen by ``cursor``.

        A full read (``resync=True``) when there is no cursor, the writer
        lapped it, or it is ahead of the ring's own counter (restart).
        """
        total, default_window, tmin, tmax = self.capture()
        held = min(total, self.capacity)
        wanted, gap, resync = delta_bounds(cursor, total, held)
        records, retained = self.copy_newest(total, wanted)
        if retained != held:
            # The same cursor arithmetic against what survived the copy: a
            # clobbered prefix surfaces as gap + resync, nothing else changes.
            _, gap, resync = delta_bounds(cursor, total, retained)
        delta = DeltaSnapshot(
            records=records,
            total_beats=total,
            retained=retained,
            target_min=tmin,
            target_max=tmax,
            default_window=default_window,
            gap=gap,
            resync=resync,
        )
        return delta, SnapshotCursor(total=total)

    def version(self) -> tuple[int, int]:
        """Cheap change token ``(total, sequence)``, read without waiting.

        An in-progress write leaves the sequence odd, which can never equal
        a previously returned (even) value — so "unchanged" is always safe
        to trust and "changed" merely costs one delta read.
        """
        words = self.words
        return (words[self.total_at], words[self.sequence_at])
