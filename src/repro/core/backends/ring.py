"""The single-writer ring: the one circular buffer every backend stands on.

The paper stores heartbeats "in a circular buffer; when the buffer fills, old
heartbeats are simply dropped" (Section 3).  This module is that buffer, both
halves of it, for every place the tree keeps one: the in-process
:class:`~repro.core.backends.memory.MemoryBackend` (and with it the network
exporter's local mirror) and an arena row (and with it every collector
stream, and a ``shm://`` segment, which is a one-row arena).  They are the
same object seen through different headers: one writer, a header carrying
``total`` (the publication word), ``sequence`` (odd while a write is in
progress), the default window and the target range, and ``capacity`` record
slots where beat *i* lives in slot ``i % capacity``.  A :class:`Ring` is
told where its header words and its slots are and does everything else;
this docstring is the normative statement of the protocol and the other
modules only point here.

Writer protocol — *one sequence cycle per publication*:

1. take ``total`` and ``sequence`` from the ring object's own copy of the two
   words (:attr:`Ring.total`, :attr:`Ring.sequence`).  An object that is its
   ring's only writer for life — a ``MemoryBackend``, the creator of a
   ``shm://`` segment (the ring over its one row), a collector stream's
   row — never reads them back.  Where several objects may write one ring in
   turn — ``Arena.row(i)`` hands out any number of views of a row, in any
   process — each calls :meth:`Ring.reload` before it writes, because only
   the header's words are shared;
2. store ``sequence + 1`` (odd: write in progress);
3. place the records — one record packed in place, or a batch as one byte
   copy (two when it wraps; a batch larger than the ring keeps its tail, at
   the slots its records would have reached one by one, see
   :meth:`Ring.append_many`);
4. store the new ``total``;
5. store ``sequence + 2`` (even: published).  Every store of a word updates
   the object's copy with it.

A record's values must fit its int64 fields, the caller's precondition (a
check here would cost every beat): ``Heartbeat.heartbeat``, ``NetworkBackend.
append`` (its wire pack), ``ArenaRowView.append`` and ``FileBackend.append``
check before step 2 and raise ``OverflowError`` with nothing stored.  A value
slipping past them tears its slot; the word still goes even.

Targets and the default window are stored inside the same cycle with
``total`` unchanged.  There is exactly one writer per ring at a time: callers
that write from several threads serialise them (``Heartbeat``'s lock), and a
collector stream's row has one writer thread, the collector's event loop.

Reader protocol — *copy once, then bound the damage*:

1. **Capture** the header under the sequence word: read ``sequence``, copy
   the header fields, re-read ``sequence``.  Only this four-word copy is ever
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
it costs it some of the oldest records — never a re-copy, never a torn or
out-of-order record, and never an error.  The sequence word also serves
:meth:`Ring.version` as the change token;
:meth:`repro.core.backends.arena.Arena.snapshot_since_all` runs the protocol
for every row of a slab at once: step 1 as a vectorized capture tried twice,
a row a writer raced both times read alone by this class (``capture``, then
a copy of its rate window), then steps 2 and 3.  Readers built from the
published byte layout (``docs/arena.md``, the one a ``shm://`` segment has
too) validate against it.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.backends.base import (
    BackendSnapshot,
    DeltaSnapshot,
    SnapshotCursor,
    delta_bounds,
)
from repro.core.errors import BackendError, InvalidWindowError
from repro.core.record import RECORD_DTYPE, RECORD_STRUCT

__all__ = ["Ring"]

#: Polls of the sequence word before a read gives up on a writer that died
#: (or is stuck) mid-write: milliseconds to tens of them, by the host's
#: ``sleep(0)``, with the escalating sleeps below.
_ATTEMPTS = 256
_EMPTY = np.empty(0, dtype=RECORD_DTYPE)
_pack_record, _RECORD_SIZE = RECORD_STRUCT.pack_into, RECORD_STRUCT.size


class Ring:
    """One single-writer ring, both halves (see the module docstring).

    ``words`` and ``reals`` index one header as int64 and float64 words:
    ``sequence_at`` and ``total_at`` name the protocol's two words, and the
    default window, ``target_min`` and ``target_max`` sit at ``window_at``,
    ``+ 1`` and ``+ 2``.  The record slots are the ``capacity`` records of
    ``slots`` (a byte view) from byte ``slots_at``.  A ring only borrows its
    views — whoever owns the mapping releases them — so a ring over an
    owner's long-lived views may be kept for as long as the owner is open.
    ``total`` and ``sequence`` are the *writer's* copy of the two words;
    readers never use them.
    """

    __slots__ = (
        "words", "reals", "sequence_at", "total_at", "window_at", "slots", "slots_at", "capacity",
        "total", "sequence",
    )

    def __init__(
        self,
        words: memoryview,
        reals: memoryview,
        sequence_at: int,
        total_at: int,
        window_at: int,
        slots: memoryview,
        slots_at: int,
        capacity: int,
    ) -> None:
        self.words = words
        self.reals = reals
        self.sequence_at = sequence_at
        self.total_at = total_at
        self.window_at = window_at
        self.slots = slots
        self.slots_at = slots_at
        self.capacity = capacity
        self.reload()

    # ------------------------------------------------------------------ #
    # Writer half
    # ------------------------------------------------------------------ #
    def reload(self) -> None:
        """Take ``total`` and ``sequence`` from the header: what a writer does
        first when another object may have written this ring since it did."""
        self.total = self.words[self.total_at]
        self.sequence = self.words[self.sequence_at]

    def append(self, beat: int, timestamp: float, tag: int, thread_id: int) -> None:
        """Publish one record whose values fit its fields (the caller checks: see above)."""
        words, sequence_at, total = self.words, self.sequence_at, self.total
        sequence = self.sequence + 1
        words[sequence_at] = sequence  # odd: write in progress
        try:  # a broken precondition must not leave the word odd
            _pack_record(
                self.slots,
                self.slots_at + (total % self.capacity) * _RECORD_SIZE,
                beat, timestamp, tag, thread_id,
            )
            self.total = words[self.total_at] = total + 1
        finally:
            self.sequence = words[sequence_at] = sequence + 1  # even: write published

    def append_many(self, records: np.ndarray) -> None:
        """Publish a whole batch under a single sequence cycle.

        One odd/even pair covers the batch, so :meth:`version` moves once and
        a reader's settle wait sees one write, not one per record.
        """
        if records.dtype != RECORD_DTYPE:
            raise ValueError(f"records dtype must be {RECORD_DTYPE}, got {records.dtype}")
        count = records.shape[0]
        if count == 0:
            return
        data = records.tobytes()  # contiguous whatever the caller's strides
        words, sequence_at, total = self.words, self.sequence_at, self.total
        sequence = self.sequence + 1
        words[sequence_at] = sequence  # odd: write in progress
        # The bytes land where appending the records one by one would put
        # them: one slice, two when they wrap, and only the last ``capacity``
        # records of a batch larger than the ring.
        size, ring, base = len(data), self.capacity * _RECORD_SIZE, self.slots_at
        skip = max(size - ring, 0)
        start = (total * _RECORD_SIZE + skip) % ring
        first = min(size - skip, ring - start)
        self.slots[base + start : base + start + first] = data[skip : skip + first]
        if skip + first < size:  # wrapped: the rest continues from the ring's start
            self.slots[base : base + size - skip - first] = data[skip + first :]
        self.total = words[self.total_at] = total + count
        self.sequence = words[sequence_at] = sequence + 1  # even: write published

    def _store(self, view: memoryview, at: int, values: tuple[Any, ...]) -> None:
        """Store header fields ``view[at:]`` inside one sequence cycle."""
        words, sequence_at = self.words, self.sequence_at
        sequence = self.sequence + 1
        words[sequence_at] = sequence
        try:  # a value the word cannot hold must not leave the sequence odd
            for offset, value in enumerate(values):
                view[at + offset] = value
        finally:
            self.sequence = words[sequence_at] = sequence + 1

    def set_targets(self, target_min: float, target_max: float) -> None:
        """Publish the target heart-rate range."""
        self._store(self.reals, self.window_at + 1, (float(target_min), float(target_max)))

    def set_default_window(self, window: int) -> None:
        """Publish the producer's default rate window."""
        self._store(self.words, self.window_at, (int(window),))

    # ------------------------------------------------------------------ #
    # Reader half
    # ------------------------------------------------------------------ #
    def _copy_last(self, total: int, count: int) -> np.ndarray:
        """Copy the ``count`` records ending at beat ``total`` out of the slots.

        A byte copy (one ``memcpy``, two when the span wraps), which numpy
        then views as records — several times cheaper than a structured
        array copy, and the result owns its memory either way.
        """
        if count == 0:
            return _EMPTY[:0]
        slots, base, size = self.slots, self.slots_at, _RECORD_SIZE
        start = (total - count) % self.capacity
        stop = start + count
        raw = bytearray(slots[base + start * size : base + min(stop, self.capacity) * size])
        if stop > self.capacity:  # wrapped: the slice above stopped at the ring's end
            raw += slots[base : base + (stop - self.capacity) * size]
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
        words, reals, window_at = self.words, self.reals, self.window_at
        for _ in range(_ATTEMPTS):
            sequence = self._quiet_sequence()
            fields = (
                words[self.total_at], words[window_at], reals[window_at + 1], reals[window_at + 2]
            )
            if words[self.sequence_at] == sequence:
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
        if n is not None and n < 0:
            raise InvalidWindowError(f"n must be >= 0, got {n}")
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
